import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from helios import field, lab, obstacle, specfun
from helios.errors import CapacityError, DomainError
from helios.field import default_cutoff, sobolev_norm, sobolev_norm_sq, split_spectrum
from helios.harmonics import CoefficientSpectrum, aggregate, aggregate_bins, packed_index
from helios.lab import (
    DecayProfile,
    SweepRow,
    ensemble_verify,
    ksweep,
    make_real_perturbation,
    make_spectrum,
    mean_errors_by_k,
    perturb,
)
from helios.stability import (corollary_hard_terms, corollary_soft_terms, verify_magnitudes,
                              verify_theorem)

CANONICAL_PROFILE = DecayProfile("exponential", 1.0, 10, seed=7)


def test_profile_magnitudes():
    p = DecayProfile("exponential", 0.5, 3, seed=0, amplitude=2.0)
    mags = p.degree_magnitudes()
    assert mags[0] == pytest.approx(2.0)
    assert mags[2] == pytest.approx(2.0 * math.exp(-1.0))
    q = DecayProfile("algebraic", 2.0, 3, seed=0)
    assert q.degree_magnitudes()[3] == pytest.approx(1.0 / 16.0)
    # rate * n overflows to inf, and e^(-inf) = 0 is the magnitude
    steep = DecayProfile("exponential", 1e308, 3, seed=0).degree_magnitudes()
    assert steep.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_profile_validation():
    with pytest.raises(DomainError):
        make_spectrum(DecayProfile("exponential", -1.0, 3, seed=0))
    with pytest.raises(DomainError):
        make_spectrum(DecayProfile("exponential", 1.0, 99, seed=0))
    for max_degree in (-1, 61):  # packed_index checks the degree for both builders
        for make in (make_spectrum, make_real_perturbation):
            with pytest.raises(DomainError, match=r"^max_degree (must be nonnegative, got -1|"
                                                  r"61 exceeds supported maximum 60)$"):
                make(DecayProfile("exponential", 1.0, max_degree, seed=0))
    with pytest.raises(DomainError):
        DecayProfile("geometric", 1.0, 3, seed=0).degree_magnitudes()


def test_make_spectrum_matches_profile():
    spec = make_spectrum(CANONICAL_PROFILE)
    agg = aggregate(spec)
    target = CANONICAL_PROFILE.degree_magnitudes()
    assert np.allclose(agg, target, rtol=1e-12, atol=0)


def test_make_spectrum_deterministic():
    a = make_spectrum(CANONICAL_PROFILE)
    b = make_spectrum(CANONICAL_PROFILE)
    assert dict(a.items()) == dict(b.items())


def test_make_real_perturbation_properties():
    d = make_real_perturbation(DecayProfile("exponential", 0.6, 8, seed=5))
    assert d.conjugate_symmetry_residual() <= 1e-15
    agg = aggregate(d.spectrum)
    target = DecayProfile("exponential", 0.6, 8, seed=5).degree_magnitudes()
    assert np.allclose(agg, target, rtol=1e-12, atol=0)


def test_perturb_exact_energy():
    spec = make_spectrum(CANONICAL_PROFILE)
    delta = 1e-3
    noisy = perturb(spec, delta, seed=0)
    added = noisy - spec
    assert added.energy() == pytest.approx(delta * delta, rel=1e-12)


def test_perturb_zero_is_identity():
    spec = make_spectrum(CANONICAL_PROFILE)
    assert perturb(spec, 0.0, seed=0) is spec
    with pytest.raises(DomainError):
        perturb(spec, -1e-3, seed=0)


def canonical_sweep():
    d = make_real_perturbation(CANONICAL_PROFILE)
    return ksweep(
        d, R=1.0, k_list=[2.0, 4.0, 8.0, 16.0, 32.0, 64.0], delta=1e-3, seeds=20, master_seed=0
    )


def test_sweep_shape_and_budget():
    rows = canonical_sweep()
    assert len(rows) == 120
    ks = sorted({row.k for row in rows})
    assert ks == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    for row in rows:
        assert row.lhs <= row.rhs_total


def test_sweep_non_lipschitz_budget_decreases_in_k():
    rows = canonical_sweep()
    by_k = {}
    for row in rows:
        by_k.setdefault(row.k, []).append(row.rhs_holder + row.rhs_apriori)
    means = [float(np.mean(by_k[k])) for k in sorted(by_k)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_sweep_mean_error_nonincreasing():
    errors = mean_errors_by_k(canonical_sweep())
    values = list(errors.values())
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sweep_deterministic():
    assert canonical_sweep() == canonical_sweep()


@pytest.mark.parametrize("kind", ["soft", "hard"])
def test_sweep_rows_do_not_depend_on_the_replicate_count(kind):
    d = make_real_perturbation(CANONICAL_PROFILE)
    k_list = [8.0, 2.0, 30.0]
    three = ksweep(d, 1.0, k_list, delta=1e-3, seeds=3, kind=kind)
    five = ksweep(d, 1.0, k_list, delta=1e-3, seeds=5, kind=kind)
    assert three == [row for row in five if row.replicate < 3]


def test_sweep_validation():
    d = make_real_perturbation(CANONICAL_PROFILE)
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [], 1e-3, 5)
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [4.0], 1e-3, 0)
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [1.0], 1e-3, 5)  # kR < 2
    with pytest.raises(DomainError, match="kR >= 2"):
        ksweep(d, 1.0, [8.0, 1.5, 4.0], 1e-3, 2)  # not first in the list
    with pytest.raises(DomainError, match="kR"):
        ksweep(d, 1.0, [0.05, 4.0], 1e-3, 2)  # below the Hankel table's floor too
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [4.0], 1e-3, 5, kind="mixed")
    # every k is checked before the sort compares them and float() converts them
    for k_list, message in [
        ([10**400], "k must be finite, got a 1329-bit integer beyond the float range"),
        (["a"], "k must be a real number, got 'a'"),
        ([2.0, "a"], "k must be a real number, got 'a'"),
    ]:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ksweep(d, 1.0, k_list, 1e-3, 2)


@pytest.mark.parametrize("kind, error, message", [
    ("soft", CapacityError, "a recovered coefficient exceeds the floating range"),
    ("hard", CapacityError, "a-priori norm M2 exceeds the floating range"),
])
def test_several_failing_wavenumbers_raise_the_first_failing_stage(kind, error, message):
    # each stage runs over every wavenumber before the next starts, so the
    # inverse or the budget of k = 1e308 fails before the estimates reject
    # the kR = 1.65478 < 2 of k = 1 (which fails alone with a DomainError)
    d = make_real_perturbation(CANONICAL_PROFILE)
    with pytest.raises(DomainError, match="^estimates require kR >= 2, got kR = 1.65478$"):
        ksweep(d, 1.65478, [1.0], 1e-3, 2, kind=kind)
    for k_list in ([1.0, 1e308], [1e308, 1.0]):
        with pytest.raises(error) as caught:
            ksweep(d, 1.65478, k_list, 1e-3, 2, kind=kind)
        assert str(caught.value) == message


def test_sweep_builds_one_hankel_table(monkeypatch):
    # the forward maps and every replicate's inverse share one gain row per
    # k, and the gains of all wavenumbers come from one table
    calls = []
    real = specfun.hankel_table

    def counted(nmax, t):
        calls.append((nmax, np.array(t, dtype=float).tolist()))
        return real(nmax, t)

    for module in (specfun, field, obstacle):
        monkeypatch.setattr(module, "hankel_table", counted)
    d = make_real_perturbation(CANONICAL_PROFILE)
    for kind in ("soft", "hard"):
        calls.clear()
        rows = ksweep(d, 1.5, [8.0, 2.0, 4.0], delta=1e-3, seeds=5, kind=kind)
        assert len(rows) == 15
        assert calls == [(10, [3.0, 6.0, 12.0])]


def test_sweep_memory_peak_is_bounded():
    # slot-level arrays are one wavenumber's at a time: the traced peak of a
    # 6-wavenumber, 10-replicate sweep at degree 30 stays within 1.25 times
    # the 894 491 bytes of the sweep that built one gain per wavenumber
    # (Python 3.11, numpy 2.4)
    d = make_real_perturbation(DecayProfile("exponential", 0.4, 30, seed=3))
    k_list = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    ksweep(d, 1.0, k_list, 1e-3, 10, kind="hard")  # warm any cache first
    tracemalloc.start()
    try:
        ksweep(d, 1.0, k_list, 1e-3, 10, kind="hard")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 894_491


def test_sweep_and_ensemble_build_one_stream_per_wavenumber_and_one_per_ensemble(monkeypatch):
    # not one per replicate or member: the Generators are counted as built
    built = []
    real = np.random.default_rng

    def counted(seed=None):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    d = make_real_perturbation(CANONICAL_PROFILE)
    for seeds in (1, 5, 40):
        built.clear()
        assert len(ksweep(d, 1.0, [8.0, 2.0, 4.0], delta=1e-3, seeds=seeds)) == 3 * seeds
        assert [seed.spawn_key for seed in built] == [(1,), (2,), (0,)]  # ascending k
    for size in (1, 37, 400):
        built.clear()
        assert ensemble_verify(size, 3, "T1")[0] == 0
        assert [seed.spawn_key for seed in built] == [(0,)]  # the parameters, no normals


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_ensemble_members_do_not_depend_on_its_size(seed):
    # a member's report, not only its row, is the same in a smaller ensemble
    def columns(size, which):
        _, ks, magnitudes = lab.ensemble_magnitudes(size, seed, (2.5, 60.0))
        split, lhs, M, terms = verify_magnitudes(magnitudes, ks, 1.0, which)
        return np.array([split.N, split.eps1, split.eps2, split.E, lhs, M, *terms])

    for which in ("T1", "T2", "T1der"):
        large = columns(60, which)
        for size in (1, 7, 59):
            assert columns(size, which).tobytes() == large[:, :size].tobytes()


def test_ensemble_parameters_cover_their_ranges():
    max_degrees, ks, magnitudes = lab.ensemble_magnitudes(2000, 0, (2.5, 60.0))
    assert set(max_degrees) == set(range(1, 31))
    assert 2.5 <= min(ks) < 3.0 and 59.5 < max(ks) < 60.0
    norms = np.sqrt(np.sum(magnitudes * magnitudes, axis=1))
    assert 0.05 <= min(norms) < 0.06 and 0.94 < max(norms) < 0.95 + 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda d, s: lab.ensemble_magnitudes(3, 1.5, (2.0, 100.0)),
     "seed must be an integer, got 1.5"),
    (lambda d, s: lab.ensemble_magnitudes(3, -1, (2.0, 100.0)),
     "seed must be nonnegative, got -1"),
    (lambda d, s: lab.ensemble_magnitudes(2.0, 0, (2.0, 100.0)),
     "ensemble size must be an integer, got 2.0"),
    (lambda d, s: ksweep(d, 1.0, [4.0], 1e-3, 2, master_seed=1.5),
     "master_seed must be an integer, got 1.5"),
    (lambda d, s: ksweep(d, 1.0, [4.0], 1e-3, 2, master_seed=-1),
     "master_seed must be nonnegative, got -1"),
    (lambda d, s: ksweep(d, 1.0, [4.0], 1e-3, 2.5), "seeds must be an integer, got 2.5"),
    (lambda d, s: ksweep(d, 1.0, [4.0], 1e-3, 0), "seeds must be at least 1, got 0"),
    (lambda d, s: perturb(s, 1e-3, -1), "seed must be nonnegative, got -1"),
    (lambda d, s: perturb(s, 0.0, 0.5), "seed must be an integer, got 0.5"),
    (lambda d, s: make_spectrum(DecayProfile("exponential", 1.0, 3, seed=-2)),
     "profile seed must be nonnegative, got -2"),
    (lambda d, s: make_real_perturbation(DecayProfile("exponential", 1.0, 3, seed=2.0)),
     "profile seed must be an integer, got 2.0"),
])
def test_every_seed_and_count_is_a_nonnegative_integer(call, message):
    d = make_real_perturbation(CANONICAL_PROFILE)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(d, d.spectrum)


def test_perturb_takes_an_integer_or_a_seed_sequence():
    spectrum = make_spectrum(CANONICAL_PROFILE)
    for seed in (0, np.int64(0), np.random.SeedSequence(0)):
        assert (perturb(spectrum, 1e-3, seed).coefficients.tobytes()
                == perturb(spectrum, 1e-3, 0).coefficients.tobytes())


def test_a_bool_count_is_the_integer_it_is():
    # require_count accepts a bool; ksweep and the ensemble use the int it returns
    assert ensemble_verify(True, 0, "T1") == ensemble_verify(1, 0, "T1")
    assert ensemble_verify(3, True, "T1") == ensemble_verify(3, 1, "T1")
    d = make_real_perturbation(CANONICAL_PROFILE)
    assert (ksweep(d, 1.0, [4.0, 2.0], 1e-3, seeds=True, master_seed=True)
            == ksweep(d, 1.0, [4.0, 2.0], 1e-3, seeds=1, master_seed=1))


def test_ensemble_small():
    failures, min_slack = ensemble_verify(50, seed=0, which="T1")
    assert failures == 0
    assert min_slack > 0


@pytest.mark.parametrize("which, expected", [
    ("T1", (0, 0.010707661935397498)),
    ("T2", (0, 0.010707661935397498)),  # the same member, whose eps2 = 0 leaves no Hoelder term
    ("T1der", (0, 1.7221741218619275)),
])
def test_ensemble_verify_is_pinned(which, expected):
    assert ensemble_verify(1000, seed=0, which=which) == expected


def test_ensemble_validation():
    with pytest.raises(DomainError):
        ensemble_verify(0, seed=0, which="T1")
    with pytest.raises(DomainError):
        ensemble_verify(5, seed=0, which="T1", kr_range=(1.0, 10.0))


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_perturb_rejects_non_finite_delta(delta):
    with pytest.raises(DomainError):
        perturb(make_spectrum(CANONICAL_PROFILE), delta, seed=0)


def test_ensemble_rejects_non_finite_range():
    with pytest.raises(DomainError):
        ensemble_verify(3, seed=0, which="T1", kr_range=(2.0, math.inf))
    with pytest.raises(DomainError):
        ensemble_verify(3, seed=0, which="T1", kr_range=(math.nan, 10.0))


@pytest.mark.parametrize("rate, amplitude", [(math.nan, 1.0), (1.0, math.inf)])
def test_profile_rejects_non_finite(rate, amplitude):
    profile = DecayProfile("exponential", rate, 3, seed=0, amplitude=amplitude)
    with pytest.raises(DomainError):
        make_spectrum(profile)
    with pytest.raises(DomainError):
        make_real_perturbation(profile)


# The per-degree loops that the array generators replaced, frozen as the
# reference: the same random streams, and coefficients equal up to the
# order in which each degree's norm is summed.
def loop_spectrum(profile):
    rng = np.random.default_rng(np.random.SeedSequence(profile.seed))
    target = profile.degree_magnitudes()
    out = np.zeros((profile.max_degree + 1) ** 2, dtype=complex)
    for n in range(profile.max_degree + 1):
        raw = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        norm = float(np.linalg.norm(raw))
        if target[n] == 0.0 or norm == 0.0:
            continue
        out[n * n : (n + 1) ** 2] = raw * (target[n] / norm)
    return out


def loop_real_perturbation(profile):
    rng = np.random.default_rng(np.random.SeedSequence(profile.seed))
    target = profile.degree_magnitudes()
    out = np.zeros((profile.max_degree + 1) ** 2, dtype=complex)
    for n in range(profile.max_degree + 1):
        if target[n] == 0.0:
            continue
        draws = rng.standard_normal(2 * n + 1)
        half = draws[1::2] + 1j * draws[2::2]
        norm_sq = draws[0] ** 2 + 2.0 * float(np.sum(np.abs(half) ** 2))
        if norm_sq == 0.0:
            continue
        scale = target[n] / math.sqrt(norm_sq)
        center = n * n + n
        out[center] = draws[0] * scale
        out[center + 1 : center + n + 1] = half * scale
        m = np.arange(n, 0, -1)
        out[n * n : center] = (-1.0) ** m * np.conjugate(out[center + m])
    return out


def loop_normals(rng, max_degree):
    return np.concatenate([
        rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        for n in range(max_degree + 1)
    ])


def loop_perturb(coefficients, delta, seed):
    noise = loop_normals(np.random.default_rng(seed), math.isqrt(len(coefficients)) - 1)
    return coefficients + noise * (delta / math.sqrt(float(np.sum(np.abs(noise) ** 2))))


def assert_matches_loop(new, old):
    for part in ("real", "imag"):
        assert np.array_equal(getattr(new, part) == 0.0, getattr(old, part) == 0.0)
    large = np.abs(old) > 1e-290
    assert np.all(np.abs(new[large] - old[large]) <= 2e-15 * np.abs(old[large]))


LOOP_DEGREES = [0, 1, 7, 30, 60]
# (kind, rate, amplitude): a plain decay, amplitude 0, and a rate whose
# tail underflows to zero before degree 60
LOOP_PROFILES = [
    ("exponential", 0.7, 1.0), ("exponential", 0.7, 0.0), ("exponential", 20.0, 1.0),
    ("algebraic", 1.5, 1.0), ("algebraic", 1.5, 0.0), ("algebraic", 200.0, 1.0),
]


@pytest.mark.parametrize("max_degree", LOOP_DEGREES)
@pytest.mark.parametrize("kind, rate, amplitude", LOOP_PROFILES)
def test_generators_match_the_per_degree_loops(kind, rate, amplitude, max_degree):
    for seed in range(5):
        profile = DecayProfile(kind, rate, max_degree, seed=seed, amplitude=amplitude)
        assert_matches_loop(make_spectrum(profile).coefficients, loop_spectrum(profile))
        assert_matches_loop(make_real_perturbation(profile).spectrum.coefficients,
                            loop_real_perturbation(profile))


@pytest.mark.parametrize("max_degree", LOOP_DEGREES)
def test_draw_order_is_the_loops(max_degree):
    for seed in range(5):
        new = lab._complex_normals(np.random.default_rng(seed), max_degree)
        old = loop_normals(np.random.default_rng(seed), max_degree)
        assert new.shape == (1, (max_degree + 1) ** 2)
        assert new[0].tobytes() == old.tobytes()
        # count rows, each a spectrum's draws, following the previous row's
        rows = lab._complex_normals(np.random.default_rng(seed), max_degree, 3)
        rng = np.random.default_rng(seed)
        assert rows.tobytes() == np.array([loop_normals(rng, max_degree)
                                           for _ in range(3)]).tobytes()


@pytest.mark.parametrize("max_degree", LOOP_DEGREES)
def test_perturb_matches_the_per_degree_loop(max_degree):
    spectrum = make_spectrum(DecayProfile("exponential", 0.7, max_degree, seed=3))
    for seed in range(5):
        child = np.random.SeedSequence(entropy=seed, spawn_key=(1, 2))
        noisy = perturb(spectrum, 1e-3, child).coefficients
        assert_matches_loop(noisy, loop_perturb(spectrum.coefficients, 1e-3, child))


# The per-replicate sweep loop and the per-member ensemble builder that the
# batched versions replaced, frozen as the reference: the same streams and
# the same arithmetic, one replicate, wavenumber and member at a time, each
# replicate or member drawing in turn from its wavenumber's or ensemble's
# Generator. The batched versions must equal them bit for bit.
def frozen_perturb(spectrum, delta, seed):
    if delta == 0.0:
        return spectrum
    noise = CoefficientSpectrum.from_packed(
        loop_normals(np.random.default_rng(seed), spectrum.max_degree))
    return spectrum + noise.scaled(delta / math.sqrt(noise.energy()))


def frozen_aggregate(spectrum):
    return np.sqrt(np.bincount(spectrum.degrees, weights=np.abs(spectrum.coefficients) ** 2))


def frozen_truncated_inverse(amplitude, factors, n_cut):
    kept = amplitude.degrees <= n_cut
    d = np.zeros_like(amplitude.coefficients)
    d[kept] = amplitude.coefficients[kept] / factors[amplitude.degrees[kept]]
    return CoefficientSpectrum.from_packed(d)


def frozen_ksweep(d, R, k_list, delta, seeds, master_seed=0, kind="soft"):
    rows = []
    for k_index in sorted(range(len(k_list)), key=lambda i: k_list[i]):
        k = float(k_list[k_index])
        factors = obstacle.gain(kind, k, R, d.spectrum.max_degree)
        amplitude = obstacle.apply_gain(d.spectrum, factors)
        n_cut = default_cutoff(k, R)
        magnitudes = []
        rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed,
                                                           spawn_key=(k_index,)))
        for rep in range(seeds):
            noisy = frozen_perturb(amplitude, delta, rng)  # default_rng(rng) is rng
            recovered = frozen_truncated_inverse(noisy, factors, n_cut)
            magnitudes.append([frozen_aggregate(spectrum)
                               for spectrum in (noisy, recovered, recovered - d.spectrum)])
        noisy_rows, recovered_rows, error_rows = np.moveaxis(np.array(magnitudes), 1, 0)
        split = split_spectrum(noisy_rows, k, R)
        lhs = sobolev_norm_sq(recovered_rows, 0, R)
        d_norm1 = sobolev_norm(recovered_rows, 1, R)
        if kind == "soft":
            terms = corollary_soft_terms(split.eps1, split.eps2, split.E, k, R, d_norm1,
                                         variant="T2")
        else:
            terms = corollary_hard_terms(split.eps1, split.eps2, split.E, k, R, d_norm1)
        err = sobolev_norm(error_rows, 0, R)
        columns = (split.eps1, split.eps2, split.E, lhs, *terms, terms.total, err)
        for rep, values in enumerate(zip(*(column.tolist() for column in columns))):
            rows.append(SweepRow(k, rep, split.N, *values))
    return rows


def frozen_with_magnitudes(raw, target):
    spectrum = CoefficientSpectrum.from_packed(raw)
    norm = frozen_aggregate(spectrum)
    scale = np.divide(target, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return CoefficientSpectrum.from_packed(raw * scale[spectrum.degrees])


def frozen_make_spectrum(profile):
    raw = loop_normals(np.random.default_rng(np.random.SeedSequence(profile.seed)),
                       profile.max_degree)
    return frozen_with_magnitudes(raw, profile.degree_magnitudes())


def frozen_ensemble_magnitudes(size, seed, kr_range):
    lo, hi = kr_range
    params = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    max_degrees, ks, rows = [], [], []
    for _ in range(size):
        u = params.random(5).tolist()
        profile = DecayProfile(
            kind=["exponential", "algebraic"][int(2.0 * u[0])],
            rate=0.3 + 1.2 * u[1],
            max_degree=1 + int(30.0 * u[2]),
            seed=0,  # unused: an ensemble draws no normals
        )
        norm = 0.05 + 0.9 * u[4]
        # the closed-form magnitudes: the profile scaled to the target norm,
        # its squares summed over a row padded to degree 60
        target = np.zeros(61)
        target[: profile.max_degree + 1] = profile.degree_magnitudes()
        max_degrees.append(profile.max_degree)
        ks.append(lo + (hi - lo) * u[3])
        rows.append(target * (norm / math.sqrt(np.sum(target * target))))
    return max_degrees, np.array(ks), np.array(rows)


def drawn_members(size, seed, kr_range):
    """A (spectrum, k) pair for each row of `ensemble_magnitudes`: complex
    normals from one stream, rescaled to the row's magnitudes up to the
    member's max degree."""
    max_degrees, ks, magnitudes = lab.ensemble_magnitudes(size, seed, kr_range)
    rng = np.random.default_rng(seed)
    members = []
    for max_degree, k, row in zip(max_degrees, ks.tolist(), magnitudes):
        raw = lab._complex_normals(rng, max_degree)[0]
        coefficients = lab._with_degree_magnitudes(raw, packed_index(max_degree)[0],
                                                   row[: max_degree + 1])
        members.append((CoefficientSpectrum.from_packed(coefficients), k))
    return members


def bits(rows):
    """Every field of every row, as the bytes of a float (N and replicate too)."""
    return np.array([dataclasses.astuple(row) for row in rows], dtype=float).tobytes()


SWEEP_PROFILE = DecayProfile("algebraic", 1.3, 13, seed=11)


@pytest.mark.parametrize("kind", ["soft", "hard"])
@pytest.mark.parametrize("R, k_list", [(0.7, [12.9, 3.3, 41.7, 7.1]), (2.5, [5.5, 1.3, 23.0])])
@pytest.mark.parametrize("delta, seeds", [(1e-3, 4), (0.0, 3), (2e-2, 1)])
def test_sweep_equals_the_per_replicate_loop(kind, R, k_list, delta, seeds):
    d = make_real_perturbation(SWEEP_PROFILE)
    for master_seed in (0, 9):
        new = ksweep(d, R, k_list, delta, seeds, master_seed=master_seed, kind=kind)
        old = frozen_ksweep(d, R, k_list, delta, seeds, master_seed=master_seed, kind=kind)
        assert len(new) == len(k_list) * seeds
        assert bits(new) == bits(old)
        assert [type(row.N) for row in new] == [int] * len(new)


def test_the_canonical_sweep_equals_the_per_replicate_loop():
    d = make_real_perturbation(CANONICAL_PROFILE)
    for kind in ("soft", "hard"):
        args = (d, 1.0, [2.0, 4.0, 8.0, 16.0, 32.0, 64.0], 1e-3, 20)
        assert bits(ksweep(*args, kind=kind)) == bits(frozen_ksweep(*args, kind=kind))


@pytest.mark.parametrize("size, seed", [(1, 0), (1, 5), (37, 0), (37, 2024)])
def test_ensemble_equals_the_per_member_builder(size, seed):
    new = lab.ensemble_magnitudes(size, seed, (2.5, 60.0))
    old = frozen_ensemble_magnitudes(size, seed, (2.5, 60.0))
    assert new[0] == old[0]
    assert new[1].tobytes() == old[1].tobytes()
    assert new[2].tobytes() == old[2].tobytes()


@pytest.mark.parametrize("max_degree", LOOP_DEGREES)
def test_make_spectrum_equals_the_per_spectrum_builder(max_degree):
    for kind, rate, amplitude in LOOP_PROFILES:
        profile = DecayProfile(kind, rate, max_degree, seed=max_degree + 3, amplitude=amplitude)
        assert (make_spectrum(profile).coefficients.tobytes()
                == frozen_make_spectrum(profile).coefficients.tobytes())


@pytest.mark.parametrize("size", [1, 37])
def test_one_bincount_aggregates_each_member(size):
    # members of different degrees, concatenated, into bins member * width +
    # degree: each bin sums its slots in slot order, as aggregate does
    members = drawn_members(size, 7, (2.0, 100.0))
    width = 61
    bins = np.concatenate([j * width + spectrum.degrees for j, (spectrum, _) in enumerate(members)])
    magnitudes = aggregate_bins(np.concatenate([spectrum.coefficients for spectrum, _ in members]),
                                bins, size * width).reshape(size, width)
    for row, (spectrum, _) in zip(magnitudes, members):
        assert row[: spectrum.max_degree + 1].tobytes() == frozen_aggregate(spectrum).tobytes()
        assert not row[spectrum.max_degree + 1 :].any()


ENSEMBLE_RANGES = [(2.0, 100.0), (2.5, 60.0)]


@pytest.mark.parametrize("kr_range", ENSEMBLE_RANGES)
@pytest.mark.parametrize("seed", [0, 5, 2024])
@pytest.mark.parametrize("size", [1, 37, 1000])
def test_closed_form_magnitudes_are_the_member_aggregates(size, seed, kr_range):
    # ensemble_verify reads these rows; a spectrum drawn and rescaled to a
    # row aggregates back to it
    max_degrees, ks, magnitudes = lab.ensemble_magnitudes(size, seed, kr_range)
    members = drawn_members(size, seed, kr_range)
    assert magnitudes.shape == (size, 61)
    assert max_degrees == [spectrum.max_degree for spectrum, _ in members]
    for row, (spectrum, _) in zip(magnitudes, members):
        padded = np.zeros(61)
        padded[: spectrum.max_degree + 1] = aggregate(spectrum)
        assert np.array_equal(row == 0.0, padded == 0.0)
        assert np.all(np.abs(padded - row) <= 2e-15 * row)


@pytest.mark.parametrize("which", ["T1", "T2", "T1der"])
@pytest.mark.parametrize("size, seed, kr_range", [(1, 0, ENSEMBLE_RANGES[0]),
                                                  (200, 5, ENSEMBLE_RANGES[1]),
                                                  (1000, 2024, ENSEMBLE_RANGES[0])])
def test_ensemble_verify_equals_the_reports_of_drawn_members(which, size, seed, kr_range):
    failures, min_slack = ensemble_verify(size, seed, which, kr_range)
    _, ks, magnitudes = lab.ensemble_magnitudes(size, seed, kr_range)
    split, lhs, M, terms = verify_magnitudes(magnitudes, ks, 1.0, which)
    reports = [verify_theorem(spectrum, k, 1.0, which)
               for spectrum, k in drawn_members(size, seed, kr_range)]
    for j, report in enumerate(reports):
        assert report.inputs["N"] == split.N[j]
        assert [report.lhs, *report.rhs_terms] == pytest.approx(
            [lhs[j], *(term[j] for term in terms)], rel=1e-13, abs=0)
        assert [report.inputs[name] for name in ("eps1", "eps2", "E", "M2" if which == "T1der"
                                                 else "M1")] == pytest.approx(
            [split.eps1[j], split.eps2[j], split.E[j], M[j]], rel=1e-13, abs=0)
    assert failures == sum(not report.satisfied for report in reports)
    assert min_slack == pytest.approx(min(report.rhs_total - report.lhs for report in reports),
                                      rel=1e-13, abs=0)


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_closed_form_rows_do_not_depend_on_the_ensemble_size(seed):
    large = lab.ensemble_magnitudes(60, seed, (2.5, 60.0))
    for size in (1, 7, 59):
        max_degrees, ks, magnitudes = lab.ensemble_magnitudes(size, seed, (2.5, 60.0))
        assert max_degrees == large[0][:size]
        assert ks.tobytes() == large[1][:size].tobytes()
        assert magnitudes.tobytes() == large[2][:size].tobytes()
