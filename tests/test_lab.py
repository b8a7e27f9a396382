import math

import numpy as np
import pytest

from helios import lab, obstacle
from helios.errors import DomainError
from helios.harmonics import aggregate
from helios.lab import (
    DecayProfile,
    ensemble_verify,
    ksweep,
    make_real_perturbation,
    make_spectrum,
    mean_errors_by_k,
    perturb,
)

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
    assert np.allclose(agg.values, target, rtol=1e-12, atol=0)


def test_make_spectrum_deterministic():
    a = make_spectrum(CANONICAL_PROFILE)
    b = make_spectrum(CANONICAL_PROFILE)
    assert dict(a.items()) == dict(b.items())


def test_make_real_perturbation_properties():
    d = make_real_perturbation(DecayProfile("exponential", 0.6, 8, seed=5))
    assert d.conjugate_symmetry_residual() <= 1e-15
    agg = aggregate(d.spectrum)
    target = DecayProfile("exponential", 0.6, 8, seed=5).degree_magnitudes()
    assert np.allclose(agg.values, target, rtol=1e-12, atol=0)


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


def test_sweep_computes_factors_once_per_wavenumber(monkeypatch):
    # the forward map and every replicate's inverse share one gain per k
    calls = []
    real = obstacle.hankel_factors

    def counted(max_degree, k, R):
        calls.append(k)
        return real(max_degree, k, R)

    monkeypatch.setattr(obstacle, "hankel_factors", counted)
    d = make_real_perturbation(CANONICAL_PROFILE)
    for kind in ("soft", "hard"):
        calls.clear()
        rows = ksweep(d, 1.0, [8.0, 2.0, 4.0], delta=1e-3, seeds=5, kind=kind)
        assert len(rows) == 15
        assert calls == [2.0, 4.0, 8.0]


def test_ensemble_small():
    failures, min_slack = ensemble_verify(50, seed=0, which="T1")
    assert failures == 0
    assert min_slack > 0


@pytest.mark.parametrize("which, expected", [
    ("T1", (0, 0.01149756089581875)),
    ("T2", (0, 0.011501573040772487)),
    ("T1der", (0, 2.9816239692497066)),
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
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("max_degree", LOOP_DEGREES)
def test_perturb_matches_the_per_degree_loop(max_degree):
    spectrum = make_spectrum(DecayProfile("exponential", 0.7, max_degree, seed=3))
    for seed in range(5):
        child = np.random.SeedSequence(entropy=seed, spawn_key=(1, 2))
        noisy = perturb(spectrum, 1e-3, child).coefficients
        assert_matches_loop(noisy, loop_perturb(spectrum.coefficients, 1e-3, child))
