import math

import numpy as np
import pytest

from helios import obstacle
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


def test_profile_validation():
    with pytest.raises(DomainError):
        make_spectrum(DecayProfile("exponential", -1.0, 3, seed=0))
    with pytest.raises(DomainError):
        make_spectrum(DecayProfile("exponential", 1.0, 99, seed=0))
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


def test_sweep_validation():
    d = make_real_perturbation(CANONICAL_PROFILE)
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [], 1e-3, 5)
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [4.0], 1e-3, 0)
    with pytest.raises(DomainError):
        ksweep(d, 1.0, [1.0], 1e-3, 5)  # kR < 2
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
