import math

import numpy as np
import pytest

from conftest import random_spectrum
from helios import field
from helios.errors import DomainError
from helios.field import (
    default_cutoff,
    hankel_factors,
    low_pass,
    near_field_trace,
    norm_identity_check,
    sobolev_norm_sq,
    split_spectrum,
)
from helios.harmonics import AggregateSpectrum, CoefficientSpectrum, aggregate
from helios.specfun import hankel_magnitude_oracle, hankel_table

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def agg(*values):
    return AggregateSpectrum(values=np.array(values, dtype=float))


def test_zero_trace():
    trace = near_field_trace(agg(0.0, 0.0, 0.0), k=4.0, R=1.0)
    assert np.all(trace.values == 0)
    assert np.all(trace.radial_derivatives == 0)


def test_monopole_closed_form():
    trace = near_field_trace(agg(1.0), k=4.0, R=1.0)
    # |u_0(R)| = k * sqrt(2/pi)/(kR) = sqrt(2/pi) at R = 1
    assert abs(trace.values[0]) == pytest.approx(SQRT_2_OVER_PI, rel=1e-14)


def test_single_degree_against_oracle():
    trace = near_field_trace(agg(0.0, 0.0, 1.0), k=4.0, R=1.0)
    assert abs(trace.values[2]) == pytest.approx(4.0 * hankel_magnitude_oracle(2, 4.0), rel=1e-10)


def test_trace_linearity():
    a = aggregate(random_spectrum(10, seed=0))
    b = aggregate(random_spectrum(10, seed=1))
    alpha, beta = 0.7, 1.9
    mixed = AggregateSpectrum(values=alpha * a.values + beta * b.values)
    t_mixed = near_field_trace(mixed, 5.0, 1.2)
    t_a = near_field_trace(a, 5.0, 1.2)
    t_b = near_field_trace(b, 5.0, 1.2)
    assert np.allclose(
        t_mixed.values, alpha * t_a.values + beta * t_b.values, rtol=1e-12, atol=0
    )


def test_sobolev_single_degree():
    R, c, n = 1.7, 2.5, 4
    values = np.zeros(6)
    values[n] = c
    assert sobolev_norm_sq(values, 0, R) == pytest.approx(R * R * c * c, rel=1e-14)
    assert sobolev_norm_sq(values, 1, R) == pytest.approx(
        R * R * (1.0 + (n / R) ** 2) * c * c, rel=1e-14
    )


@pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, math.inf])
def test_sobolev_norm_rejects_a_radius_that_is_not_positive_and_finite(R):
    with pytest.raises(DomainError, match="^R must be"):
        sobolev_norm_sq(np.ones(3), 1, R)


@pytest.mark.parametrize("l", [-1, 1.5])
def test_sobolev_norm_rejects_an_order_that_is_not_a_nonnegative_integer(l):
    with pytest.raises(DomainError, match="^Sobolev order l must be a nonnegative integer"):
        sobolev_norm_sq(np.ones(3), l, 1.0)


def test_sobolev_order_monotone():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert sobolev_norm_sq(values, 1, 2.0) >= sobolev_norm_sq(values, 0, 2.0)


def test_split_cutoff():
    split = split_spectrum(agg(1.0, 1.0, 1.0, 1.0, 1.0), k=4.0, R=1.0)
    assert split.N == 2
    assert split.eps1 == pytest.approx(math.sqrt(3.0))
    assert split.eps2 == pytest.approx(math.sqrt(2.0))


# perfect squares, the float just below 4, and a seeded spread of kR
CUTOFF_KR = [4.0, 9.0, 49.0, math.nextafter(4.0, 0.0),
             *np.random.default_rng(5).uniform(0.1, 400.0, 12).tolist()]


@pytest.mark.parametrize("kR", CUTOFF_KR)
def test_split_uses_the_default_cutoff(kR):
    N = default_cutoff(kR, 1.0)
    assert N * N <= kR < (N + 1) * (N + 1)
    assert split_spectrum(random_spectrum(25, seed=1), kR, 1.0).N == N


def test_split_E_definition():
    split = split_spectrum(agg(1.0, 0.0, 0.0, math.exp(-5.0)), k=4.0, R=1.0)
    assert split.E == pytest.approx(5.0, rel=1e-12)


def test_split_zero_tail_gives_infinite_E():
    split = split_spectrum(agg(1.0, 2.0), k=9.0, R=1.0)
    assert split.N == 3
    assert split.eps2 == 0.0
    assert math.isinf(split.E)


def test_split_energy_conserved():
    a = aggregate(random_spectrum(14, seed=5))
    split = split_spectrum(a, 7.0, 1.3)
    assert split.eps1**2 + split.eps2**2 == pytest.approx(a.energy(), rel=1e-12)


def test_low_pass_idempotent():
    a = aggregate(random_spectrum(9, seed=2))
    once = low_pass(a, 4)
    twice = low_pass(once, 4)
    assert np.array_equal(once.values, twice.values)


def test_low_pass_identity_below_cutoff():
    a = aggregate(random_spectrum(5, seed=2))
    assert np.array_equal(low_pass(a, 9).values, a.values)


def test_low_pass_energy_contraction():
    a = aggregate(random_spectrum(12, seed=8))
    assert low_pass(a, 6).energy() <= a.energy()


def test_low_pass_spectrum():
    spec = CoefficientSpectrum(4, {(0, 0): 1.0, (3, 2): 2.0})
    cut = low_pass(spec, 2)
    assert cut[0, 0] == 1.0
    assert cut[3, 2] == 0.0


def test_low_pass_rejects_negative():
    with pytest.raises(DomainError):
        low_pass(agg(1.0), -1)


def test_norm_identity_zero():
    lhs, rhs = norm_identity_check(CoefficientSpectrum(3), 4.0, 1.0)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == 0.0


def test_norm_identity_single_degree(grid20):
    spec = CoefficientSpectrum(2, {(2, -1): 1.5, (2, 2): 0.5j})
    lhs, rhs = norm_identity_check(spec, 4.0, 1.0, grid=grid20)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_norm_identity_random(grid20):
    for seed in range(10):
        spec = random_spectrum(10, seed=seed)
        lhs, rhs = norm_identity_check(spec, 3.0 + seed, 1.0, grid=grid20)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_low_pass_lipschitz_bound():
    # projector norm vs sqrt(2)*e/sqrt(pi) * eps1 at N = floor(sqrt(kR))
    const = math.sqrt(2.0) * math.e / math.sqrt(math.pi)
    for seed in range(20):
        a = aggregate(random_spectrum(15, seed=seed))
        for kR in (2.0, 5.0, 30.0, 100.0):
            split = split_spectrum(a, kR, 1.0)
            trace = near_field_trace(a, kR, 1.0)
            projected = low_pass(trace, split.N)
            norm = math.sqrt(sobolev_norm_sq(projected.values, 0, 1.0))
            assert norm <= const * split.eps1


def test_kr_domain_guard():
    with pytest.raises(DomainError):
        near_field_trace(agg(1.0), k=0.01, R=1.0)


def test_kr_rejects_non_finite():
    for k, R in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf)):
        with pytest.raises(DomainError):
            hankel_factors(3, k, R)


def test_hankel_factors_is_a_table_column():
    h, hp = hankel_factors(12, 3.0, 1.5)
    values, derivatives = hankel_table(12, [4.5])
    assert np.array_equal(h, values[:, 0])
    assert np.array_equal(hp, derivatives[:, 0])


def test_norm_identity_computes_factors_once(monkeypatch, grid20):
    calls = []
    real = field.hankel_factors

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(field, "hankel_factors", counted)
    lhs, rhs = norm_identity_check(random_spectrum(6, seed=1), 5.0, 1.0, grid=grid20)
    assert len(calls) == 1
    assert abs(lhs - rhs) <= 1e-9 * rhs
