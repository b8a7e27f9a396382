import math

import numpy as np
import pytest

from conftest import random_spectrum
from helios import field
from helios.errors import CapacityError, DomainError
from helios.field import (
    default_cutoff,
    hankel_factors,
    low_pass,
    near_field_trace,
    norm_identity_check,
    sobolev_norm_sq,
    split_spectrum,
)
from helios.harmonics import CoefficientSpectrum, aggregate
from helios.specfun import hankel_magnitude_oracle, hankel_table

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def agg(*values):
    return np.array(values, dtype=float)


def test_zero_trace():
    values, radial_derivatives = near_field_trace(agg(0.0, 0.0, 0.0), k=4.0, R=1.0)
    assert values.shape == radial_derivatives.shape == (3,)
    assert np.all(values == 0)
    assert np.all(radial_derivatives == 0)


def test_monopole_closed_form():
    values, _ = near_field_trace(agg(1.0), k=4.0, R=1.0)
    # |u_0(R)| = k * sqrt(2/pi)/(kR) = sqrt(2/pi) at R = 1
    assert abs(values[0]) == pytest.approx(SQRT_2_OVER_PI, rel=1e-14)


def test_single_degree_against_oracle():
    values, _ = near_field_trace(agg(0.0, 0.0, 1.0), k=4.0, R=1.0)
    assert abs(values[2]) == pytest.approx(4.0 * hankel_magnitude_oracle(2, 4.0), rel=1e-10)


def test_trace_linearity():
    a = aggregate(random_spectrum(10, seed=0))
    b = aggregate(random_spectrum(10, seed=1))
    alpha, beta = 0.7, 1.9
    t_mixed, _ = near_field_trace(alpha * a + beta * b, 5.0, 1.2)
    t_a, _ = near_field_trace(a, 5.0, 1.2)
    t_b, _ = near_field_trace(b, 5.0, 1.2)
    assert np.allclose(t_mixed, alpha * t_a + beta * t_b, rtol=1e-12, atol=0)


def test_trace_of_a_matrix_equals_the_trace_of_each_row():
    magnitudes = np.array([aggregate(random_spectrum(12, seed=seed)) for seed in range(5)])
    ks = np.array([2.5, 4.0, 9.75, 31.0, 60.0])
    values, radial_derivatives = near_field_trace(magnitudes, ks, 1.3)
    assert values.shape == radial_derivatives.shape == magnitudes.shape
    for row, k, u, du in zip(magnitudes, ks, values, radial_derivatives):
        u_row, du_row = near_field_trace(row, k, 1.3)
        assert np.array_equal(u, u_row)
        assert np.array_equal(du, du_row)
    # the same bits with a Python float k
    u_row, du_row = near_field_trace(magnitudes[2], float(ks[2]), 1.3)
    assert np.array_equal(values[2], u_row) and np.array_equal(radial_derivatives[2], du_row)


def test_trace_is_the_hankel_formula():
    a = aggregate(random_spectrum(8, seed=3))
    h, hp = hankel_factors(8, 5.0, 1.2)
    values, radial_derivatives = near_field_trace(a, 5.0, 1.2)
    assert np.array_equal(values, 1j * 5.0 * a * h)
    assert np.array_equal(radial_derivatives, 1j * 5.0 * a * hp * 5.0)


def test_trace_derivative_never_forms_k_squared():
    # k^2 = 1e600 overflows, but H_n'(kR) ~ 1/(kR) keeps d/dr u_n ~ k a_n / R finite
    k, R = 1e300, 0.9
    _, radial_derivatives = near_field_trace(np.array([0.0, 7.07]), k, R)
    _, hp = hankel_factors(1, k, R)
    assert radial_derivatives[0] == 0
    assert radial_derivatives[1] == pytest.approx(1j * k * 7.07 * (k * hp[1]), rel=1e-15)


def test_trace_overflow_raises_capacity_error():
    # |u_0(R)| = a_0 sqrt(2/pi) / R = 8e308 exceeds the floating range
    with pytest.raises(CapacityError, match="near-field trace exceeds the floating range"):
        near_field_trace(np.array([1e308]), 1.0, 0.1)


# the three entry points that take an array indexed by degree, each with
# its arguments around the array
PER_DEGREE_ENTRY_POINTS = {
    "sobolev_norm_sq": lambda a: sobolev_norm_sq(a, 1, 1.0),
    "split_spectrum": lambda a: split_spectrum(a, 4.0, 1.0),
    "near_field_trace": lambda a: near_field_trace(a, np.full(np.shape(a)[:-1], 4.0), 1.0),
}


@pytest.mark.parametrize("entry", PER_DEGREE_ENTRY_POINTS.values(), ids=PER_DEGREE_ENTRY_POINTS)
def test_a_zero_dimensional_array_is_a_domain_error(entry):
    with pytest.raises(DomainError, match="indexed by degree along a last axis"):
        entry(np.array(1.0))


@pytest.mark.parametrize("entry", PER_DEGREE_ENTRY_POINTS.values(), ids=PER_DEGREE_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_is_a_domain_error(entry, bad):
    for array in (np.array([1.0, bad]), np.array([[1.0, 2.0], [bad, 1.0]])):
        with pytest.raises(DomainError, match="must be finite"):
            entry(array)
    if entry is PER_DEGREE_ENTRY_POINTS["sobolev_norm_sq"]:  # trace values are complex
        with pytest.raises(DomainError, match="must be finite"):
            entry(np.array([1.0, complex(1.0, bad)]))


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
    assert split_spectrum(aggregate(random_spectrum(25, seed=1)), kR, 1.0).N == N


def test_split_E_definition():
    split = split_spectrum(agg(1.0, 0.0, 0.0, math.exp(-5.0)), k=4.0, R=1.0)
    assert split.E == pytest.approx(5.0, rel=1e-12)


def test_split_zero_tail_gives_infinite_E():
    split = split_spectrum(agg(1.0, 2.0), k=9.0, R=1.0)
    assert split.N == 3
    assert split.eps2 == 0.0
    assert math.isinf(split.E)


def test_split_energy_conserved():
    spectrum = random_spectrum(14, seed=5)
    split = split_spectrum(aggregate(spectrum), 7.0, 1.3)
    assert split.eps1**2 + split.eps2**2 == pytest.approx(spectrum.energy(), rel=1e-12)


def test_split_overflow_raises_capacity_error():
    # eps1^2 = 2e308 at N = 1000; eps2^2 = 2e308 at N = 3
    for magnitudes, k, R in [(np.array([1e154, 1e154]), 1e5, 10.0),
                             (np.array([0.0] * 4 + [1e154, 1e154]), 9.0, 1.0)]:
        with pytest.raises(CapacityError, match="eps1 or eps2 exceeds the floating range"):
            split_spectrum(magnitudes, k, R)


def test_low_pass_idempotent():
    a = aggregate(random_spectrum(9, seed=2))
    once = low_pass(a, 4)
    twice = low_pass(once, 4)
    assert np.array_equal(once, twice)


def test_low_pass_identity_below_cutoff():
    a = aggregate(random_spectrum(5, seed=2))
    assert np.array_equal(low_pass(a, 9), a)


def test_low_pass_energy_contraction():
    a = aggregate(random_spectrum(12, seed=8))
    assert np.sum(low_pass(a, 6) ** 2) <= np.sum(a**2)


def test_low_pass_cuts_each_row_of_a_matrix():
    rows = np.arange(1.0, 25.0).reshape(3, 8)
    cut = low_pass(rows, 2)
    assert cut.shape == rows.shape
    assert np.array_equal(cut[:, :3], rows[:, :3])
    assert not cut[:, 3:].any()
    for row, cut_row in zip(rows, cut):
        assert np.array_equal(low_pass(row, 2), cut_row)
    assert rows[0, 7] == 8.0  # the input is left as it was


@pytest.mark.parametrize("obj", [np.array(1.0), [1.0, 2.0]], ids=["0-d array", "list"])
def test_low_pass_rejects_an_unsupported_object(obj):
    with pytest.raises(DomainError, match="^low_pass does not support"):
        low_pass(obj, 1)


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
            values, _ = near_field_trace(a, kR, 1.0)
            projected = low_pass(values, split.N)
            norm = math.sqrt(sobolev_norm_sq(projected, 0, 1.0))
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


@pytest.mark.parametrize("k, R, error, message", [
    (0.05, 1.0, DomainError, "kR = 0.05 below supported minimum 0.1"),
    (1e300, 1e10, CapacityError, "kR exceeds the floating range"),
    (math.nan, 1.0, DomainError, "k must be finite, got k=nan"),
    (-1.0, 1.0, DomainError, "k must be positive, got k=-1.0"),
    (4.0, math.inf, DomainError, "R must be finite, got R=inf"),
])
def test_the_kr_check_raises_alike_for_floats_and_arrays(k, R, error, message):
    # Python floats, numpy scalars, 0-d and 1-d arrays end in the same class
    # and message
    for form in (float, np.float64, np.array, lambda x: np.array([4.0, x])):
        with pytest.raises(error) as caught:
            default_cutoff(form(k), R)
        assert str(caught.value) == message


MISMATCHED_ROWS = (r"^k of shape \(3,\) does not broadcast over the leading axes of magnitudes "
                   r"of shape \(2, 61\)$")


@pytest.mark.parametrize("entry", [split_spectrum, near_field_trace], ids=lambda f: f.__name__)
def test_k_that_does_not_match_the_rows_is_a_domain_error(entry):
    with pytest.raises(DomainError, match=MISMATCHED_ROWS):
        entry(np.ones((2, 61)) * 0.01, np.array([4.0, 5.0, 6.0]), 1.0)


@pytest.mark.parametrize("k_shape", [(), (1,), (2,), (2, 1), (3, 1), (3, 2)])
def test_k_that_broadcasts_over_the_rows_is_accepted(k_shape):
    magnitudes = np.full((2, 5), 0.01)
    k = np.full(k_shape, 4.0)
    values, _ = near_field_trace(magnitudes, k, 1.0)
    assert values.shape == np.broadcast_shapes(k_shape, (2,)) + (5,)
    assert np.shape(split_spectrum(magnitudes, k, 1.0).eps1) == np.broadcast_shapes(k_shape, (2,))


def test_the_kr_check_returns_the_product():
    assert field.check_kR(4.0, 0.25) == 1.0
    assert field.check_kR(0.1, 1.0) == 0.1  # the floor itself is supported
    assert default_cutoff(2.0, 1.0) == 1 and isinstance(default_cutoff(2.0, 1.0), int)


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
