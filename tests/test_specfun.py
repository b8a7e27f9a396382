import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helios
from conftest import relative_table_error
from helios import bounds, field, specfun
from helios.errors import CapacityError, DomainError
from helios.specfun import (
    N_MAX_SUPPORTED,
    hankel_magnitude_oracle,
    hankel_table,
    hankel_value,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# mpmath (40 digits) evaluations of the finite sum, frozen
H1_2_MAG = 0.446031029038193  # |H_1(2)| = sqrt(2/pi)/2 * |1 + 0.5i|
H2_1_MAG = 2.876813695875797  # |H_2(1)| = sqrt(2/pi) * sqrt(13)
H10_5_MAG = 21.26850213780112


def test_n0_closed_form_value():
    assert abs(hankel_value(0, 2.0).value) == pytest.approx(SQRT_2_OVER_PI / 2.0, rel=1e-15)
    for t in (0.3, 1.0, 7.5, 120.0):
        assert abs(hankel_value(0, t).value) == pytest.approx(SQRT_2_OVER_PI / t, rel=1e-14)


def test_n0_closed_form_derivative():
    for t in (0.3, 1.0, 2.0, 7.5, 120.0):
        expected = SQRT_2_OVER_PI * math.sqrt(t * t + 1.0) / (t * t)
        assert abs(hankel_value(0, t).derivative) == pytest.approx(expected, rel=1e-14)


def test_two_term_sum():
    assert abs(hankel_value(1, 2.0).value) == pytest.approx(H1_2_MAG, rel=1e-14)


def test_three_term_sum():
    assert abs(hankel_value(2, 1.0).value) == pytest.approx(H2_1_MAG, rel=1e-14)
    assert abs(hankel_value(2, 1.0).value) == pytest.approx(
        SQRT_2_OVER_PI * math.sqrt(13.0), rel=1e-14
    )


def test_h0_prime_equals_minus_h1():
    for t in (0.2, 1.0, 2.0, 5.0, 50.0):
        assert hankel_value(0, t).derivative == pytest.approx(-hankel_value(1, t).value, rel=1e-14)


def test_derivative_matches_finite_difference():
    n, t, step = 2, 3.0, 1e-5
    fd = (hankel_value(n, t + step).value - hankel_value(n, t - step).value) / (2 * step)
    exact = hankel_value(n, t).derivative
    assert abs(fd - exact) / abs(exact) <= 1e-8


@pytest.mark.parametrize("n", [0, 1, 3, 7, 15, 30])
def test_finite_difference_grid(n):
    for t in np.logspace(np.log10(0.5), np.log10(200), 25):
        t = float(t)
        step = 1e-6 * t
        fd = (hankel_value(n, t + step).value - hankel_value(n, t - step).value) / (2 * step)
        exact = hankel_value(n, t).derivative
        assert abs(fd - exact) / abs(exact) <= 1e-8


def test_oracle_n0():
    assert hankel_magnitude_oracle(0, 2.0) == pytest.approx(SQRT_2_OVER_PI / 2.0, rel=1e-13)


def test_oracle_matches_finite_sum():
    assert hankel_magnitude_oracle(1, 2.0) == pytest.approx(H1_2_MAG, rel=1e-12)
    assert hankel_magnitude_oracle(10, 5.0) == pytest.approx(H10_5_MAG, rel=1e-12)
    a = abs(hankel_value(10, 5.0).value)
    b = hankel_magnitude_oracle(10, 5.0)
    assert abs(a - b) / b <= 1e-10


def test_cross_validation_grid():
    # independent recurrence oracle vs finite sum, full supported sweep
    ts = np.logspace(np.log10(0.5), np.log10(200), 200)
    for n in range(0, 41, 4):
        for t in ts:
            a = abs(hankel_value(n, float(t)).value)
            b = hankel_magnitude_oracle(n, float(t))
            assert abs(a - b) / b <= 1e-10


def test_monotone_decreasing_in_t():
    ts = np.logspace(np.log10(0.5), np.log10(200), 200)
    for n in (0, 1, 5, 20, 40):
        mags = [abs(hankel_value(n, float(t)).value) for t in ts]
        assert all(a > b for a, b in zip(mags, mags[1:]))


def test_magnitudes_never_vanish():
    for n in (0, 3, 25, 60):
        for t in (0.1, 1.0, 31.4, 200.0):
            h = hankel_value(n, t)
            assert abs(h.value) > 0
            assert abs(h.derivative) > 0


def test_domain_errors():
    with pytest.raises(DomainError):
        hankel_value(0, 0.0)
    with pytest.raises(DomainError):
        hankel_value(2, -1.0)
    with pytest.raises(DomainError):
        hankel_value(N_MAX_SUPPORTED + 1, 1.0)
    with pytest.raises(DomainError):
        hankel_value(-1, 1.0)
    with pytest.raises(DomainError):
        hankel_magnitude_oracle(61, 1.0)
    with pytest.raises(DomainError):
        hankel_magnitude_oracle(-1, 1.0)
    for t in (0.0, -1.0, -math.inf, math.inf, math.nan):
        with pytest.raises(DomainError):
            hankel_magnitude_oracle(3, t)


@pytest.mark.parametrize("t", [1e-3, 0.05, 1e3, 1e5, 1e11, 1e300])
def test_oracle_matches_the_finite_sum_with_no_range(t):
    # the closed form needs no argument range: check it below and above the
    # grid of criterion 1 (every order is representable at these t)
    for n in range(N_MAX_SUPPORTED + 1):
        a = abs(hankel_value(n, t).value)
        assert abs(hankel_magnitude_oracle(n, t) - a) / a <= 1e-10, (n, t)


def test_capacity_error_reported():
    # n = 60 at tiny t overflows the finite-sum terms well before 1e300,
    # and the magnitude itself is beyond the float range
    with pytest.raises(CapacityError):
        hankel_value(60, 1e-4)
    with pytest.raises(CapacityError):
        hankel_magnitude_oracle(60, 1e-4)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 40), t=st.floats(0.5, 200.0))
def test_property_cross_validation(n, t):
    a = abs(hankel_value(n, t).value)
    b = hankel_magnitude_oracle(n, t)
    assert a > 0
    assert abs(a - b) / b <= 1e-10


# ---------------------------------------------------------------------------
# Recurrence table against the finite-sum oracle

TABLE_TOL = 1e-13


def test_table_shape():
    values, derivatives = hankel_table(7, [0.5, 2.0, 9.0])
    assert values.shape == derivatives.shape == (8, 3)
    values, _ = hankel_table(0, 3.0)
    assert values.shape == (1, 1)


def test_table_matches_finite_sum():
    ts = np.logspace(np.log10(0.1), np.log10(200.0), 60)
    # out here the derivative divides by t on either side of a bracket of size t
    ts = np.append(ts, [1e100, 1e156, 1e160, 1e200, 1e300, 1.7e308])
    assert relative_table_error(N_MAX_SUPPORTED, ts) <= TABLE_TOL


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, N_MAX_SUPPORTED),
    ts=st.lists(st.floats(0.1, 200.0), min_size=1, max_size=4),
)
def test_property_table_matches_finite_sum(n, ts):
    values, derivatives = hankel_table(n, ts)
    for j, t in enumerate(ts):
        h = hankel_value(n, t)
        assert abs(values[n, j] - h.value) <= TABLE_TOL * abs(h.value)
        assert abs(derivatives[n, j] - h.derivative) <= TABLE_TOL * abs(h.derivative)


def test_table_h0_prime_is_minus_h1():
    values, derivatives = hankel_table(3, np.logspace(-1, 3, 50))
    assert np.array_equal(derivatives[0], -values[1])


def outcome(fn):
    """The error class fn raises, or None."""
    try:
        fn()
    except (DomainError, CapacityError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 30, 60, 61])
def test_table_raises_what_hankel_value_raises(n):
    ts = [1e-300, 1e-200, 1e-4, 1e-3, 0.1, 1.0, 200.0, 1e6, 1e200, 1.7e308]
    ts += [0.0, -1.0, math.inf, -math.inf, math.nan]
    for t in ts:
        expected = outcome(lambda: hankel_value(n, t))
        assert outcome(lambda: hankel_table(n, [t])) is expected, (n, t)


def test_table_checks_every_argument():
    # one bad argument among good ones fails the whole table
    with pytest.raises(CapacityError):
        hankel_table(60, [1.0, 1e-4])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            hankel_table(2, [1.0, bad])


@pytest.mark.parametrize("n", [1, 30, 60])
def test_table_capacity_boundary_matches_finite_sum(n):
    # bisect the argument below which hankel_value(n, .) fails, then check
    # that the table agrees on both sides of it
    fails, works = 1e-300, 10.0
    for _ in range(80):
        mid = math.sqrt(fails * works)
        if outcome(lambda: hankel_value(n, mid)) is None:
            works = mid
        else:
            fails = mid
    assert outcome(lambda: hankel_value(n, fails)) is CapacityError
    assert outcome(lambda: hankel_table(n, [fails])) is CapacityError
    values, derivatives = hankel_table(n, [works])
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(derivatives))
    h = hankel_value(n, works)
    assert abs(values[n, 0] - h.value) <= TABLE_TOL * abs(h.value)


def test_tiny_argument_is_a_capacity_error():
    # the derivative, about 1/t^2, is not representable; the magnitude,
    # sqrt(2/pi)/t, is, and the oracle returns it
    with pytest.raises(CapacityError):
        hankel_value(0, 1e-200)
    assert hankel_magnitude_oracle(0, 1e-200) == pytest.approx(SQRT_2_OVER_PI / 1e-200, rel=1e-15)


def fraction_sums(n, t):
    """S_n(t) and sum m*term_m as (re, im) float pairs, summed term by
    term in exact rationals and rounded once."""
    x = 1 / (2 * Fraction(t))
    s, ms = [Fraction(0)] * 2, [Fraction(0)] * 2
    for m in range(n + 1):
        c = math.factorial(n + m) // (math.factorial(m) * math.factorial(n - m))
        term = (1, 1, -1, -1)[m % 4] * c * x**m  # i^m splits into a sign and a part
        s[m % 2] += term
        ms[m % 2] += m * term
    return tuple(map(float, s)), tuple(map(float, ms))


FRACTION_TS = [*np.logspace(-3, 6, 19), *10.0 ** np.random.default_rng(5).uniform(-3, 6, 5),
               1.7e308]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 60])
def test_finite_sums_are_correctly_rounded(n):
    for t in map(float, FRACTION_TS):
        s, ms = specfun._finite_sums(n, t)
        assert ((s.real, s.imag), (ms.real, ms.imag)) == fraction_sums(n, t), (n, t)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_table_rows_equal_one_column_tables(seed):
    # an ensemble's traces read rows [:L+1] of one table over all its kR
    rng = np.random.default_rng(seed)
    ts = rng.uniform(2.0, 100.0, 40)
    values, derivatives = hankel_table(60, ts)
    for j, t in enumerate(ts):
        L = int(rng.integers(0, 61))
        h, hp = hankel_table(L, float(t))
        assert np.array_equal(values[: L + 1, j], h[:, 0])
        assert np.array_equal(derivatives[: L + 1, j], hp[:, 0])


@pytest.mark.parametrize("make", [
    lambda: helios.CoefficientSpectrum(2.0),
    lambda: helios.SphereGrid.build(2.0),
    lambda: hankel_value(1.5, 2.0),
    lambda: hankel_magnitude_oracle(1.5, 2.0),
    lambda: hankel_table(2.0, [1.0]),
    lambda: bounds.sweep(nmax=1.5),
    lambda: field.hankel_factors(2.5, 4.0, 1.0),
    lambda: field.low_pass(helios.CoefficientSpectrum(3), 1.5),
    lambda: specfun.require_order("3"),
], ids=["spectrum", "grid", "hankel-value", "oracle", "table", "sweep", "factors", "low-pass",
        "string"])
def test_a_non_integer_order_or_degree_is_a_domain_error(make):
    with pytest.raises(DomainError, match="must be an integer, got"):
        make()


def test_numpy_integers_and_bool_are_orders():
    assert hankel_value(np.int64(3), 2.0) == hankel_value(3, 2.0)
    assert hankel_value(True, 2.0) == hankel_value(1, 2.0)
    assert helios.CoefficientSpectrum(np.int64(2)).max_degree == 2
    assert field.low_pass(helios.CoefficientSpectrum(3), np.int64(70)).max_degree == 3
