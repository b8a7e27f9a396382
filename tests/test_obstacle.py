import math

import numpy as np
import pytest

from helios.errors import CapacityError, DomainError
from helios.field import hankel_factors
from helios.harmonics import CoefficientSpectrum
from helios.lab import DecayProfile, make_real_perturbation
from helios.obstacle import (
    BoundaryPerturbation,
    apply_gain,
    default_cutoff,
    forward_hard,
    forward_product,
    forward_soft,
    gain,
    incident_trace,
    invert_hard,
    invert_soft,
)

# mpmath (40 digits), frozen: |a_00| for a unit d_00 at k = 4, R = 1
SOFT_GAIN_K4 = 5.1675465702316842   # sqrt(17 pi / 2)
HARD_GAIN_K4 = 1.1795897762969414   # 16 / (17 sqrt(2/pi))


def unit_monopole(max_degree=0):
    return BoundaryPerturbation(CoefficientSpectrum(max_degree, {(0, 0): 1.0}))


def test_incident_soft_trace():
    wave = incident_trace("soft", 4.0, 1.0)
    assert wave.trace_value == 1.0
    assert wave.trace_radial_derivative == pytest.approx(4.0j - 1.0)


def test_incident_hard_trace():
    wave = incident_trace("hard", 4.0, 1.0)
    assert wave.trace_radial_derivative == 1.0
    assert wave.trace_value == pytest.approx(1.0 / (4.0j - 1.0))


def test_incident_rejects():
    with pytest.raises(DomainError):
        incident_trace("mixed", 4.0, 1.0)
    with pytest.raises(DomainError):
        incident_trace("soft", -1.0, 1.0)


@pytest.mark.parametrize("kind, k, R", [
    ("hard", math.inf, 1.0),  # the trace value would be nan+nanj
    ("soft", 1.0, math.inf),  # the derivative would be NaN
    ("soft", math.nan, 1.0),
    ("hard", 1.0, math.nan),
])
def test_incident_rejects_non_finite_kR(kind, k, R):
    with pytest.raises(DomainError, match="must be finite"):
        incident_trace(kind, k, R)


def test_default_cutoff():
    assert default_cutoff(4.0, 1.0) == 2
    assert default_cutoff(50.0, 1.0) == 7
    assert default_cutoff(2.0, 1.0) == 1


# the soft and hard gains as two separate formulas, frozen as they stood
# before both took their boundary factor from incident_trace
def frozen_soft_gain(k, R, max_degree):
    h, _ = hankel_factors(max_degree, k, R)
    return -((1j * k * R - 1.0) / R) / (1j * k * h)


def frozen_hard_gain(k, R, max_degree):
    _, hp = hankel_factors(max_degree, k, R)
    return (R / (1j * k * R - 1.0)) / (1j * hp)


@pytest.mark.parametrize("k, R", [(4.0, 1.0), (2.0, 1.0), (0.37, 9.0), (33.3, 0.7), (50.0, 1.0)])
def test_gain_is_bit_identical_to_the_frozen_formulas(k, R):
    for kind, frozen in (("soft", frozen_soft_gain), ("hard", frozen_hard_gain)):
        assert gain(kind, k, R, 30).tobytes() == frozen(k, R, 30).tobytes()


def test_gain_rejects_unknown_kind():
    with pytest.raises(DomainError, match="unknown obstacle kind"):
        gain("mixed", 4.0, 1.0, 3)


# k values that are not powers of two, so every product with k rounds
GAIN_KS = [2.3, 0.61, 7.77, 13.1, 41.9, 3.3, 100.7]


@pytest.mark.parametrize("kind", ["soft", "hard"])
@pytest.mark.parametrize("R", [0.7, 1.0, 1.65478, 2.5])
@pytest.mark.parametrize("max_degree", [0, 17, 60])
def test_array_k_gain_rows_are_the_scalar_gains(kind, R, max_degree):
    rows = gain(kind, np.array(GAIN_KS), R, max_degree)
    assert rows.shape == (len(GAIN_KS), max_degree + 1)
    for row, k in zip(rows, GAIN_KS):
        assert row.tobytes() == gain(kind, k, R, max_degree).tobytes()
    assert gain(kind, GAIN_KS[:1], R, max_degree).tobytes() == rows[:1].tobytes()  # a list
    assert gain(kind, np.float64(GAIN_KS[0]), R, max_degree).tobytes() == rows[0].tobytes()


@pytest.mark.parametrize("kind, ks, R", [
    ("soft", [5.0, -1.0, 0.01], 1.0),              # k <= 0 before kR < KR_MIN
    ("hard", [0.01, math.inf, 3.0], 1.0),          # the smaller kR fails first
    ("soft", [math.nan, 3.0], 1.0),
    ("hard", [7.0, 0.03, 0.02], 2.5),              # kR = 0.05 names the smallest
    ("soft", [7.0, 1e308, 0.5], 2.5),              # kR beyond the float range
    ("soft", [1e308, 3.0], 1.65478028276691),      # the gain itself overflows
    ("mixed", [3.0, 4.0], 1.0),
    ("soft", [3.0, 4.0], -1.0),
])
def test_array_k_gain_raises_the_error_of_its_smallest_failing_k(kind, ks, R):
    failing = []
    for k in ks:
        try:
            gain(kind, k, R, 20)
        except (DomainError, CapacityError) as error:
            failing.append((k, type(error), str(error)))
    assert failing
    _, error, message = min(failing, key=lambda item: item[0])
    for order in (ks, ks[::-1]):
        with pytest.raises(error) as caught:
            gain(kind, np.array(order), R, 20)
        assert str(caught.value) == message


@pytest.mark.parametrize("k", [np.ones((2, 3)), [[4.0]]], ids=["2-d array", "nested list"])
def test_gain_rejects_k_of_more_than_one_axis(k):
    with pytest.raises(DomainError, match=r"^k must be a float or a 1-D array, got an array of shape "):
        gain("soft", k, 1.0, 3)


def test_an_empty_k_gives_no_rows():
    assert gain("hard", np.array([]), 1.0, 4).shape == (0, 5)


@pytest.mark.parametrize("kind", ["soft", "hard"])
def test_forward_product_rows_are_the_forward_maps(kind):
    d = make_real_perturbation(DecayProfile("algebraic", 1.3, 12, seed=4)).spectrum
    rows = forward_product(d, gain(kind, np.array(GAIN_KS), 0.7, 12))
    assert rows.shape == (len(GAIN_KS), 169)
    for row, k in zip(rows, GAIN_KS):
        assert row.tobytes() == apply_gain(d, gain(kind, k, 0.7, 12)).coefficients.tobytes()


def test_forward_soft_monopole_magnitude():
    out = forward_soft(unit_monopole(), 4.0, 1.0)
    assert abs(out[0, 0]) == pytest.approx(SOFT_GAIN_K4, rel=1e-12)


def test_forward_hard_monopole_magnitude():
    out = forward_hard(unit_monopole(), 4.0, 1.0)
    assert abs(out[0, 0]) == pytest.approx(HARD_GAIN_K4, rel=1e-12)


def test_forward_linearity():
    d = make_real_perturbation(DecayProfile("exponential", 0.8, 6, seed=3))
    scaled = BoundaryPerturbation(d.spectrum.scaled(2.0))
    a = forward_soft(d, 5.0, 1.0)
    b = forward_soft(scaled, 5.0, 1.0)
    for key, v in a.items():
        assert b[key] == pytest.approx(2.0 * v, rel=1e-14)


@pytest.mark.parametrize("kind", ["soft", "hard"])
@pytest.mark.parametrize("kR", [2.0, 4.0, 10.0, 50.0])
def test_round_trip(kind, kR):
    d = make_real_perturbation(DecayProfile("algebraic", 1.2, 30, seed=17))
    forward = forward_soft if kind == "soft" else forward_hard
    invert = invert_soft if kind == "soft" else invert_hard
    amplitude = forward(d, kR, 1.0)
    recovered = invert(amplitude, kR, 1.0, n_cut=30)
    worst = max(abs(recovered.spectrum[key] - v) for key, v in d.spectrum.items())
    assert worst <= 1e-9


def test_invert_truncates_at_cutoff():
    d = make_real_perturbation(DecayProfile("exponential", 0.5, 10, seed=1))
    amplitude = forward_soft(d, 4.0, 1.0)
    recovered = invert_soft(amplitude, 4.0, 1.0)  # default cutoff = 2
    for (n, m), v in recovered.spectrum.items():
        if n > 2:
            assert v == 0.0
    assert recovered.spectrum[2, 1] == pytest.approx(d.spectrum[2, 1], rel=1e-12)


@pytest.mark.parametrize("invert", [invert_soft, invert_hard])
def test_invert_rejects_a_cutoff_that_is_not_a_nonnegative_integer(invert):
    amplitude = forward_soft(make_real_perturbation(DecayProfile("exponential", 0.5, 6, seed=1)),
                             4.0, 1.0)
    for n_cut in (1.5, -5):
        with pytest.raises(DomainError, match="^cutoff n_cut"):
            invert(amplitude, 4.0, 1.0, n_cut=n_cut)
    # a cutoff above the degree cap keeps every degree
    every = invert(amplitude, 4.0, 1.0, n_cut=6).spectrum.coefficients
    assert np.array_equal(invert(amplitude, 4.0, 1.0, n_cut=1000).spectrum.coefficients, every)


@pytest.mark.parametrize("invert", [invert_soft, invert_hard])
def test_invert_raises_capacity_error_for_an_overflowing_coefficient(invert):
    # 1/|gain| at degree 40 and kR = 2 is above 1e46, so the quotient overflows
    amplitude = CoefficientSpectrum(40, {(40, 0): 1e300})
    with pytest.raises(CapacityError, match="recovered coefficient exceeds the floating range"):
        invert(amplitude, 2.0, 1.0, n_cut=40)
    assert not invert(amplitude, 2.0, 1.0, n_cut=39).spectrum.coefficients.any()


def test_conjugate_symmetry_preserved():
    d = make_real_perturbation(DecayProfile("exponential", 0.7, 8, seed=9))
    assert d.conjugate_symmetry_residual() <= 1e-15
    recovered = invert_soft(forward_soft(d, 6.0, 1.0), 6.0, 1.0, n_cut=8)
    assert recovered.conjugate_symmetry_residual() <= 1e-12


def test_synthesized_perturbation_is_real():
    d = make_real_perturbation(DecayProfile("algebraic", 1.0, 6, seed=4))
    assert d.imaginary_residual() <= 1e-12


def soft_inversion_gain(k, R, max_degree):
    # |k i H_n(kR)| = |(ikR - 1)/R| / |gain_n|, the noise amplification of the soft inverse
    return abs((1j * k * R - 1.0) / R) / np.abs(gain("soft", k, R, max_degree))


def test_inversion_gain_grows_past_kr():
    amplification = soft_inversion_gain(4.0, 1.0, 20)
    assert np.all(np.diff(amplification[4:]) > 0)


def test_inversion_gain_monopole_value():
    amplification = soft_inversion_gain(4.0, 1.0, 0)
    # k * |H_0(k)| = k * sqrt(2/pi)/k = sqrt(2/pi)
    assert amplification[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)


@pytest.mark.parametrize("k, R", [(4.0, math.inf), (math.nan, 1.0), (4.0, 0.0)])
def test_cutoff_and_inverse_reject_bad_kR(k, R):
    amplitude = forward_soft(unit_monopole(2), 4.0, 1.0)
    with pytest.raises(DomainError):
        default_cutoff(k, R)
    for invert in (invert_soft, invert_hard):
        with pytest.raises(DomainError):
            invert(amplitude, k, R)


def test_conjugate_symmetry_residual_sees_a_broken_mirror():
    d = make_real_perturbation(DecayProfile("exponential", 0.7, 4, seed=2))
    broken = BoundaryPerturbation(d.spectrum.scaled(1.0))
    broken.spectrum[3, -2] = broken.spectrum[3, -2] + 1e-3
    assert broken.conjugate_symmetry_residual() == pytest.approx(1e-3, rel=1e-9)
