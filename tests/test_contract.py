"""The library's error contract on the observation sphere: every call of a
grid build, a transform, the norm identity or the imaginary residual ends
in a finite answer or in DomainError, CapacityError or ResolutionError.

One table lists each entry point with valid arguments; each case replaces
one argument with an adversarial value."""

import math

import numpy as np
import pytest

from conftest import random_spectrum
from helios.errors import CapacityError, DomainError, ResolutionError
from helios.field import norm_identity_check
from helios.harmonics import CoefficientSpectrum, SphereGrid, analyze, synthesize
from helios.obstacle import BoundaryPerturbation

L = 4
GRID = SphereGrid.build(L)
SPECTRUM = random_spectrum(L, seed=3)
SAMPLES = synthesize(SPECTRUM, GRID)
HELIOS_ERRORS = (DomainError, CapacityError, ResolutionError)

VALUES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "2.5": 2.5,
    "10**400": 10**400, "None": None, "str": "abc", "2-D": np.ones((2, 2)),
}


def packed(value) -> CoefficientSpectrum:
    coefficients = SPECTRUM.coefficients.copy()
    coefficients[3:] = value
    return CoefficientSpectrum.from_packed(coefficients)


def sampled(value) -> np.ndarray:
    samples = SAMPLES.copy()
    samples[5:] = value
    return samples


# extra values for the slots that take a spectrum or a sample array
SPECTRA = {"nan coefficients": packed(math.nan), "inf coefficients": packed(complex(math.inf, 0.0)),
           "coefficients near 1e308": packed(complex(1.5e308, -1.5e308)),
           "degree 5": random_spectrum(5, 1)}
SAMPLE_ARRAYS = {"nan samples": sampled(math.nan), "inf samples": sampled(-math.inf),
                 "samples near 1e308": sampled(complex(1.5e308, 1.5e308)),
                 "list": SAMPLES.tolist(), "strings": ["1"] * SAMPLES.size}

ENTRY_POINTS = {
    "SphereGrid.build": (SphereGrid.build, {"design_degree": L}),
    "synthesize": (synthesize, {"spectrum": SPECTRUM, "grid": GRID}),
    "analyze": (analyze, {"samples": SAMPLES, "grid": GRID, "max_degree": L}),
    "norm_identity_check": (norm_identity_check,
                            {"spectrum": SPECTRUM, "k": 3.0, "R": 1.0, "grid": GRID}),
    "imaginary_residual": (lambda spectrum, grid: BoundaryPerturbation(spectrum).imaginary_residual(grid),
                           {"spectrum": SPECTRUM, "grid": GRID}),
}


def cases():
    for name, (_, valid) in ENTRY_POINTS.items():
        for slot in valid:
            extra = {"spectrum": SPECTRA, "samples": SAMPLE_ARRAYS}.get(slot, {})
            for label, value in [*VALUES.items(), *extra.items()]:
                yield pytest.param(name, slot, value, id=f"{name}-{slot}-{label}")


def finite(result) -> bool:
    if isinstance(result, SphereGrid):
        return all(np.isfinite(a).all() for a in (result.theta, result.phi, result.weights, result.table))
    if isinstance(result, CoefficientSpectrum):
        return bool(np.isfinite(result.coefficients).all())
    return bool(np.isfinite(np.asarray(result, dtype=complex)).all())


@pytest.mark.parametrize("name, slot, value", list(cases()))
def test_every_call_is_finite_or_a_helios_error(name, slot, value):
    function, valid = ENTRY_POINTS[name]
    try:
        result = function(**{**valid, slot: value})
    except HELIOS_ERRORS:
        return
    assert finite(result)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_the_valid_arguments_give_a_finite_answer(name):
    function, valid = ENTRY_POINTS[name]
    assert finite(function(**valid))


@pytest.mark.parametrize("label", ["nan", "inf"])
def test_analyze_rejects_samples_that_are_not_finite(label):
    with pytest.raises(DomainError, match="^samples must be finite"):
        analyze(SAMPLE_ARRAYS[f"{label} samples"], GRID, L)


def test_analyze_rejects_a_string():
    with pytest.raises(DomainError, match="^samples must be an array of numbers"):
        analyze("abc", GRID, L)


def test_a_spectrum_that_is_not_finite_is_a_domain_error():
    with pytest.raises(DomainError, match="^coefficients must be finite"):
        synthesize(SPECTRA["nan coefficients"], GRID)
    with pytest.raises(DomainError, match="^coefficients must be finite"):
        norm_identity_check(SPECTRA["inf coefficients"], 3.0, 1.0, GRID)


def test_an_overflowing_synthesis_is_a_capacity_error():
    with pytest.raises(CapacityError, match="^synthesized samples exceed the floating range$"):
        synthesize(SPECTRA["coefficients near 1e308"], GRID)
    with pytest.raises(CapacityError, match="^synthesized samples exceed the floating range$"):
        BoundaryPerturbation(SPECTRA["coefficients near 1e308"]).imaginary_residual(GRID)
    with pytest.raises(CapacityError, match="^analyzed coefficients exceed the floating range$"):
        analyze(SAMPLE_ARRAYS["samples near 1e308"], GRID, L)


def test_a_residual_whose_amplitude_overflows_is_a_capacity_error():
    # zonal samples whose real and imaginary parts reach 1.7e308: finite,
    # but of modulus 1.7e308 * sqrt(2), beyond the floating range
    zonal = {(n, 0): 1.0 for n in range(L + 1)}
    peak = np.max(np.abs(synthesize(CoefficientSpectrum(L, zonal), GRID)))
    spectrum = CoefficientSpectrum(L, {key: complex(1.7e308 / peak, 1.7e308 / peak) for key in zonal})
    assert np.isfinite(synthesize(spectrum, GRID)).all()
    with pytest.raises(CapacityError, match="^perturbation amplitude exceeds the floating range$"):
        BoundaryPerturbation(spectrum).imaginary_residual(GRID)


@pytest.mark.parametrize("k, R", [(1e300, 1.0), (1.0, 1e300), (1e150, 1e150)])
def test_norm_identity_holds_where_k_squared_overflows(k, R):
    # k^2 R^2 overflows and |H_n(kR)|^2 ~ 1/(kR)^2 underflows; their product
    # is about one
    lhs, rhs = norm_identity_check(SPECTRUM, k, R, GRID)
    assert math.isfinite(lhs) and math.isfinite(rhs) and rhs > 1.0
    assert lhs == pytest.approx(rhs, rel=1e-12)
