"""Inverse obstacle scattering linearized about the sphere of radius R:
closed-form incident spherical waves, diagonal forward maps from a real
boundary perturbation to the far-field spectrum of the first-order
scattered field, and truncated inverse maps.

Boundary data of the linearized problems:

  soft (Dirichlet):  v0 = -d * du0/dr on the sphere, du0/dr(R) = (ikR-1)/R
  hard (Neumann):    dv1/dr = k^2 * u1(R) * d,       u1(R) = R/(ikR-1)

Both maps act degree by degree through the trace representation
u_n(r) = k i a_n H_n(kr), so inversion divides by k i H_n(kR) (soft) or
k^2 i H_n'(kR) (hard); neither factor has positive real zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .field import check_kR, default_cutoff
from .harmonics import CoefficientSpectrum, SphereGrid, conjugate_mirror, packed_index, synthesize
from .specfun import hankel_table
from .util import require_count, require_positive


@dataclass(frozen=True)
class IncidentWave:
    """Boundary trace of the unperturbed incident spherical wave."""

    kind: str
    k: float
    R: float
    trace_value: complex
    trace_radial_derivative: complex


@dataclass(frozen=True)
class BoundaryPerturbation:
    """Real perturbation of the sphere radius, stored as a coefficient
    spectrum with conjugate symmetry d_{n,-m} = (-1)^m conj(d_{n,m})."""

    spectrum: CoefficientSpectrum

    def conjugate_symmetry_residual(self) -> float:
        """Max |d_{n,-m} - (-1)^m conj(d_{n,m})| over all indices."""
        mirror = conjugate_mirror(self.spectrum).coefficients
        return float(np.max(np.abs(self.spectrum.coefficients - mirror)))

    def imaginary_residual(self, grid: SphereGrid | None = None) -> float:
        """Relative imaginary residue of the synthesized perturbation."""
        if grid is None:
            grid = SphereGrid.build(self.spectrum.max_degree)
        samples = synthesize(self.spectrum, grid)
        amplitude = float(np.max(np.abs(samples)))
        if amplitude == 0.0:
            return 0.0
        return float(np.max(np.abs(samples.imag))) / amplitude


def incident_trace(kind: str, k: float, R: float) -> IncidentWave:
    """Closed-form boundary data of the incident spherical wave."""
    require_positive(k=k, R=R)
    if kind == "soft":
        value = 1.0 + 0.0j
        derivative = (1j * k * R - 1.0) / R
    elif kind == "hard":
        value = R / (1j * k * R - 1.0)
        derivative = 1.0 + 0.0j
    else:
        raise DomainError(f"unknown obstacle kind {kind!r} (expected soft or hard)")
    return IncidentWave(kind=kind, k=k, R=R, trace_value=value, trace_radial_derivative=derivative)


def gain(kind: str, k, R: float, max_degree: int) -> np.ndarray:
    """Per-degree factor mapping d_{m,n} to the far-field a_{m,n} of the
    soft or hard obstacle, n = 0..max_degree.

    A 1-D array k gives a (len(k), max_degree + 1) array from one Hankel
    table, row i bit-equal to the call for the float k[i]; if some k
    fails, it raises what the call for the smallest failing k raises."""
    ndim = np.ndim(k)
    if ndim > 1:
        raise DomainError(f"k must be a float or a 1-D array, got an array of shape {np.shape(k)}")
    ks = np.ravel(k).tolist()  # Python scalars, so each numerator is CPython arithmetic
    try:
        factors = _gains(kind, ks, R, max_degree)
    except (DomainError, CapacityError):
        if len(ks) > 1:
            for one in np.sort(ks).tolist():
                _gains(kind, [one], R, max_degree)
        raise
    return factors if ndim else factors[0]


def _gains(kind: str, ks: list, R: float, max_degree: int) -> np.ndarray:
    """The gains of `gain`, one row per wavenumber of the list ks."""
    # incident_trace checks each k, R and the kind; its numerators stay
    # Python complex values (numpy's complex division rounds differently)
    waves = [incident_trace(kind, k, R) for k in ks]
    k = np.array(ks, dtype=float)
    h, hp = hankel_table(max_degree, check_kR(k, R))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # reported below
        if kind == "soft":
            numerators = np.array([-wave.trace_radial_derivative for wave in waves], dtype=complex)
            factors = numerators[:, None] / (1j * k[:, None] * h.T)
        else:
            numerators = np.array([wave.trace_value for wave in waves], dtype=complex)
            factors = numerators[:, None] / (1j * hp.T)
    # an inverse would divide by an infinite gain and silently return zero
    if not np.isfinite(factors).all():
        raise CapacityError(f"a {kind}-obstacle gain exceeds the floating range")
    return factors


def apply_gain(spectrum: CoefficientSpectrum, factors: np.ndarray) -> CoefficientSpectrum:
    """The diagonal forward map: each coefficient times its degree's gain."""
    return CoefficientSpectrum.from_packed(forward_product(spectrum, factors))


def forward_product(spectrum: CoefficientSpectrum, factors: np.ndarray) -> np.ndarray:
    """The packed coefficients of `apply_gain`; a (K, L+1) array of gains
    (`gain` of K wavenumbers) gives one row per wavenumber, each bit-equal
    to `apply_gain` of that row."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        coefficients = factors[..., spectrum.degrees] * spectrum.coefficients
    if not np.isfinite(coefficients).all():
        raise CapacityError("a forward-mapped coefficient exceeds the floating range")
    return coefficients


def truncated_inverse(
    amplitude: CoefficientSpectrum, factors: np.ndarray, n_cut: int
) -> BoundaryPerturbation:
    """Divide the degrees n <= n_cut by their gain and drop the rest."""
    return BoundaryPerturbation(CoefficientSpectrum.from_packed(
        truncated_quotient(amplitude.coefficients, factors, n_cut)))


def truncated_quotient(coefficients: np.ndarray, factors: np.ndarray, n_cut: int) -> np.ndarray:
    """Packed coefficients along the last axis (one spectrum, or one per
    row) with each degree n <= n_cut divided by its gain factors[n] and
    every degree above n_cut zero: the coefficients of `truncated_inverse`,
    row by row bit-equal to it."""
    n_cut = require_count(n_cut, "cutoff n_cut")  # above the degree cap it keeps every degree
    max_degree = math.isqrt(coefficients.shape[-1]) - 1
    kept = (min(n_cut, max_degree) + 1) ** 2  # packing is degree-major: the kept slots lead
    d = np.zeros_like(coefficients)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        np.divide(coefficients[..., :kept], factors[packed_index(max_degree)[0][:kept]],
                  out=d[..., :kept])
    if not np.isfinite(d).all():
        raise CapacityError("a recovered coefficient exceeds the floating range")
    return d


def forward_soft(d: BoundaryPerturbation, k: float, R: float) -> CoefficientSpectrum:
    """Far-field spectrum of the linearized soft-obstacle scattered field."""
    return apply_gain(d.spectrum, gain("soft", k, R, d.spectrum.max_degree))


def forward_hard(d: BoundaryPerturbation, k: float, R: float) -> CoefficientSpectrum:
    """Far-field spectrum of the linearized hard-obstacle scattered field."""
    return apply_gain(d.spectrum, gain("hard", k, R, d.spectrum.max_degree))


def invert_soft(
    amplitude: CoefficientSpectrum, k: float, R: float, n_cut: int | None = None
) -> BoundaryPerturbation:
    """Recover the perturbation from a soft far-field spectrum, truncated
    at n_cut (default floor(sqrt(kR)))."""
    if n_cut is None:
        n_cut = default_cutoff(k, R)
    return truncated_inverse(amplitude, gain("soft", k, R, amplitude.max_degree), n_cut)


def invert_hard(
    amplitude: CoefficientSpectrum, k: float, R: float, n_cut: int | None = None
) -> BoundaryPerturbation:
    """Recover the perturbation from a hard far-field spectrum, truncated
    at n_cut (default floor(sqrt(kR)))."""
    if n_cut is None:
        n_cut = default_cutoff(k, R)
    return truncated_inverse(amplitude, gain("hard", k, R, amplitude.max_degree), n_cut)

