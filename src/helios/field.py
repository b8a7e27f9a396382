"""Near-field traces on the observation sphere of radius R, the weighted
spectral Sobolev norms, the low-frequency projector, and the spectral
split (N, eps1, eps2, E) with N = floor(sqrt(kR)).

Per degree the trace of a radiating field with far-field magnitude a_n is

    u_n(R)        = k * i * a_n * H_n(kR),
    d/dr u_n(R)   = k^2 * i * a_n * H_n'(kR),

with H_n the rescaled Hankel function from `specfun`. The squared Sobolev
norm of a trace is R^2 * sum_{m=0..l} sum_n (n/R)^(2m) |u_n(R)|^2.

Per-degree data is a plain array indexed by degree along its last axis:
the magnitudes a_n from `harmonics.aggregate` (float), the trace values
and radial derivatives (complex). A leading axis holds several spectra at
once, with k broadcast over it; one spectrum is a 1-D array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .harmonics import CoefficientSpectrum, SphereGrid, aggregate, synthesize
from .specfun import N_MAX_SUPPORTED, hankel_table
from .util import integer_text, require_count, require_finite, require_positive, require_real

KR_MIN = 0.1


@dataclass(frozen=True)
class SpectralSplit:
    """Low/high frequency energy budget at cutoff N = floor(sqrt(kR)); each
    field is an array when split_spectrum splits several rows at once (N
    then as in default_cutoff)."""

    N: int
    eps1: float
    eps2: float
    E: float  # -ln(eps2), +inf when eps2 == 0


def check_kR(k, R):
    """kR, once k and R are positive and finite and kR >= KR_MIN is finite."""
    require_positive(k=k, R=R)
    with np.errstate(over="ignore"):  # reported below as a CapacityError
        kR = k * R
    if np.less(kR, KR_MIN).any():
        raise DomainError(f"kR = {np.min(kR)} below supported minimum {KR_MIN}")
    if not np.isfinite(kR).all():
        raise CapacityError("kR exceeds the floating range")
    return kR


def _per_degree(data, name: str) -> np.ndarray:
    """`data` as an array indexed by degree along its last axis, which it
    must have; DomainError for a 0-d array or a NaN or infinite entry."""
    data = np.asarray(data)
    if data.ndim == 0:
        raise DomainError(f"{name} must be indexed by degree along a last axis, got a 0-d array")
    require_finite(**{name: data})
    return data


def _check_k_rows(k, magnitudes: np.ndarray) -> None:
    """DomainError unless k broadcasts over the leading axes of the
    per-degree `magnitudes`."""
    k_shape, rows = np.shape(k), magnitudes.shape[:-1]
    if any(a != b and 1 not in (a, b) for a, b in zip(k_shape[::-1], rows[::-1])):
        raise DomainError(f"k of shape {k_shape} does not broadcast over the leading axes of "
                          f"magnitudes of shape {magnitudes.shape}")


def default_cutoff(k, R):
    """The stability split cutoff N = floor(sqrt(kR)): an int, or for array
    k or R a float array of those integers (a float holds each of them
    exactly; an int64 would overflow beyond kR of about 8.5e37)."""
    N = np.floor(np.sqrt(check_kR(k, R)))
    return N if N.ndim else int(N)


def hankel_factors(max_degree: int, k: float, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of H_n(kR) and H_n'(kR) for n = 0..max_degree (one column of
    the Hankel table)."""
    values, derivatives = hankel_table(max_degree, check_kR(k, R))
    return values[:, 0], derivatives[:, 0]


def near_field_trace(magnitudes, k, R: float) -> tuple[np.ndarray, np.ndarray]:
    """The trace values u_n(R) and radial derivatives d/dr u_n(R) of the
    field radiated by per-degree far-field magnitudes along the last axis,
    with k broadcast over the leading axes: two complex arrays of the
    magnitudes' shape, from one Hankel table to their degree. The
    derivative is (i k a_n H_n') * k: k^2 alone overflows for k beyond
    about 1.3e154, where H_n'(kR) ~ 1/(kR) keeps the derivative finite."""
    magnitudes = _per_degree(magnitudes, "magnitudes")
    _check_k_rows(k, magnitudes)
    kR = check_kR(k, R)
    h, hp = hankel_table(magnitudes.shape[-1] - 1, kR)
    shape = np.shape(kR) + h.shape[:1]
    k = np.asarray(k, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        ika = 1j * k * magnitudes
        values = ika * h.T.reshape(shape)
        radial_derivatives = ika * hp.T.reshape(shape) * k
    if not (np.isfinite(values).all() and np.isfinite(radial_derivatives).all()):
        raise CapacityError("near-field trace exceeds the floating range")
    return values, radial_derivatives


def sobolev_norm_sq(values, l: int, R: float):
    """Squared Sobolev norm R^2 sum_{m<=l} sum_n (n/R)^(2m) |v_n|^2 of
    per-degree trace values along the last axis: a float for one trace, an
    array over the leading axes for several. The order l is an integer in
    [0, N_MAX_SUPPORTED]: the sum takes one pass per order, and helios
    itself uses l = 0 and l = 1."""
    if not isinstance(l, (int, np.integer)) or l < 0:
        got = integer_text(l) if isinstance(l, int) else repr(l)
        raise DomainError(f"Sobolev order l must be a nonnegative integer, got {got}")
    require_count(l, "Sobolev order l", most=N_MAX_SUPPORTED)
    require_positive(R=R)
    values = _per_degree(values, "values")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        v = np.abs(values) ** 2
        n_over_R = np.arange(v.shape[-1]) / R
        total = 0.0
        for m in range(l + 1):
            total = total + (n_over_R ** (2 * m) * v).sum(axis=-1)
        total = R * R * total
    if not np.isfinite(total).all():
        raise CapacityError("Sobolev norm exceeds the floating range")
    return total


def sobolev_norm(values, l: int, R: float):
    """Sobolev norm (square root of sobolev_norm_sq)."""
    return np.sqrt(sobolev_norm_sq(values, l, R))


def split_spectrum(magnitudes, k, R: float) -> SpectralSplit:
    """Energy split at N = floor(sqrt(kR)) and E = -ln(eps2) of per-degree
    magnitudes along the last axis, with k broadcast over the leading axes;
    the fields of the split are arrays over those axes, or scalars for one
    1-D array."""
    N = default_cutoff(k, R)
    magnitudes = _per_degree(magnitudes, "magnitudes")
    _check_k_rows(k, magnitudes)
    low = np.arange(magnitudes.shape[-1]) <= np.asarray(N)[..., None]
    # an overflow is reported below as a CapacityError; eps2 = 0 gives E = +inf
    with np.errstate(over="ignore", divide="ignore"):
        sq = magnitudes**2
        eps1 = np.sqrt(np.where(low, sq, 0.0).sum(axis=-1))
        eps2 = np.sqrt(np.where(low, 0.0, sq).sum(axis=-1))
        E = -np.log(eps2)
    if not (np.isfinite(eps1).all() and np.isfinite(eps2).all()):
        raise CapacityError("eps1 or eps2 exceeds the floating range")
    return SpectralSplit(N=N, eps1=eps1, eps2=eps2, E=E)


def low_pass(obj, N: int):
    """Zero all degrees above N of a spectrum, or of an array indexed by
    degree along its last axis; returns a new object of the same type."""
    N = require_count(N, "cutoff N", most=math.inf)  # above the degree cap it keeps every degree
    if isinstance(obj, CoefficientSpectrum):
        coefficients = obj.coefficients.copy()
        coefficients[(N + 1) ** 2 :] = 0.0  # the slots of degrees above N
        return CoefficientSpectrum.from_packed(coefficients)
    if isinstance(obj, np.ndarray) and obj.ndim:
        values = obj.copy()
        values[..., N + 1 :] = 0.0
        return values
    raise DomainError(f"low_pass does not support {type(obj).__name__}")


def norm_identity_check(
    spectrum: CoefficientSpectrum, k: float, R: float, grid: SphereGrid | None = None
) -> tuple[float, float]:
    """Compare the quadrature norm of the synthesized trace with the
    spectral identity k^2 R^2 sum a_n^2 |H_n(kR)|^2.

    Returns (lhs, rhs); the two agree to ~1e-9 relative for band-limited
    spectra resolved by the grid. k and R are real scalars (DomainError
    otherwise). Both sides carry the factor k R H_n(kR), which tends to a
    constant as kR grows, where k^2 and |H_n(kR)|^2 ~ 1/(kR)^2 apart would
    overflow and underflow.
    """
    if not isinstance(spectrum, CoefficientSpectrum):
        raise DomainError(f"spectrum must be a CoefficientSpectrum, got {type(spectrum).__name__}")
    require_real(k=k, R=R)
    if grid is None:
        grid = SphereGrid.build(spectrum.max_degree)
    h, _ = hankel_factors(spectrum.max_degree, k, R)
    th = (k * R) * h  # finite: hankel_factors checked kR
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        # per-(m,n) trace coefficients R u_{m,n}(R) = i a_{m,n} kR H_n(kR)
        trace = 1j * spectrum.coefficients * th[spectrum.degrees]
        if not np.isfinite(trace).all():
            require_finite(coefficients=spectrum.coefficients)
            raise CapacityError("near-field trace exceeds the floating range")
        samples = synthesize(CoefficientSpectrum.from_packed(trace), grid)
        lhs = float(np.real(grid.integrate(samples * np.conjugate(samples))))
        rhs = float(np.sum((aggregate(spectrum) * np.abs(th)) ** 2))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise CapacityError("norm identity exceeds the floating range")
    return lhs, rhs
