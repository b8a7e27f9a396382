"""Near-field traces on the observation sphere of radius R, the weighted
spectral Sobolev norms, the low-frequency projector, and the spectral
split (N, eps1, eps2, E) with N = floor(sqrt(kR)).

Per degree the trace of a radiating field with far-field aggregate a_n is

    u_n(R)        = k * i * a_n * H_n(kR),
    d/dr u_n(R)   = k^2 * i * a_n * H_n'(kR),

with H_n the rescaled Hankel function from `specfun`. The squared Sobolev
norm of a trace is R^2 * sum_{m=0..l} sum_n (n/R)^(2m) |u_n(R)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, DomainError
from .harmonics import AggregateSpectrum, CoefficientSpectrum, SphereGrid, aggregate, synthesize
from .specfun import N_MAX_SUPPORTED, hankel_table, require_order
from .util import require_positive

KR_MIN = 0.1


@dataclass(frozen=True)
class NearFieldTrace:
    """Per-degree trace coefficients u_n(R) and radial derivatives on the
    sphere of radius R."""

    k: float
    R: float
    values: np.ndarray
    radial_derivatives: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class SpectralSplit:
    """Low/high frequency energy budget at cutoff N = floor(sqrt(kR)); each
    field is an array when split_spectrum splits several rows at once (N
    then as in default_cutoff)."""

    N: int
    eps1: float
    eps2: float
    E: float  # -ln(eps2), +inf when eps2 == 0


def _check_kR(k, R):
    """kR, once k and R are positive and finite and kR >= KR_MIN is finite."""
    require_positive(k=k, R=R)
    with np.errstate(over="ignore"):  # reported below as a CapacityError
        kR = k * R
    if np.less(kR, KR_MIN).any():
        raise DomainError(f"kR = {np.min(kR)} below supported minimum {KR_MIN}")
    if not np.isfinite(kR).all():
        raise CapacityError("kR exceeds the floating range")
    return kR


def default_cutoff(k, R):
    """The stability split cutoff N = floor(sqrt(kR)): an int, or for array
    k or R a float array of those integers (a float holds each of them
    exactly; an int64 would overflow beyond kR of about 8.5e37)."""
    N = np.floor(np.sqrt(_check_kR(k, R)))
    return N if N.ndim else int(N)


def hankel_factors(max_degree: int, k: float, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of H_n(kR) and H_n'(kR) for n = 0..max_degree (one column of
    the Hankel table)."""
    values, derivatives = hankel_table(max_degree, _check_kR(k, R))
    return values[:, 0], derivatives[:, 0]


def near_field_trace(spectrum, k: float, R: float) -> NearFieldTrace:
    """Trace of the radiating field generated by a far-field spectrum."""
    agg = aggregate(spectrum)
    h, hp = hankel_factors(agg.max_degree, k, R)
    with np.errstate(over="ignore", invalid="ignore"):  # sobolev_norm_sq reports an overflow
        return NearFieldTrace(k=k, R=R, values=1j * k * agg.values * h,
                              radial_derivatives=1j * k * k * agg.values * hp)


def sobolev_norm_sq(values, l: int, R: float):
    """Squared Sobolev norm R^2 sum_{m<=l} sum_n (n/R)^(2m) |v_n|^2 of
    per-degree trace values along the last axis: a float for one trace, an
    array over the leading axes for several."""
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise DomainError(f"Sobolev order l must be a nonnegative integer, got {l!r}")
    require_positive(R=R)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        v = np.abs(np.asarray(values)) ** 2
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


def split_spectrum(spectrum, k, R: float) -> SpectralSplit:
    """Energy split at N = floor(sqrt(kR)) and E = -ln(eps2).

    `spectrum` is a spectrum, or an array of per-degree magnitudes along
    its last axis with k broadcast over the leading axes; the fields of the
    split are then arrays over those axes."""
    N = default_cutoff(k, R)
    values = spectrum if isinstance(spectrum, np.ndarray) else aggregate(spectrum).values
    low = np.arange(values.shape[-1]) <= np.asarray(N)[..., None]
    with np.errstate(over="ignore", divide="ignore"):  # eps2 = 0 gives E = +inf
        sq = values**2
        eps1 = np.sqrt(np.where(low, sq, 0.0).sum(axis=-1))
        eps2 = np.sqrt(np.where(low, 0.0, sq).sum(axis=-1))
        E = -np.log(eps2)
    return SpectralSplit(N=N, eps1=eps1, eps2=eps2, E=E)


def low_pass(obj, N: int):
    """Zero all degrees above N; returns an object of the same type."""
    # a cutoff above the degree cap is valid: it keeps every degree
    require_order(min(N, N_MAX_SUPPORTED), "cutoff N")
    if isinstance(obj, CoefficientSpectrum):
        coefficients = obj.coefficients.copy()
        coefficients[(N + 1) ** 2 :] = 0.0  # the slots of degrees above N
        return CoefficientSpectrum.from_packed(coefficients)
    if isinstance(obj, AggregateSpectrum):
        values = obj.values.copy()
        values[N + 1 :] = 0.0
        return AggregateSpectrum(values=values)
    if isinstance(obj, NearFieldTrace):
        values = obj.values.copy()
        ders = obj.radial_derivatives.copy()
        values[N + 1 :] = 0.0
        ders[N + 1 :] = 0.0
        return replace(obj, values=values, radial_derivatives=ders)
    raise DomainError(f"low_pass does not support {type(obj).__name__}")


def norm_identity_check(
    spectrum: CoefficientSpectrum, k: float, R: float, grid: SphereGrid | None = None
) -> tuple[float, float]:
    """Compare the quadrature norm of the synthesized trace with the
    spectral identity k^2 R^2 sum a_n^2 |H_n(kR)|^2.

    Returns (lhs, rhs); the two agree to ~1e-9 relative for band-limited
    spectra resolved by the grid.
    """
    if grid is None:
        grid = SphereGrid.build(spectrum.max_degree)
    h, _ = hankel_factors(spectrum.max_degree, k, R)
    # per-(m,n) trace coefficients u_{m,n}(R) = k i a_{m,n} H_n(kR)
    trace = CoefficientSpectrum.from_packed(1j * k * spectrum.coefficients * h[spectrum.degrees])
    samples = synthesize(trace, grid)
    lhs = R * R * float(np.real(grid.integrate(samples * np.conjugate(samples))))
    agg = aggregate(spectrum)
    rhs = k * k * R * R * float(np.sum(agg.values**2 * np.abs(h) ** 2))
    return lhs, rhs
