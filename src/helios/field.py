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

import math
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
    """Low/high frequency energy budget at cutoff N = floor(sqrt(kR))."""

    N: int
    eps1: float
    eps2: float
    E: float  # -ln(eps2), +inf when eps2 == 0


def _check_kR(k: float, R: float) -> None:
    require_positive(k=k, R=R)
    if k * R < KR_MIN:
        raise DomainError(f"kR = {k * R} below supported minimum {KR_MIN}")


def default_cutoff(k: float, R: float) -> int:
    """The stability split cutoff N = floor(sqrt(kR))."""
    _check_kR(k, R)
    return math.floor(math.sqrt(k * R))


def hankel_factors(max_degree: int, k: float, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of H_n(kR) and H_n'(kR) for n = 0..max_degree (one column of
    the Hankel table)."""
    _check_kR(k, R)
    values, derivatives = hankel_table(max_degree, k * R)
    return values[:, 0], derivatives[:, 0]


def near_field_trace(spectrum, k: float, R: float) -> NearFieldTrace:
    """Trace of the radiating field generated by a far-field spectrum."""
    return near_field_traces([(spectrum, k)], R)[0]


def near_field_traces(members, R: float) -> list[NearFieldTrace]:
    """Traces of several (spectrum, k) pairs on one sphere of radius R,
    from one Hankel table over all their wavenumbers. Each equals the
    trace of that pair alone bit for bit: a table column does not depend
    on the other columns, rows n <= L do not depend on rows above L, and
    no column is redone from the finite sum, since for kR >= KR_MIN every
    entry up to degree 60 stays below CAPACITY_LIMIT (|H_60'(0.1)| is
    about 3.4e162)."""
    for _, k in members:
        _check_kR(k, R)
    aggs = [aggregate(spectrum) for spectrum, _ in members]
    if not aggs:
        return []
    ks = [k for _, k in members]
    values, derivatives = hankel_table(max(agg.max_degree for agg in aggs), np.array(ks) * R)
    # one contiguous row per member, as a one-column table would give
    values, derivatives = values.T.copy(), derivatives.T.copy()
    return [
        NearFieldTrace(
            k=k,
            R=R,
            values=1j * k * agg.values * values[j, : agg.max_degree + 1],
            radial_derivatives=1j * k * k * agg.values * derivatives[j, : agg.max_degree + 1],
        )
        for j, (agg, k) in enumerate(zip(aggs, ks))
    ]


def sobolev_norm_sq(values, l: int, R: float) -> float:
    """Squared Sobolev norm R^2 sum_{m<=l} sum_n (n/R)^(2m) |v_n|^2 of
    per-degree trace values."""
    if l < 0:
        raise DomainError("Sobolev order l must be nonnegative")
    require_positive(R=R)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        v = np.abs(np.asarray(values)) ** 2
        n_over_R = np.arange(len(v)) / R
        total = 0.0
        for m in range(l + 1):
            total += float(np.sum(n_over_R ** (2 * m) * v))
        total = R * R * total
    if not math.isfinite(total):
        raise CapacityError("Sobolev norm exceeds the floating range")
    return total


def sobolev_norm(values, l: int, R: float) -> float:
    """Sobolev norm (square root of sobolev_norm_sq)."""
    return math.sqrt(sobolev_norm_sq(values, l, R))


def split_spectrum(spectrum, k: float, R: float) -> SpectralSplit:
    """Energy split at N = floor(sqrt(kR)) and E = -ln(eps2)."""
    N = default_cutoff(k, R)
    agg = aggregate(spectrum)
    sq = agg.values**2
    eps1 = math.sqrt(float(np.sum(sq[: N + 1])))
    eps2 = math.sqrt(float(np.sum(sq[N + 1 :])))
    E = math.inf if eps2 == 0.0 else -math.log(eps2)
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
