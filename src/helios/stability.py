"""Right-hand sides of the near-field stability estimates and the
linearized-obstacle corollaries, plus a verifier that checks the
inequalities against traces computed from actual spectra, one spectrum
or a whole ensemble at a time.

The three estimates bound squared surface norms of the trace (or of its
radial derivative) by a Lipschitz term in eps1, a Hoelder-type term in
eps2, and an a-priori term in M/(E + k):

  T1:    (2e^2/pi) eps1^2 + (2/pi) e^(2/R) eps2        + R^2 M1^2/(E+k)
  T2:    (2e^2/pi) eps1^2 + sqrt(2R/(pi k)) e^(1/R) M1 sqrt(eps2)
                                                        + R^2 M1^2/(E+k)
  T1der: (e^2/pi)(3+sqrt(5)) k^2 eps1^2 + k^2 e^(2/R) eps2
                                          + R^2 M2^2 / (sqrt(E+k) - 1)^2

When eps2 = 0, E = +inf and every E-denominated or eps2-weighted term is
zero (the continuous limit of the estimates): R^2 M^2 / inf is that zero.

The estimates read a spectrum only through its per-degree magnitudes:
`verify_magnitudes` takes rows of them, one per wavenumber, and returns
columns; `verify_theorem` is its one-row call on the magnitudes of one
`CoefficientSpectrum` and returns a report.

Every argument of an estimate or a corollary is a float or an array, and
arrays broadcast against each other. An array call equals the element-wise
scalar calls bit for bit, and a batch with one failing element raises the
error class that element raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .field import near_field_trace, sobolev_norm_sq, split_spectrum
from .harmonics import CoefficientSpectrum, aggregate
from .specfun import N_MAX_SUPPORTED
from .util import require_finite, require_positive, require_real

KR_MIN_ESTIMATES = 2.0

# an overflow, or a NaN from inf * 0, surfaces as a non-finite term, which
# _terms reports as a CapacityError
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class RhsTerms(NamedTuple):
    """Named breakdown of a stability right-hand side."""

    lipschitz: float
    holder: float
    apriori: float

    @property
    def total(self) -> float:
        return self.lipschitz + self.holder + self.apriori

    @property
    def non_lipschitz(self) -> float:
        return self.holder + self.apriori


@dataclass(frozen=True)
class StabilityReport:
    lhs: float
    rhs_terms: RhsTerms
    satisfied: bool
    inputs: dict

    @property
    def rhs_total(self) -> float:
        return self.rhs_terms.total


def _check_common(eps1, eps2, E, k, R, M) -> None:
    """The hypotheses every estimate shares; a corollary passes its
    substituted a-priori norm as M, so they cover the corollaries too."""
    require_positive(k=k, R=R)
    require_finite(eps1=eps1, eps2=eps2, M=M)
    if (np.less(eps1, 0.0) | np.less(eps2, 0.0) | np.less(M, 0.0)).any():
        raise DomainError(f"eps1, eps2 and M must be nonnegative, "
                          f"got {np.min(eps1)}, {np.min(eps2)}, {np.min(M)}")
    if np.less(k * R, KR_MIN_ESTIMATES).any():
        raise DomainError(f"estimates require kR >= {KR_MIN_ESTIMATES:g}, got kR = {np.min(k * R)}")
    if isinstance(E, int):  # E may be +inf, but an int must be within the float range
        require_finite(E=E)
    if not np.greater(E + k, 0.0).all():  # also rejects a NaN E; E = +inf is the eps2 = 0 limit
        raise DomainError("need E + k > 0")


def _terms(lipschitz, holder, apriori) -> RhsTerms:
    """The breakdown of one estimate; a term that overflowed to inf (or NaN
    from inf * 0) raises CapacityError, so no estimate returns one. The terms
    are nonnegative, so the total is finite exactly when every term is and
    their sum does not overflow."""
    terms = RhsTerms(lipschitz, holder, apriori)
    if not np.isfinite(terms.total).all():
        raise CapacityError("stability estimate exceeds the floating range")
    return terms


def _trace_terms(eps1, E, k, R, M1, holder) -> RhsTerms:
    """The Lipschitz and a-priori terms that both trace estimates share."""
    # eps1 * eps1 overflows to inf, which _terms reports; eps1**2 would raise
    # OverflowError instead
    return _terms(2.0 * math.e**2 / math.pi * (eps1 * eps1), holder, R * R * M1 * M1 / (E + k))


@_quiet
def rhs_T1(eps1, eps2, E, k, R, M1) -> RhsTerms:
    """Right-hand side of the first trace estimate."""
    _check_common(eps1, eps2, E, k, R, M1)
    return _trace_terms(eps1, E, k, R, M1, 2.0 / math.pi * np.exp(2.0 / R) * eps2)


@_quiet
def rhs_T2(eps1, eps2, E, k, R, M1) -> RhsTerms:
    """Right-hand side of the second trace estimate (Hoelder in sqrt(eps2))."""
    _check_common(eps1, eps2, E, k, R, M1)
    holder = np.sqrt(2.0 * R / (math.pi * k)) * np.exp(1.0 / R) * M1 * np.sqrt(eps2)
    return _trace_terms(eps1, E, k, R, M1, holder)


@_quiet
def rhs_T1der(eps1, eps2, E, k, R, M2) -> RhsTerms:
    """Right-hand side of the radial-derivative estimate."""
    _check_common(eps1, eps2, E, k, R, M2)
    if not np.greater(E + k, 1.0).all():
        raise DomainError("derivative estimate needs E + k > 1")
    # k^2 e^(2/R) alone overflows before eps2 shrinks it
    return _terms(math.e**2 / math.pi * (3.0 + math.sqrt(5.0)) * k * k * (eps1 * eps1),
                  k * k * eps2 * np.exp(2.0 / R),
                  R * R * M2 * M2 / (np.sqrt(E + k) - 1.0) ** 2)


_RHS = {"T1": rhs_T1, "T2": rhs_T2, "T1der": rhs_T1der}


@_quiet
def verify_magnitudes(magnitudes, ks, R: float, which: str):
    """The columns of estimate `which` for rows of per-degree magnitudes,
    row j at wavenumber ks[j], on a sphere of radius R: the split, lhs,
    the a-priori norm M1 (M2 for T1der) and the `RhsTerms`, each an array
    over the rows. A row's columns do not depend on the other rows."""
    if which not in _RHS:
        raise DomainError(f"unknown estimate {which!r} (expected T1, T2, or T1der)")
    split = split_spectrum(magnitudes, ks, R)  # also checks kR against field.KR_MIN
    values, radial_derivatives = near_field_trace(magnitudes, ks, R)
    trace = radial_derivatives if which == "T1der" else values
    lhs = sobolev_norm_sq(trace, 0, R)
    M = np.sqrt(sobolev_norm_sq(trace, 1, R))
    return split, lhs, M, _RHS[which](split.eps1, split.eps2, split.E, ks, R, M)


def verify_theorem(spectrum: CoefficientSpectrum, k: float, R: float, which: str) -> StabilityReport:
    """Check one stability estimate on the trace generated by a spectrum.

    lhs is the squared surface norm of the trace (T1, T2) or of its radial
    derivative (T1der); M1/M2 are first-order norms of the same trace. The
    report is row 0 of `verify_magnitudes` of the spectrum's magnitudes
    padded to degree N_MAX_SUPPORTED: every sum runs over the same 61
    degrees, whatever the spectrum's max degree."""
    require_real(k=k)  # before np.array converts it
    magnitudes = np.zeros((1, N_MAX_SUPPORTED + 1))
    magnitudes[0, : spectrum.max_degree + 1] = aggregate(spectrum)
    split, lhs, M, terms = verify_magnitudes(magnitudes, np.array([k], dtype=float), R, which)
    N, eps1, eps2, E, M, lhs, *parts = (column[0].item() for column in
                                        (split.N, split.eps1, split.eps2, split.E, M, lhs, *terms))
    rhs_terms = RhsTerms(*parts)
    inputs = {"k": float(k), "R": R, "N": int(N), "eps1": eps1, "eps2": eps2, "E": E,
              "M2" if which == "T1der" else "M1": M, "which": which}
    return StabilityReport(lhs, rhs_terms, lhs <= rhs_terms.total, inputs)


def _substituted_norm(name: str, M, d_norm1):
    """A corollary's a-priori norm M, formed from a finite k, R and d_norm1;
    CapacityError where M overflowed (to inf, or to NaN from inf / inf or
    inf * 0) from a nonnegative d_norm1. A negative d_norm1 passes through
    to the estimate's DomainError."""
    if (np.greater_equal(d_norm1, 0.0) & ~np.isfinite(M)).any():
        raise CapacityError(f"a-priori norm {name} exceeds the floating range")
    return M


@_quiet
def corollary_soft_terms(eps1, eps2, E, k, R, d_norm1, variant: str = "T1") -> RhsTerms:
    """Term breakdown of the soft-obstacle perturbation bound: the trace
    estimate `variant` (T1 or T2) at M1 = sqrt(k^2 R^2 + 1)/R * d_norm1,
    scaled by R^2/(k^2 R^2 + 1)."""
    if variant not in ("T1", "T2"):
        raise DomainError(f"unknown variant {variant!r} (expected T1 or T2)")
    require_positive(k=k, R=R)  # before the division by R
    require_finite(d_norm1=d_norm1)  # before M1 is formed from it
    kr2p1 = k * k * R * R + 1.0
    M1 = _substituted_norm("M1", np.sqrt(kr2p1) / R * d_norm1, d_norm1)
    scale = R * R / kr2p1
    return _terms(*(scale * term for term in _RHS[variant](eps1, eps2, E, k, R, M1)))


@_quiet
def corollary_hard_terms(eps1, eps2, E, k, R, d_norm1) -> RhsTerms:
    """Term breakdown of the hard-obstacle perturbation bound: the
    radial-derivative estimate at M2 = k^2 R d_norm1 / sqrt(k^2 R^2 + 1),
    scaled by (k^2 R^2 + 1)/(k^4 R^2)."""
    require_positive(k=k, R=R)  # before the divisions by k and R
    require_finite(d_norm1=d_norm1)  # before M2 is formed from it
    kr2p1 = k * k * R * R + 1.0
    M2 = _substituted_norm("M2", k * k * R * d_norm1 / np.sqrt(kr2p1), d_norm1)
    scale = kr2p1 / (k * k * R * R) / (k * k)
    return _terms(*(scale * term for term in rhs_T1der(eps1, eps2, E, k, R, M2)))
