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
                          + R^2 M2^2 / (E + k - 2 sqrt(E+k) + 1)

When eps2 = 0, E = +inf and every E-denominated or eps2-weighted term is
zero (the continuous limit of the estimates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapacityError, DomainError
from .field import near_field_traces, sobolev_norm_sq, split_spectrum
from .harmonics import aggregate
from .util import require_finite


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


def _check_common(eps1: float, eps2: float, E: float, k: float, R: float, M: float) -> None:
    require_finite(eps1=eps1, eps2=eps2, k=k, R=R, M=M)
    if eps1 < 0 or eps2 < 0:
        raise DomainError("eps1 and eps2 must be nonnegative")
    if not (k > 0 and R > 0):
        raise DomainError("k and R must be positive")
    if k * R < 2.0:
        raise DomainError(f"estimates require kR >= 2, got kR = {k * R}")
    if not E + k > 0:  # also rejects a NaN E; E = +inf is the eps2 = 0 limit
        raise DomainError("need E + k > 0")


def _apriori(M_sq_scaled: float, denom: float, E: float) -> float:
    return 0.0 if math.isinf(E) else M_sq_scaled / denom


def _exp(x: float) -> float:
    """e^x; an overflow (x above about 709.8) raises CapacityError."""
    try:
        return math.exp(x)
    except OverflowError:
        raise CapacityError(f"e^{x:g} exceeds the floating range") from None


def _terms(lipschitz: float, holder: float, apriori: float) -> RhsTerms:
    """The breakdown of one estimate; a term that overflowed to inf (or NaN
    from inf * 0) raises CapacityError, so no estimate returns one."""
    terms = RhsTerms(lipschitz, holder, apriori)
    if not all(map(math.isfinite, terms)):
        raise CapacityError("stability estimate exceeds the floating range")
    return terms


def _trace_terms(eps1: float, E: float, k: float, R: float, M1: float, holder: float) -> RhsTerms:
    """The Lipschitz and a-priori terms that both trace estimates share."""
    # eps1 * eps1 overflows to inf, which _terms reports; eps1**2 would raise
    # OverflowError instead
    return _terms(2.0 * math.e**2 / math.pi * (eps1 * eps1), holder,
                  _apriori(R * R * M1 * M1, E + k, E))


def rhs_T1(eps1: float, eps2: float, E: float, k: float, R: float, M1: float) -> RhsTerms:
    """Right-hand side of the first trace estimate."""
    _check_common(eps1, eps2, E, k, R, M1)
    return _trace_terms(eps1, E, k, R, M1, 2.0 / math.pi * _exp(2.0 / R) * eps2)


def rhs_T2(eps1: float, eps2: float, E: float, k: float, R: float, M1: float) -> RhsTerms:
    """Right-hand side of the second trace estimate (Hoelder in sqrt(eps2))."""
    _check_common(eps1, eps2, E, k, R, M1)
    holder = math.sqrt(2.0 * R / (math.pi * k)) * _exp(1.0 / R) * M1 * math.sqrt(eps2)
    return _trace_terms(eps1, E, k, R, M1, holder)


def rhs_T1der(eps1: float, eps2: float, E: float, k: float, R: float, M2: float) -> RhsTerms:
    """Right-hand side of the radial-derivative estimate."""
    _check_common(eps1, eps2, E, k, R, M2)
    if not math.isinf(E) and not E + k > 1.0:
        raise DomainError("derivative estimate needs E + k > 1")
    denom = E + k - 2.0 * math.sqrt(E + k) + 1.0
    # k^2 e^(2/R) alone overflows before eps2 shrinks it
    return _terms(math.e**2 / math.pi * (3.0 + math.sqrt(5.0)) * k * k * (eps1 * eps1),
                  k * k * eps2 * _exp(2.0 / R),
                  _apriori(R * R * M2 * M2, denom, E))


_RHS = {"T1": rhs_T1, "T2": rhs_T2, "T1der": rhs_T1der}


def verify_theorem(spectrum, k: float, R: float, which: str) -> StabilityReport:
    """Check one stability estimate on the trace generated by a spectrum.

    lhs is the squared surface norm of the trace (T1, T2) or of its radial
    derivative (T1der); M1/M2 are first-order norms of the same trace.
    """
    return verify_ensemble([(spectrum, k)], R, which)[0]


def verify_ensemble(members, R: float, which: str) -> list[StabilityReport]:
    """`verify_theorem` for every (spectrum, k) pair on one sphere of
    radius R, with each spectrum aggregated once and the traces taken from
    one Hankel table. Norms and right-hand sides stay per member, so each
    report equals that of `verify_theorem` bit for bit."""
    if which not in _RHS:
        raise DomainError(f"unknown estimate {which!r} (expected T1, T2, or T1der)")
    aggregated = [(aggregate(spectrum), k) for spectrum, k in members]
    splits = [split_spectrum(agg, k, R) for agg, k in aggregated]
    reports = []
    for (_, k), split, trace in zip(aggregated, splits, near_field_traces(aggregated, R)):
        values = trace.radial_derivatives if which == "T1der" else trace.values
        lhs = sobolev_norm_sq(values, 0, R)
        M = math.sqrt(sobolev_norm_sq(values, 1, R))
        terms = _RHS[which](split.eps1, split.eps2, split.E, k, R, M)
        reports.append(StabilityReport(
            lhs=lhs,
            rhs_terms=terms,
            satisfied=lhs <= terms.total,
            inputs={
                "k": k,
                "R": R,
                "N": split.N,
                "eps1": split.eps1,
                "eps2": split.eps2,
                "E": split.E,
                ("M2" if which == "T1der" else "M1"): M,
                "which": which,
            },
        ))
    return reports


def corollary_soft_terms(
    eps1: float,
    eps2: float,
    E: float,
    k: float,
    R: float,
    d_norm1: float,
    variant: str = "T1",
) -> RhsTerms:
    """Term breakdown of the soft-obstacle perturbation bound: the trace
    estimate `variant` (T1 or T2) at M1 = sqrt(k^2 R^2 + 1)/R * d_norm1,
    scaled by R^2/(k^2 R^2 + 1)."""
    if variant not in ("T1", "T2"):
        raise DomainError(f"unknown variant {variant!r} (expected T1 or T2)")
    kr2p1 = k * k * R * R + 1.0
    # the estimate itself rejects R <= 0, so only the division waits for it
    M1 = math.sqrt(kr2p1) / R * d_norm1 if R > 0 else d_norm1
    terms = _RHS[variant](eps1, eps2, E, k, R, M1)
    return RhsTerms(*(R * R / kr2p1 * term for term in terms))


def corollary_hard_terms(
    eps1: float, eps2: float, E: float, k: float, R: float, d_norm1: float
) -> RhsTerms:
    """Term breakdown of the hard-obstacle perturbation bound: the
    radial-derivative estimate at M2 = k^2 R d_norm1 / sqrt(k^2 R^2 + 1),
    scaled by (k^2 R^2 + 1)/(k^4 R^2)."""
    kr2p1 = k * k * R * R + 1.0
    terms = rhs_T1der(eps1, eps2, E, k, R, k * k * R * d_norm1 / math.sqrt(kr2p1))
    return RhsTerms(*(kr2p1 / (k * k * R * R) / (k * k) * term for term in terms))
