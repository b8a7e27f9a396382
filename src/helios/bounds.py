"""Explicit envelopes for the rescaled Hankel function and its argument
derivative, with their applicability regions, plus a grid sweep that
certifies them numerically.

Four envelopes are provided:

  low:          sqrt(2)*e / (sqrt(pi)*t)                   valid for n^2 < t
  global:       sqrt(2)/(sqrt(pi)*t) * (1 + n/t)^n          valid for t > 0
  low_deriv:    sqrt(2)*e/sqrt(pi) * (sqrt(t^2+1)+1)/t^2    valid for n^2 < t
  global_deriv: sqrt(2)/(sqrt(pi)*t) * (sqrt(t^2+1)/t + n/t)
                * (1 + n/t)^n                               valid for t > 0

The low envelopes bound |H_n| and |H_n'|; the global ones hold for every
positive argument. Strict inequality is required and ties count as
violations, with one exception: at n = 0 the two global envelopes
coincide identically with the function they bound, so there the check is
agreement within a few ulps rather than strict dominance.

The envelope functions and the verdict rule accept scalars or broadcast
arrays, so `check_point` (one point, magnitude from the double-double
finite sum) and `sweep` (a whole grid, magnitudes from one
`hankel_table` call) share a single definition of each formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import hankel_table, hankel_value
from .util import require_finite

_SQRT2_OVER_SQRTPI = math.sqrt(2.0 / math.pi)

KINDS = ("low", "global", "low_deriv", "global_deriv")


@dataclass(frozen=True)
class EnvelopeReport:
    kind: str
    n: int
    t: float
    value_magnitude: float
    bound: float
    applicable: bool
    satisfied: bool


def _check_t(t) -> None:
    if not np.all(np.greater(t, 0.0)):
        raise DomainError(f"argument must be positive, got t={t}")


def low_frequency_applicable(n, t):
    return n * n < t


def lemma_low_bound(n, t):
    """Low-frequency envelope for |H_n(t)| (applicable when n^2 < t)."""
    _check_t(t)
    return _SQRT2_OVER_SQRTPI * math.e / t


def lemma_global_bound(n, t):
    """Global envelope for |H_n(t)|."""
    _check_t(t)
    return _SQRT2_OVER_SQRTPI / t * (1.0 + n / t) ** n


def lemma_low_deriv_bound(n, t):
    """Low-frequency envelope for |H_n'(t)| (applicable when n^2 < t)."""
    _check_t(t)
    return _SQRT2_OVER_SQRTPI * math.e * (np.hypot(t, 1.0) + 1.0) / (t * t)


def lemma_global_deriv_bound(n, t):
    """Global envelope for |H_n'(t)|."""
    _check_t(t)
    return _SQRT2_OVER_SQRTPI / t * (np.hypot(t, 1.0) / t + n / t) * (1.0 + n / t) ** n


_BOUND_FUNCS = {
    "low": lemma_low_bound,
    "global": lemma_global_bound,
    "low_deriv": lemma_low_deriv_bound,
    "global_deriv": lemma_global_deriv_bound,
}


def _judge(kind: str, n, t, magnitude):
    """(bound, applicable, satisfied) of one envelope kind, on scalars or
    on arrays broadcast together."""
    if kind not in _BOUND_FUNCS:
        raise DomainError(f"unknown envelope kind {kind!r}")
    bound = _BOUND_FUNCS[kind](n, t)
    is_global = kind.startswith("global")
    applicable = np.logical_or(is_global, low_frequency_applicable(n, t))
    # n = 0 global envelopes equal the function identically; accept
    # round-off-level agreement there instead of strict dominance.
    exactly_tight = np.logical_and(is_global, np.equal(n, 0))
    satisfied = (magnitude < bound) | (exactly_tight & (magnitude <= bound * (1.0 + 1e-12)))
    return bound, applicable, satisfied


def check_point(kind: str, n: int, t: float) -> EnvelopeReport:
    """Evaluate one envelope against the finite-sum Hankel magnitude."""
    h = hankel_value(n, t)
    magnitude = abs(h.derivative) if kind.endswith("deriv") else abs(h.value)
    bound, applicable, satisfied = _judge(kind, n, t, magnitude)
    return EnvelopeReport(
        kind=kind,
        n=n,
        t=t,
        value_magnitude=magnitude,
        bound=float(bound),
        applicable=bool(applicable),
        satisfied=bool(satisfied),
    )


def log_grid(tmin: float, tmax: float, points: int) -> np.ndarray:
    require_finite(tmin=tmin, tmax=tmax)
    if not (tmin > 0.0 and tmax >= tmin):
        raise DomainError(f"need 0 < tmin <= tmax, got [{tmin}, {tmax}]")
    if points < 1:
        raise DomainError("grid needs at least one point")
    if points == 1:
        return np.array([tmin])
    return np.logspace(math.log10(tmin), math.log10(tmax), points)


def sweep(
    nmax: int = 50,
    tmin: float = 0.1,
    tmax: float = 200.0,
    points: int = 200,
    kinds: tuple[str, ...] = KINDS,
) -> list[EnvelopeReport]:
    """Check the requested envelopes on an (n, t) log grid.

    One `hankel_table` call gives every magnitude; rows come back in
    (n, kind, t) order.
    """
    ts = log_grid(tmin, tmax, points)
    values, derivatives = hankel_table(nmax, ts)
    orders = np.arange(nmax + 1)[:, None]
    columns = []
    for kind in kinds:
        magnitude = np.abs(derivatives if kind.endswith("deriv") else values)
        judged = _judge(kind, orders, ts, magnitude)
        columns.append((kind, magnitude, *np.broadcast_arrays(*judged)))
    t_list = ts.tolist()
    reports = []
    for n in range(nmax + 1):
        for kind, *grids in columns:
            rows = [grid[n].tolist() for grid in grids]
            reports.extend(EnvelopeReport(kind, n, *point) for point in zip(t_list, *rows))
    return reports


def violations(reports: list[EnvelopeReport]) -> list[EnvelopeReport]:
    """Reports whose envelope is applicable yet not satisfied."""
    return [r for r in reports if r.applicable and not r.satisfied]
