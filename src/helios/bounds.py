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

`check_point` and `sweep` certify t <= T_MAX_CERTIFIED and raise
DomainError above it: at n = 1 an envelope exceeds |H_n(t)| by a relative
margin of about 1/t (1e-11 at t = 1e11, n <= 60), and far beyond that the
margin rounds to a tie, which would read as a violation.

The envelope functions and the verdict rule accept scalars or broadcast
arrays, so `check_point` (one point, magnitude from the exact finite
sum) and `sweep` (a whole grid, magnitudes from one `hankel_table` call,
verdicts as the columns of one `EnvelopeTable`) share a single
definition of each formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import N_MAX_SUPPORTED, hankel_table, hankel_value
from .util import require_array_size, require_count, require_positive

_SQRT2_OVER_SQRTPI = math.sqrt(2.0 / math.pi)

KINDS = ("low", "global", "low_deriv", "global_deriv")

T_MAX_CERTIFIED = 1e11


@dataclass(frozen=True)
class EnvelopeReport:
    kind: str
    n: int
    t: float
    value_magnitude: float
    bound: float
    applicable: bool
    satisfied: bool


def _check_certified(t: float) -> None:
    if not t <= T_MAX_CERTIFIED:
        raise DomainError(f"envelope checks are certified for t <= {T_MAX_CERTIFIED:g}, got t={t}")


def low_frequency_applicable(n, t):
    return n * n < t


def lemma_low_bound(n, t):
    """Low-frequency envelope for |H_n(t)| (applicable when n^2 < t)."""
    require_positive(t=t)
    return _SQRT2_OVER_SQRTPI * math.e / t


def lemma_global_bound(n, t):
    """Global envelope for |H_n(t)|."""
    require_positive(t=t)
    return _SQRT2_OVER_SQRTPI / t * (1.0 + n / t) ** n


def lemma_low_deriv_bound(n, t):
    """Low-frequency envelope for |H_n'(t)| (applicable when n^2 < t)."""
    require_positive(t=t)
    return _SQRT2_OVER_SQRTPI * math.e * (np.hypot(t, 1.0) + 1.0) / t / t


def lemma_global_deriv_bound(n, t):
    """Global envelope for |H_n'(t)|."""
    require_positive(t=t)
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
    _check_certified(t)
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
    require_positive(tmin=tmin, tmax=tmax)
    if tmax < tmin:
        raise DomainError(f"need tmin <= tmax, got [{tmin}, {tmax}]")
    require_count(points, "points", least=1)
    # a point's share of `sweep`'s largest arrays: 4 (nmax + 1) int64 row
    # indices in a column, at most 32 (N_MAX_SUPPORTED + 1) bytes
    require_array_size(points, "points", 32 * (N_MAX_SUPPORTED + 1))
    _check_certified(tmax)  # before np.logspace, which may overflow past the ceiling
    if points == 1:
        return np.array([tmin])
    return np.logspace(math.log10(tmin), math.log10(tmax), points)


@dataclass(frozen=True, eq=False)
class EnvelopeTable:
    """Verdicts of a sweep as parallel 1-D arrays, one entry per row:
    `kind` indexes `KINDS`, the other fields are those of `EnvelopeReport`.
    Iterating yields the rows as `EnvelopeReport` objects."""

    kind: np.ndarray
    n: np.ndarray
    t: np.ndarray
    value_magnitude: np.ndarray
    bound: np.ndarray
    applicable: np.ndarray
    satisfied: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self):
        return iter(self.reports())

    @property
    def violating(self) -> np.ndarray:
        """Mask of the rows whose envelope is applicable yet not satisfied."""
        return self.applicable & ~self.satisfied

    def reports(self, rows=slice(None)) -> list[EnvelopeReport]:
        """The given rows (an index array or a slice, all by default) as
        `EnvelopeReport` objects, in that order."""
        columns = (self.kind, self.n, self.t, self.value_magnitude, self.bound,
                   self.applicable, self.satisfied)
        return [EnvelopeReport(KINDS[k], *rest)
                for k, *rest in zip(*(c[rows].tolist() for c in columns))]


def sweep(
    nmax: int = 50,
    tmin: float = 0.1,
    tmax: float = 200.0,
    points: int = 200,
) -> EnvelopeTable:
    """Check every envelope on an (n, t) log grid.

    One `hankel_table` call gives every magnitude; rows come in
    (n, kind, t) order.
    """
    ts = log_grid(tmin, tmax, points)
    values, derivatives = hankel_table(nmax, ts)
    orders = np.arange(nmax + 1)[:, None]
    columns = []  # per kind: magnitude, bound, applicable, satisfied, each (nmax + 1, points)
    for kind in KINDS:
        magnitude = np.abs(derivatives if kind.endswith("deriv") else values)
        judged = _judge(kind, orders, ts, magnitude)
        columns.append(np.broadcast_arrays(magnitude, *judged))
    # stacked on axes (n, kind, t) and flattened in that order
    grids = [np.stack(grid, axis=1).ravel() for grid in zip(*columns)]
    return EnvelopeTable(
        np.tile(np.repeat(np.arange(len(KINDS)), len(ts)), nmax + 1),
        np.repeat(np.arange(nmax + 1), len(KINDS) * len(ts)),
        np.tile(ts, (nmax + 1) * len(KINDS)),
        *grids,
    )


def violations(table: EnvelopeTable) -> list[EnvelopeReport]:
    """Reports of the rows whose envelope is applicable yet not satisfied."""
    return table.reports(np.flatnonzero(table.violating))
