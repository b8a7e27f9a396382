"""Spherical Hankel functions of the first kind, uniformly rescaled by
sqrt(2/pi), evaluated through the exact finite-sum representation

    H_n(t) = sqrt(2/pi) * (-i)^(n+1) * (e^(it)/t) * S_n(t),
    S_n(t) = sum_{m=0..n} (n+m)! / (m! (n-m)!) * (i/(2t))^m,

together with the argument derivative

    H_n'(t) = sqrt(2/pi) * (-i)^(n+1) * (e^(it)/t^2)
              * ((it - 1) * S_n(t) - sum_{m=1..n} m * term_m),

a vectorized table of H_n and H_n' over many orders and arguments built
from the upward three-term recurrence, and an independent magnitude
oracle built from Bessel recurrences (upward for y_n, normalized downward
Miller scheme for j_n).

The finite sum is exact (no truncation); terms are generated by the ratio
recursion term_{m+1} = term_m * i * (n+m+1)(n-m) / (2t(m+1)) and summed in
ascending m in double-double arithmetic built on error-free
transformations, which keeps the relative error of S_n(t) below 1e-12
even in the cancellation-heavy region t ~ n. It is the certified oracle
behind the scalar API (`hankel_paper`, `hankel_paper_deriv`,
`hankel_value`). `hankel_table` is the fast path for everything that
needs many values; the tests hold it to the finite sum within 1e-13
relative. Magnitudes agree with the classical spherical Hankel function
times sqrt(2/pi); the global phase is the standard one, so the identity
H_0' = -H_1 holds exactly.

Arguments outside the domain raise DomainError; a finite sum whose terms
would exceed CAPACITY_LIMIT, or a result that is not representable in
double precision, raises CapacityError. The table raises the same class
as the scalar API would for some order and argument it covers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _dd
from .errors import CapacityError, DomainError
from .util import require_finite

N_MAX_SUPPORTED = 60
T_MIN_ORACLE = 0.1
CAPACITY_LIMIT = 1e300

_PREF = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class HankelValue:
    """Value and argument-derivative of the rescaled Hankel function."""

    order: int
    argument: float
    value: complex
    derivative: complex


def _check_args(n: int, t) -> None:
    """Validate an order and an argument (a float or an array of them)."""
    if n < 0:
        raise DomainError(f"order must be nonnegative, got n={n}")
    if n > N_MAX_SUPPORTED:
        raise DomainError(f"order n={n} exceeds supported maximum {N_MAX_SUPPORTED}")
    require_finite(t=t)
    positive = np.greater(t, 0.0)
    if not np.all(positive):
        bad = np.asarray(t).flat[np.argmin(positive)]
        raise DomainError(f"argument must be positive, got t={bad}")


def _representable(z: complex, n: int, t: float) -> complex:
    if not cmath.isfinite(z):
        raise CapacityError(
            f"H_{n}({t}) or its derivative is not representable in double precision"
        )
    return z


def _finite_sums(n: int, t: float) -> tuple[complex, complex]:
    """Return (S_n(t), sum_{m>=1} m*term_m) via the term-ratio recursion.

    Term and partial sums are carried as double-double complex values;
    raises CapacityError when a term or partial-sum magnitude would exceed
    CAPACITY_LIMIT.
    """
    # complex double-double: (re_hi, re_lo, im_hi, im_lo)
    tr, trl, ti, til = 1.0, 0.0, 0.0, 0.0  # current term
    sr, srl, si, sil = 1.0, 0.0, 0.0, 0.0  # S_n partial sum
    mr, mrl, mi, mil = 0.0, 0.0, 0.0, 0.0  # sum of m * term_m
    two_t = 2.0 * t
    for m in range(n):
        num = float((n + m + 1) * (n - m))
        dh, dl = _dd.two_prod(two_t, float(m + 1))
        rh, rl = _dd.dd_div_f(num, dh, dl)
        # term *= i * r: multiply by r, then rotate (re, im) -> (-im, re)
        ar, arl = _dd.dd_mul(tr, trl, rh, rl)
        ai, ail = _dd.dd_mul(ti, til, rh, rl)
        tr, trl, ti, til = -ai, -ail, ar, arl
        if abs(tr) > CAPACITY_LIMIT or abs(ti) > CAPACITY_LIMIT:
            raise CapacityError(
                f"term magnitude overflow in finite sum at n={n}, t={t}, m={m + 1}"
            )
        sr, srl = _dd.dd_add(sr, srl, tr, trl)
        si, sil = _dd.dd_add(si, sil, ti, til)
        w = float(m + 1)
        wr, wrl = _dd.dd_mul_f(tr, trl, w)
        wi, wil = _dd.dd_mul_f(ti, til, w)
        mr, mrl = _dd.dd_add(mr, mrl, wr, wrl)
        mi, mil = _dd.dd_add(mi, mil, wi, wil)
        if abs(sr) > CAPACITY_LIMIT or abs(si) > CAPACITY_LIMIT:
            raise CapacityError(
                f"partial sum overflow in finite sum at n={n}, t={t}, m={m + 1}"
            )
    return complex(sr + srl, si + sil), complex(mr + mrl, mi + mil)


def _phase(n: int, t: float) -> complex:
    return _PREF * (-1j) ** (n + 1) * cmath.exp(1j * t)


def _value(n: int, t: float, s: complex) -> complex:
    return _representable(_phase(n, t) / t * s, n, t)


def _derivative(n: int, t: float, s: complex, ms: complex) -> complex:
    # divide by t twice: t * t underflows to zero for t < 1e-154
    return _representable(_phase(n, t) / t / t * ((1j * t - 1.0) * s - ms), n, t)


def hankel_paper(n: int, t: float) -> complex:
    """Rescaled spherical Hankel function sqrt(2/pi)*h_n^(1)(t)."""
    _check_args(n, t)
    s, _ = _finite_sums(n, t)
    return _value(n, t, s)


def hankel_paper_deriv(n: int, t: float) -> complex:
    """d/dt of hankel_paper(n, .) at t, from the differentiated finite sum."""
    _check_args(n, t)
    return _derivative(n, t, *_finite_sums(n, t))


def hankel_value(n: int, t: float) -> HankelValue:
    """Bundle value and derivative (single finite-sum pass)."""
    _check_args(n, t)
    s, ms = _finite_sums(n, t)
    return HankelValue(
        order=n, argument=t, value=_value(n, t, s), derivative=_derivative(n, t, s, ms)
    )


def hankel_table(nmax: int, t_array) -> tuple[np.ndarray, np.ndarray]:
    """H_n(t) and H_n'(t) for n = 0..nmax at every t of a float or 1-D
    array, each of shape (nmax + 1, len(t)).

    Starts from the closed forms H_0 = -i c e^(it)/t and
    H_1 = -c e^(it)/t (1 + i/t), c = sqrt(2/pi), and runs the upward
    recurrence f_{n+1} = (2n+1)/t f_n - f_{n-1} (DLMF 10.51.1), which is
    stable for h^(1) because |h_n| grows with n. Derivatives follow
    DLMF 10.51.2, f_n' = (n/t) f_n - f_{n+1}; for n >= 1 it is used in the
    equivalent form f_n' = f_{n-1} - (n+1)/t f_n, which needs no order
    above nmax, and H_0' = -H_1 holds exactly.

    A column with an entry beyond CAPACITY_LIMIT is where the finite sum
    may overflow its terms or its result, so that column is redone by
    `hankel_value`: the table raises DomainError or CapacityError exactly
    where `hankel_value(n, t)` raises it for some n <= nmax, and never
    returns inf or NaN.
    """
    t = np.asarray(t_array, dtype=float).reshape(-1)
    _check_args(nmax, t)
    with np.errstate(all="ignore"):  # out-of-range columns are redone below
        base = _PREF * np.exp(1j * t) / t
        h1 = -base * (1.0 + 1j / t)
        rows = [-1j * base, h1]
        for n in range(1, nmax):
            rows.append((2 * n + 1) / t * rows[n] - rows[n - 1])
        values = np.array(rows[: nmax + 1])
        derivatives = np.empty_like(values)
        derivatives[0] = -h1
        derivatives[1:] = values[:-1] - np.arange(2, nmax + 2)[:, None] / t * values[1:]
        in_range = (np.abs(values) <= CAPACITY_LIMIT) & (np.abs(derivatives) <= CAPACITY_LIMIT)
    for j in np.flatnonzero(~np.all(in_range, axis=0)):
        for n in range(nmax + 1):
            h = hankel_value(n, float(t[j]))
            values[n, j], derivatives[n, j] = h.value, h.derivative
    return values, derivatives


def _spherical_y(n: int, t: float) -> float:
    """y_n(t) by upward recurrence (stable for y)."""
    y0 = -math.cos(t) / t
    if n == 0:
        return y0
    y1 = -math.cos(t) / (t * t) - math.sin(t) / t
    for m in range(1, n):
        y0, y1 = y1, (2 * m + 1) / t * y1 - y0
    return y1


def _spherical_j(n: int, t: float) -> float:
    """j_n(t) by downward Miller recurrence, normalized with
    sum_m (2m+1) j_m(t)^2 = 1."""
    start = int(max(n, t)) + 60
    jp = 0.0  # j_{m+1}
    jc = 1e-30  # j_m, arbitrary seed
    norm = (2 * start + 1) * jc * jc
    captured = jc if n == start else 0.0
    for m in range(start, 0, -1):
        jm = (2 * m + 1) / t * jc - jp
        jp, jc = jc, jm
        if abs(jc) > 1e140:
            scale = 1e-140
            jp *= scale
            jc *= scale
            norm *= scale * scale
            captured *= scale
        norm += (2 * (m - 1) + 1) * jc * jc
        if m - 1 == n:
            captured = jc
    return captured / math.sqrt(norm)


def hankel_magnitude_oracle(n: int, t: float) -> float:
    """|hankel_paper(n, t)| through an independent recurrence path:
    sqrt(2/pi) * hypot(j_n(t), y_n(t))."""
    if n < 0 or n > N_MAX_SUPPORTED:
        raise DomainError(f"oracle supports 0 <= n <= {N_MAX_SUPPORTED}, got {n}")
    if not t >= T_MIN_ORACLE:
        raise DomainError(f"oracle supports t >= {T_MIN_ORACLE}, got {t}")
    return _PREF * math.hypot(_spherical_j(n, t), _spherical_y(n, t))
