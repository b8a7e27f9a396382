"""Spherical Hankel functions of the first kind, uniformly rescaled by
sqrt(2/pi), evaluated through the exact finite-sum representation

    H_n(t) = sqrt(2/pi) * (-i)^(n+1) * (e^(it)/t) * S_n(t),
    S_n(t) = sum_{m=0..n} (n+m)! / (m! (n-m)!) * (i/(2t))^m,

together with the argument derivative

    H_n'(t) = sqrt(2/pi) * (-i)^(n+1) * (e^(it)/t^2)
              * ((it - 1) * S_n(t) - sum_{m=1..n} m * term_m),

a vectorized table of H_n and H_n' over many orders and arguments built
from the upward three-term recurrence, and an independent magnitude
oracle from the closed form of DLMF section 10.49,

    t^2 (j_n(t)^2 + y_n(t)^2) = sum_{k=0..n} W_{n,k} (2t)^(2k-2n),
    W_{n,k} = (2n-k)! (2n-2k)! / (k! ((n-k)!)^2),

a sum of positive terms that cannot cancel, exact for every t > 0.

The finite sum is exact (no truncation). `t` is a binary float, so
t = p/q exactly, and every term times (2p)^n is a Gaussian integer: the
sum is formed exactly in Python integers and each real and imaginary part
is rounded once, correctly. `hankel_value` is the one scalar entry point:
value and derivative from one pass. `hankel_table` is the fast path for
everything that needs many values; the tests hold it to the finite sum
within 1e-13 relative. It runs its recurrence in one of two arithmetics,
by the number of arguments: a table of at most TABLE_SCALAR_WIDTH columns
(one kR, a sweep's few wavenumbers, a small certify grid) column by column
in Python complex numbers, where a numpy row operation would cost more
than its few entries; a wider one row by row in numpy. Both form every
entry with the same IEEE operations, so a column does not depend on the
width of the table it is in. The oracle shares no code with the finite sum
beyond the argument check, so comparing the two compares two identities.
Magnitudes agree with the classical spherical Hankel function times
sqrt(2/pi); the global phase is the standard one, so the identity
H_0' = -H_1 holds exactly.

An order is an integer in [0, N_MAX_SUPPORTED] (`require_order`, the one
check of an order or a degree in helios) and an argument a positive finite
float; anything else raises DomainError. A sum, value, derivative or
magnitude that is not representable in double precision raises
CapacityError. The table raises the same class as the scalar API would
for some order and argument it covers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .util import require_count, require_positive

N_MAX_SUPPORTED = 60
CAPACITY_LIMIT = 1e300
# the widest table whose recurrence runs column by column in Python complex
# arithmetic rather than row by row in numpy (see hankel_table)
TABLE_SCALAR_WIDTH = 8

_PREF = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class HankelValue:
    """Value and argument-derivative of the rescaled Hankel function."""

    order: int
    argument: float
    value: complex
    derivative: complex


def require_order(n, what: str = "order") -> None:
    """DomainError unless n is an integer (`util.require_count`) in
    [0, N_MAX_SUPPORTED]."""
    require_count(n, what)
    if n > N_MAX_SUPPORTED:
        raise DomainError(f"{what} {n} exceeds supported maximum {N_MAX_SUPPORTED}")


def _check_args(n: int, t) -> None:
    """Validate an order and an argument (a float or an array of them)."""
    require_order(n)
    require_positive(t=t)


def _representable(z: complex, n: int, t: float) -> complex:
    if not cmath.isfinite(z):
        raise CapacityError(
            f"H_{n}({t}) or its derivative is not representable in double precision"
        )
    return z


def _finite_sums(n: int, t: float) -> tuple[complex, complex]:
    """Return (S_n(t), sum_{m>=1} m*term_m), each part correctly rounded.

    The float t is exactly p/q, so with P = 2p each term is
    term_m = i^m w_m / P^n for the integer weight w_m = c_m q^m P^(n-m),
    c_m = (n+m)!/(m!(n-m)!). Both sums are formed exactly in integers,
    split by m mod 4 into real and imaginary parts, and each part is
    rounded once; a part beyond the float range raises CapacityError.
    """
    p, q = t.as_integer_ratio()
    P, e = 2 * p, q.bit_length() - 1  # q = 2^e, so q^m is a shift
    s, ms = [0] * 4, [0] * 4
    c = 1
    for m in range(n + 1):
        w = c * P ** (n - m) << e * m
        s[m % 4] += w
        ms[m % 4] += m * w
        c = c * (n + m + 1) * (n - m) // (m + 1)
    d = P**n
    try:
        return (complex((s[0] - s[2]) / d, (s[1] - s[3]) / d),
                complex((ms[0] - ms[2]) / d, (ms[1] - ms[3]) / d))
    except OverflowError:
        raise CapacityError(f"finite sum for H_{n}({t}) exceeds the floating range") from None


def _phase(n: int, t: float) -> complex:
    return _PREF * (-1j) ** (n + 1) * cmath.exp(1j * t)


def _value(n: int, t: float, s: complex) -> complex:
    return _representable(_phase(n, t) / t * s, n, t)


def _derivative(n: int, t: float, s: complex, ms: complex) -> complex:
    # one division by t on each side of the bracket (about i*t for large t):
    # 1/t^2 underflows above t = 1e154, and t * t underflows below 1e-154
    return _representable(_phase(n, t) / t * ((1j * t - 1.0) * s - ms) / t, n, t)


def hankel_value(n: int, t: float) -> HankelValue:
    """H_n(t) and H_n'(t) from one finite-sum pass: the scalar entry point."""
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

    A table of at most TABLE_SCALAR_WIDTH arguments runs the recurrence
    column by column in Python complex arithmetic, from numpy's rows H_0
    and H_1; a wider one runs it row by row in numpy, where each row costs
    a few numpy calls whatever its width. Timed on the whole call, the
    Python columns are faster up to 8 to 13 arguments for nmax 10 to 60
    (about 5 at nmax 5), hence the switch at 8. The entries are bit-equal
    either way: numpy casts the float x = (2n+1)/t to the complex (x, 0.0)
    before it multiplies, as CPython (before 3.14) does for a float times
    a complex, so both form x*re - 0.0*im and x*im + 0.0*re, and both
    subtract part by part. The derivatives, the range check and the redo
    below are shared.

    At small t the recurrence overflows to inf, or to NaN through
    inf - inf, so a column with an entry beyond CAPACITY_LIMIT is redone
    by `hankel_value`, which returns the representable value or raises:
    the table raises DomainError or CapacityError exactly where
    `hankel_value(n, t)` raises it for some n <= nmax, and never returns
    inf or NaN.
    """
    t = np.asarray(t_array, dtype=float).reshape(-1)
    _check_args(nmax, t)
    with np.errstate(all="ignore"):  # out-of-range columns are redone below
        base = _PREF * np.exp(1j * t) / t
        h0 = -1j * base
        h1 = -base * (1.0 + 1j / t)
        if len(t) <= TABLE_SCALAR_WIDTH:
            values = np.empty((nmax + 1, len(t)), dtype=complex)
            for j, (tj, g, f) in enumerate(zip(t.tolist(), h0.tolist(), h1.tolist())):
                column = [g, f]
                for odd in range(3, 2 * nmax, 2):  # odd = 2n + 1 for n = 1..nmax-1
                    g, f = f, odd / tj * f - g
                    column.append(f)
                values[:, j] = column[: nmax + 1]
        else:
            rows = [h0, h1]
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


def hankel_magnitude_oracle(n: int, t: float) -> float:
    """|H_n(t)| from DLMF section 10.49, independently of the finite sum.

    With t = p/q the sum is N / (2p)^(2n) for the integer
    N = sum_k W_{n,k} q^(2n-2k) (2p)^(2k), formed by Horner's rule in q^2,
    so |H_n(t)| = sqrt(2/pi) * sqrt(N) q / ((2p)^n p): one isqrt (of N
    scaled by 2^128, so its truncation is below 2^-64 relative) and one
    correctly rounded integer division. The weights start at
    W_{n,0} = ((2n)!/n!)^2 and each step divides exactly. Any finite t > 0
    is accepted; a magnitude beyond the float range raises CapacityError.
    """
    _check_args(n, t)
    p, q = t.as_integer_ratio()
    w = (math.factorial(2 * n) // math.factorial(n)) ** 2
    total, power = w, 1  # power = (2p)^(2k)
    for k in range(n):
        w = w * (n - k) ** 2 // ((k + 1) * (2 * n - k) * (2 * n - 2 * k) * (2 * n - 2 * k - 1))
        power *= 4 * p * p
        total = total * q * q + w * power
    try:
        return _PREF * (math.isqrt(total << 128) * q / ((2 * p) ** n * p << 64))
    except OverflowError:
        raise CapacityError(f"|H_{n}({t})| exceeds the floating range") from None
