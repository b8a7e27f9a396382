"""Small shared helpers."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import DomainError

COUNT_MAX = int(np.iinfo(np.int64).max)


def _is_int(name: str, value) -> bool:
    """Whether value is a Python int, which numpy holds only up to int64;
    DomainError for one beyond the float range."""
    if not isinstance(value, int):
        return False
    try:
        float(value)
    except OverflowError:
        raise DomainError(
            f"{name} must be finite, got a {value.bit_length()}-bit integer beyond the float range"
        ) from None
    return True


def require_finite(**values) -> None:
    """Raise DomainError naming the first argument that holds a NaN or an
    infinity; arrays must be finite throughout."""
    for name, value in values.items():
        if isinstance(value, float) and math.isfinite(value):
            continue  # the common scalar case, without numpy's call overhead
        if _is_int(name, value):
            continue  # finite, since it is within the float range
        finite = np.isfinite(value)
        if not np.all(finite):
            bad = np.asarray(value).flat[np.argmin(finite)]
            raise DomainError(f"{name} must be finite, got {name}={bad}")


def require_real(**values) -> None:
    """DomainError naming the first argument that is not a real number (a
    Python or numpy real scalar, `numbers.Real`), and then require_finite:
    the check of a scalar before float() or an ordering compares it."""
    for name, value in values.items():
        if not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
    require_finite(**values)


def require_positive(**values) -> None:
    """require_finite, and then DomainError naming the first argument that
    holds a value that is not positive; arrays must be positive throughout."""
    for name, value in values.items():
        if isinstance(value, float) and 0.0 < value < math.inf:
            continue  # the common scalar case, without numpy's call overhead
        _is_int(name, value)
        ok = np.greater(value, 0.0) & np.less(value, math.inf)
        if not ok.all():
            bad = np.asarray(value).flat[np.argmin(ok)]
            require_finite(**{name: bad})
            raise DomainError(f"{name} must be positive, got {name}={bad}")


def require_count(value, what: str, least: int = 0, most: float = COUNT_MAX) -> int:
    """value as a Python int (operator.index accepts it, so numpy integers
    and bool do); DomainError unless it is an integer in [least, most]:
    the one check of a seed, a count or a cutoff in helios, and of the
    integer in `specfun.require_order`. A seed or a count beyond int64
    would reach numpy only to fail there; a cutoff may be any size
    (most=math.inf), since one above the degree cap keeps every degree."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if count < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise DomainError(f"{what} must be {bound}, got {_integer_text(count)}")
    if count > most:
        raise DomainError(f"{what} must be at most {most}, got {_integer_text(count)}")
    return count


def _integer_text(count: int) -> str:
    """count in decimal, or its size once its decimal text would be long
    (CPython refuses str() beyond 4300 digits)."""
    if count.bit_length() <= 64:
        return str(count)
    return f"a {'negative ' if count < 0 else ''}{count.bit_length()}-bit integer"
