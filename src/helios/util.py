"""Small shared helpers."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


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
