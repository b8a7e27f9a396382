"""Small shared helpers."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def require_finite(**values) -> None:
    """Raise DomainError naming the first argument that holds a NaN or an
    infinity; arrays must be finite throughout."""
    for name, value in values.items():
        if isinstance(value, float) and math.isfinite(value):
            continue  # the common scalar case, without numpy's call overhead
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
        ok = np.greater(value, 0.0) & np.less(value, math.inf)
        if not ok.all():
            bad = np.asarray(value).flat[np.argmin(ok)]
            require_finite(**{name: bad})
            raise DomainError(f"{name} must be positive, got {name}={bad}")
