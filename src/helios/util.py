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
