import math
import re

import numpy as np
import pytest

from helios.errors import DomainError
from helios.util import require_finite, require_positive


def test_require_finite_accepts_finite():
    require_finite(a=1.0, b=np.array([0.0, -3.5, 1e308]), c=2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_require_finite_names_the_argument(bad):
    with pytest.raises(DomainError, match=r"tmax must be finite, got tmax="):
        require_finite(tmin=0.1, tmax=bad)
    with pytest.raises(DomainError, match=r"t must be finite, got t=(-?inf|nan)"):
        require_finite(t=np.array([1.0, bad, 2.0]))


def test_require_positive_accepts_positive():
    require_positive(a=5e-324, b=np.array([1e-300, 3.5, 1e308]), c=2, d=np.float64(0.5),
                     e=np.array([]))


@pytest.mark.parametrize("bad", [0.0, -0.0, -5e-324, -1.0, 0])
def test_require_positive_names_the_first_value_that_is_not_positive(bad):
    with pytest.raises(DomainError, match=rf"^tmax must be positive, got tmax={re.escape(str(bad))}$"):
        require_positive(tmin=0.1, tmax=bad)
    with pytest.raises(DomainError, match=r"^t must be positive, got t="):
        require_positive(t=np.array([1.0, bad, math.nan]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_require_positive_reports_a_non_finite_value_as_require_finite_does(bad):
    with pytest.raises(DomainError, match=r"^R must be finite, got R=(-?inf|nan)$"):
        require_positive(k=4.0, R=bad)
    with pytest.raises(DomainError, match=r"^t must be finite, got t=(-?inf|nan)$"):
        require_positive(t=np.array([1.0, bad, 0.0]))
