import math

import numpy as np
import pytest

from helios.errors import DomainError
from helios.util import require_finite


def test_require_finite_accepts_finite():
    require_finite(a=1.0, b=np.array([0.0, -3.5, 1e308]), c=2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_require_finite_names_the_argument(bad):
    with pytest.raises(DomainError, match=r"tmax must be finite, got tmax="):
        require_finite(tmin=0.1, tmax=bad)
    with pytest.raises(DomainError, match=r"t must be finite, got t=(-?inf|nan)"):
        require_finite(t=np.array([1.0, bad, 2.0]))
