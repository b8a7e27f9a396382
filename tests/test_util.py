import math
import re

import numpy as np
import pytest

from helios.errors import DomainError
from helios.obstacle import incident_trace
from helios.specfun import hankel_value
from helios.stability import rhs_T1
from helios.util import require_finite, require_positive


def test_require_finite_accepts_finite():
    require_finite(a=1.0, b=np.array([0.0, -3.5, 1e308]), c=2, d=10**20)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_require_finite_names_the_argument(bad):
    with pytest.raises(DomainError, match=r"tmax must be finite, got tmax="):
        require_finite(tmin=0.1, tmax=bad)
    with pytest.raises(DomainError, match=r"t must be finite, got t=(-?inf|nan)"):
        require_finite(t=np.array([1.0, bad, 2.0]))


def test_require_positive_accepts_positive():
    require_positive(a=5e-324, b=np.array([1e-300, 3.5, 1e308]), c=2, d=np.float64(0.5),
                     e=np.array([]), f=10**20)


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


def test_an_int_beyond_int64_is_judged_as_a_number():
    with pytest.raises(DomainError, match=r"^k must be positive, got k=-100000000000000000000$"):
        require_positive(k=-(10**20))


@pytest.mark.parametrize("call", [
    lambda: require_finite(k=10**400),
    lambda: require_positive(k=10**400),
    lambda: require_positive(k=-(10**400)),
    lambda: incident_trace("soft", 10**400, 1.0),
    lambda: rhs_T1(0.1, 0.1, 1.0, k=10**400, R=1.0, M1=1.0),
    lambda: hankel_value(3, 10**400),
], ids=["finite", "positive", "negative", "incident", "rhs", "hankel"])
def test_an_int_beyond_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be finite, got a 1329-bit integer beyond the float range"):
        call()

