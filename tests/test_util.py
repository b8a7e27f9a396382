import math
import re

import numpy as np
import pytest

from helios import bounds
from helios.cli import main
from helios.errors import DomainError
from helios.field import low_pass
from helios.lab import DecayProfile, ensemble_verify, ksweep, make_real_perturbation
from helios.obstacle import incident_trace, truncated_quotient
from helios.specfun import hankel_value
from helios.stability import rhs_T1
from helios.util import (ARRAY_BYTES_MAX, require_count, require_finite, require_positive,
                         require_real)


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
    lambda: rhs_T1(0.1, 0.1, 10**400, 4.0, 1.0, 1.0),
    lambda: hankel_value(3, 10**400),
], ids=["finite", "positive", "negative", "incident", "rhs", "rhs-E", "hankel"])
def test_an_int_beyond_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be finite, got a 1329-bit integer beyond the float range"):
        call()



def test_require_count_accepts_integers():
    # and returns them as Python ints, so a bool or a numpy integer serves
    # wherever the caller passes the count on
    for value, expected in ((0, 0), (2**63 - 1, 2**63 - 1), (np.int64(3), 3), (True, 1)):
        count = require_count(value, "seeds")
        assert count == expected and type(count) is int
    assert require_count(True, "seeds", least=1) == 1  # operator.index accepts bool


@pytest.mark.parametrize("value, least, message", [
    (1.5, 0, "seed must be an integer, got 1.5"),
    (np.float64(2.0), 0, "seed must be an integer, got "),  # numpy's repr varies
    ("3", 0, "seed must be an integer, got '3'"),
    (None, 0, "seed must be an integer, got None"),
    (-1, 0, "seed must be nonnegative, got -1"),
    (0, 1, "seed must be at least 1, got 0"),
])
def test_require_count_rejects(value, least, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        require_count(value, "seed", least)


# each is rejected before anything is allocated for it
@pytest.mark.parametrize("call, message", [
    (lambda: require_count(2**63, "seeds"), "seeds must be at most 9223372036854775807, got "
                                            "9223372036854775808"),
    (lambda: require_count(-(10**5000), "seed"), "seed must be nonnegative, got a negative "
                                                 "16610-bit integer"),
    (lambda: ensemble_verify(10**400, 0, "T1"), "ensemble size must be at most "
                                                "9223372036854775807, got a 1329-bit integer"),
    (lambda: ksweep(make_real_perturbation(DecayProfile("exponential", 1.0, 3, seed=0)), 1.0,
                    [4.0], 1e-3, 10**400), "seeds must be at most 9223372036854775807, got a "
                                           "1329-bit integer"),
    (lambda: bounds.sweep(nmax=5, points=10**400), "points must be at most "
                                                   "9223372036854775807, got a 1329-bit integer"),
], ids=["int64-max-plus-one", "negative-beyond-str", "ensemble", "ksweep", "bounds-sweep"])
def test_a_count_beyond_int64_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# each count fits int64, but the largest array it sizes would hold more
# bytes than numpy allows ("array is too big"): each is rejected before
# anything is allocated. Only such counts are tried here; one that numpy
# would accept, such as 2**40 replicates, would really try to allocate.
@pytest.mark.parametrize("call, what", [
    (lambda: ksweep(make_real_perturbation(DecayProfile("exponential", 1.0, 3, seed=0)), 1.0,
                    [4.0], 1e-3, 2**62), "seeds"),
    (lambda: ensemble_verify(2**62, 0, "T1"), "ensemble size"),
    (lambda: bounds.sweep(nmax=5, points=2**62), "points"),
], ids=["ksweep", "ensemble", "bounds-sweep"])
def test_a_count_beyond_numpys_array_limit_is_a_domain_error(call, what):
    message = (f"{what} 4611686018427387904 needs an array of more than {ARRAY_BYTES_MAX} "
               "bytes, beyond numpy's limit")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("argv", [
    ["stability-verify", "--ensemble-size", str(2**62)],
    ["bounds-check", "--nmax", "5", "--points", str(2**62)],
], ids=["stability-verify", "bounds-check"])
def test_the_cli_exits_2_for_a_count_beyond_numpys_array_limit(argv, capsys):
    assert main(argv) == 2
    assert "beyond numpy's limit" in capsys.readouterr().err


def test_a_cutoff_may_exceed_int64():
    # a cutoff above the degree cap keeps every degree, however large it is
    values = np.arange(1.0, 5.0)
    assert low_pass(values, 10**400).tolist() == values.tolist()
    coefficients = np.arange(1.0, 5.0) + 0j  # degree 1
    assert truncated_quotient(coefficients, np.array([2.0, 4.0]), 2**64).tolist() == [
        0.5, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("value, message", [
    ("a", "k must be a real number, got 'a'"),
    (None, "k must be a real number, got None"),
    (1j, "k must be a real number, got 1j"),
    (10**400, "k must be finite, got a 1329-bit integer beyond the float range"),
    (math.nan, "k must be finite, got k=nan"),
], ids=["string", "none", "complex", "int-beyond-float", "nan"])
def test_require_real_rejects(value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        require_real(k=value)
