import math
import re

import numpy as np
import pytest

from conftest import random_spectrum
from helios.errors import CapacityError, DomainError
from helios.field import hankel_factors, sobolev_norm_sq, split_spectrum
from helios.harmonics import CoefficientSpectrum, aggregate
from helios.lab import DecayProfile, make_spectrum
from helios.stability import (
    corollary_hard_terms,
    corollary_soft_terms,
    rhs_T1,
    rhs_T1der,
    rhs_T2,
    verify_magnitudes,
    verify_theorem,
)

# worked point: eps1 = eps2 = 1e-3, E = -ln(1e-3), k = 4, R = 1, M = 1.
# All expected values recomputed with mpmath at 40 digits and frozen.
EPS = 1e-3
E_WORKED = -math.log(1e-3)

T1_TERMS = (4.7040192117125192e-06, 4.7040192117125192e-03, 9.167789104389547e-02)
T1_TOTAL = 0.096386614274819702
T2_MIDDLE = 0.034292926427007214
T2_TOTAL = 0.1259755214901144
T1DER_TERMS = (1.970445148799338e-04, 0.1182248975828904, 0.18859465941470239)
T1DER_TOTAL = 0.30701660151247273
COR_SOFT_T1 = 0.091954874763361602
COR_SOFT_T2 = 0.0999954240962071
COR_HARD = 0.19645861650713245


def test_rhs_T1_worked_values():
    terms = rhs_T1(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0)
    for got, want in zip(terms, T1_TERMS):
        assert got == pytest.approx(want, rel=1e-12)
    assert terms.total == pytest.approx(T1_TOTAL, rel=1e-6)


def test_rhs_T2_worked_values():
    terms = rhs_T2(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0)
    assert terms.lipschitz == pytest.approx(T1_TERMS[0], rel=1e-12)
    assert terms.holder == pytest.approx(T2_MIDDLE, rel=1e-12)
    assert terms.apriori == pytest.approx(T1_TERMS[2], rel=1e-12)
    assert terms.total == pytest.approx(T2_TOTAL, rel=1e-6)


def test_rhs_T1der_worked_values():
    terms = rhs_T1der(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0)
    for got, want in zip(terms, T1DER_TERMS):
        assert got == pytest.approx(want, rel=1e-12)
    assert terms.total == pytest.approx(T1DER_TOTAL, rel=1e-6)


def test_rhs_zero_noise_limits():
    terms = rhs_T1(0.0, 0.0, math.inf, 4.0, 1.0, 1.0)
    assert terms.total == 0.0
    terms = rhs_T1der(0.0, 0.0, math.inf, 4.0, 1.0, 1.0)
    assert terms.total == 0.0


def test_rhs_T1der_finite_E_zero_eps():
    k = 4.0
    terms = rhs_T1der(0.0, 0.0, 0.0, k, 1.0, 1.0)
    assert terms.apriori == pytest.approx(1.0 / (k - 2.0 * math.sqrt(k) + 1.0), rel=1e-14)


def test_rhs_domain_guards():
    with pytest.raises(DomainError):
        rhs_T1(EPS, EPS, E_WORKED, 1.0, 1.0, 1.0)  # kR < 2
    with pytest.raises(DomainError):
        rhs_T1(-1.0, EPS, E_WORKED, 4.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        rhs_T1der(EPS, EPS, -3.5, 4.0, 1.0, 1.0)  # E + k <= 1


def test_non_lipschitz_T2_decreases_in_k():
    previous = math.inf
    for k in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        terms = rhs_T2(EPS, EPS, E_WORKED, k, 1.0, 1.0)
        assert terms.non_lipschitz < previous
        previous = terms.non_lipschitz


def zonal(values):
    """The spectrum with a_{0,n} = values[n]: its aggregate is |values|
    exactly."""
    return CoefficientSpectrum(len(values) - 1, {(n, 0): v for n, v in enumerate(values)})


def test_verify_single_mode():
    spectrum = zonal([1.0])
    report = verify_theorem(spectrum, 4.0, 1.0, "T1")
    assert report.lhs == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert report.inputs["eps1"] == 1.0
    assert report.inputs["eps2"] == 0.0
    assert report.rhs_total == pytest.approx(2.0 * math.e**2 / math.pi, rel=1e-12)
    assert report.satisfied


def test_verify_all_estimates_on_decaying_spectrum():
    spectrum = zonal(np.exp(-np.arange(12, dtype=float)))
    for which in ("T1", "T2", "T1der"):
        report = verify_theorem(spectrum, 6.0, 1.0, which)
        assert report.satisfied
        assert report.lhs <= report.rhs_total


def test_verify_unknown_estimate():
    with pytest.raises(DomainError):
        verify_theorem(zonal([1.0]), 4.0, 1.0, "T3")


@pytest.mark.parametrize("k, message", [
    (10**400, "k must be finite, got a 1329-bit integer beyond the float range"),
    ("a", "k must be a real number, got 'a'"),
], ids=["int-beyond-float", "string"])
def test_verify_theorem_checks_k_before_converting_it(k, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        verify_theorem(zonal([1.0]), k, 1.0, "T1")


def test_corollary_soft_worked_values():
    terms_t1 = corollary_soft_terms(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0, variant="T1")
    assert terms_t1.total == pytest.approx(COR_SOFT_T1, rel=1e-12)
    terms_t2 = corollary_soft_terms(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0, variant="T2")
    assert terms_t2.total == pytest.approx(COR_SOFT_T2, rel=1e-12)


def test_corollary_hard_worked_value():
    assert corollary_hard_terms(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0).total == pytest.approx(
        COR_HARD, rel=1e-12
    )


def test_corollary_zero_noise():
    assert corollary_soft_terms(0.0, 0.0, math.inf, 4.0, 1.0, 1.0).total == 0.0
    assert corollary_hard_terms(0.0, 0.0, math.inf, 4.0, 1.0, 1.0).total == 0.0


def test_corollary_soft_unknown_variant():
    with pytest.raises(DomainError):
        corollary_soft_terms(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0, variant="T3")


def test_corollary_terms_sum_to_total():
    terms = corollary_hard_terms(EPS, EPS, E_WORKED, 4.0, 1.0, 1.0)
    assert terms.total == pytest.approx(terms.lipschitz + terms.holder + terms.apriori)


ESTIMATES = (rhs_T1, rhs_T2, rhs_T1der, corollary_soft_terms, corollary_hard_terms)
WORKED_ARGS = (EPS, EPS, E_WORKED, 4.0, 1.0, 1.0)
# (argument slot, value, error): eps1, eps2, E, k, R, then M (d_norm1 for the corollaries)
BAD_INPUTS = [(0, math.nan, DomainError), (0, math.inf, DomainError), (1, math.nan, DomainError),
              (1, math.inf, DomainError), (2, math.nan, DomainError), (3, math.nan, DomainError),
              (3, math.inf, DomainError), (4, math.nan, DomainError), (4, math.inf, DomainError),
              (4, 0.0, DomainError), (5, math.nan, DomainError), (5, math.inf, DomainError),
              # eps1^2 overflows in the Lipschitz term, M^2 in the a-priori term
              (0, 1e200, CapacityError), (5, 1e200, CapacityError)]


@pytest.mark.parametrize("estimate", ESTIMATES, ids=lambda fn: fn.__name__)
def test_rejects_non_finite_input(estimate):
    for slot, value, error in BAD_INPUTS:
        args = list(WORKED_ARGS)
        args[slot] = value
        with pytest.raises(error):
            estimate(*args)
        # a batch with this one bad member raises what the member raises alone
        good = WORKED_ARGS[slot]
        args[slot] = np.array([good, good, value, good])
        with pytest.raises(error):
            estimate(*args)
    # E = +inf is the eps2 = 0 limit, not an error
    assert math.isfinite(estimate(EPS, 0.0, math.inf, 4.0, 1.0, 1.0).total)


def soft_T2(*args):
    return corollary_soft_terms(*args, variant="T2")


@pytest.mark.parametrize("estimate", [*ESTIMATES, soft_T2], ids=lambda fn: fn.__name__)
def test_array_estimates_equal_scalar_estimates(estimate):
    rng = np.random.default_rng(11)
    size = 50
    eps1 = rng.uniform(0.0, 1.0, size)
    eps2 = np.where(rng.random(size) < 0.2, 0.0, rng.uniform(0.0, 1.0, size))
    with np.errstate(divide="ignore"):
        E = -np.log(eps2)
    k = rng.uniform(2.0, 100.0, size)
    M = rng.uniform(0.0, 10.0, size)
    for R in (1.0, rng.uniform(1.0, 3.0, size)):  # a scalar R broadcasts
        batch = estimate(eps1, eps2, E, k, R, M)
        columns = (eps1, eps2, E, k, np.broadcast_to(R, size), M)
        for j in range(size):
            single = estimate(*(float(column[j]) for column in columns))
            assert tuple(term[j] for term in batch) == tuple(single)


def test_hard_corollary_holder_term_finite_at_large_k():
    # k^2 e^(2/R) alone overflows; the term is e^(2/R) eps2 (k^2 R^2 + 1)/(k^2 R^2)
    k, R, eps2 = 6e129, 0.011, 1e-300
    holder = corollary_hard_terms(0.1, eps2, 690.0, k, R, 1.0).holder
    expected = math.exp(2.0 / R) * eps2 * (k * k * R * R + 1.0) / (k * k * R * R)
    assert holder == pytest.approx(9.1756e-222, rel=1e-4)
    assert holder == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("args", [
    (1.0, EPS, E_WORKED, 1e154, 1.0, 1.0),    # Lipschitz term k^2 eps1^2 alone
    (1e200, EPS, E_WORKED, 4.0, 1.0, 1.0),    # the same through eps1^2
    (0.0, EPS, E_WORKED, 1e150, 0.01, 1.0),   # Hoelder term k^2 eps2 e^(2/R) alone
    (EPS, EPS, E_WORKED, 4.0, 1.0, 1e200),    # a-priori term R^2 M2^2 alone
])
def test_rhs_T1der_never_returns_an_infinite_term(args):
    with pytest.raises(CapacityError):
        rhs_T1der(*args)


@pytest.mark.parametrize("estimate", ESTIMATES[:3], ids=lambda fn: fn.__name__)
def test_estimates_never_return_an_infinite_term(estimate):
    # eps1^2 overflows in the Lipschitz term, M^2 in the a-priori term
    for args in [(1e200, 1e-3, 5.0, 4.0, 1.0, 1.0), (1e-3, 1e-3, 5.0, 4.0, 1.0, 1e307)]:
        with pytest.raises(CapacityError):
            estimate(*args)


def one_spectrum_report(spectrum, k, R, which):
    """A report built the one-spectrum way: its own aggregate, split and
    one-column Hankel factors."""
    agg = aggregate(spectrum)
    split = split_spectrum(agg, k, R)
    h, hp = hankel_factors(spectrum.max_degree, k, R)
    values = 1j * k * k * agg * hp if which == "T1der" else 1j * k * agg * h
    lhs = sobolev_norm_sq(values, 0, R)
    M = math.sqrt(sobolev_norm_sq(values, 1, R))
    rhs = {"T1": rhs_T1, "T2": rhs_T2, "T1der": rhs_T1der}[which]
    return lhs, tuple(rhs(split.eps1, split.eps2, split.E, k, R, M)), split, M


def seeded_members(seed, size):
    """`size` (spectrum, k) pairs from `make_spectrum`, with a seeded decay
    kind, rate, max degree, amplitude and k; member 0 sits at the degree cap."""
    rng = np.random.default_rng(seed)
    members = []
    for j in range(size):
        profile = DecayProfile(("exponential", "algebraic")[int(rng.integers(2))],
                               float(rng.uniform(0.3, 1.5)),
                               60 if j == 0 else int(rng.integers(0, 31)), seed=1000 * seed + j,
                               amplitude=float(rng.uniform(0.05, 0.95)))
        members.append((make_spectrum(profile), float(rng.uniform(2.0, 100.0))))
    return members


def padded_rows(members):
    """The members' magnitudes as rows padded to degree 60, and their k."""
    rows = np.zeros((len(members), 61))
    for row, (spectrum, _) in zip(rows, members):
        row[: spectrum.max_degree + 1] = aggregate(spectrum)
    return rows, np.array([k for _, k in members])


def assert_row_is_the_report(columns, j, report, which):
    """Row j of the columns of `verify_magnitudes` is `report`, bit for bit."""
    split, lhs, M, terms = columns
    assert report.lhs == lhs[j]
    assert report.rhs_terms == tuple(term[j] for term in terms)
    assert report.satisfied == (lhs[j] <= terms.total[j])
    assert report.inputs["N"] == split.N[j]
    for name in ("eps1", "eps2", "E"):
        assert report.inputs[name] == getattr(split, name)[j]
    assert report.inputs["M2" if which == "T1der" else "M1"] == M[j]


@pytest.mark.parametrize("which", ["T1", "T2", "T1der"])
def test_verify_theorem_is_row_0_of_the_padded_rows(which):
    for spectrum, k in [(zonal([0.3]), 4.0), (random_spectrum(60, seed=4), 30.0),
                        *seeded_members(2, 5)]:
        report = verify_theorem(spectrum, k, 1.0, which)
        rows, ks = padded_rows([(spectrum, k)])
        assert_row_is_the_report(verify_magnitudes(rows, ks, 1.0, which), 0, report, which)
        assert report.inputs["k"] == k and report.inputs["which"] == which


# A report sums over a row padded to degree N_MAX_SUPPORTED; the one-spectrum
# reference sums over the spectrum's own degrees, which rounds differently
# (by at most 6.6 eps on these members).
ONE_SPECTRUM_REL = 8 * np.finfo(float).eps


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("which", ["T1", "T2", "T1der"])
def test_ensemble_reports_equal_one_spectrum_reports(which, seed):
    # the rows of one verify_magnitudes call are the members' reports, and
    # each agrees with the report built the one-spectrum way
    members = seeded_members(seed, 60)
    columns = verify_magnitudes(*padded_rows(members), 1.0, which)
    assert len(columns[1]) == len(members)
    for j, (spectrum, k) in enumerate(members):
        report = verify_theorem(spectrum, k, 1.0, which)
        assert_row_is_the_report(columns, j, report, which)
        lhs, terms, split, M = one_spectrum_report(spectrum, k, 1.0, which)
        assert report.lhs == pytest.approx(lhs, rel=ONE_SPECTRUM_REL, abs=0)
        assert tuple(report.rhs_terms) == pytest.approx(terms, rel=ONE_SPECTRUM_REL, abs=0)
        assert report.inputs["N"] == split.N
        for name in ("eps1", "eps2", "E"):
            assert report.inputs[name] == pytest.approx(getattr(split, name),
                                                        rel=ONE_SPECTRUM_REL, abs=0)
        assert report.inputs["M2" if which == "T1der" else "M1"] == pytest.approx(
            M, rel=ONE_SPECTRUM_REL, abs=0)


@pytest.mark.parametrize("which", ["T1", "T2", "T1der"])
def test_a_report_does_not_depend_on_the_other_members(which):
    members = seeded_members(3, 20)
    members.insert(7, (random_spectrum(60, seed=4), 30.0))  # a second member at the degree cap
    for batch in (members, members[::-1]):
        columns = verify_magnitudes(*padded_rows(batch), 1.0, which)
        for j, (spectrum, k) in enumerate(batch):
            assert_row_is_the_report(columns, j, verify_theorem(spectrum, k, 1.0, which), which)


def test_verify_magnitudes_edge_cases():
    split, lhs, M, terms = verify_magnitudes(np.zeros((0, 61)), np.zeros(0), 1.0, "T1")
    assert lhs.shape == M.shape == terms.total.shape == split.N.shape == (0,)
    with pytest.raises(DomainError):
        verify_magnitudes(np.zeros((0, 61)), np.zeros(0), 1.0, "T3")
    rows, ks = padded_rows(seeded_members(5, 3))
    with pytest.raises(DomainError):
        verify_magnitudes(rows, np.append(ks[:2], 1.0), 1.0, "T1")  # kR < 2


@pytest.mark.parametrize("which", ["T1", "T2", "T1der"])
def test_an_overflowing_energy_split_raises_capacity_error(which):
    # eps1^2 = 2e308: each degree's energy is finite, their sum is not
    spectrum = zonal([1e154, 1e154])
    with pytest.raises(CapacityError, match="eps1 or eps2 exceeds the floating range"):
        verify_theorem(spectrum, 1e5, 10.0, which)
    members = seeded_members(5, 3)
    rows, ks = padded_rows(members[:1] + [(spectrum, 1e5)] + members[1:])
    with pytest.raises(CapacityError, match="eps1 or eps2 exceeds the floating range"):
        verify_magnitudes(rows, ks, 10.0, which)


@pytest.mark.parametrize("which", ["T1", "T2", "T1der"])
def test_wavenumbers_that_do_not_match_the_rows_are_a_domain_error(which):
    with pytest.raises(DomainError, match=r"^k of shape \(3,\) does not broadcast over the leading "
                                          r"axes of magnitudes of shape \(2, 61\)$"):
        verify_magnitudes(np.ones((2, 61)) * 0.01, np.array([4.0, 5.0, 6.0]), 1.0, which)


@pytest.mark.parametrize("which", ["T1", "T2"])
def test_the_trace_estimates_do_not_need_k_squared(which):
    # k^2 = 1e320 overflows; T1 and T2 reduce only the trace values, and the
    # radial derivative k a_0 sqrt(2/pi) / R = 8e159 stays finite beside them
    spectrum = zonal([1.0])
    report = verify_theorem(spectrum, 1e160, 1.0, which)
    assert report.lhs == 0.6366197723675814
    assert report.rhs_terms == (4.704019211712519, 0.0, 0.0)
    assert report.satisfied
    assert report.inputs["M1"] == 0.7978845608028654
    assert [report.inputs[name] for name in ("eps1", "eps2", "E")] == [1.0, 0.0, math.inf]
    with pytest.raises(CapacityError, match="Sobolev norm exceeds the floating range"):
        verify_theorem(spectrum, 1e160, 1.0, "T1der")  # |d/dr u_0|^2 = 6e319


@pytest.mark.parametrize("corollary, name", [(corollary_soft_terms, "M1"),
                                             (corollary_hard_terms, "M2")])
def test_an_overflowing_substituted_norm_is_a_capacity_error(corollary, name):
    # k^2 R^2 + 1 overflows, so M1 = inf and M2 = inf / inf = NaN (or
    # inf * 0 = NaN for d_norm1 = 0): the caller's inputs are valid, so the
    # corollary is out of range rather than given a bad M
    message = f"^a-priori norm {name} exceeds the floating range$"
    for k, d_norm1 in [(1e308, 1.0), (1e200, 1.0), (1e160, 0.0)]:
        with pytest.raises(CapacityError, match=message):
            corollary(EPS, EPS, E_WORKED, k, 1.0, d_norm1)
        with pytest.raises(CapacityError, match=message):
            corollary(EPS, EPS, E_WORKED, np.array([4.0, k, 4.0]), 1.0, d_norm1)
    # a NaN, infinite, negative or out-of-range d_norm1 stays the caller's
    # DomainError
    for d_norm1 in (math.nan, math.inf, -1.0, 10**400):
        for k in (4.0, 1e308):
            with pytest.raises(DomainError):
                corollary(EPS, EPS, E_WORKED, k, 1.0, d_norm1)
    for d_norm1 in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError):
            corollary(EPS, EPS, E_WORKED, 4.0, 1.0, np.array([1.0, d_norm1, 1.0]))


@pytest.mark.parametrize("estimate", [
    *ESTIMATES, lambda *args: corollary_soft_terms(*args, variant="T2"),
], ids=[fn.__name__ for fn in ESTIMATES] + ["corollary_soft_terms_T2"])
def test_rejects_a_negative_apriori_norm(estimate):
    # M1, M2 and |d|_1 are norms; a negative one flipped the sign of the
    # Hoelder term of T2 instead of failing
    with pytest.raises(DomainError, match="must be nonnegative"):
        estimate(EPS, EPS, E_WORKED, 4.0, 1.0, -1.0)
    assert min(estimate(EPS, EPS, E_WORKED, 4.0, 1.0, 0.0)) >= 0.0  # M = 0 stays valid
