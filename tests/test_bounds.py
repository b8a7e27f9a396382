import math
import warnings

import numpy as np
import pytest

from conftest import relative_table_error
from helios import bounds
from helios.bounds import (
    T_MAX_CERTIFIED,
    EnvelopeReport,
    EnvelopeTable,
    check_point,
    lemma_global_bound,
    lemma_global_deriv_bound,
    lemma_low_bound,
    lemma_low_deriv_bound,
    log_grid,
    low_frequency_applicable,
    sweep,
    violations,
)
from helios.errors import DomainError
from helios.specfun import hankel_table, hankel_value

# closed forms evaluated with mpmath at 40 digits, frozen
LOW_BOUND_T2 = 1.0844375514192275          # sqrt(2)*e/(sqrt(pi)*2)
LOW_DERIV_BOUND_T2 = 1.7546568168730219    # sqrt(2)e/sqrt(pi) * (sqrt(5)+1)/4
GLOBAL_DERIV_N2_T1 = 24.51733459831119     # sqrt(2/pi) * (sqrt(2)+2) * 9


def test_low_bound_value():
    assert lemma_low_bound(1, 2.0) == pytest.approx(LOW_BOUND_T2, rel=1e-14)


def test_low_bound_applicability():
    assert low_frequency_applicable(1, 2.0)
    assert not low_frequency_applicable(2, 2.0)


def test_low_bound_dominates_hankel():
    assert abs(hankel_value(1, 2.0).value) < LOW_BOUND_T2


def test_global_bound_tight_at_n0():
    for t in (0.2, 1.0, 5.0, 40.0):
        assert lemma_global_bound(0, t) == pytest.approx(abs(hankel_value(0, t).value), rel=1e-14)


def test_global_bound_n2_t1():
    assert lemma_global_bound(2, 1.0) == pytest.approx(math.sqrt(2 / math.pi) * 9.0, rel=1e-14)
    assert abs(hankel_value(2, 1.0).value) < lemma_global_bound(2, 1.0)


def test_global_bound_small_t_large_n():
    bound = lemma_global_bound(10, 0.5)
    assert math.isfinite(bound)
    assert abs(hankel_value(10, 0.5).value) < bound


def test_low_deriv_bound_value():
    assert lemma_low_deriv_bound(0, 2.0) == pytest.approx(LOW_DERIV_BOUND_T2, rel=1e-14)
    assert abs(hankel_value(0, 2.0).derivative) < LOW_DERIV_BOUND_T2


def test_low_deriv_bound_vanishes_at_infinity():
    t = 1e6
    bound = lemma_low_deriv_bound(0, t)
    # asymptotically sqrt(2)e/(sqrt(pi) t)
    assert bound == pytest.approx(math.sqrt(2) * math.e / (math.sqrt(math.pi) * t), rel=1e-5)


def test_global_deriv_tight_at_n0():
    expected = math.sqrt(2 / math.pi) / 2.0 * (math.sqrt(5.0) / 2.0)
    assert lemma_global_deriv_bound(0, 2.0) == pytest.approx(expected, rel=1e-14)
    assert abs(hankel_value(0, 2.0).derivative) == pytest.approx(expected, rel=1e-14)


def test_global_deriv_n2_t1():
    assert lemma_global_deriv_bound(2, 1.0) == pytest.approx(GLOBAL_DERIV_N2_T1, rel=1e-14)
    assert abs(hankel_value(2, 1.0).derivative) < GLOBAL_DERIV_N2_T1


def test_global_deriv_monotone_in_n():
    for t in (0.5, 2.0, 17.0):
        values = [lemma_global_deriv_bound(n, t) for n in range(30)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_bounds_reject_nonpositive_t():
    for fn in (lemma_low_bound, lemma_global_bound, lemma_low_deriv_bound, lemma_global_deriv_bound):
        with pytest.raises(DomainError):
            fn(1, 0.0)


@pytest.mark.parametrize("points, message", [
    (0, "points must be at least 1, got 0"), (2.5, "points must be an integer, got 2.5")])
def test_log_grid_needs_a_positive_integer_count(points, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        log_grid(0.1, 1.0, points)


def test_low_bound_independent_of_order():
    # the low-frequency envelope depends on the argument alone
    for t in np.logspace(0, math.log10(200), 20):
        t = float(t)
        values = {lemma_low_bound(n, t) for n in range(0, int(math.sqrt(t)) + 1)}
        assert len(values) == 1


def test_global_bound_sharper_in_low_zone():
    # where n^2 < t, (1 + n/t)^n < (1 + 1/n)^n < e, so the general
    # envelope undercuts the uniform low-frequency one
    for t in np.logspace(0, math.log10(200), 40):
        t = float(t)
        for n in range(1, int(math.sqrt(t)) + 1):
            if n * n < t:
                assert lemma_global_bound(n, t) <= lemma_low_bound(n, t)


def test_check_point_report_fields():
    report = check_point("low", 1, 2.0)
    assert report.applicable and report.satisfied
    assert report.value_magnitude < report.bound
    report = check_point("low", 3, 2.0)
    assert not report.applicable


def test_check_point_unknown_kind():
    with pytest.raises(DomainError):
        check_point("sharp", 1, 2.0)


def test_log_grid_validation():
    assert len(log_grid(0.5, 200.0, 200)) == 200
    assert log_grid(3.0, 3.0, 1)[0] == 3.0
    with pytest.raises(DomainError):
        log_grid(0.0, 1.0, 10)
    with pytest.raises(DomainError):
        log_grid(1.0, 2.0, 0)


def test_sweep_no_violations_small():
    reports = sweep(nmax=20, tmin=0.1, tmax=200.0, points=60)
    assert violations(reports) == []


def test_sweep_deterministic_order():
    a = sweep(nmax=3, tmin=0.5, tmax=10.0, points=5)
    b = sweep(nmax=3, tmin=0.5, tmax=10.0, points=5)
    assert list(a) == list(b)


@pytest.mark.parametrize("seed", range(8))
def test_sweep_verdicts_match_finite_sum(seed):
    # seeded sub-grids: every report of the one-table sweep equals the
    # per-point check through the exact finite sum
    rng = np.random.default_rng(seed)
    nmax = int(rng.integers(0, 51))
    lo, hi = sorted(10.0 ** rng.uniform(-1.0, math.log10(200.0), size=2))
    points = int(rng.integers(1, 7))
    reports = sweep(nmax=nmax, tmin=float(lo), tmax=float(hi), points=points)
    assert len(reports) == (nmax + 1) * len(bounds.KINDS) * points
    for r in reports:
        expected = check_point(r.kind, r.n, r.t)
        assert (r.applicable, r.satisfied) == (expected.applicable, expected.satisfied)
        assert r.bound == pytest.approx(expected.bound, rel=1e-14)
        assert r.value_magnitude == pytest.approx(expected.value_magnitude, rel=1e-13)


def per_report_sweep(nmax, tmin, tmax, points):
    """Reference: the sweep as one EnvelopeReport per (n, kind, t), built
    row by row from the same table and envelope arrays."""
    ts = log_grid(tmin, tmax, points)
    values, derivatives = hankel_table(nmax, ts)
    orders = np.arange(nmax + 1)[:, None]
    columns = []
    for kind in bounds.KINDS:
        magnitude = np.abs(derivatives if kind.endswith("deriv") else values)
        judged = bounds._judge(kind, orders, ts, magnitude)
        columns.append((kind, magnitude, *np.broadcast_arrays(*judged)))
    reports = []
    for n in range(nmax + 1):
        for kind, *grids in columns:
            for j, t in enumerate(ts.tolist()):
                magnitude, bound, applicable, satisfied = (grid[n, j] for grid in grids)
                reports.append(EnvelopeReport(kind, n, t, float(magnitude), float(bound),
                                              bool(applicable), bool(satisfied)))
    return reports


@pytest.mark.parametrize("seed", range(4))
def test_table_rows_match_per_report_reference(seed):
    rng = np.random.default_rng(100 + seed)
    nmax = int(rng.integers(0, 51))
    lo, hi = sorted(10.0 ** rng.uniform(-1.0, math.log10(200.0), size=2))
    points = int(rng.integers(1, 12))
    table = sweep(nmax=nmax, tmin=float(lo), tmax=float(hi), points=points)
    reference = per_report_sweep(nmax, float(lo), float(hi), points)
    assert isinstance(table, EnvelopeTable)
    assert len(table) == len(reference)
    assert list(table) == reference


def test_violations_builds_the_violating_rows_in_order():
    i = np.arange(12)
    table = EnvelopeTable(
        kind=i % 4,
        n=i // 4,
        t=0.5 * (i + 1),
        value_magnitude=1.0 + i,
        bound=np.full(12, 6.0),
        applicable=i != 7,
        satisfied=i < 5,
    )
    found = violations(table)
    assert [r.n for r in found] == [1, 1, 2, 2, 2, 2]
    assert [r.kind for r in found] == ["global", "low_deriv", "low", "global", "low_deriv",
                                       "global_deriv"]
    assert found == [r for r in table if r.applicable and not r.satisfied]


def test_sweep_order_is_n_kind_t():
    reports = sweep(nmax=2, tmin=0.5, tmax=4.0, points=3)
    keys = [(r.n, bounds.KINDS.index(r.kind), r.t) for r in reports]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == 3 * 4 * 3


def test_sweep_makes_one_table_call(monkeypatch):
    calls = []

    def counted(nmax, ts):
        calls.append(nmax)
        return hankel_table(nmax, ts)

    def forbidden(n, t):
        raise AssertionError("sweep must not evaluate the finite sum")

    monkeypatch.setattr(bounds, "hankel_table", counted)
    monkeypatch.setattr(bounds, "hankel_value", forbidden)
    sweep(nmax=12, tmin=0.1, tmax=200.0, points=9)
    assert calls == [12]


def test_acceptance_grid_margin_dwarfs_table_error():
    # no verdict can flip between the table and the finite sum: the
    # tightest n >= 1 envelope is looser than the table error by far
    reports = sweep(nmax=50, tmin=0.1, tmax=200.0, points=200)
    assert violations(reports) == []
    margin = min(r.bound / r.value_magnitude - 1.0 for r in reports if r.applicable and r.n >= 1)
    error = relative_table_error(50, log_grid(0.1, 200.0, 200))
    assert margin >= 1e6 * error


LEMMAS = (lemma_low_bound, lemma_global_bound, lemma_low_deriv_bound, lemma_global_deriv_bound)


def test_lemmas_accept_arrays():
    ns = np.arange(4)[:, None]
    ts = np.array([0.5, 3.0, 40.0])
    for fn in LEMMAS:
        grid = np.broadcast_to(fn(ns, ts), (4, 3))
        for n in range(4):
            for j, t in enumerate(ts):
                assert grid[n, j] == pytest.approx(fn(n, float(t)), rel=1e-15)
    with pytest.raises(DomainError):
        lemma_global_bound(ns, np.array([1.0, 0.0]))


def test_log_grid_rejects_non_finite():
    for tmin, tmax in ((0.1, math.inf), (math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(DomainError):
            log_grid(tmin, tmax, 5)


def test_sweep_rejects_negative_nmax():
    with pytest.raises(DomainError):
        sweep(nmax=-1, points=5)


def test_lemmas_finite_far_beyond_the_certified_range():
    for fn in LEMMAS:
        bound = fn(3, 1e200)
        assert math.isfinite(bound) and bound > 0.0


def test_sweep_certified_up_to_the_ceiling():
    table = sweep(nmax=60, tmin=1e10, tmax=T_MAX_CERTIFIED)
    assert violations(table) == []


def test_checks_above_the_ceiling_raise():
    above = math.nextafter(T_MAX_CERTIFIED, math.inf)
    with pytest.raises(DomainError, match="certified"):
        sweep(nmax=3, tmin=1e10, tmax=above, points=5)
    with pytest.raises(DomainError, match="certified"):
        check_point("global", 1, above)
    assert check_point("global", 1, T_MAX_CERTIFIED).satisfied


def test_sweep_refuses_before_building_an_overflowing_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="certified"):
            sweep(nmax=2, tmin=1.0, tmax=1.7976931348623157e308, points=5)
