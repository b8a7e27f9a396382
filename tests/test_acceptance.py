"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced (pytest captures stdout otherwise).
"""

import io
import math
import time

import numpy as np
import pytest

from conftest import random_spectrum
from helios.bounds import sweep, violations
from helios.field import (
    low_pass,
    near_field_trace,
    norm_identity_check,
    sobolev_norm_sq,
    split_spectrum,
)
from helios.harmonics import SphereGrid, aggregate
from helios.io import fmt, write_sweep_csv
from helios.lab import (
    DecayProfile,
    ksweep,
    make_real_perturbation,
    mean_errors_by_k,
    random_ensemble,
)
from helios.obstacle import forward_hard, forward_soft, invert_hard, invert_soft
from helios.specfun import hankel_magnitude_oracle, hankel_value
from helios.stability import rhs_T1, rhs_T1der, rhs_T2, verify_theorem

T_GRID = np.logspace(np.log10(0.5), np.log10(200.0), 200)


def report(number: int, name: str, passed: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}", flush=True)


@pytest.fixture(scope="module")
def ensemble():
    return random_ensemble(1000, seed=0)


def test_criterion_1_hankel_cross_validation():
    start = time.perf_counter()
    worst = 0.0
    for n in range(41):
        for t in T_GRID:
            a = abs(hankel_value(n, float(t)).value)
            b = hankel_magnitude_oracle(n, float(t))
            worst = max(worst, abs(a - b) / b)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 10.0
    report(1, "hankel cross-validation", passed)
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_bound_suite():
    start = time.perf_counter()
    reports = sweep(nmax=50, tmin=0.5, tmax=200.0, points=200)
    bad = violations(reports)
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < 60.0
    report(2, "envelope bound suite", passed)
    assert bad == []
    assert elapsed < 60.0


def test_criterion_3_norm_identity():
    grid = SphereGrid.build(30)
    rng = np.random.default_rng(12)
    worst = 0.0
    for seed in range(100):
        degree = int(rng.integers(1, 31))
        k = float(rng.uniform(2.0, 50.0))
        spec = random_spectrum(degree, seed=seed)
        lhs, rhs = norm_identity_check(spec, k, 1.0, grid=grid)
        worst = max(worst, abs(lhs - rhs) / rhs)
    passed = worst <= 1e-9
    report(3, "norm identity", passed)
    assert worst <= 1e-9


def test_criterion_4_theorem_verification(ensemble):
    failures = 0
    min_slack = math.inf
    for spectrum, k in ensemble:
        for which in ("T1", "T2", "T1der"):
            r = verify_theorem(spectrum, k, 1.0, which)
            min_slack = min(min_slack, r.rhs_total - r.lhs)
            if not r.satisfied:
                failures += 1
    passed = failures == 0 and min_slack > 0
    report(4, "stability estimates on ensemble", passed)
    assert failures == 0
    assert min_slack > 0


def test_criterion_5_constant_reproduction():
    eps, E = 1e-3, -math.log(1e-3)
    # frozen from 40-digit evaluation of the closed forms
    expected = {
        "T1": 0.096386614274819702,
        "T2": 0.1259755214901144,
        "T1der": 0.30701660151247273,
    }
    got = {
        "T1": rhs_T1(eps, eps, E, 4.0, 1.0, 1.0).total,
        "T2": rhs_T2(eps, eps, E, 4.0, 1.0, 1.0).total,
        "T1der": rhs_T1der(eps, eps, E, 4.0, 1.0, 1.0).total,
    }
    worst = max(abs(got[w] - expected[w]) / expected[w] for w in expected)
    passed = worst <= 1e-6
    report(5, "worked-constant reproduction", passed)
    assert worst <= 1e-6


def test_criterion_6_obstacle_round_trip():
    worst = 0.0
    for seed, kR in enumerate((2.0, 4.0, 10.0, 50.0)):
        d = make_real_perturbation(DecayProfile("algebraic", 1.1, 30, seed=100 + seed))
        energy = d.spectrum.energy()
        for forward, invert in ((forward_soft, invert_soft), (forward_hard, invert_hard)):
            recovered = invert(forward(d, kR, 1.0), kR, 1.0, n_cut=30)
            err_sq = (recovered.spectrum - d.spectrum).energy()
            worst = max(worst, math.sqrt(err_sq / energy))
    passed = worst <= 1e-9
    report(6, "obstacle round trip", passed)
    assert worst <= 1e-9


def test_criterion_7_projector_lipschitz_bound(ensemble):
    const = math.sqrt(2.0) * math.e / math.sqrt(math.pi)
    passed = True
    for spectrum, k in ensemble:
        magnitudes = aggregate(spectrum)
        split = split_spectrum(magnitudes, k, 1.0)
        values, _ = near_field_trace(magnitudes, k, 1.0)
        projected = low_pass(values, split.N)
        norm = math.sqrt(sobolev_norm_sq(projected, 0, 1.0))
        if norm > const * split.eps1:
            passed = False
            break
    report(7, "low-pass Lipschitz bound", passed)
    assert passed


def canonical_sweep():
    d = make_real_perturbation(DecayProfile("exponential", 1.0, 10, seed=7))
    return ksweep(
        d, R=1.0, k_list=[2.0, 4.0, 8.0, 16.0, 32.0, 64.0], delta=1e-3, seeds=20, master_seed=0
    )


def test_criterion_8_increasing_stability_sweep():
    start = time.perf_counter()
    rows = canonical_sweep()
    by_k: dict = {}
    for row in rows:
        by_k.setdefault(row.k, []).append(row.rhs_holder + row.rhs_apriori)
    budget = [float(np.mean(by_k[k])) for k in sorted(by_k)]
    errors = list(mean_errors_by_k(rows).values())
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(budget, budget[1:]))
    nonincreasing = all(a >= b for a, b in zip(errors, errors[1:]))
    passed = decreasing and nonincreasing and elapsed < 120.0
    report(8, "increasing-stability sweep", passed)
    assert decreasing
    assert nonincreasing
    assert elapsed < 120.0


def ensemble_report_bytes() -> bytes:
    lines = []
    for spectrum, k in random_ensemble(200, seed=3):
        r = verify_theorem(spectrum, k, 1.0, "T2")
        lines.append(f"{fmt(k)},{int(r.satisfied)},{fmt(r.rhs_total - r.lhs)}")
    return "\n".join(lines).encode()


def round_trip_report_bytes() -> bytes:
    lines = []
    for kR in (2.0, 4.0, 10.0, 50.0):
        d = make_real_perturbation(DecayProfile("algebraic", 1.1, 30, seed=200))
        recovered = invert_soft(forward_soft(d, kR, 1.0), kR, 1.0, n_cut=30)
        lines.append(fmt((recovered.spectrum - d.spectrum).energy()))
    return "\n".join(lines).encode()


def sweep_report_bytes() -> bytes:
    buf = io.StringIO()
    write_sweep_csv(buf, canonical_sweep())
    return buf.getvalue().encode()


def test_criterion_9_determinism():
    passed = (
        ensemble_report_bytes() == ensemble_report_bytes()
        and round_trip_report_bytes() == round_trip_report_bytes()
        and sweep_report_bytes() == sweep_report_bytes()
    )
    report(9, "deterministic reports", passed)
    assert passed
