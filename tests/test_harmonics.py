import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

import helios
from conftest import random_spectrum
from helios.errors import DomainError, ResolutionError
from helios.harmonics import (
    CoefficientSpectrum,
    SphereGrid,
    aggregate,
    analyze,
    packed_index,
    stacked_index,
    synthesize,
)


def test_index_validation():
    spec = CoefficientSpectrum(3)
    spec[3, -3] = 1.0
    assert spec[3, -3] == 1.0
    with pytest.raises(DomainError):
        spec[2, 3]
    with pytest.raises(DomainError):
        spec[-1, 0]


def test_constant_harmonic(grid20):
    # Y_0^0 = 1/sqrt(4 pi), evaluated directly and in the grid table
    expected = 1.0 / math.sqrt(4 * math.pi)
    assert np.allclose(grid20.harmonic(0, 0), expected, rtol=1e-14, atol=0.0)
    assert np.allclose(grid20.table[0], expected, rtol=1e-14, atol=0.0)


def test_degree_one_at_pole(grid20):
    # Y_1^0 = sqrt(3/(4 pi)) cos(theta), real (slot 1^2 + 1 + 0 = 2 of the table)
    value = grid20.harmonic(1, 0)
    expected = math.sqrt(3.0 / (4 * math.pi)) * np.cos(grid20.theta)
    assert np.allclose(value.real, expected, rtol=1e-13, atol=1e-14)
    assert np.allclose(value.imag, 0.0, rtol=0.0, atol=1e-14)
    theta_1d = grid20.theta[:: 2 * grid20.design_degree + 1]
    expected = math.sqrt(3.0 / (4 * math.pi)) * np.cos(theta_1d)
    assert np.allclose(grid20.table[2], expected, rtol=1e-13, atol=1e-14)


def test_grid_weights_sum(grid20):
    assert grid20.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)


def test_self_inner_product(grid20):
    y = grid20.harmonic(2, 1)
    assert grid20.integrate(y * np.conjugate(y)) == pytest.approx(1.0, abs=1e-10)


def test_orthonormality_matrix(grid20):
    # every harmonic up to degree 10, evaluated by scipy at every node in
    # one broadcast call; the Gram matrix under the grid quadrature
    degree, order = packed_index(10)
    y = sph_harm_y(degree[:, None], order[:, None], grid20.theta, grid20.phi)
    gram = (y * grid20.weights) @ np.conjugate(y).T
    assert np.max(np.abs(gram - np.eye(len(degree)))) <= 1e-10


def test_analyze_constant(grid20):
    samples = np.full(grid20.theta.shape, 1.0 / math.sqrt(4 * math.pi), dtype=complex)
    spec = analyze(samples, grid20, 5)
    assert spec[0, 0] == pytest.approx(1.0, abs=1e-12)
    rest = max(abs(v) for (nm), v in spec.items() if nm != (0, 0))
    assert rest <= 1e-12


def test_analyze_zero(grid20):
    spec = analyze(np.zeros(grid20.theta.shape, dtype=complex), grid20, 5)
    assert spec.energy() == 0.0


def test_round_trip(grid30):
    spec = random_spectrum(30, seed=42)
    rec = analyze(synthesize(spec, grid30), grid30, 30)
    for key, value in spec.items():
        assert abs(rec[key] - value) <= 1e-10


def test_synthesize_linear(grid20):
    spec = random_spectrum(8, seed=1)
    lhs = synthesize(spec.scaled(2.5 - 1.0j), grid20)
    rhs = (2.5 - 1.0j) * synthesize(spec, grid20)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_insufficient_grid():
    grid = SphereGrid.build(4)
    with pytest.raises(ResolutionError):
        analyze(np.zeros(grid.theta.shape, dtype=complex), grid, 10)


def test_aggregate_single_entry():
    spec = CoefficientSpectrum(2, {(0, 0): 3.0})
    assert aggregate(spec)[0] == pytest.approx(3.0)


def test_aggregate_pythagorean():
    spec = CoefficientSpectrum(1, {(1, -1): 3.0, (1, 1): 4.0})
    assert aggregate(spec)[1] == pytest.approx(5.0)


def test_aggregate_parseval():
    spec = random_spectrum(12, seed=7)
    assert np.sum(aggregate(spec) ** 2) == pytest.approx(spec.energy(), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(phase=st.floats(0.0, 2 * math.pi))
def test_aggregate_phase_invariance(phase):
    spec = random_spectrum(5, seed=11)
    rotated = CoefficientSpectrum(5)
    for (n, m), v in spec.items():
        rotated[n, m] = v * complex(math.cos(m * phase), math.sin(m * phase))
    a = aggregate(spec)
    b = aggregate(rotated)
    assert np.max(np.abs(a - b)) <= 1e-12


# --- packed spectrum and separable transform -------------------------------


def seeded_entries(max_degree: int, seed: int) -> dict[tuple[int, int], complex]:
    rng = np.random.default_rng(seed)
    return {
        (n, m): complex(rng.standard_normal(), rng.standard_normal())
        for n in range(max_degree + 1)
        for m in range(-n, n + 1)
    }


def direct_sum(spectrum, grid):
    """Reference synthesis: sum of a_{m,n} Y_n^m over the nonzero entries,
    each harmonic evaluated at the nodes by scipy."""
    out = np.zeros(grid.theta.shape, dtype=complex)
    for (n, m), value in spectrum.items():
        if value != 0:
            out += value * grid.harmonic(n, m)
    return out


@pytest.mark.parametrize("degree", [5, 20])
def test_synthesize_matches_direct_sum(degree):
    grid = SphereGrid.build(degree)
    spec = random_spectrum(degree, seed=degree)
    reference = direct_sum(spec, grid)
    gap = np.max(np.abs(synthesize(spec, grid) - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))


def test_synthesize_matches_direct_sum_degree_40():
    # every degree, with orders -n, 0, n and one random order: a full
    # degree-40 direct sum costs seconds of scipy calls
    grid = SphereGrid.build(40)
    rng = np.random.default_rng(40)
    spec = CoefficientSpectrum(40)
    for n in range(41):
        for m in {-n, 0, n, int(rng.integers(-n, n + 1))}:
            spec[n, m] = complex(rng.standard_normal(), rng.standard_normal())
    reference = direct_sum(spec, grid)
    gap = np.max(np.abs(synthesize(spec, grid) - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))


def test_synthesize_below_grid_degree(grid20):
    # a spectrum of lower degree uses a prefix of the grid's table
    spec = random_spectrum(7, seed=3)
    reference = direct_sum(spec, grid20)
    assert np.max(np.abs(synthesize(spec, grid20) - reference)) <= 1e-12 * np.max(
        np.abs(reference)
    )


def test_round_trip_degree_60():
    grid = SphereGrid.build(60)
    spec = random_spectrum(60, seed=60)
    rec = analyze(synthesize(spec, grid), grid, 60)
    assert np.max(np.abs(rec.coefficients - spec.coefficients)) <= 1e-10


def test_synthesize_rejects_spectrum_above_grid_degree():
    grid = SphereGrid.build(4)
    with pytest.raises(ResolutionError):
        synthesize(random_spectrum(5, seed=0), grid)


def add_at_synthesize(spectrum, grid):
    """Reference synthesis with the scatter frozen as one np.add.at over the
    packed orders: each FFT bin sums its rows from +0.0 in slot order."""
    order = packed_index(spectrum.max_degree)[1]
    n_phi = 2 * grid.design_degree + 1
    rows = spectrum.coefficients[:, None] * grid.table[: len(order)]
    g = np.zeros((n_phi, grid.design_degree + 1), dtype=complex)
    np.add.at(g, order, rows)
    return (n_phi * np.fft.ifft(g, axis=0)).T.ravel()


@pytest.mark.parametrize("design_degree", [10, 20, 40, 60])
def test_synthesize_is_bit_equal_to_the_add_at_scatter(design_degree):
    grid = SphereGrid.build(design_degree)
    rng = np.random.default_rng(design_degree)
    for max_degree in (0, 1, design_degree // 2, design_degree - 1, design_degree):
        size = (max_degree + 1) ** 2
        coefficients = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coefficients[::3] = 0.0
        coefficients[1::5] = -0.0
        coefficients[2::7] = complex(-0.0, -0.0)
        spec = CoefficientSpectrum.from_packed(coefficients)
        got, want = synthesize(spec, grid), add_at_synthesize(spec, grid)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("design_degree", range(61))
def test_table_matches_scipy(design_degree):
    degree, order = packed_index(design_degree)
    theta = np.arccos(np.polynomial.legendre.leggauss(design_degree + 1)[0])
    want = sph_harm_y(degree[:, None], order[:, None], theta, 0.0).real
    table = SphereGrid.build(design_degree).table
    assert table.shape == want.shape and table.dtype == np.float64
    assert np.max(np.abs(table - want)) <= 1e-13


@pytest.mark.parametrize("design_degree", [0, 1, 7, 30, 40, 60])
def test_table_rows_of_each_order_are_orthonormal(design_degree):
    # 2 pi sum_j w_j Y_n^m(theta_j, 0) Y_n'^m(theta_j, 0) = delta_nn' for
    # n, n' <= L: the Gauss rule integrates the degree 2L product exactly
    grid = SphereGrid.build(design_degree)
    weights = np.polynomial.legendre.leggauss(design_degree + 1)[1]
    order = packed_index(design_degree)[1]
    for m in range(-design_degree, design_degree + 1):
        rows = grid.table[order == m]
        gram = 2.0 * math.pi * (rows * weights) @ rows.T
        assert np.max(np.abs(gram - np.eye(len(rows)))) <= 5e-13


def test_build_and_transforms_make_no_scipy_call(monkeypatch):
    import helios.harmonics as harmonics

    calls = []
    real = harmonics.sph_harm_y

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harmonics, "sph_harm_y", counted)
    grid = SphereGrid.build(12)
    assert grid.table.shape == (13 * 13, 13) and grid.table.dtype == np.float64
    spec = random_spectrum(12, seed=5)
    analyze(synthesize(spec, grid), grid, 12)
    assert calls == []
    grid.harmonic(2, 1)
    assert len(calls) == 1


def test_packed_layout():
    spec = CoefficientSpectrum(3, seeded_entries(3, seed=1))
    keys = [key for key, _ in spec.items()]
    assert keys == [(n, m) for n in range(4) for m in range(-n, n + 1)]
    for (n, m), value in spec.items():
        assert spec.coefficients[n * n + n + m] == value == spec[n, m]
        assert spec.degrees[n * n + n + m] == n


def test_index_rules():
    spec = CoefficientSpectrum(2, {(1, -1): 2.0})
    assert spec[5, 3] == 0.0  # a valid index above max_degree reads as zero
    with pytest.raises(DomainError):
        spec[1, 2]
    with pytest.raises(DomainError):
        spec[3, 0] = 1.0
    with pytest.raises(DomainError):
        spec[1, 0] = complex(math.nan, 0.0)


@pytest.mark.parametrize("max_degree", range(61))
def test_packed_index_is_the_formula_and_read_only(max_degree):
    n = np.arange(max_degree + 1)
    degree_want = np.repeat(n, 2 * n + 1)
    degree, order = packed_index(max_degree)
    assert np.array_equal(degree, degree_want)
    assert np.array_equal(order, np.arange(degree_want.size) - degree_want * (degree_want + 1))
    for table in (degree, order):
        with pytest.raises(ValueError):
            table[0] = 1


DEGREE_OUT_OF_RANGE = r"^max_degree (must be nonnegative, got -1|\d+ exceeds supported maximum 60)$"


@pytest.mark.parametrize("max_degree", [-1, 61, 100])
def test_packed_index_rejects_a_degree_out_of_range(max_degree):
    expected = ("max_degree must be nonnegative, got -1" if max_degree < 0
                else f"max_degree {max_degree} exceeds supported maximum 60")
    with pytest.raises(DomainError, match=f"^{re.escape(expected)}$"):
        packed_index(max_degree)


def test_stacked_index_concatenates_the_packed_indices():
    max_degrees = [2, 0, 5, 2]
    member, degree = stacked_index(max_degrees)
    assert np.array_equal(member, np.repeat(np.arange(4), [9, 1, 36, 9]))
    assert np.array_equal(degree, np.concatenate([packed_index(L)[0] for L in max_degrees]))
    empty = stacked_index([])
    assert empty[0].size == empty[1].size == 0


@pytest.mark.parametrize("max_degrees", [[3, -1], [61, 2], [2, 2.5]])
def test_stacked_index_checks_every_degree(max_degrees):
    with pytest.raises(DomainError, match="^max_degree "):
        stacked_index(max_degrees)


@pytest.mark.parametrize("design_degree", [-1, 61])
def test_grid_build_rejects_a_degree_out_of_range(design_degree):
    with pytest.raises(DomainError, match=DEGREE_OUT_OF_RANGE):
        SphereGrid.build(design_degree)


def _set(key, value):
    CoefficientSpectrum(2)[key] = value


@pytest.mark.parametrize("make", [
    lambda: CoefficientSpectrum.from_packed(np.ones((4, 4), dtype=complex)),
    lambda: CoefficientSpectrum.from_packed(np.ones(4)),
    lambda: CoefficientSpectrum.from_packed([0j, 0j, 0j, 0j]),
    lambda: CoefficientSpectrum(2)[1.5, 0],
    lambda: CoefficientSpectrum(2)[1],
    lambda: CoefficientSpectrum(2)[1, 0, 0],
    lambda: CoefficientSpectrum(2, {(1.5, 0): 1.0}),
    lambda: CoefficientSpectrum(2, {(1, 0): None}),
    lambda: CoefficientSpectrum(2, {(1, 0): "x"}),
    lambda: _set((1, 0), 10**400),
], ids=["2-d", "float", "list", "float-key", "int-key", "triple-key", "fill-float-key",
        "none", "string", "huge-int"])
def test_malformed_spectrum_input_raises_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_spectrum_degrees_are_read_only():
    spec = CoefficientSpectrum.from_packed(np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        spec.degrees[3] = 0
    assert np.array_equal(spec.degrees, CoefficientSpectrum(3).degrees)


@pytest.mark.parametrize("length", [2, 3, 5, 8, 10, 3722])
def test_from_packed_rejects_a_length_that_is_not_a_square(length):
    with pytest.raises(DomainError, match="not a square"):
        CoefficientSpectrum.from_packed(np.zeros(length, dtype=complex))


@pytest.mark.parametrize("length", [0, 62 * 62])
def test_from_packed_rejects_a_degree_out_of_range(length):
    with pytest.raises(DomainError, match=DEGREE_OUT_OF_RANGE):
        CoefficientSpectrum.from_packed(np.zeros(length, dtype=complex))


def _per_entry_error(max_degree, entries):
    """What the per-entry constructor loop raised: the first offender's
    error, as (type, message), or None."""
    spec = CoefficientSpectrum(max_degree)
    try:
        for key, value in entries.items():
            spec[key] = value
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("entries", [
    {(0, 0): 1.0, (3, 1): 2.0, (1, 0): math.nan},           # index, then value
    {(0, 0): 1.0, (1, 0): math.nan, (3, 1): 2.0},           # value, then index
    {(1, 0): complex(0.0, math.inf), (1, 2): 1.0},
    {(1, -2): 1.0, (0, 0): math.nan},
    {(-1, 0): 1.0},
    {(1, -(2**63)): 1.0},                                    # |m| overflows int64
    {(0, 0): 1.0, (10**30, 0): 1.0, (1, 0): math.nan},       # huge n
    {(1, 0): math.nan, (10**30, 0): 1.0},
    {(1, 1): 1.0, (2**63, 0): 1.0},
    {(1, 0): "x", (5, 0): 1.0},                              # value complex() rejects
    {(5, 0): 1.0, (1, 0): "x"},
    {(1.5, 0): 1.0},
])
def test_fill_raises_what_the_first_offending_entry_raised(entries):
    want = _per_entry_error(2, entries)
    assert want is not None
    with pytest.raises(want[0]) as info:
        CoefficientSpectrum(2, entries)
    assert str(info.value) == want[1]


def test_fill_matches_per_entry_assignment():
    entries = seeded_entries(12, seed=4)
    spec = CoefficientSpectrum(12, entries)
    want = CoefficientSpectrum(12)
    for (n, m), value in entries.items():
        want[n, m] = value
    assert np.array_equal(spec.coefficients, want.coefficients)
    # a subset, in a shuffled order, with numpy scalars among the values
    subset = {key: np.complex128(entries[key]) for key in list(entries)[::-3]}
    spec = CoefficientSpectrum(12, subset)
    assert dict(spec.items()) == {key: subset.get(key, 0.0) for key, _ in want.items()}


def test_fill_from_duplicate_records_keeps_the_last_value():
    records = [((1, 0), 1.0), ((2, -1), 2.0), ((1, 0), 3.0 + 1.0j), ((2, -1), -0.0)]
    spec = CoefficientSpectrum(2, dict(records))
    assert spec[1, 0] == 3.0 + 1.0j
    assert spec[2, -1] == 0.0 and math.copysign(1.0, spec[2, -1].real) == -1.0
    assert np.count_nonzero(spec.coefficients) == 1


@pytest.mark.parametrize("degrees", [(3, 3), (2, 7), (7, 2), (0, 5)])
def test_arithmetic_matches_per_index_reference(degrees):
    la, lb = degrees
    ea, eb = seeded_entries(la, seed=la + 10), seeded_entries(lb, seed=lb + 20)
    a, b = CoefficientSpectrum(la, ea), CoefficientSpectrum(lb, eb)
    top = max(la, lb)
    keys = [(n, m) for n in range(top + 1) for m in range(-n, n + 1)]
    total, diff, scaled = a + b, a - b, a.scaled(0.5 - 2.0j)
    assert total.max_degree == diff.max_degree == top
    for key in keys:
        assert total[key] == ea.get(key, 0.0) + eb.get(key, 0.0)
        assert diff[key] == ea.get(key, 0.0) - eb.get(key, 0.0)
    for key, value in ea.items():
        assert scaled[key] == (0.5 - 2.0j) * value
    assert a.energy() == pytest.approx(sum(abs(v) ** 2 for v in ea.values()), rel=1e-13)
    sq = np.zeros(la + 1)
    for (n, _m), value in ea.items():
        sq[n] += abs(value) ** 2
    assert np.allclose(aggregate(a), np.sqrt(sq), rtol=1e-13, atol=0)


@pytest.mark.parametrize("cut", [0, 2, 5, 9])
def test_low_pass_matches_per_index_reference(cut):
    from helios.field import low_pass

    entries = seeded_entries(6, seed=cut)
    kept = low_pass(CoefficientSpectrum(6, entries), cut)
    assert kept.max_degree == 6
    for (n, m), value in entries.items():
        assert kept[n, m] == (value if n <= cut else 0.0)


def test_scipy_special_loads_only_for_a_direct_harmonic():
    # importing helios and its CLI, a grid build and both transforms leave
    # scipy.special unloaded; a direct evaluation of a harmonic loads it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import helios, helios.cli\n"
        "print('scipy.special' in sys.modules)\n"
        "grid = helios.SphereGrid.build(5)\n"
        "spec = helios.harmonics.CoefficientSpectrum.from_packed(np.ones(36, dtype=complex))\n"
        "helios.harmonics.analyze(helios.harmonics.synthesize(spec, grid), grid, 5)\n"
        "print('scipy.special' in sys.modules)\n"
        "grid.harmonic(1, 0)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = str(Path(helios.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.split() == ["False", "False", "True"]
