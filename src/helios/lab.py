"""Synthetic spectra with prescribed per-degree decay, exact-norm noise
injection, and wavenumber sweeps that measure how reconstruction error and
the stability budget behave as k doubles.

All randomness flows through one numpy Generator per stream: a sweep
draws a wavenumber's replicates in turn from the stream (master seed,
k index), an ensemble its members' parameters from child (0,) of its seed;
child (1,) is unused. The estimates read only the per-degree magnitudes
the parameters fix (`ensemble_magnitudes`), so an ensemble draws no
normals. Output is bit-identical across runs and depends neither on the
replicate count or ensemble size nor on the order of the wavenumbers.

Replicates and ensemble members are batched, not looped over. A sweep
does its per-sweep work once for its K wavenumbers: their gains come
from one array-k `obstacle.gain` call (one Hankel table), their forward
maps from one product, and the gather index of the normals and the bin
index of the aggregation are built once for the degree. Per wavenumber
it builds one Generator, makes one standard_normal draw, taken straight
into the float view of the S replicates' (S x (L+1)^2) packed rows,
inverts those rows in place once their moduli are taken, and aggregates
the noisy, recovered and error moduli with one bincount. It splits and
budgets the stacked (K x S x (L+1)) magnitudes of its K wavenumbers in
one call each. An ensemble's members are the rows of one (size x 61)
magnitude array. `perturb` and `make_spectrum` are the one-row calls of
the same helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .field import default_cutoff, sobolev_norm, sobolev_norm_sq, split_spectrum
from .harmonics import CoefficientSpectrum, aggregate_bins, packed_index
from .obstacle import BoundaryPerturbation, forward_product, gain, truncated_quotient
from .specfun import N_MAX_SUPPORTED
from .stability import (KR_MIN_ESTIMATES, corollary_hard_terms, corollary_soft_terms,
                        verify_magnitudes)
from .util import require_count, require_finite, require_positive, require_real


_DECAY_KINDS = ("exponential", "algebraic")


@dataclass(frozen=True)
class DecayProfile:
    """Recipe for a random spectrum with aggregate magnitudes following
    amplitude * exp(-rate*n) (exponential) or amplitude * (1+n)^-rate
    (algebraic)."""

    kind: str  # "exponential" or "algebraic"
    rate: float
    max_degree: int
    seed: int
    amplitude: float = 1.0

    def degree_magnitudes(self) -> np.ndarray:
        return _decay(self.kind, self.rate, self.amplitude, self.max_degree)


def _decay(kind: str, rate, amplitude, max_degree: int) -> np.ndarray:
    """The magnitudes of a decay profile for n = 0..max_degree along the
    last axis; a column of rates gives one row per rate, each bit-equal to
    the profile of that one rate."""
    n = np.arange(max_degree + 1, dtype=float)
    if kind == "exponential":
        with np.errstate(over="ignore"):  # rate * n = inf gives e^(-inf) = 0, as it should
            return amplitude * np.exp(-rate * n)
    if kind == "algebraic":
        return amplitude * (1.0 + n) ** (-rate)
    raise DomainError(f"unknown decay kind {kind!r}")


def _validate_profile(profile: DecayProfile) -> None:
    # max_degree is checked by packed_index, which both builders call before they draw
    require_positive(rate=profile.rate)
    require_finite(amplitude=profile.amplitude)
    require_count(profile.seed, "profile seed")


def _normal_index(max_degree: int) -> np.ndarray:
    """Where the complex normals of a packed array of degree max_degree sit
    in one block of 2 (L+1)^2 standard normals: the real part of each slot,
    then its imaginary part, slot by slot. Within a block, degree n's 2n+1
    real parts come first, then its 2n+1 imaginary parts, so a take of the
    block at this index is the normals as a float view."""
    degree = packed_index(max_degree)[0]
    # degree n draws from 2n^2 on: slot g = n^2 + n + m draws its real part
    # at g + n^2 and its imaginary part 2n + 1 later
    real = np.arange(degree.size) + degree * degree
    return np.stack((real, real + 2 * degree + 1), axis=-1).ravel()


def _draw_normals(rng: np.random.Generator, index: np.ndarray, count: int) -> np.ndarray:
    """`count` C-contiguous rows of complex normals, row r from the r-th
    block of one standard_normal draw of rng, at `_normal_index`'s index."""
    return np.take(rng.standard_normal((count, index.size)), index, axis=1).view(complex)


def _complex_normals(rng: np.random.Generator, max_degree: int, count: int = 1) -> np.ndarray:
    """`count` rows of a complex normal for every slot of a packed array
    of degree max_degree (`_draw_normals`)."""
    return _draw_normals(rng, _normal_index(max_degree), count)


def _with_degree_magnitudes(raw: np.ndarray, bins: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The packed coefficients `raw`, rescaled in place so that the slots of
    each bin have aggregate magnitude target[bin] (`harmonics.aggregate_bins`);
    a bin with zero energy or target stays zero. One spectrum's bins are its
    degrees."""
    norm = aggregate_bins(raw, bins, target.size)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        scale = np.divide(target, norm, out=np.zeros_like(norm), where=norm > 0.0)
        raw *= scale[bins]
    if not np.isfinite(raw).all():
        raise CapacityError("a coefficient of the target magnitudes exceeds the floating range")
    return raw


def make_spectrum(profile: DecayProfile) -> CoefficientSpectrum:
    """Random spectrum whose per-degree aggregates match the profile
    exactly: orders within each degree carry random complex directions
    renormalized to the target magnitude."""
    _validate_profile(profile)
    raw = _complex_normals(np.random.default_rng(profile.seed), profile.max_degree)[0]
    degrees = packed_index(profile.max_degree)[0]
    return CoefficientSpectrum.from_packed(
        _with_degree_magnitudes(raw, degrees, profile.degree_magnitudes()))


def make_real_perturbation(profile: DecayProfile) -> BoundaryPerturbation:
    """Random real boundary perturbation with the profile's aggregate
    decay, built with conjugate symmetry d_{n,-m} = (-1)^m conj(d_{n,m})."""
    _validate_profile(profile)
    rng = np.random.default_rng(profile.seed)
    degree, order = packed_index(profile.max_degree)
    slots = degree.size
    # degree n's draws start at n^2: d_{n,0}, then re and im of d_{n,m} for
    # m = 1..n; the zero after them is the imaginary part of every d_{n,0}
    draws = np.zeros(slots + 1)
    rng.standard_normal(out=draws[:slots])
    imag = degree * degree + 2 * np.abs(order)  # draw of im d_{n,|m|}, or of d_{n,0}
    real = imag - (order != 0)
    imag[order == 0] = slots
    raw = draws[real] + 1j * draws[imag]  # d_{n,|m|} in both slots n, +-m
    negative = order < 0
    raw[negative] = (-1.0) ** order[negative] * np.conjugate(raw[negative])
    return BoundaryPerturbation(CoefficientSpectrum.from_packed(
        _with_degree_magnitudes(raw, degree, profile.degree_magnitudes())))


def _check_noise_level(delta: float) -> None:
    require_finite(delta=delta)
    if delta < 0:
        raise DomainError("noise level delta must be nonnegative")


def _with_noise(coefficients: np.ndarray, delta: float, rng, count: int,
                index: np.ndarray) -> np.ndarray:
    """`count` rows: the packed `coefficients` plus complex normals
    (`_draw_normals` at `index`, the `_normal_index` of their degree),
    rescaled so the added coefficient energy is exactly delta^2. The rows
    are C-contiguous, so each row's energy is summed pairwise, as np.sum
    sums one 1-D array."""
    noise = _draw_normals(rng, index, count)
    moduli = np.abs(noise)
    energy = np.square(moduli, out=moduli).sum(axis=-1)
    parts = noise.view(float)  # a real scale, applied to re and im alike
    parts *= (delta / np.sqrt(energy))[:, None]
    noise += coefficients  # in place, so one (count x slots) array serves
    return noise


def perturb(spectrum: CoefficientSpectrum, delta: float, seed) -> CoefficientSpectrum:
    """Add random noise across all indices up to max_degree, drawn from
    default_rng(seed) for a nonnegative integer or a SeedSequence seed and
    rescaled so the added coefficient energy is exactly delta^2."""
    if not isinstance(seed, np.random.SeedSequence):
        require_count(seed, "seed")
    _check_noise_level(delta)
    if delta == 0.0:
        return spectrum
    rng = np.random.default_rng(seed)
    noise = _with_noise(spectrum.coefficients, delta, rng, 1, _normal_index(spectrum.max_degree))
    return CoefficientSpectrum.from_packed(noise[0])


@dataclass(frozen=True)
class SweepRow:
    """One (wavenumber, noise replicate) record of a sweep."""

    k: float
    replicate: int
    N: int
    eps1: float
    eps2: float
    E: float
    lhs: float
    rhs_lipschitz: float
    rhs_holder: float
    rhs_apriori: float
    rhs_total: float
    reconstruction_error: float


def ksweep(
    d: BoundaryPerturbation,
    R: float,
    k_list: list[float],
    delta: float,
    seeds: int,
    master_seed: int = 0,
    kind: str = "soft",
) -> list[SweepRow]:
    """Forward-map d at each wavenumber, inject noise of exact level
    delta, invert with the stability cutoff, and record the reconstruction
    error together with the perturbation-space stability budget.

    Budget columns are the obstacle bound on the squared surface norm of
    the recovered perturbation (T2-style Hoelder term for the soft kind),
    evaluated with the spectral split of the noisy amplitude and the
    first-order norm of the recovered perturbation; lhs is that squared
    surface norm itself.

    Rows come in ascending k, replicates in order. The gains of all
    wavenumbers come from one Hankel table (`gain` of the array of k), and
    their forward maps from one product; what depends only on the degree
    (the normals' gather index, the bins) is built once. Per wavenumber,
    the `seeds` (>= 1) replicates are the rows of one array, replicate
    rep's noise the rep-th block of one draw of
    default_rng(SeedSequence(master_seed, spawn_key=(k_index,))), k_index
    the wavenumber's position in k_list. The inverse overwrites the noisy
    rows once their moduli are taken, and the noisy, recovered and error
    magnitudes of all replicates come from one bincount; the slot-level
    arrays are that one wavenumber's. The split, the norms and the budget
    are one call each on the stacked (wavenumber x seeds x degree)
    magnitudes.

    Every row is bit-equal to a per-replicate evaluation, and does not
    depend on the number of replicates or on the other wavenumbers. A
    sweep with one failing wavenumber raises what that wavenumber raises
    alone. With several, the first stage that fails (the gains, the
    forward maps, the noise level, the inverse, the split, the norms, the
    budget) raises."""
    if not k_list:
        raise DomainError("k_list must be nonempty")
    seeds = require_count(seeds, "seeds", least=1)
    master_seed = require_count(master_seed, "master_seed")
    for k in k_list:  # before the sort compares them and float() converts them
        require_real(k=k)

    order = sorted(range(len(k_list)), key=lambda i: k_list[i])
    ks = np.array([float(k_list[i]) for i in order])
    L = d.spectrum.max_degree
    # one gain row per wavenumber, from one Hankel table, serves the
    # forward map and every replicate's inverse
    factors = gain(kind, ks, R, L)
    amplitudes = forward_product(d.spectrum, factors)
    cutoffs = default_cutoff(ks, R)
    _check_noise_level(delta)

    # (noisy, recovered, error) x wavenumber x replicate x degree; the
    # slot-level arrays are one wavenumber's at a time, and never a
    # (wavenumber x replicate x slot) tensor
    magnitudes = np.empty((3, len(ks), seeds, L + 1))
    bins = (np.arange(3 * seeds)[:, None] * (L + 1) + packed_index(L)[0]).ravel()
    index = _normal_index(L)

    for i, k_index in enumerate(order):
        if delta == 0.0:
            noisy = np.tile(amplitudes[i], (seeds, 1))
        else:
            rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(k_index,)))
            noisy = _with_noise(amplitudes[i], delta, rng, seeds, index)
        # the moduli of the three feed one bincount (the abs of a modulus is
        # itself), and each bin sums its slots in slot order; the buffer is
        # made after the noise draw has freed its arrays, and the inverse
        # and the error overwrite the noisy rows once their moduli are taken
        moduli = np.empty((3, *noisy.shape))
        np.abs(noisy, out=moduli[0])
        recovered = truncated_quotient(noisy, factors[i], int(cutoffs[i]))
        np.abs(recovered, out=moduli[1])
        recovered -= d.spectrum.coefficients  # the error, in place
        np.abs(recovered, out=moduli[2])
        del noisy, recovered
        magnitudes[:, i] = aggregate_bins(moduli.ravel(), bins, 3 * seeds * (L + 1)
                                          ).reshape(3, seeds, L + 1)
        del moduli  # before the next wavenumber's arrays are made
    noisy_rows, recovered_rows, error_rows = magnitudes

    k_column = ks[:, None]
    split = split_spectrum(noisy_rows, k_column, R)
    lhs = sobolev_norm_sq(recovered_rows, 0, R)
    d_norm1 = sobolev_norm(recovered_rows, 1, R)
    if kind == "soft":
        terms = corollary_soft_terms(split.eps1, split.eps2, split.E, k_column, R, d_norm1,
                                     variant="T2")
    else:
        terms = corollary_hard_terms(split.eps1, split.eps2, split.E, k_column, R, d_norm1)
    err = sobolev_norm(error_rows, 0, R)
    columns = (split.eps1, split.eps2, split.E, lhs, *terms, terms.total, err)
    rows = []
    for k, N, *per_k in zip(ks.tolist(), np.ravel(split.N).tolist(),
                            *(column.tolist() for column in columns)):
        for rep, values in enumerate(zip(*per_k)):
            rows.append(SweepRow(k, rep, int(N), *values))
    return rows


def ensemble_magnitudes(size: int, seed: int, kr_range: tuple[float, float]):
    """The members of a seeded random ensemble of decaying spectra, each
    paired with a wavenumber k drawn from kr_range (R = 1), as the estimates
    read them: the max degrees L_j, the wavenumbers (an array) and the
    (size x 61) per-degree magnitudes, row j padded with zeros above L_j.

    Member j takes its decay kind (50/50), rate U(0.3, 1.5), max degree
    (uniform on 1..30), k U(lo, hi) and target norm U(0.05, 0.95) from row
    j of one random((size, 5)) block of child SeedSequence(seed,
    spawn_key=(0,)); row j is its decay profile times norm_j / sqrt(sum of
    its squares), so it does not depend on `size` (a positive integer;
    `seed` is a nonnegative one). The norms are below one: the estimates
    live in the small-data regime eps2 < 1 (so E > 0), and the derivative
    estimate in particular needs E + k > 1."""
    size = require_count(size, "ensemble size", least=1)
    seed = require_count(seed, "seed")
    lo, hi = kr_range
    require_finite(kr_lo=lo, kr_hi=hi)
    if lo < KR_MIN_ESTIMATES or hi < lo:
        raise DomainError(f"kR range must satisfy {KR_MIN_ESTIMATES:g} <= lo <= hi, got [{lo}, {hi}]")
    u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))).random((size, 5)).T
    kinds = (2.0 * u[0]).astype(np.intp)  # an index into _DECAY_KINDS
    rates = 0.3 + 1.2 * u[1]
    max_degrees = 1 + (30.0 * u[2]).astype(np.intp)
    target = np.empty((size, N_MAX_SUPPORTED + 1))
    for index, kind in enumerate(_DECAY_KINDS):
        rows = kinds == index
        target[rows] = _decay(kind, rates[rows, None], 1.0, N_MAX_SUPPORTED)
    target[np.arange(N_MAX_SUPPORTED + 1) > max_degrees[:, None]] = 0.0
    target *= ((0.05 + 0.9 * u[4]) / np.sqrt(np.sum(target * target, axis=1)))[:, None]
    return max_degrees.tolist(), lo + (hi - lo) * u[3], target


def ensemble_verify(
    size: int,
    seed: int,
    which: str,
    kr_range: tuple[float, float] = (2.0, 100.0),
) -> tuple[int, float]:
    """Check one stability estimate on the members of
    `ensemble_magnitudes(size, seed, kr_range)`; returns (failures,
    min_slack)."""
    _, ks, magnitudes = ensemble_magnitudes(size, seed, kr_range)
    _, lhs, _, terms = verify_magnitudes(magnitudes, ks, 1.0, which)
    total = terms.total
    return int(np.count_nonzero(~(lhs <= total))), float(np.min(total - lhs))


def mean_errors_by_k(rows: list[SweepRow]) -> dict[float, float]:
    """Mean reconstruction error per wavenumber."""
    sums: dict[float, list[float]] = {}
    for row in rows:
        sums.setdefault(row.k, []).append(row.reconstruction_error)
    return {k: float(np.mean(v)) for k, v in sorted(sums.items())}
