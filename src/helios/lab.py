"""Synthetic spectra with prescribed per-degree decay, exact-norm noise
injection, and wavenumber sweeps that measure how reconstruction error and
the stability budget behave as k doubles.

All randomness flows through numpy SeedSequences derived from
(master seed, k index, replicate index), so sweep output is bit-identical
across runs and does not depend on the order in which wavenumbers are
processed.

Replicates and ensemble members are batched, not looped over: a sweep
holds one wavenumber's S replicates as the rows of one (S x (L+1)^2)
packed array, and splits and budgets the stacked (K x S x (L+1))
magnitudes of its K wavenumbers in one call each; an ensemble rescales
its members' concatenated packed arrays in one pass. Each row, and each
member, is bit-equal to the scalar call it replaces: `perturb` and
`make_spectrum` are the one-row calls of the same helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .field import default_cutoff, sobolev_norm, sobolev_norm_sq, split_spectrum
from .harmonics import (CoefficientSpectrum, aggregate_bins, conjugate_mirror, packed_index,
                        stacked_index)
from .obstacle import BoundaryPerturbation, apply_gain, gain, truncated_quotient
from .stability import (KR_MIN_ESTIMATES, corollary_hard_terms, corollary_soft_terms,
                        verify_ensemble)
from .util import require_finite, require_positive


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
    if profile.seed < 0:
        raise DomainError(f"profile seed must be nonnegative, got {profile.seed}")


def _pieces(array: np.ndarray, sizes) -> list[np.ndarray]:
    """Consecutive views of a 1-D array, of the given sizes (np.split
    costs several numpy calls per piece)."""
    ends = np.cumsum(sizes).tolist()
    return [array[end - size : end] for size, end in zip(np.asarray(sizes).tolist(), ends)]


def _complex_normals(seeds, max_degrees) -> np.ndarray:
    """A complex normal for every slot of the packed arrays of spectra of
    degrees max_degrees, concatenated in order. Spectrum j's come from one
    standard_normal draw of default_rng(seeds[j]), in degree order: degree
    n's 2n+1 real parts, then its 2n+1 imaginary parts."""
    degree = stacked_index(max_degrees)[1]
    sizes = (np.asarray(max_degrees) + 1) ** 2
    draws = np.empty(2 * degree.size)
    for seed, part in zip(seeds, _pieces(draws, 2 * sizes)):
        np.random.default_rng(seed).standard_normal(out=part)
    # a spectrum whose first slot is f draws from 2f on, and its degree n
    # from 2f + 2n^2 on: slot g = f + n^2 + n + m draws its real part at
    # g + f + n^2 and its imaginary part 2n + 1 later
    real = np.arange(degree.size) + np.repeat(np.cumsum(sizes) - sizes, sizes) + degree * degree
    normals = draws[real + 2 * degree + 1] * 1j
    normals += draws[real]  # in place, with no third array as long as the draws
    return normals


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
    raw = _complex_normals([np.random.SeedSequence(profile.seed)], [profile.max_degree])
    degrees = packed_index(profile.max_degree)[0]
    return CoefficientSpectrum.from_packed(
        _with_degree_magnitudes(raw, degrees, profile.degree_magnitudes()))


def make_real_perturbation(profile: DecayProfile) -> BoundaryPerturbation:
    """Random real boundary perturbation with the profile's aggregate
    decay, built with conjugate symmetry d_{n,-m} = (-1)^m conj(d_{n,m})."""
    _validate_profile(profile)
    rng = np.random.default_rng(np.random.SeedSequence(profile.seed))
    degree, order = packed_index(profile.max_degree)
    # degree n's draws start at n^2: d_{n,0}, then re and im of d_{n,m} for m = 1..n
    draws = rng.standard_normal((profile.max_degree + 1) ** 2)
    imag = degree * degree + 2 * np.abs(order)  # draw of im d_{n,|m|}, or of d_{n,0}
    upper = CoefficientSpectrum.from_packed(  # d_{n,|m|} in both slots n, +-m
        draws[imag - (order != 0)] + 1j * np.where(order != 0, draws[imag], 0.0))
    raw = np.where(order < 0, conjugate_mirror(upper).coefficients, upper.coefficients)
    return BoundaryPerturbation(CoefficientSpectrum.from_packed(
        _with_degree_magnitudes(raw, degree, profile.degree_magnitudes())))


def _check_noise_level(delta: float) -> None:
    require_finite(delta=delta)
    if delta < 0:
        raise DomainError("noise level delta must be nonnegative")


def _with_noise(coefficients: np.ndarray, delta: float, seeds) -> np.ndarray:
    """One row per seed: the packed `coefficients` plus complex normals
    drawn from default_rng(seed), rescaled so the added coefficient energy
    is exactly delta^2. The rows are C-contiguous, so each row's energy is
    summed pairwise, as np.sum sums one 1-D array."""
    max_degree = math.isqrt(len(coefficients)) - 1
    noise = _complex_normals(seeds, [max_degree] * len(seeds)).reshape(len(seeds), -1)
    energy = np.sum(np.abs(noise) ** 2, axis=-1)
    noise *= (delta / np.sqrt(energy))[:, None]
    noise += coefficients  # in place, so one (seeds x slots) array serves
    return noise


def perturb(spectrum: CoefficientSpectrum, delta: float, seed) -> CoefficientSpectrum:
    """Add random noise across all indices up to max_degree, rescaled so
    the added coefficient energy is exactly delta^2."""
    _check_noise_level(delta)
    if delta == 0.0:
        return spectrum
    return CoefficientSpectrum.from_packed(_with_noise(spectrum.coefficients, delta, [seed])[0])


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

    Rows come in ascending k, replicates in order. Per wavenumber, the
    replicates are the rows of one (seeds x slots) array: replicate rep's
    noise is drawn from SeedSequence(entropy=master_seed,
    spawn_key=(k_index, rep)), with k_index the wavenumber's position in
    k_list, and the noisy, recovered and error magnitudes of all
    replicates come from one bincount each. The split, the norms and the
    budget are one call each on the stacked (wavenumber x seeds x degree)
    magnitudes. Every row is bit-equal to a per-replicate evaluation, and
    does not depend on the number of replicates or on the other
    wavenumbers. A sweep with one failing wavenumber raises what that
    wavenumber raises alone; with several, the first stage that fails
    (the gains, the forward maps, the noise level, the inverse, the split,
    the norms, the budget) raises."""
    if not k_list:
        raise DomainError("k_list must be nonempty")
    if seeds < 1:
        raise DomainError("need at least one noise replicate")
    if master_seed < 0:
        raise DomainError(f"master seed must be nonnegative, got {master_seed}")

    order = sorted(range(len(k_list)), key=lambda i: k_list[i])
    ks = np.array([float(k_list[i]) for i in order])
    L = d.spectrum.max_degree
    # one diagonal gain per wavenumber serves the forward map and every
    # replicate's inverse
    factors = [gain(kind, k, R, L) for k in ks.tolist()]
    amplitudes = [apply_gain(d.spectrum, row) for row in factors]
    cutoffs = default_cutoff(ks, R)
    _check_noise_level(delta)

    # (noisy, recovered, error) x wavenumber x replicate x degree; the
    # slot-level arrays are one wavenumber's at a time, and never a
    # (wavenumber x replicate x slot) tensor
    magnitudes = np.empty((3, len(ks), seeds, L + 1))
    bins = (np.arange(seeds)[:, None] * (L + 1) + packed_index(L)[0]).ravel()

    def per_degree(rows: np.ndarray) -> np.ndarray:
        return aggregate_bins(rows.ravel(), bins, seeds * (L + 1)).reshape(seeds, L + 1)

    for i, (k_index, amplitude) in enumerate(zip(order, amplitudes)):
        if delta == 0.0:
            noisy = np.tile(amplitude.coefficients, (seeds, 1))
        else:
            streams = [np.random.SeedSequence(entropy=master_seed, spawn_key=(k_index, rep))
                       for rep in range(seeds)]
            noisy = _with_noise(amplitude.coefficients, delta, streams)
        recovered = truncated_quotient(noisy, factors[i], int(cutoffs[i]))
        magnitudes[0, i] = per_degree(noisy)
        magnitudes[1, i] = per_degree(recovered)
        recovered -= d.spectrum.coefficients  # the error, in place
        magnitudes[2, i] = per_degree(recovered)
        del noisy, recovered  # before the next wavenumber's arrays are made
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


def random_ensemble(
    size: int, seed: int, kr_range: tuple[float, float] = (2.0, 100.0)
) -> list[tuple[CoefficientSpectrum, float]]:
    """`size` seeded random decaying spectra, each paired with a wavenumber
    k drawn from kr_range (R = 1).

    Spectra are rescaled to total coefficient energy below one: the
    estimates live in the small-data regime eps2 < 1 (so E > 0), and the
    derivative estimate in particular needs E + k > 1.

    Each member takes its profile, k and target norm from the master
    stream in turn, and its normals from its own profile seed; the
    members' packed arrays are then rescaled in one pass over their
    concatenation, each bit-equal to `make_spectrum` of its profile scaled
    to its target norm. The spectra are views into that one array."""
    if size < 1:
        raise DomainError("ensemble size must be at least 1")
    lo, hi = kr_range
    require_finite(kr_lo=lo, kr_hi=hi)
    if lo < KR_MIN_ESTIMATES or hi < lo:
        raise DomainError(f"kR range must satisfy {KR_MIN_ESTIMATES:g} <= lo <= hi, got [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    # per member, in this order: decay kind, rate, max degree, profile
    # seed, k and target norm
    draws = [(int(rng.integers(0, 2)), float(rng.uniform(0.3, 1.5)), int(rng.integers(1, 31)),
              int(rng.integers(0, 2**63)), float(rng.uniform(lo, hi)),
              float(rng.uniform(0.05, 0.95))) for _ in range(size)]
    kinds, rates, max_degrees, profile_seeds, ks, norms = zip(*draws)

    raw = _complex_normals([np.random.SeedSequence(s) for s in profile_seeds], max_degrees)
    # each member's profile, padded to the widest, and each slot's bin in it
    width = max(max_degrees) + 1
    target = np.empty((size, width))
    for index, kind in enumerate(_DECAY_KINDS):
        rows = np.array(kinds) == index
        target[rows] = _decay(kind, np.array(rates)[rows, None], 1.0, width - 1)
    member, degree = stacked_index(max_degrees)
    coefficients = _with_degree_magnitudes(raw, member * width + degree, target.ravel())
    # one pairwise sum per member, as energy() sums it; np.add.reduceat
    # would round differently
    sizes = (np.array(max_degrees) + 1) ** 2
    energy = [float(np.sum(part)) for part in _pieces(np.abs(coefficients) ** 2, sizes)]
    coefficients *= np.repeat(np.array(norms) / np.sqrt(energy), sizes)
    return [(CoefficientSpectrum.from_packed(part), k)
            for part, k in zip(_pieces(coefficients, sizes), ks)]


def ensemble_verify(
    size: int,
    seed: int,
    which: str,
    kr_range: tuple[float, float] = (2.0, 100.0),
) -> tuple[int, float]:
    """Check one stability estimate on `random_ensemble(size, seed,
    kr_range)`; returns (failures, min_slack)."""
    reports = verify_ensemble(random_ensemble(size, seed, kr_range), 1.0, which)
    return sum(not r.satisfied for r in reports), min(r.rhs_total - r.lhs for r in reports)


def mean_errors_by_k(rows: list[SweepRow]) -> dict[float, float]:
    """Mean reconstruction error per wavenumber."""
    sums: dict[float, list[float]] = {}
    for row in rows:
        sums.setdefault(row.k, []).append(row.reconstruction_error)
    return {k: float(np.mean(v)) for k, v in sorted(sums.items())}
