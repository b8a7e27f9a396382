"""Synthetic spectra with prescribed per-degree decay, exact-norm noise
injection, and wavenumber sweeps that measure how reconstruction error and
the stability budget behave as k doubles.

All randomness flows through numpy SeedSequences derived from
(master seed, k index, replicate index), so sweep output is bit-identical
across runs and does not depend on the order in which wavenumbers are
processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .field import default_cutoff, sobolev_norm, sobolev_norm_sq, split_spectrum
from .harmonics import CoefficientSpectrum, aggregate, conjugate_mirror, packed_index
from .obstacle import BoundaryPerturbation, apply_gain, gain, truncated_inverse
from .stability import (KR_MIN_ESTIMATES, corollary_hard_terms, corollary_soft_terms,
                        verify_ensemble)
from .util import require_finite, require_positive


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
        n = np.arange(self.max_degree + 1, dtype=float)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):  # rate * n = inf gives e^(-inf) = 0, as it should
                return self.amplitude * np.exp(-self.rate * n)
        if self.kind == "algebraic":
            return self.amplitude * (1.0 + n) ** (-self.rate)
        raise DomainError(f"unknown decay kind {self.kind!r}")


def _validate_profile(profile: DecayProfile) -> None:
    # max_degree is checked by packed_index, which both builders call before they draw
    require_positive(rate=profile.rate)
    require_finite(amplitude=profile.amplitude)
    if profile.seed < 0:
        raise DomainError(f"profile seed must be nonnegative, got {profile.seed}")


def _complex_normals(rng: np.random.Generator, max_degree: int) -> np.ndarray:
    """A complex normal for every packed slot, from one draw in degree
    order: degree n's 2n+1 real parts, then its 2n+1 imaginary parts."""
    degree, order = packed_index(max_degree)
    draws = rng.standard_normal(2 * (max_degree + 1) ** 2)
    real = 2 * degree * degree + degree + order  # degree n's draws start at 2n^2
    return draws[real] + 1j * draws[real + 2 * degree + 1]


def _with_degree_magnitudes(raw: np.ndarray, target: np.ndarray) -> CoefficientSpectrum:
    """The packed array `raw` with each degree n rescaled to aggregate
    magnitude target[n]; a degree with zero energy or target stays zero."""
    spectrum = CoefficientSpectrum.from_packed(raw)
    norm = aggregate(spectrum)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a CapacityError
        scale = np.divide(target, norm, out=np.zeros_like(norm), where=norm > 0.0)
        coefficients = raw * scale[spectrum.degrees]
    if not np.isfinite(coefficients).all():
        raise CapacityError("a coefficient of the target magnitudes exceeds the floating range")
    return CoefficientSpectrum.from_packed(coefficients)


def make_spectrum(profile: DecayProfile) -> CoefficientSpectrum:
    """Random spectrum whose per-degree aggregates match the profile
    exactly: orders within each degree carry random complex directions
    renormalized to the target magnitude."""
    _validate_profile(profile)
    rng = np.random.default_rng(np.random.SeedSequence(profile.seed))
    raw = _complex_normals(rng, profile.max_degree)
    return _with_degree_magnitudes(raw, profile.degree_magnitudes())


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
    return BoundaryPerturbation(_with_degree_magnitudes(raw, profile.degree_magnitudes()))


def perturb(spectrum: CoefficientSpectrum, delta: float, seed) -> CoefficientSpectrum:
    """Add random noise across all indices up to max_degree, rescaled so
    the added coefficient energy is exactly delta^2."""
    require_finite(delta=delta)
    if delta < 0:
        raise DomainError("noise level delta must be nonnegative")
    if delta == 0.0:
        return spectrum
    rng = np.random.default_rng(seed)
    noise = CoefficientSpectrum.from_packed(_complex_normals(rng, spectrum.max_degree))
    return spectrum + noise.scaled(delta / math.sqrt(noise.energy()))


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
    surface norm itself."""
    if not k_list:
        raise DomainError("k_list must be nonempty")
    if seeds < 1:
        raise DomainError("need at least one noise replicate")
    if master_seed < 0:
        raise DomainError(f"master seed must be nonnegative, got {master_seed}")

    # ascending k: a kR below KR_MIN_ESTIMATES fails the first estimate called
    rows = []
    for k_index in sorted(range(len(k_list)), key=lambda i: k_list[i]):
        k = float(k_list[k_index])
        # one diagonal gain per wavenumber serves the forward map and
        # every replicate's inverse
        factors = gain(kind, k, R, d.spectrum.max_degree)
        amplitude = apply_gain(d.spectrum, factors)
        n_cut = default_cutoff(k, R)
        magnitudes = []  # per replicate: the noisy amplitude, the recovery and its error
        for rep in range(seeds):
            child = np.random.SeedSequence(entropy=master_seed, spawn_key=(k_index, rep))
            noisy = perturb(amplitude, delta, child)
            recovered = truncated_inverse(noisy, factors, n_cut).spectrum
            magnitudes.append([aggregate(spectrum)
                               for spectrum in (noisy, recovered, recovered - d.spectrum)])
        noisy_rows, recovered_rows, error_rows = np.moveaxis(np.array(magnitudes), 1, 0)
        split = split_spectrum(noisy_rows, k, R)
        lhs = sobolev_norm_sq(recovered_rows, 0, R)
        d_norm1 = sobolev_norm(recovered_rows, 1, R)
        if kind == "soft":
            terms = corollary_soft_terms(split.eps1, split.eps2, split.E, k, R, d_norm1,
                                         variant="T2")
        else:
            terms = corollary_hard_terms(split.eps1, split.eps2, split.E, k, R, d_norm1)
        err = sobolev_norm(error_rows, 0, R)
        columns = (split.eps1, split.eps2, split.E, lhs, *terms, terms.total, err)
        for rep, values in enumerate(zip(*(column.tolist() for column in columns))):
            rows.append(SweepRow(k, rep, split.N, *values))
    return rows


def random_ensemble(
    size: int, seed: int, kr_range: tuple[float, float] = (2.0, 100.0)
) -> list[tuple[CoefficientSpectrum, float]]:
    """`size` seeded random decaying spectra, each paired with a wavenumber
    k drawn from kr_range (R = 1).

    Spectra are rescaled to total coefficient energy below one: the
    estimates live in the small-data regime eps2 < 1 (so E > 0), and the
    derivative estimate in particular needs E + k > 1."""
    if size < 1:
        raise DomainError("ensemble size must be at least 1")
    lo, hi = kr_range
    require_finite(kr_lo=lo, kr_hi=hi)
    if lo < KR_MIN_ESTIMATES or hi < lo:
        raise DomainError(f"kR range must satisfy {KR_MIN_ESTIMATES:g} <= lo <= hi, got [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(size):
        profile = DecayProfile(
            kind=str(rng.choice(["exponential", "algebraic"])),
            rate=float(rng.uniform(0.3, 1.5)),
            max_degree=int(rng.integers(1, 31)),
            seed=int(rng.integers(0, 2**63)),
        )
        k = float(rng.uniform(lo, hi))
        spectrum = make_spectrum(profile)
        target = float(rng.uniform(0.05, 0.95))
        out.append((spectrum.scaled(target / math.sqrt(spectrum.energy())), k))
    return out


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
