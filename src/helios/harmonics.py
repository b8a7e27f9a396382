"""Orthonormal complex spherical harmonics (Condon-Shortley phase),
Gauss-Legendre x uniform-longitude quadrature on the unit sphere, and the
analysis / synthesis / per-degree aggregation operations on coefficient
spectra. A spectrum is one complex array: a_{m,n} sits in slot n^2 + n + m.
Its per-degree magnitudes are one float array: a_n sits in slot n.

A grid of design degree L uses L+1 Gauss-Legendre nodes in cos(theta) and
2L+1 uniform longitudes, which integrates products Y_n^m * conj(Y_n'^m')
exactly for n, n' <= L. The Gauss-Legendre rule comes from one symmetric
eigensolve of the Legendre recurrence's Jacobi matrix (Golub-Welsch,
`_gauss_legendre`), not from numpy.polynomial; its weights are 20-50x
more accurate than numpy's leggauss at 41 and 61 nodes. Every grid's
nodes, weights and table moved once with that rule: the weights by up to
1.8e-12 relative, leggauss's own error, and the table by up to 5.4e-13.
Both transforms use Y_n^m(theta, phi) = Y_n^m(theta, 0) e^{i m phi}: an
FFT over longitude, a sum over colatitude. The grid's table of Y_n^m(theta_j, 0)
comes from the associated-Legendre recurrence (`_legendre_table`); only a
direct evaluation of one harmonic (`SphereGrid.harmonic`) calls scipy.

Both transforms check their arguments' types, and their result for a NaN
or an infinity: DomainError when the input holds one, CapacityError when
a finite input overflowed.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ResolutionError
from .specfun import N_MAX_SUPPORTED, require_order
from .util import require_finite


def sph_harm_y(n, m, theta, phi):
    """scipy.special.sph_harm_y, imported on the first call: importing
    scipy.special takes longer than importing the rest of helios, and only
    a direct evaluation of a harmonic (`SphereGrid.harmonic`) needs it.
    Grid builds and both transforms leave it unloaded."""
    from scipy.special import sph_harm_y as scipy_sph_harm_y

    return scipy_sph_harm_y(n, m, theta, phi)


_DEGREE = np.repeat(np.arange(N_MAX_SUPPORTED + 1), 2 * np.arange(N_MAX_SUPPORTED + 1) + 1)
_ORDER = np.arange(_DEGREE.size) - _DEGREE * (_DEGREE + 1)
_DEGREE.flags.writeable = _ORDER.flags.writeable = False


def packed_index(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree n and order m of each slot n^2 + n + m of a packed spectrum,
    as read-only arrays; DomainError unless max_degree is an integer in
    [0, N_MAX_SUPPORTED], the one check of a spectrum's or a grid's degree.
    Packed order is degree-major, so they are prefix views of one shared
    table."""
    require_order(max_degree, "max_degree")
    size = (max_degree + 1) ** 2
    return _DEGREE[:size], _ORDER[:size]


def _index_pair(key) -> tuple[int, int]:
    """The (n, m) of a key, which must be a pair of integers with |m| <= n."""
    try:
        n, m = map(operator.index, key)
    except (TypeError, ValueError):
        raise DomainError(f"a harmonic index must be an integer pair (n, m), got {key!r}") from None
    if n < 0 or abs(m) > n:
        raise DomainError(f"invalid harmonic index (n={n}, m={m})")
    return n, m


class CoefficientSpectrum:
    """Complex coefficients a_{m,n} of a surface expansion, indexed by
    (degree n, order m) and stored packed in `coefficients`; `degrees`
    holds the degree n of each slot (a read-only array shared by every
    spectrum of the same degree)."""

    def __init__(self, max_degree: int, entries: dict[tuple[int, int], complex] | None = None):
        self.degrees = packed_index(max_degree)[0]
        self.max_degree = max_degree
        self.coefficients = np.zeros(len(self.degrees), dtype=complex)
        if entries:
            self._fill(entries)

    def _fill(self, entries: dict[tuple[int, int], complex]) -> None:
        """Set every entry in one fancy assignment. Keys that are not all
        integer pairs, or a value complex() rejects, take the per-entry
        path; otherwise the first offending entry goes through __setitem__,
        which raises the error the per-entry path would."""
        try:
            keys = np.array(list(entries))
            values = np.fromiter(map(complex, entries.values()), dtype=complex,
                                 count=len(entries))
            vectorized = keys.dtype.kind == "i" and keys.shape == (len(entries), 2)
        except (TypeError, ValueError, OverflowError):
            vectorized = False
        if not vectorized:
            for key, value in entries.items():
                self[key] = value
            return
        n, m = keys.T
        bad = (n < 0) | (n > self.max_degree) | (m > n) | (m < -n) | ~np.isfinite(values)
        if bad.any():
            key = list(entries)[int(np.argmax(bad))]
            self[key] = entries[key]
        self.coefficients[n * n + n + m] = values

    @classmethod
    def from_packed(cls, coefficients: np.ndarray) -> "CoefficientSpectrum":
        """Spectrum holding a 1-D complex packed array of length (L+1)^2
        (not copied)."""
        if not (isinstance(coefficients, np.ndarray) and coefficients.ndim == 1
                and coefficients.dtype == complex):
            raise DomainError("a packed spectrum must be a 1-D complex array")
        max_degree = math.isqrt(len(coefficients)) - 1
        if len(coefficients) != (max_degree + 1) ** 2:
            raise DomainError(
                f"packed spectrum length {len(coefficients)} is not a square (L+1)^2")
        out = cls.__new__(cls)
        out.degrees = packed_index(max_degree)[0]
        out.max_degree = max_degree
        out.coefficients = coefficients
        return out

    def __getitem__(self, key: tuple[int, int]) -> complex:
        n, m = _index_pair(key)
        if n > self.max_degree:
            return 0.0 + 0.0j
        return complex(self.coefficients[n * n + n + m])

    def __setitem__(self, key: tuple[int, int], value: complex) -> None:
        n, m = _index_pair(key)
        if n > self.max_degree:
            raise DomainError(f"index (n={n}, m={m}) outside spectrum of degree {self.max_degree}")
        try:
            value = complex(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"coefficient (n={n}, m={m}) is not a number: {exc}") from None
        if not cmath.isfinite(value):
            raise DomainError(f"coefficient (n={n}, m={m}) must be finite, got {value}")
        self.coefficients[n * n + n + m] = value

    def items(self) -> list[tuple[tuple[int, int], complex]]:
        """((n, m), a_{m,n}) for every slot, in packed order."""
        degree, order = packed_index(self.max_degree)
        return list(zip(zip(degree.tolist(), order.tolist()), self.coefficients.tolist()))

    def energy(self) -> float:
        """Total energy sum |a_{m,n}|^2."""
        with np.errstate(over="ignore"):  # reported below as a CapacityError
            total = float(np.sum(np.abs(self.coefficients) ** 2))
        if not math.isfinite(total):
            raise CapacityError("spectrum energy exceeds the floating range")
        return total

    def scaled(self, factor: complex) -> "CoefficientSpectrum":
        return CoefficientSpectrum.from_packed(factor * self.coefficients)

    def __add__(self, other: "CoefficientSpectrum") -> "CoefficientSpectrum":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return CoefficientSpectrum.from_packed(out)

    def __sub__(self, other: "CoefficientSpectrum") -> "CoefficientSpectrum":
        return self + other.scaled(-1.0)


def conjugate_mirror(spectrum: CoefficientSpectrum) -> CoefficientSpectrum:
    """Spectrum of the complex conjugate function: slot (n, m) holds
    (-1)^m conj(a_{n,-m}). A real function is its own conjugate mirror."""
    degree, order = packed_index(spectrum.max_degree)
    mirror = spectrum.coefficients[degree * (degree + 1) - order]
    return CoefficientSpectrum.from_packed((-1.0) ** order * np.conjugate(mirror))


def aggregate(spectrum: CoefficientSpectrum) -> np.ndarray:
    """Collapse orders into per-degree magnitudes (Pythagorean sum): the
    array a_n = (sum_m |a_{m,n}|^2)^(1/2), n = 0..max_degree."""
    return aggregate_bins(spectrum.coefficients, spectrum.degrees, spectrum.max_degree + 1)


def aggregate_bins(coefficients: np.ndarray, bins: np.ndarray, size: int) -> np.ndarray:
    """`aggregate` of many spectra at once: for each of `size` bins, the
    Pythagorean sum of the coefficients whose slot `bins` puts in it (a 1-D
    array of the coefficients' length). Each bin sums its slots in slot
    order, as `aggregate` does, so with bins j * width + n over concatenated
    or stacked packed arrays, bin j * width + n is bit-equal to degree n of
    `aggregate` of spectrum j."""
    weights = np.abs(coefficients)
    with np.errstate(over="ignore"):  # reported below as a CapacityError
        sq = np.bincount(bins, weights=np.square(weights, out=weights), minlength=size)
    if not np.all(np.isfinite(sq)):
        raise CapacityError("per-degree spectrum energy exceeds the floating range")
    return np.sqrt(sq)


def _legendre_coefficients():
    """The coefficients of `_legendre_table`'s recurrence for every
    supported degree, elementwise: degree n's a_nm and b_nm, m = 0..n-1,
    are rows n(n-1)/2 .. n(n+1)/2 - 1 of the columns a and b, and its
    diagonal factor -sqrt((2n + 1) / (2n)) is row n - 1 of the third."""
    n = np.repeat(np.arange(N_MAX_SUPPORTED + 1), np.arange(N_MAX_SUPPORTED + 1))
    mm = (np.arange(n.size) - n * (n - 1) // 2).astype(float)[:, None]
    n = n.astype(float)[:, None]
    a = np.sqrt((4.0 * n * n - 1.0) / (n * n - mm * mm))
    b = -np.sqrt(((n - 1.0) ** 2 - mm * mm) * (2.0 * n + 1.0)
                 / ((2.0 * n - 3.0) * (n * n - mm * mm)))
    d = np.arange(1.0, N_MAX_SUPPORTED + 1.0)
    return a, b, -np.sqrt((2.0 * d + 1.0) / (2.0 * d))[:, None]


_A, _B, _DIAG = _legendre_coefficients()
_SIGN = (-1.0) ** np.arange(N_MAX_SUPPORTED, 0, -1.0)[:, None]  # (-1)^m for m = 60..1


def _legendre_table(max_degree: int, theta: np.ndarray) -> np.ndarray:
    """The real Y_n^m(theta_j, 0) for every packed slot (n, m) up to
    max_degree, one row per slot and one column per colatitude, from the
    orthonormal associated-Legendre recurrences with the Condon-Shortley
    phase, run over n for every m at once:

        Y_0^0 = 1 / sqrt(4 pi),
        Y_n^n = -sqrt((2n + 1) / (2n)) sin(theta) Y_{n-1}^{n-1},
        Y_n^m = a_nm cos(theta) Y_{n-1}^m + b_nm Y_{n-2}^m   (m < n),
        a_nm = sqrt((4n^2 - 1) / (n^2 - m^2)),
        b_nm = -sqrt(((n-1)^2 - m^2) (2n + 1) / ((2n - 3) (n^2 - m^2))),
        Y_n^{-m}(theta, 0) = (-1)^m Y_n^m(theta, 0).

    The coefficients of every supported degree are formed once, at import
    (`_A`, `_B`, `_DIAG`), and a_nm cos(theta) and the diagonal factor
    times sin(theta) once per table. Degree n's step then reads degrees
    n - 1 and n - 2 from the table's rows m >= 0, which are contiguous,
    and writes its own rows, m >= 0 from three products and an add, and
    m < 0 from one product. Every entry is the same expression, evaluated
    in the same order, as in a loop that forms each degree's coefficients
    in its own step; only b_{n,n-1} Y_{n-2}^{n-1}, a product with the zero
    Y_{n-2}^{n-1}, is not added. The tests hold the table to that loop
    bit for bit on every grid up to degree 60. On the Gauss-Legendre
    colatitudes of those grids it differs from scipy.special.sph_harm_y by
    at most 1.4e-14."""
    cos_a = _A[: max_degree * (max_degree + 1) // 2] * np.cos(theta)
    sin_diag = _DIAG[:max_degree] * np.sin(theta)
    table = np.empty(((max_degree + 1) ** 2, len(theta)))
    table[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for n in range(1, max_degree + 1):
        # rows of Y_n^0, Y_{n-1}^0 and Y_{n-2}^0, and of a_{n,0} and b_{n,0}
        row, last, first = n * n + n, n * n - n, n * n - 3 * n + 2
        lo = n * (n - 1) // 2
        below = table[last: last + n]  # Y_{n-1}^m, m = 0..n-1
        out = table[row: row + n]
        np.multiply(cos_a[lo: lo + n], below, out=out)
        out[: n - 1] += _B[lo: lo + n - 1] * table[first: first + n - 1]
        np.multiply(sin_diag[n - 1], below[n - 1], out=table[row + n])
        np.multiply(_SIGN[N_MAX_SUPPORTED - n:], table[row + n: row: -1], out=table[n * n: row])
    return table


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending, by
    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix of the Legendre recurrence,
    zero diagonal and off-diagonal k / sqrt(4k^2 - 1), k = 1..n-1, and each
    weight is 2 v_0^2, with v_0 the first component of the node's unit
    eigenvector. The nodes are then made exactly antisymmetric and the
    weights exactly symmetric. Up to n = 61 the nodes are within 3.3e-16
    and the weights within 6.3e-14 relative of a 50-digit reference
    (numpy's leggauss: 1.7e-12). The dense eigensolve is O(n^3); on a
    2-core x86-64 host it is 2.5-4x faster than leggauss at n = 61 and
    slower beyond n of about 250 to 300."""
    k = np.arange(1.0, n)
    # eigh reads only the lower triangle, so the subdiagonal is the whole matrix
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = 2.0 * v[0] ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


@dataclass
class SphereGrid:
    """Quadrature grid on the unit sphere: Gauss-Legendre in colatitude
    times uniform longitude, nodes colatitude-major. `table` holds the real
    Y_n^m(theta_j, 0), one row per packed slot (n, m) (`_legendre_table`)."""

    design_degree: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    table: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, design_degree: int) -> "SphereGrid":
        """The grid of a design degree L in [0, N_MAX_SUPPORTED]: the L+1
        nodes and weights of `_gauss_legendre` in cos(theta), 2L+1 uniform
        longitudes, and the table of `_legendre_table` at the nodes. The
        weights are within 6.3e-14 relative of exact up to L = 60."""
        packed_index(design_degree)  # checks the degree before the rule sees it
        n_theta = design_degree + 1
        n_phi = 2 * design_degree + 1
        x, w = _gauss_legendre(n_theta)
        theta_1d = np.arccos(x)
        phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
        theta, phi = np.meshgrid(theta_1d, phi_1d, indexing="ij")
        weights = np.broadcast_to((w * (2.0 * np.pi / n_phi))[:, None], theta.shape)
        return cls(
            design_degree=design_degree,
            theta=theta.ravel(),
            phi=phi.ravel(),
            weights=np.ascontiguousarray(weights.ravel()),
            table=_legendre_table(design_degree, theta_1d),
        )

    def harmonic(self, n: int, m: int) -> np.ndarray:
        """Samples of Y_n^m on the grid nodes, evaluated directly."""
        return sph_harm_y(n, m, self.theta, self.phi)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.dot(self.weights, values))


def _orders(max_degree: int, grid: SphereGrid) -> np.ndarray:
    """Order m of each packed slot up to max_degree, which the grid must resolve."""
    order = packed_index(max_degree)[1]
    if not isinstance(grid, SphereGrid):
        raise DomainError(f"grid must be a SphereGrid, got {type(grid).__name__}")
    if max_degree > grid.design_degree:
        raise ResolutionError(
            f"grid design degree {grid.design_degree} < requested max degree {max_degree}"
        )
    return order


def _require_finite_result(result: np.ndarray, what: str, **inputs) -> None:
    """DomainError naming an input that holds a NaN or an infinity, and
    CapacityError for finite inputs, unless `result` is finite throughout:
    a non-finite input always makes a non-finite result, so a finite one
    needs no check of the inputs."""
    if not np.isfinite(result).all():
        require_finite(**inputs)
        raise CapacityError(f"{what} exceed the floating range")


def synthesize(spectrum: CoefficientSpectrum, grid: SphereGrid) -> np.ndarray:
    """Pointwise sum of a_{m,n} Y_n^m over the grid nodes."""
    if not isinstance(spectrum, CoefficientSpectrum):
        raise DomainError(f"spectrum must be a CoefficientSpectrum, got {type(spectrum).__name__}")
    order = _orders(spectrum.max_degree, grid)
    n_phi = 2 * grid.design_degree + 1
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rows = spectrum.coefficients[:, None] * grid.table[: len(order)]
        # g[m, j] = sum_n a_{m,n} Y_n^m(theta_j, 0), summed from +0.0 in
        # ascending n; a negative m indexes row m + n_phi, the FFT bin of
        # e^{i m phi}, so degree n adds its orders 0..n to rows 0..n and its
        # orders -n..-1 to the last n rows
        g = np.zeros((n_phi, grid.design_degree + 1), dtype=complex)
        for n in range(spectrum.max_degree + 1):
            g[: n + 1] += rows[n * n + n: n * n + 2 * n + 1]
            g[n_phi - n:] += rows[n * n: n * n + n]
        samples = (n_phi * np.fft.ifft(g, axis=0)).T.ravel()
    _require_finite_result(samples, "synthesized samples", coefficients=spectrum.coefficients)
    return samples


def analyze(samples: np.ndarray, grid: SphereGrid, max_degree: int) -> CoefficientSpectrum:
    """Coefficients a_{m,n} = <samples, Y_n^m> under grid quadrature."""
    order = _orders(max_degree, grid)
    try:
        samples = np.asarray(samples, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"samples must be an array of numbers: {exc}") from None
    if samples.shape != grid.theta.shape:
        raise DomainError("sample array does not match grid shape")
    n_phi = 2 * grid.design_degree + 1
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        weighted = (grid.weights * samples).reshape(-1, n_phi)
        # column m mod n_phi of the FFT is sum_i w_j f(theta_j, phi_i) e^{-i m phi_i}
        fourier = np.fft.fft(weighted, axis=1)
        coefficients = np.einsum("kj,jk->k", grid.table[: len(order)], fourier[:, order])
    _require_finite_result(coefficients, "analyzed coefficients", samples=samples)
    return CoefficientSpectrum.from_packed(coefficients)
