"""File formats: JSON spectrum files and the sweep CSV.

A spectrum file carries the wavenumber, the observation radius, and a
list of coefficient records {n, m, re, im}. Floats are written as their
shortest round-trip repr, so parse/serialize round trips are lossless.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, TextIO

from .errors import DomainError
from .harmonics import CoefficientSpectrum, packed_index
from .util import require_finite

if TYPE_CHECKING:
    from .lab import SweepRow

CSV_HEADER = "k,N,eps1,eps2,E,lhs,rhs_lipschitz,rhs_holder,rhs_apriori,rhs_total,reconstruction_error"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def dump_spectrum(path: str, k: float, R: float, spectrum: CoefficientSpectrum) -> None:
    """Write one line: the text json.dumps gives for the file's document,
    formatted directly. json writes a finite float as its repr, so this is
    the same text byte for byte; a non-finite value would be written as
    NaN or Infinity, which load_spectrum rejects, so it raises first."""
    k, R = float(k), float(R)
    require_finite(k=k, R=R, coefficients=spectrum.coefficients)
    degree, order = packed_index(spectrum.max_degree)
    records = ", ".join(
        f'{{"n": {n}, "m": {m}, "re": {re!r}, "im": {im!r}}}'
        for n, m, re, im in zip(degree.tolist(), order.tolist(),
                                spectrum.coefficients.real.tolist(),
                                spectrum.coefficients.imag.tolist())
    )
    with open(path, "w") as fh:
        fh.write(f'{{"k": {k!r}, "R": {R!r}, "max_degree": {spectrum.max_degree}, '
                 f'"coefficients": [{records}]}}\n')


def load_spectrum(path: str) -> tuple[float, float, CoefficientSpectrum]:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        k = float(doc["k"])
        R = float(doc["R"])
        entries = {
            (int(rec["n"]), int(rec["m"])): complex(float(rec["re"]), float(rec["im"]))
            for rec in doc["coefficients"]
        }
        if "max_degree" in doc:
            max_degree = int(doc["max_degree"])
        else:
            max_degree = max((n for n, _ in entries), default=0)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed spectrum file {path}: {exc!r}") from exc
    require_finite(k=k, R=R)
    # the constructor rejects a degree above MAX_DEGREE_SUPPORTED, an index
    # outside the spectrum and a non-finite coefficient
    return k, R, CoefficientSpectrum(max_degree, entries)


def write_sweep_csv(fh: TextIO, rows: list[SweepRow]) -> None:
    # fmt(N) == str(N) for the integer column: every N is below 2^53
    fh.write(CSV_HEADER + "\n")
    names = CSV_HEADER.split(",")
    for r in rows:
        fh.write(",".join(fmt(getattr(r, name)) for name in names) + "\n")
