"""File formats: JSON spectrum files and the sweep CSV.

A spectrum file carries the wavenumber, the observation radius, and a
list of coefficient records {n, m, re, im}. Floats are written as their
shortest round-trip repr, so parse/serialize round trips are lossless.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, TextIO

from .errors import DomainError
from .harmonics import CoefficientSpectrum
from .util import require_finite

if TYPE_CHECKING:
    from .lab import SweepRow

CSV_HEADER = "k,N,eps1,eps2,E,lhs,rhs_lipschitz,rhs_holder,rhs_apriori,rhs_total,reconstruction_error"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def dump_spectrum(path: str, k: float, R: float, spectrum: CoefficientSpectrum) -> None:
    records = [
        {"n": n, "m": m, "re": float(v.real), "im": float(v.imag)}
        for (n, m), v in spectrum.items()
    ]
    doc = {
        "k": float(k),
        "R": float(R),
        "max_degree": spectrum.max_degree,
        "coefficients": records,
    }
    with open(path, "w") as fh:
        # json.dumps without indent runs the C encoder; json.dump never does
        fh.write(json.dumps(doc) + "\n")


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
        max_degree = int(doc.get("max_degree", max((n for n, _ in entries), default=0)))
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
