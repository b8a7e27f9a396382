"""File formats: JSON spectrum files, the sweep config and the sweep CSV.

A spectrum file carries the wavenumber, the observation radius, and a
list of coefficient records {n, m, re, im}. Floats are written as their
shortest round-trip repr, so parse/serialize round trips are lossless.

Per-record Python work is kept to what JSON text forces: decoding on
load and float repr on dump. `load_spectrum` reads the records as four
columns, checks each column's JSON types in one pass and fills the packed
array with one fancy assignment; `dump_spectrum` interleaves the reprs
with `_RECORD_TEXT`, each packed slot's record text built once at import.
"""

from __future__ import annotations

import json
import operator
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .errors import DomainError
from .harmonics import CoefficientSpectrum, packed_index
from .lab import DecayProfile
from .specfun import N_MAX_SUPPORTED
from .util import require_finite

if TYPE_CHECKING:
    from .lab import SweepRow

CSV_HEADER = "k,N,eps1,eps2,E,lhs,rhs_lipschitz,rhs_holder,rhs_apriori,rhs_total,reconstruction_error"
_CSV_ROW = operator.attrgetter(*CSV_HEADER.split(","))
_CSV_LINE = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"
_RECORD = operator.itemgetter("n", "m", "re", "im")

# The exact Python types json.load gives each JSON type a field may hold:
# bool is neither, and an integral float such as 2.0 is not an integer.
_JSON_TYPES = {"integer": frozenset({int}), "number": frozenset({int, float})}


def _require_json(kind: str, **columns) -> None:
    """TypeError naming the first value of a column (a sequence of decoded
    JSON values) that is not a JSON `kind`, "integer" or "number"."""
    types = _JSON_TYPES[kind]
    for name, column in columns.items():
        if not types.issuperset(map(type, column)):
            bad = next(value for value in column if type(value) not in types)
            raise TypeError(f"{name} must be a JSON {kind}, got {bad!r}")


# The text of every packed slot's record up to degree N_MAX_SUPPORTED, in
# two pieces around its "re" value: [head of slot 0, ', "im": ', head of
# slot 1, ...]. Each head after the first closes the record before it.
# Interleaved with the reprs of a spectrum's floats (re and im alternate in
# its float view) it spells the records of json.dumps.
_RECORD_TEXT = [
    piece
    for slot, (n, m) in enumerate(zip(*(a.tolist() for a in packed_index(N_MAX_SUPPORTED))))
    for piece in (f'{"}, " if slot else ""}{{"n": {n}, "m": {m}, "re": ', ', "im": ')
]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def dump_spectrum(path: str, k: float, R: float, spectrum: CoefficientSpectrum) -> None:
    """Write one line: the text json.dumps gives for the file's document,
    formatted directly. json writes a finite float as its repr, so this is
    the same text byte for byte; a non-finite value would be written as
    NaN or Infinity, which load_spectrum rejects, so it raises first."""
    k, R = float(k), float(R)
    require_finite(k=k, R=R, coefficients=spectrum.coefficients)
    values = spectrum.coefficients.view(float).tolist()
    parts = [None] * (2 * len(values))
    parts[0::2] = _RECORD_TEXT[: len(values)]
    parts[1::2] = map(repr, values)
    with open(path, "w") as fh:
        fh.write(f'{{"k": {k!r}, "R": {R!r}, "max_degree": {spectrum.max_degree}, '
                 f'"coefficients": [{"".join(parts)}}}]}}\n')


def load_spectrum(path: str) -> tuple[float, float, CoefficientSpectrum]:
    """k, R and the spectrum of a spectrum file. `n`, `m` and `max_degree`
    must be JSON integers and `k`, `R`, `re` and `im` JSON numbers, and
    each (n, m) may appear at most once; DomainError otherwise, and for a
    non-finite k or R or anything `CoefficientSpectrum` rejects (a degree
    beyond N_MAX_SUPPORTED, an index outside the spectrum, a non-finite
    coefficient), with the message it gives."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        k, R, records = doc["k"], doc["R"], doc["coefficients"]
        _require_json("number", k=(k,), R=(R,))
        if type(records) is not list:
            raise TypeError(f"coefficients must be a JSON array, got {records!r}")
        n, m, re, im = zip(*map(_RECORD, records)) if records else ((),) * 4
        _require_json("integer", n=n, m=m)
        _require_json("number", re=re, im=im)
        if "max_degree" in doc:
            max_degree = doc["max_degree"]
            _require_json("integer", max_degree=(max_degree,))
        else:
            max_degree = max(n, default=0)
        k, R = float(k), float(R)
        values = np.array((re, im), dtype=float).T
    except (KeyError, TypeError, OverflowError) as exc:
        raise DomainError(f"malformed spectrum file {path}: {exc!r}") from exc
    require_finite(k=k, R=R)
    spectrum = CoefficientSpectrum(max_degree)
    try:
        n, m = np.array((n, m), dtype=np.int64)
    except OverflowError:  # an index beyond int64, which the range check rejects
        n, m = np.array((n, m), dtype=object)
    bad = (n < 0) | (n > max_degree) | (m < -n) | (m > n) | ~np.isfinite(values).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        spectrum[n[first], m[first]] = complex(*values[first])  # raises the spectrum's error
    slots = (n * n + n + m).astype(np.intp)
    repeated = np.bincount(slots, minlength=len(spectrum.coefficients))[slots] > 1
    if repeated.any():
        first = int(np.argmax(repeated))
        raise DomainError(f"malformed spectrum file {path}: coefficient "
                          f"(n={n[first]}, m={m[first]}) appears more than once")
    spectrum.coefficients.view(float).reshape(-1, 2)[slots] = values
    return k, R, spectrum


def load_sweep_config(path: str) -> tuple[DecayProfile, dict]:
    """The decay profile of a sweep config and the keyword arguments of
    `lab.ksweep` it names (R, k_list, delta, seeds, master_seed, kind).
    `seeds`, `seed` and the profile's `max_degree` and `seed` must be JSON
    integers, and `R`, `delta`, every entry of `k_list` and the profile's
    `rate` and `amplitude` JSON numbers; DomainError otherwise."""
    with open(path) as fh:
        cfg = json.load(fh)
    try:
        spec = cfg["profile"]
        kind, rate, max_degree, seed = spec["kind"], spec["rate"], spec["max_degree"], spec["seed"]
        amplitude = spec.get("amplitude", 1.0)
        k_list, R, delta = cfg["k_list"], cfg.get("R", 1.0), cfg.get("delta", 0.0)
        seeds, master_seed = cfg.get("seeds", 1), cfg.get("seed", 0)
        if type(k_list) is not list:
            raise TypeError(f"k_list must be a JSON array, got {k_list!r}")
        _require_json("integer", **{"profile.max_degree": (max_degree,), "profile.seed": (seed,),
                                    "seeds": (seeds,), "seed": (master_seed,)})
        _require_json("number", **{"profile.rate": (rate,), "profile.amplitude": (amplitude,),
                                   "k_list": k_list, "R": (R,), "delta": (delta,)})
        profile = DecayProfile(kind, float(rate), max_degree, seed, float(amplitude))
        sweep = {"R": float(R), "k_list": [float(k) for k in k_list], "delta": float(delta),
                 "seeds": seeds, "master_seed": master_seed, "kind": cfg.get("kind", "soft")}
    except (KeyError, TypeError, OverflowError) as exc:
        raise DomainError(f"malformed sweep config: {exc}") from exc
    return profile, sweep


def write_sweep_csv(fh: TextIO, rows: list[SweepRow]) -> None:
    """The header and one line per row, in one write; each field is its
    `fmt` text, which is what %.17g gives a float (an int field such as N
    is converted to float first, as fmt does; every N is below 2^53)."""
    fh.write("".join([CSV_HEADER, "\n", *[_CSV_LINE % _CSV_ROW(r) for r in rows]]))
