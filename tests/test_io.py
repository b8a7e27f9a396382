import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helios.errors import DomainError
from helios.harmonics import CoefficientSpectrum
from helios.io import CSV_HEADER, dump_spectrum, fmt, load_spectrum, write_sweep_csv
from helios.lab import DecayProfile, SweepRow, ksweep, make_real_perturbation, make_spectrum


def test_fmt_round_trip():
    for x in (0.1, 1.0 / 3.0, 1e-300, 2.0**53 + 1.0):
        assert float(fmt(x)) == x


def test_spectrum_round_trip(tmp_path):
    spec = make_spectrum(DecayProfile("exponential", 0.9, 12, seed=2))
    path = tmp_path / "spec.json"
    dump_spectrum(str(path), 4.5, 1.25, spec)
    k, R, loaded = load_spectrum(str(path))
    assert k == 4.5 and R == 1.25
    assert loaded.max_degree == 12
    assert dict(loaded.items()) == dict(spec.items())


def json_dumps_text(k, R, spectrum):
    """The file as json.dumps writes it for the document of records."""
    records = [
        {"n": n, "m": m, "re": float(v.real), "im": float(v.imag)}
        for (n, m), v in spectrum.items()
    ]
    doc = {"k": float(k), "R": float(R), "max_degree": spectrum.max_degree,
           "coefficients": records}
    return json.dumps(doc) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300, 1e-300, 1.0, -2.0, 3.0e15,
                  2.0**53, 1e16, 0.1, 1.0 / 3.0, 1.7976931348623157e308, 2.2250738585072014e-308]


@pytest.mark.parametrize("max_degree", [0, 1, 30, 60])
def test_dump_writes_the_json_dumps_bytes(max_degree, tmp_path):
    rng = np.random.default_rng(max_degree)
    size = (max_degree + 1) ** 2
    pool = np.array(SPECIAL_FLOATS + list(10.0 ** rng.uniform(-300, 300, 40) * rng.choice([-1, 1], 40)))
    coefficients = rng.choice(pool, size) + 1j * rng.choice(pool, size)
    coefficients[0] = complex(-0.0, 5e-324)
    spectrum = CoefficientSpectrum.from_packed(coefficients)
    for k, R in [(4.5, 1.25), (7, 1), (np.float64(2.0) / 3.0, np.float32(0.1))]:
        path = tmp_path / "spec.json"
        dump_spectrum(str(path), k, R, spectrum)
        assert path.read_bytes() == json_dumps_text(k, R, spectrum).encode()
        _, _, loaded = load_spectrum(str(path))
        assert np.array_equal(loaded.coefficients.view(float), coefficients.view(float))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dump_refuses_a_file_load_would_reject(bad, tmp_path):
    path = tmp_path / "spec.json"
    spectrum = CoefficientSpectrum(2, {(1, 0): 1.0})
    for k, R, coefficient in [(bad, 1.0, 0.0), (4.0, bad, 0.0), (4.0, 1.0, complex(0.0, bad)),
                              (4.0, 1.0, complex(bad, 0.0))]:
        spectrum.coefficients[5] = coefficient
        with pytest.raises(DomainError):
            dump_spectrum(str(path), k, R, spectrum)
        assert not os.path.exists(path)


def test_load_rejects_bad_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 4, "R": 1, "max_degree": 2, '
                    '"coefficients": [{"n": 1, "m": 2, "re": 0.0, "im": 0.0}]}\n')
    with pytest.raises(DomainError):
        load_spectrum(str(path))


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"R": 1, "coefficients": []}\n')
    with pytest.raises(DomainError):
        load_spectrum(str(path))


def test_load_rejects_excess_degree(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 4, "R": 1, "max_degree": 61, "coefficients": []}\n')
    with pytest.raises(DomainError):
        load_spectrum(str(path))


def test_load_takes_the_degree_from_the_key_or_else_from_the_entries(tmp_path, monkeypatch):
    import helios.io

    path = tmp_path / "spec.json"
    records = ('[{"n": 2, "m": -1, "re": 1.0, "im": 0.0}, '
               '{"n": 1, "m": 0, "re": 0.0, "im": 2.0}]')
    # with the key, its degree wins and the entries' degrees are not scanned
    path.write_text(f'{{"k": 4, "R": 1, "max_degree": 5, "coefficients": {records}}}\n')

    def no_scan(*args, **kwargs):
        raise AssertionError("max_degree was computed from the entries")

    with monkeypatch.context() as patched:
        patched.setattr(helios.io, "max", no_scan, raising=False)
        _, _, loaded = load_spectrum(str(path))
    assert loaded.max_degree == 5
    assert loaded[2, -1] == 1.0 and loaded[1, 0] == 2.0j
    # without it, the largest degree among the entries, or 0 for none
    path.write_text(f'{{"k": 4, "R": 1, "coefficients": {records}}}\n')
    _, _, loaded = load_spectrum(str(path))
    assert loaded.max_degree == 2
    assert loaded[2, -1] == 1.0 and loaded[1, 0] == 2.0j
    path.write_text('{"k": 4, "R": 1, "coefficients": []}\n')
    assert load_spectrum(str(path))[2].max_degree == 0


VALUE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(-(2**70), 2**70))


@st.composite
def spectrum_documents(draw):
    """A valid spectrum document of degree 0..60: a random share of its
    slots as records in random order, values drawn from a small pool of
    JSON numbers (ints included), with or without `max_degree`."""
    max_degree = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (max_degree + 1) ** 2
    slots = rng.permutation(np.flatnonzero(rng.random(size) < draw(st.floats(0.0, 1.0))))
    pool = draw(st.lists(VALUE, min_size=1, max_size=8))
    picks = rng.integers(0, len(pool), (len(slots), 2)).tolist()
    records = []
    for slot, (i, j) in zip(slots.tolist(), picks):
        n = math.isqrt(slot)
        records.append({"n": n, "m": slot - n * n - n, "re": pool[i], "im": pool[j]})
    doc = {"k": draw(VALUE), "R": 1.5, "coefficients": records}
    if draw(st.booleans()):
        doc["max_degree"] = max_degree
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=spectrum_documents())
def test_load_equals_the_per_record_reference(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("load") / "spec.json"
    path.write_text(json.dumps(doc))
    records = doc["coefficients"]
    max_degree = doc.get("max_degree", max((r["n"] for r in records), default=0))
    reference = CoefficientSpectrum(
        max_degree, {(r["n"], r["m"]): complex(r["re"], r["im"]) for r in records})
    k, R, loaded = load_spectrum(str(path))
    assert (k, R) == (float(doc["k"]), 1.5)
    assert loaded.max_degree == max_degree
    # bytes, so that -0.0 and 0.0 differ
    assert loaded.coefficients.tobytes() == reference.coefficients.tobytes()


def test_load_fills_the_spectrum_without_per_record_calls(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    spectrum = make_spectrum(DecayProfile("exponential", 0.5, 20, seed=3))
    dump_spectrum(str(path), 4.0, 1.0, spectrum)

    def per_record(*args):
        raise AssertionError("a record went through the per-entry path")

    monkeypatch.setattr(CoefficientSpectrum, "__setitem__", per_record)
    monkeypatch.setattr(CoefficientSpectrum, "_fill", per_record)
    assert load_spectrum(str(path))[2].coefficients.tobytes() == spectrum.coefficients.tobytes()


RECORD = {"n": 1, "m": -1, "re": 0.5, "im": 0.25}


@pytest.mark.parametrize("change, message", [
    ({"n": 1.5, "m": 0.9}, "n must be a JSON integer, got 1.5"),
    ({"m": 0.9}, "m must be a JSON integer, got 0.9"),
    ({"n": 1.0}, "n must be a JSON integer, got 1.0"),
    ({"n": True}, "n must be a JSON integer, got True"),
    ({"m": "-1"}, "m must be a JSON integer, got '-1'"),
    ({"m": None}, "m must be a JSON integer, got None"),
    ({"re": "0.5"}, "re must be a JSON number, got '0.5'"),
    ({"im": False}, "im must be a JSON number, got False"),
    ({"im": [0.25]}, "im must be a JSON number, got [0.25]"),
])
def test_load_rejects_an_ill_typed_record(change, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 4, "R": 1, "coefficients": [
        {"n": 0, "m": 0, "re": 1.0, "im": 0.0}, {**RECORD, **change}]}))
    with pytest.raises(DomainError, match="malformed spectrum file") as exc:
        load_spectrum(str(path))
    assert message in str(exc.value)


@pytest.mark.parametrize("change, message", [
    ({"max_degree": 2.7}, "max_degree must be a JSON integer, got 2.7"),
    ({"max_degree": 2.0}, "max_degree must be a JSON integer, got 2.0"),
    ({"max_degree": True}, "max_degree must be a JSON integer, got True"),
    ({"max_degree": "2"}, "max_degree must be a JSON integer, got '2'"),
    ({"k": "4"}, "k must be a JSON number, got '4'"),
    ({"R": True}, "R must be a JSON number, got True"),
    ({"coefficients": {"n": 1, "m": 0, "re": 1.0, "im": 0.0}}, "coefficients must be a JSON array"),
    ({"coefficients": "[]"}, "coefficients must be a JSON array"),
    ({"coefficients": None}, "coefficients must be a JSON array"),
    ({"coefficients": [[1, -1, 0.5, 0.25]]}, "list indices must be integers"),
    # a ragged column: a list among integer degrees
    ({"coefficients": [RECORD, {**RECORD, "n": []}]}, "n must be a JSON integer, got []"),
    ({"coefficients": [RECORD, {**RECORD, "re": 7.0}]},
     "coefficient (n=1, m=-1) appears more than once"),
    ({"coefficients": [RECORD, {"n": 0, "m": 0, "re": 1, "im": 0}, {**RECORD, "im": -0.0}]},
     "coefficient (n=1, m=-1) appears more than once"),
])
def test_load_rejects_an_ill_typed_document(change, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 4, "R": 1, "max_degree": 2, "coefficients": [RECORD], **change}))
    with pytest.raises(DomainError, match="malformed spectrum file") as exc:
        load_spectrum(str(path))
    assert message in str(exc.value)


@pytest.mark.parametrize("max_degree, record, message", [
    (2, {"n": 1, "m": 2}, "invalid harmonic index (n=1, m=2)"),
    (2, {"n": -1, "m": 0}, "invalid harmonic index (n=-1, m=0)"),
    (2, {"n": 3, "m": 0}, "index (n=3, m=0) outside spectrum of degree 2"),
    (2, {"n": 2**70, "m": 0}, f"index (n={2**70}, m=0) outside spectrum of degree 2"),
    (2, {"n": 1, "m": -(2**64)}, f"invalid harmonic index (n=1, m={-(2**64)})"),
    (None, {"n": 61, "m": 0}, "max_degree 61 exceeds supported maximum 60"),
    (2, {"re": math.inf}, "coefficient (n=1, m=-1) must be finite, got (inf+0.25j)"),
    (2, {"im": math.nan}, "coefficient (n=1, m=-1) must be finite, got (0.5+nanj)"),
])
def test_load_reports_a_bad_entry_as_the_spectrum_does(max_degree, record, message, tmp_path):
    path = tmp_path / "bad.json"
    doc = {"k": 4, "R": 1, "coefficients": [{"n": 0, "m": 0, "re": 1.0, "im": 0.0},
                                            {**RECORD, **record}]}
    if max_degree is not None:
        doc["max_degree"] = max_degree
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError) as exc:
        load_spectrum(str(path))
    assert str(exc.value) == message
    if max_degree is not None:
        with pytest.raises(DomainError) as direct:
            CoefficientSpectrum(max_degree, {(r["n"], r["m"]): complex(r["re"], r["im"])
                                             for r in doc["coefficients"]})
        assert str(direct.value) == message


class CountingWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# rows no sweep gives, so each line is held to fmt at the edges of the
# float text: E = inf with eps2 = 0, the smallest subnormal, the largest
# float, integral floats and negative values
EDGE_ROWS = [
    SweepRow(8.0, 0, 2, 0.5, 0.0, math.inf, 1.0, 2.0, 0.0, 0.0, 2.0, 0.25),
    SweepRow(2.0, 1, 1, 5e-324, 1.7976931348623157e308, -709.782712893384, 5e-324,
             1.7976931348623157e308, 3.0, 1e16, 1.7976931348623157e308, 1e-300),
    SweepRow(-3.5, 2, 0, -0.0, -1.25e-7, -1e300, -2.0, -4.5, 123456789012345.0,
             -0.1, 2**53, -5e-324),
]


@pytest.mark.parametrize("replicates", [0, 1, 3])
def test_csv_is_one_write_of_the_per_field_text(replicates):
    d = make_real_perturbation(DecayProfile("exponential", 1.0, 4, seed=7))
    rows = ksweep(d, 1.0, [2.0, 4.0, 8.0], 1e-3, replicates, master_seed=0) if replicates else []
    rows += EDGE_ROWS
    fh = CountingWrites()
    write_sweep_csv(fh, rows)
    names = CSV_HEADER.split(",")
    expected = CSV_HEADER + "\n" + "".join(
        ",".join(fmt(getattr(r, name)) for name in names) + "\n" for r in rows)
    assert fh.getvalue() == expected and fh.writes == 1


def test_csv_format(tmp_path):
    d = make_real_perturbation(DecayProfile("exponential", 1.0, 4, seed=7))
    rows = ksweep(d, 1.0, [2.0, 4.0], 1e-3, 2, master_seed=0)
    path = tmp_path / "sweep.csv"
    with open(path, "w") as fh:
        write_sweep_csv(fh, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    assert float(first[0]) == 2.0
    assert int(first[1]) == rows[0].N
