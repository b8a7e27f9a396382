import json
import math
import os

import numpy as np
import pytest

from helios.errors import DomainError
from helios.harmonics import CoefficientSpectrum
from helios.io import CSV_HEADER, dump_spectrum, fmt, load_spectrum, write_sweep_csv
from helios.lab import DecayProfile, ksweep, make_real_perturbation, make_spectrum


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
