"""Fuzzing `helios.cli.main` in-process with malformed and extreme inputs.

Every call must end with exit code 0, 1 or 2 (argparse's usage error,
`SystemExit(2)`, counts as 2) and raise nothing else; an exit code of 0
must come with only finite numbers on stdout. All calls share the one
parser the process builds.

Each input starts valid and then takes up to three mutations: a value
replaced by an extreme or non-finite float, a huge integer or a value of
the wrong type, or a field deleted. Values that set the amount of work (a
sweep's replicate count and number of wavenumbers, the bounds-check point
count) are only replaced by small, non-finite or non-numeric ones: a huge
honest count is a long run, not an error.

Spectrum documents with a repeated (n, m) record, and spectrum documents
and sweep configs with an index or count that is an integral float, a
bool or a numeric string, must end with exit code 2.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helios.cli import main

EXTREME = st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e154, 1e200, 1e308, -1e308, math.inf, -math.inf, math.nan]
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
FLOAT = st.one_of(EXTREME, st.floats(allow_nan=True, allow_infinity=True))
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
ANY = st.one_of(FLOAT, FLOAT, st.integers(-(10**20), 10**20), JUNK)
# What a JSON-integer field rejects although int() would take it: an
# integral float, a bool, a numeric string.
NOT_AN_INTEGER = st.one_of(st.integers(-2, 8).map(float), st.booleans(),
                           st.integers(-2, 8).map(str))
SMALL_COUNT = st.one_of(st.integers(-2, 3), NON_FINITE, NOT_AN_INTEGER, JUNK)
WORK_SIZES = {"seeds", "points"}


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def mutated(draw, doc):
    """`doc` after 0..3 draws of: replace a value (or the whole document),
    or delete a dict entry or list element."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if path and path[-1] == "k_list":
            value = draw(st.one_of(st.lists(FLOAT, max_size=3), JUNK))
        elif path and path[-1] in WORK_SIZES:
            value = draw(SMALL_COUNT)
        else:
            value = draw(ANY)
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def valid_spectrum_document(draw, min_records=0):
    max_degree = draw(st.integers(0, 8))
    slots = [(n, m) for n in range(max_degree + 1) for m in range(-n, n + 1)]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=min_records, max_size=6, unique=True))
    records = [{"n": n, "m": m, "re": draw(st.floats(-2.0, 2.0)), "im": draw(st.floats(-2.0, 2.0))}
               for n, m in chosen]
    doc = {"k": draw(st.floats(0.5, 60.0)), "R": draw(st.floats(0.5, 2.0)), "coefficients": records}
    if draw(st.booleans()):
        doc["max_degree"] = max_degree
    return doc


@st.composite
def spectrum_documents(draw):
    return mutated(draw, valid_spectrum_document(draw))


@st.composite
def ill_typed_spectrum_documents(draw):
    """A valid document with one record repeated (its values may differ),
    or with one n, m or max_degree that is not a JSON integer."""
    doc = valid_spectrum_document(draw, min_records=1)
    records = doc["coefficients"]
    if draw(st.booleans()):
        again = {**draw(st.sampled_from(records)), "re": draw(st.floats(-2.0, 2.0))}
        records.insert(draw(st.integers(0, len(records))), again)
    else:
        field = draw(st.sampled_from(["n", "m", "max_degree"]))
        target = doc if field == "max_degree" else draw(st.sampled_from(records))
        target[field] = draw(NOT_AN_INTEGER)
    return doc


def valid_sweep_config(draw):
    return {
        "profile": {
            "kind": draw(st.sampled_from(["exponential", "algebraic"])),
            "rate": draw(st.floats(0.3, 2.0)),
            "max_degree": draw(st.integers(0, 30)),
            "seed": draw(st.integers(0, 2**64)),
            "amplitude": draw(st.floats(0.1, 10.0)),
        },
        "k_list": draw(st.lists(st.floats(2.0, 64.0), min_size=1, max_size=3)),
        "R": draw(st.floats(0.5, 2.0)),
        "delta": draw(st.floats(0.0, 1e-2)),
        "seeds": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**64)),
        "kind": draw(st.sampled_from(["soft", "hard"])),
    }


@st.composite
def sweep_configs(draw):
    return mutated(draw, valid_sweep_config(draw))


@st.composite
def ill_typed_sweep_configs(draw):
    """A valid config with one count (seeds, seed, or the profile's
    max_degree or seed) that is not a JSON integer."""
    doc = valid_sweep_config(draw)
    target, field = draw(st.sampled_from(
        [(doc, "seeds"), (doc, "seed"), (doc["profile"], "max_degree"), (doc["profile"], "seed")]))
    target[field] = draw(NOT_AN_INTEGER)
    return doc


FLAG_TEXT = st.one_of(
    st.sampled_from(["1e308", "-1e308", "inf", "-inf", "nan", "0", "-1", "1e-320", "x", ""]),
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
)


@st.composite
def bounds_check_flags(draw):
    tmin, tmax = sorted(draw(st.lists(st.floats(0.05, 300.0), min_size=2, max_size=2)))
    flags = {"nmax": draw(st.integers(0, 60)), "tmin": tmin, "tmax": tmax,
             "points": draw(st.integers(1, 40))}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(flags)))
        if draw(st.booleans()):
            del flags[name]
        elif name in WORK_SIZES:
            flags[name] = draw(st.one_of(st.integers(-3, 3), st.sampled_from(
                ["1e308", "inf", "nan", "2.5", "x", ""])))
        else:
            flags[name] = draw(FLAG_TEXT)
    return [f"--{name}={value}" for name, value in flags.items()]


RAW_TEXT = st.one_of(
    st.sampled_from(["", "{", "1e999", '{"k": 1e999, "R": 1, "coefficients": []}']),
    st.text(max_size=20),
)
CUTOFF = st.one_of(
    st.none(), st.integers(-3, 70).map(str), st.sampled_from(["1e308", "inf", "nan", "-1", "x"])
)

NUMBER_TOKEN = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)(?![\w.])", re.I)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def check(argv: list[str]) -> None:
    code, out = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        bad = [tok for tok in NUMBER_TOKEN.findall(out) if not math.isfinite(float(tok))]
        assert not bad, (argv, out)


def dumps(doc) -> str:
    return json.dumps(doc, allow_nan=True)


def spectrum_argv(tmp, text, command, kind, ncut):
    path = Path(tmp) / "spectrum.json"
    path.write_text(text)
    if command == "reconstruct":
        argv = ["reconstruct", str(path), "--out", str(Path(tmp) / "trace.json")]
    else:
        argv = ["obstacle", command, str(path), "--kind", kind, "--out", str(Path(tmp) / "out.json")]
    if ncut is not None and command != "forward":
        argv.append(f"--ncut={ncut}")
    return argv


COMMAND = st.sampled_from(["reconstruct", "forward", "invert"])
KIND = st.sampled_from(["soft", "hard"])


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(spectrum_documents().map(dumps), spectrum_documents().map(dumps), RAW_TEXT),
    command=COMMAND, kind=KIND, ncut=CUTOFF,
)
def test_spectrum_commands_exit_cleanly(text, command, kind, ncut):
    with tempfile.TemporaryDirectory() as tmp:
        check(spectrum_argv(tmp, text, command, kind, ncut))


@settings(max_examples=60, deadline=None)
@given(doc=ill_typed_spectrum_documents(), command=COMMAND, kind=KIND,
       ncut=st.one_of(st.none(), st.integers(0, 10).map(str)))
def test_ill_typed_spectrum_files_exit_2(doc, command, kind, ncut):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run(spectrum_argv(tmp, dumps(doc), command, kind, ncut))
    assert code == 2 and out == "", (doc, code)


@settings(max_examples=100, deadline=None)
@given(config=sweep_configs().map(dumps))
def test_sweep_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(config)
        check(["sweep", "--config", str(path), "--out", str(Path(tmp) / "sweep.csv")])


@settings(max_examples=60, deadline=None)
@given(config=ill_typed_sweep_configs())
def test_ill_typed_sweep_configs_exit_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(dumps(config))
        out = Path(tmp) / "sweep.csv"
        code, _ = run(["sweep", "--config", str(path), "--out", str(out)])
        assert code == 2 and not out.exists(), (config, code)


@settings(max_examples=100, deadline=None)
@given(flags=bounds_check_flags())
def test_bounds_check_exits_cleanly(flags):
    check(["bounds-check", *flags])
