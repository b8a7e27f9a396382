"""Every helios name that the benchmark's span tracer (`bench/spans.py`)
wraps or reads still exists where the tracer looks for it.

A method missing from its class makes `spans.install` raise KeyError, and
a renamed function makes its per-layer metric read 0 without an error;
neither shows in the library's own tests otherwise. The tracer is loaded
from its file and left unchanged."""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache beside the tracer
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def metric_names(source: str) -> set[str]:
    """The string arguments of every `calls`, `busy` and `select` call."""
    return {arg.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("calls", "busy", "select")
            for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}


def defined_in_its_layer(name: str) -> bool:
    """Whether `layer.attr[.attr]` resolves on helios.<layer> to an object
    that module defines, as the tracer's wrapping requires."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"helios.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return getattr(obj, "__module__", None) == f"helios.{layer}"


spans = load_spans()
TRACED = sorted({*spans.PROBES, *spans.COUNT_ONLY, *metric_names(SPANS.read_text())})


@pytest.mark.parametrize("layer, cls_name", list(spans.METHODS))
def test_every_wrapped_method_is_in_its_class_dict(layer, cls_name):
    cls = getattr(importlib.import_module(f"helios.{layer}"), cls_name)
    assert [m for m in spans.METHODS[layer, cls_name] if m not in cls.__dict__] == []


@pytest.mark.parametrize("name", TRACED)
def test_every_traced_name_resolves_in_its_layer(name):
    assert name.split(".")[0] in spans.LAYERS
    assert defined_in_its_layer(name)


def test_the_metric_names_are_found():
    # 22 distinct names when this test was written; an empty set would pass vacuously
    assert len(metric_names(SPANS.read_text())) >= 20
    assert metric_names('calls("a.b")\nbusy("c.d", "e.f")\nselect("g.h", prefix="x.")\n'
                        'other("z.z")\ncalls(prefix="lab.")\n') == {"a.b", "c.d", "e.f", "g.h"}


def test_the_check_sees_a_missing_or_borrowed_name():
    assert defined_in_its_layer("field.near_field_trace")
    assert defined_in_its_layer("obstacle.BoundaryPerturbation.imaginary_residual")
    assert not defined_in_its_layer("field.NearFieldTrace")
    assert not defined_in_its_layer("stability.aggregate")  # bound there, defined in harmonics
