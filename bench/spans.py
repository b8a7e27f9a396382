"""Span tracing from outside the program, and the arithmetic that turns
spans into per-layer numbers.

`install` wraps every public function of each helios module at every place
a helios module binds it (module attributes and module-level dispatch
dicts such as `lab._FORWARD`), plus a few public methods and scipy's
`sph_harm_y` as bound in `harmonics`. Each wrapped call records one span:
name, wall start and end, the thread's CPU time inside the span, thread,
parent span and op id, kept in flat arrays in memory and written out when
the run ends.

A span opened on a thread with no open span of its own (a
`ThreadPoolExecutor` worker in `bounds.sweep` or `lab.ksweep`) takes as
parent the innermost span open on the op's thread, so worker time is
attributed to the op in flight.

Self and busy times use each thread's CPU clock, not the wall clock: under
the GIL two pool workers' wall spans overlap, and each would also count
the time it waited while the other ran.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import types
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "bounds", "field", "harmonics", "stability", "obstacle", "lab", "io", "cli", "util")

# Public methods worth a span. Per-coefficient accessors (`__getitem__`,
# `__setitem__`, `items`, `SphereGrid.harmonic`) are left out: a span each
# would cost more than the call, and their time shows as their caller's.
METHODS = {
    ("harmonics", "CoefficientSpectrum"): ("__init__", "__add__", "__sub__", "scaled", "energy"),
    ("harmonics", "SphereGrid"): ("build", "integrate"),
    ("obstacle", "BoundaryPerturbation"): ("imaginary_residual", "conjugate_symmetry_residual"),
}

# Called once per grid point or CSV field and calling no other layer: these
# are counted, not spanned, since a span costs more than the call. Their
# time stays in their caller's self time, which is in the same layer.
COUNT_ONLY = {
    "bounds.check_point",
    "bounds.low_frequency_applicable",
    "bounds.lemma_low_bound",
    "bounds.lemma_global_bound",
    "bounds.lemma_low_deriv_bound",
    "bounds.lemma_global_deriv_bound",
    "io.fmt",
}

SPECTRUM_PREFIX = "harmonics.CoefficientSpectrum."
COMPLEX_BYTES = 16
COLUMNS = ("name", "start_ns", "end_ns", "cpu_ns", "thread", "parent", "op")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """In-memory span store. One op thread drives ops; any other thread
    that opens a span is a worker of the op in flight."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {col: array("q") for col in COLUMNS}
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_thread = threading.get_ident()
        self._op_stack: list[tuple[int, int]] = []
        self._op_span = -1
        self._seen_factors: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[tuple[int, int]]:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> int:
        stack = self._stack()
        top = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else (-1, 0))
        c = self.cols
        with self._lock:
            idx = len(c["name"])
            c["name"].append(name_id)
            c["parent"].append(top[0])
            c["op"].append(self.op_id)
            c["thread"].append(threading.get_native_id())
            c["cpu_ns"].append(0)
            c["end_ns"].append(0)
            c["start_ns"].append(time.perf_counter_ns())
        stack.append((idx, time.thread_time_ns()))
        return idx

    def close(self, idx: int) -> None:
        cpu = time.thread_time_ns() - self._stack().pop()[1]
        self.cols["end_ns"][idx] = time.perf_counter_ns()
        self.cols["cpu_ns"][idx] = cpu

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self._seen_factors = set()
        self._op_span = self.open(self.name_id(f"op.{kind}"))

    def end_op(self) -> None:
        self.close(self._op_span)
        self.op_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {col: np.frombuffer(values, dtype=np.int64).copy() for col, values in self.cols.items()}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# Probes record counts that need the call's arguments or result. They run
# after the span closes and cost O(1).


def _probe_fill(tracer, args, kwargs, result):
    tracer.count("fill_bytes", getattr(result, "nbytes", 0))


def _probe_synthesize(tracer, args, kwargs, result):
    spectrum, grid = _arg(args, kwargs, 0, "spectrum"), _arg(args, kwargs, 1, "grid")
    points = grid.theta.size
    tracer.count("transform_bytes", (len(spectrum.items()) + 1) * points * COMPLEX_BYTES)
    tracer.count("transforms")


def _probe_analyze(tracer, args, kwargs, result):
    grid, degree = _arg(args, kwargs, 1, "grid"), _arg(args, kwargs, 2, "max_degree")
    points = grid.theta.size
    tracer.count("transform_bytes", ((degree + 1) ** 2 + 1) * points * COMPLEX_BYTES)
    tracer.count("transforms")


def _probe_factors(tracer, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "max_degree"),
           _arg(args, kwargs, 1, "k") * _arg(args, kwargs, 2, "R"))
    with tracer._lock:
        if key in tracer._seen_factors:
            tracer.counters["factor_repeats"] += 1
        tracer._seen_factors.add(key)


def _probe_file(tracer, args, kwargs, result):
    tracer.count("io_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _probe_csv(tracer, args, kwargs, result):
    tracer.count("io_bytes", _arg(args, kwargs, 0, "fh").tell())


PROBES = {
    "harmonics.sph_harm_y": _probe_fill,
    "harmonics.synthesize": _probe_synthesize,
    "harmonics.analyze": _probe_analyze,
    "field.hankel_factors": _probe_factors,
    "io.dump_spectrum": _probe_file,
    "io.load_spectrum": _probe_file,
    "io.write_sweep_csv": _probe_csv,
}


def _wrap(tracer: Tracer, fn, name: str):
    if name in COUNT_ONLY:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op_id >= 0:
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    name_id = tracer.name_id(name)
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if probe is not None and tracer.op_id >= 0:
            probe(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the public functions of every helios layer where helios binds
    them. Returns an undo function that restores the originals."""
    mods = {layer: importlib.import_module(f"helios.{layer}") for layer in LAYERS}
    names = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                names[id(obj)] = (obj, f"{layer}.{attr}")
    fill = mods["harmonics"].sph_harm_y
    names[id(fill)] = (fill, "harmonics.sph_harm_y")
    wrappers = {key: _wrap(tracer, obj, name) for key, (obj, name) in names.items()}

    undo = []
    for mod in [importlib.import_module("helios"), *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                undo.append((setattr, mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict) and any(id(v) in wrappers for v in obj.values()):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        undo.append((dict.__setitem__, obj, key, value))
                        obj[key] = wrappers[id(value)]
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, name))
            else:
                wrapped = _wrap(tracer, raw, name)
            undo.append((setattr, cls, meth, raw))
            setattr(cls, meth, wrapped)

    def restore():
        for action, target, key, value in reversed(undo):
            action(target, key, value)

    return restore


# --------------------------------------------------------------------------
# Span arithmetic


def self_times(cpu, thread, parent) -> np.ndarray:
    """Each span's CPU time minus that of its children on the same
    thread. A child on another thread (a pool worker) ran while the
    parent's thread waited for it, so it takes nothing from the parent."""
    cpu, thread, parent = (np.asarray(a, dtype=np.int64) for a in (cpu, thread, parent))
    has_parent = parent >= 0
    same = has_parent.copy()
    same[has_parent] = thread[has_parent] == thread[parent[has_parent]]
    covered = np.bincount(parent[same], weights=cpu[same], minlength=len(cpu))
    return cpu - covered.astype(np.int64)


def inclusive_times(own, parent) -> np.ndarray:
    """Each span's self time plus that of every descendant, on any thread."""
    total = np.asarray(own, dtype=np.int64).tolist()
    for i, p in reversed(list(enumerate(np.asarray(parent).tolist()))):
        if p >= 0:
            total[p] += total[i]
    return np.array(total, dtype=np.int64)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of timed ops. Times and counts are
    means per op; ratios and shares are over the whole run."""
    cols = tracer.arrays()
    own = self_times(cols["cpu_ns"], cols["thread"], cols["parent"])
    inclusive = inclusive_times(own, cols["parent"])
    in_op = cols["op"] >= 0
    names = np.array(tracer.names)[cols["name"][in_op]]
    busy_all = inclusive[in_op] / 1e6
    own = own[in_op] / 1e6
    per_op = max(ops, 1)
    c = tracer.counters

    def select(*wanted, prefix=None):
        mask = np.isin(names, wanted)
        if prefix is not None:
            mask |= np.char.startswith(names, prefix)
        return mask

    def calls(*wanted, prefix=None):
        counted = sum(c[name] for name in wanted)
        return (float(np.count_nonzero(select(*wanted, prefix=prefix))) + counted) / per_op

    def busy(*wanted):
        return float(np.sum(busy_all[select(*wanted)])) / per_op

    layer_self = {layer: float(np.sum(own[np.char.startswith(names, layer + ".")])) / per_op
                  for layer in LAYERS}
    total_self = sum(layer_self.values()) or 1.0
    factor_calls = np.count_nonzero(select("field.hankel_factors"))
    spectrum = select("harmonics.aggregate", prefix=SPECTRUM_PREFIX)

    out = {
        "specfun.hankel_value.calls": calls("specfun.hankel_value"),
        "bounds.sweep.busy_ms": busy("bounds.sweep"),
        "bounds.check_point.calls": calls("bounds.check_point"),
        "field.hankel_factors.calls": calls("field.hankel_factors"),
        "field.hankel_factors.busy_ms": busy("field.hankel_factors"),
        "field.hankel_factors.repeat_ratio": c["factor_repeats"] / factor_calls if factor_calls else 0.0,
        "harmonics.sph_harm_y.calls": calls("harmonics.sph_harm_y"),
        "harmonics.fill_ms": busy("harmonics.sph_harm_y"),
        "harmonics.fill_mb": c["fill_bytes"] / 1e6 / per_op,
        "harmonics.synthesize.busy_ms": busy("harmonics.synthesize"),
        "harmonics.analyze.busy_ms": busy("harmonics.analyze"),
        "harmonics.transform_mb": c["transform_bytes"] / 1e6 / c["transforms"] if c["transforms"] else 0.0,
        "harmonics.spectrum.calls": float(np.count_nonzero(spectrum)) / per_op,
        "harmonics.spectrum.self_ms": float(np.sum(own[spectrum])) / per_op,
        "stability.verify_theorem.calls": calls("stability.verify_theorem"),
        "stability.verify_theorem.busy_ms": busy("stability.verify_theorem"),
        "obstacle.forward.busy_ms": busy("obstacle.forward_soft", "obstacle.forward_hard"),
        "obstacle.invert.busy_ms": busy("obstacle.invert_soft", "obstacle.invert_hard"),
        "obstacle.imaginary_residual.busy_ms": busy("obstacle.BoundaryPerturbation.imaginary_residual"),
        "lab.calls": calls(prefix="lab."),
        "lab.ksweep.busy_ms": busy("lab.ksweep"),
        "lab.ensemble_verify.busy_ms": busy("lab.ensemble_verify"),
        "lab.perturb.busy_ms": busy("lab.perturb"),
        "lab.make_spectrum.busy_ms": busy("lab.make_spectrum"),
        "io.load_spectrum.busy_ms": busy("io.load_spectrum"),
        "io.dump_spectrum.busy_ms": busy("io.dump_spectrum"),
        "io.write_sweep_csv.busy_ms": busy("io.write_sweep_csv"),
        "io.bytes": c["io_bytes"] / per_op,
        "cli.main.calls": calls("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer]
        out[f"{layer}.self_share"] = layer_self[layer] / total_self
    out["trace.spans"] = float(len(names)) / per_op
    return out
