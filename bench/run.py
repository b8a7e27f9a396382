"""helios benchmark: one closed-loop workload per process, one client.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Ops come from a seeded generator (`workloads.py`); helios receives only
the generated inputs. Every op's result is checked outside the timed
region. With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it wraps helios's public functions (`spans.py`), reports the
per-layer metrics from the spans, then replays the same ops untraced to
measure the tracing overhead. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a fuller record (machine
facts, failure classes, reference fingerprints) goes to
`bench/out/<workload>-seed<seed>-trace<0|1>.json`.

The benchmark never sets HELIOS_THREADS, so it measures the defaults.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# A later claim of a gain must also hold on this seed, which no tuning of
# the benchmark used.
HOLDOUT_SEED = 7919
# Set-up runs: SETUP_REPEATS, or fewer (at least MIN_SETUP_REPEATS) once
# SETUP_BUDGET_S is spent, which bounds the cost of the sphere grid fills
# and keeps a run's wall time within the benchmark's budget.
SETUP_REPEATS = 9
MIN_SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
MIN_P90_SAMPLES = 100

# helios ops never block, so one of its threads is always on a CPU: a deck
# whose process got less than MIN_CPU_SHARE of a CPU was disturbed by the
# host (its steal time is not CPU time) or by another process. Such decks
# are checked but their latencies are left out. The run is not made
# longer for them, so that its wall time stays within budget.
MIN_CPU_SHARE = 0.9

# A shared host's speed switches, within seconds and for minutes at a
# time, between levels a third and more apart, for pure-Python and numpy
# code alike; no run is long enough to average that out. So every
# reported time is scaled to a reference speed: it is multiplied by
# REFERENCE_S over the local time of a fixed kernel that never touches
# helios (`Reference`). The kernel is timed once after every
# REFERENCE_EVERY_S of op time, and an op latency is scaled by the median
# of the two kernel times before it and the two after. It is timed
# REFERENCE_PER_SETUP times between set-ups, and a set-up time is scaled
# by the median of as many kernel times before it and after it. The raw
# figures and the kernel's times go to the record.
REFERENCE_S = 0.025
REFERENCE_EVERY_S = 0.25
REFERENCE_PER_SETUP = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "specfun.hankel_value.calls": "1/op",
    "bounds.sweep.busy_ms": "ms/op",
    "bounds.check_point.calls": "1/op",
    "field.hankel_factors.calls": "1/op",
    "field.hankel_factors.busy_ms": "ms/op",
    "field.hankel_factors.repeat_ratio": "ratio",
    "harmonics.sph_harm_y.calls": "1/op",
    "harmonics.fill_ms": "ms/op",
    "harmonics.fill_mb": "MB/op",
    "harmonics.synthesize.busy_ms": "ms/op",
    "harmonics.analyze.busy_ms": "ms/op",
    "harmonics.transform_mb": "MB/call",
    "harmonics.spectrum.calls": "1/op",
    "harmonics.spectrum.self_ms": "ms/op",
    "stability.verify_theorem.calls": "1/op",
    "stability.verify_theorem.busy_ms": "ms/op",
    "obstacle.forward.busy_ms": "ms/op",
    "obstacle.invert.busy_ms": "ms/op",
    "obstacle.imaginary_residual.busy_ms": "ms/op",
    "lab.calls": "1/op",
    "lab.ksweep.busy_ms": "ms/op",
    "lab.ensemble_verify.busy_ms": "ms/op",
    "lab.perturb.busy_ms": "ms/op",
    "lab.make_spectrum.busy_ms": "ms/op",
    "io.load_spectrum.busy_ms": "ms/op",
    "io.dump_spectrum.busy_ms": "ms/op",
    "io.write_sweep_csv.busy_ms": "ms/op",
    "io.bytes": "B/op",
    "cli.main.calls": "1/op",
    **{f"{layer}.self_ms": "ms/op" for layer in spans.LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in spans.LAYERS},
    "trace.spans": "1/op",
    "trace.overhead_ratio": "ratio",
}

# README config of the canonical sweep; its CSV hash is recorded, not gated.
CANONICAL_SWEEP = {
    "R": 1.0, "delta": 1e-3, "k_list": [2, 4, 8, 16, 32, 64], "seeds": 20, "seed": 0,
    "kind": "soft", "profile": {"kind": "exponential", "rate": 1.0, "max_degree": 10, "seed": 7},
}


@dataclass
class Deck:
    ops: list
    latencies: list[int]  # wall ns per op
    cpu_share: float  # process CPU time / wall time over the deck's ops
    marks: list[int] | None = None  # per op, the index of the last kernel time before it

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) * 1e9

    def scaled(self, reference: "Reference") -> "Deck":
        """This deck with each latency scaled to the reference speed."""
        latencies = [t * reference.scale_at(m) for t, m in zip(self.latencies, self.marks)]
        return Deck(self.ops, latencies, self.cpu_share, self.marks)


class Reference:
    """A fixed kernel in the mix of the workloads' own code: a pure-Python
    float loop, a loop of small-array numpy operations and passes over a
    4 MB array. It reads nothing of helios, so a change to helios leaves
    it alone. Its two arrays stay allocated for the run, which adds a
    constant 8 MB to `peak_rss_mb`."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._big = np.arange(1 << 19, dtype=float)
        self._out = np.empty_like(self._big)
        self.times: list[float] = []

    def measure(self) -> None:
        """Time the kernel once into `times` (wall seconds)."""
        small = self._np.ones(64)
        t0 = time.perf_counter()
        x = 0.0
        for i in range(150_000):
            x = x * 0.999 + i * 1e-3
        for _ in range(3_000):
            small = small * 1.0000001 + 1e-9
        for _ in range(8):
            self._np.multiply(self._big, 1.0000001, out=self._out)
            self._out.sum()
        self.times.append(time.perf_counter() - t0)

    def scale_at(self, mark: int, around: int = 2) -> float:
        """Factor that turns a time measured after kernel time `mark` and
        before the next into one at the reference speed, from the `around`
        kernel times before it and the `around` after."""
        window = self.times[max(mark + 1 - around, 0): mark + 1 + around]
        return REFERENCE_S / statistics.median(window)


def run_ops(decks, ctx, seconds: float, tracer=None, reference=None):
    """Closed loop: run ops one after another, a whole deck at a time,
    until their summed latency reaches `seconds`. With a `reference`, times
    its kernel after every REFERENCE_EVERY_S of op time and once at the
    end. Returns (Decks, failure classes)."""
    results, failures = [], Counter()
    total_ns = since_ref_ns = 0
    for deck in decks:
        if total_ns >= seconds * 1e9:
            break
        latencies, marks, cpu_ns = [], [], 0
        for op in deck:
            inputs = workloads.prepare(op, ctx)
            if tracer is not None:
                tracer.begin_op(op.kind)
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = workloads.execute(op, ctx, inputs)
                failure = None
            except Exception:
                result, failure = None, "exception"
            latencies.append(time.perf_counter_ns() - t0)
            cpu_ns += time.process_time_ns() - c0
            if reference is not None:
                marks.append(len(reference.times) - 1)
            if tracer is not None:
                tracer.end_op()
            if failure is None:
                failure = workloads.check(op, ctx, inputs, result)
            if failure is not None:
                failures[failure] += 1
            since_ref_ns += latencies[-1]
            if reference is not None and since_ref_ns >= REFERENCE_EVERY_S * 1e9:
                reference.measure()
                since_ref_ns = 0
        results.append(Deck(list(deck), latencies, cpu_ns / sum(latencies), marks))
        total_ns += sum(latencies)
    if reference is not None:
        reference.measure()
    return results, failures


def measured(decks: list[Deck]) -> list[Deck]:
    """The decks the host left alone, or all of them when most were
    disturbed (then the disturbance is the program's own)."""
    calm = [d for d in decks if d.cpu_share >= MIN_CPU_SHARE]
    return calm if 2 * len(calm) >= len(decks) else decks


def import_in_child() -> None:
    """A fresh interpreter imports helios, as every CLI invocation does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import helios"
    subprocess.run([sys.executable, "-c", code], check=True)


def set_up(workload: str, ctx, reference: Reference) -> tuple[list[float], list[int], Counter]:
    """Repeated set-ups, each a fresh helios import in a child interpreter,
    the grid build and warm-up, and one warm-up op per kind, with the
    reference kernel timed REFERENCE_PER_SETUP times before and after each.
    Returns the set-up times, the index of the last kernel time before
    each, and the failure classes of the warm-up ops."""
    times, marks, failures = [], [], Counter()
    warm = workloads.warmup_ops(workload)
    for _ in range(REFERENCE_PER_SETUP):
        reference.measure()
    while len(times) < SETUP_REPEATS and (
            len(times) < MIN_SETUP_REPEATS or sum(times) < SETUP_BUDGET_S):
        ctx.grids = {}
        gc.collect()
        marks.append(len(reference.times) - 1)
        t0 = time.perf_counter()
        import_in_child()
        ctx.setup(workload)
        failures.update(run_ops([warm], ctx, math.inf)[1])
        times.append(time.perf_counter() - t0)
        for _ in range(REFERENCE_PER_SETUP):
            reference.measure()
    return times, marks, failures


def timings(decks: list[Deck], setup_times: list[float]) -> dict[str, float]:
    """The four timing metrics of a run's decks and set-up times."""
    latencies = [t for deck in decks for t in deck.latencies]
    return {
        "ops_per_s": statistics.median(deck.ops_per_s for deck in decks),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] / 1e6,
        "setup_s": statistics.median(setup_times),
    }


def cache_sizes() -> dict[str, str | None]:
    sizes = {"L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            level = (index / "level").read_text().strip()
            if f"L{level}" in sizes and (index / "type").read_text().strip() != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def facts(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cache": cache_sizes(),
        "HELIOS_THREADS_set": "HELIOS_THREADS" in os.environ,
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fingerprints(hx, ctx) -> dict:
    """Reference fingerprints, recorded as information only."""
    config, csv = ctx.path("canonical.json"), ctx.path("canonical.csv")
    with open(config, "w") as fh:
        json.dump(CANONICAL_SWEEP, fh)
    workloads.cli(ctx, ["sweep", "--config", config, "--out", csv])
    with open(csv, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    reports = hx.bounds.sweep(nmax=50, tmin=0.1, tmax=200.0, points=200)
    return {
        "canonical_sweep_csv_sha256": digest,
        "acceptance_bounds_check_violations": len(hx.bounds.violations(reports)),
    }


def run(args, tmp: Path) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    hx = importlib.import_module("helios")
    for layer in spans.LAYERS:
        importlib.import_module(f"helios.{layer}")
    import_s = time.perf_counter() - t0
    ctx = workloads.Context(hx, str(tmp))
    reference = Reference()
    setup_times, setup_marks, warm_failures = set_up(args.workload, ctx, reference)
    gc.collect()

    ops = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            decks, failures = run_ops(ops, ctx, args.seconds, tracer)
        finally:
            restore()
        # the first half of the traced ops again, untraced
        traced_ops = [op for deck in decks for op in deck.ops]
        replayed = traced_ops[: len(traced_ops) // 2 + 1]
        plain = run_ops([replayed], ctx, math.inf)[0][0].latencies
    else:
        decks, failures = run_ops(ops, ctx, args.seconds, reference=reference)
    kept = measured(decks)
    latencies = [t for deck in kept for t in deck.latencies]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    by_kind = {}
    for deck in kept:
        for op, latency in zip(deck.ops, deck.latencies):
            by_kind.setdefault(op.kind, []).append(latency)
    attempted = sum(len(deck.ops) for deck in decks)
    failed = sum(failures.values())
    raw = {}
    if tracer is None:
        raw = timings(kept, setup_times)
        values = timings([deck.scaled(reference) for deck in kept],
                         [t * reference.scale_at(m, REFERENCE_PER_SETUP)
                          for t, m in zip(setup_times, setup_marks)])
        values["peak_rss_mb"] = peak_rss_mb
        values["ok_ratio"] = (attempted - failed) / attempted
        units = END_TO_END_UNITS
    else:
        values = spans.layer_metrics(tracer, attempted)
        traced = [t for deck in decks for t in deck.latencies][: len(replayed)]
        values["trace.overhead_ratio"] = sum(plain) / sum(traced)
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        tracer.save(str(OUT / f"spans-{args.workload}.npz"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "client": "closed loop, 1 client",
        "metrics": metrics,
        "raw_times": raw,
        "reference_s": {"nominal": REFERENCE_S, "median": statistics.median(reference.times),
                        "runs": reference.times},
        "samples": len(latencies),
        "decks": len(decks),
        "disturbed_decks": sum(d.cpu_share < MIN_CPU_SHARE for d in decks),
        "deck_cpu_shares": [round(d.cpu_share, 4) for d in decks],
        "p90_valid": len(latencies) >= MIN_P90_SAMPLES,
        "fail_ratio": failed / attempted,
        "failures_by_class": dict(failures),
        "warmup_failures_by_class": dict(warm_failures),
        "ops_by_kind": {kind: {"count": len(lat), "p50_ms": statistics.median(lat) / 1e6}
                        for kind, lat in sorted(by_kind.items())},
        "setup_runs_s": setup_times,
        "import_in_process_s": import_s,
        "fingerprints": fingerprints(hx, ctx),
        "facts": facts(args),
    }
    summary = {
        "correct": failed == 0 and not warm_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return summary, record


def print_human(record: dict) -> None:
    print(f"workload {record['workload']} ({record['client']}, {record['samples']} ops; "
          f"fail_ratio {record['fail_ratio']:.4g})")
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    if not record["p90_valid"]:
        print(f"  note: op_p90_ms rests on fewer than {MIN_P90_SAMPLES} ops")
    print(f"  fingerprints {json.dumps(record['fingerprints'])}")


def run_all(args) -> int:
    """Each workload in a fresh process, then one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        record_path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(record_path) as fh:
            print_human(json.load(fh))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "helios" / "__init__.py").is_file():
        print(f"error: no helios source tree at {SRC / 'helios'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        summary, record = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print_human(record)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
