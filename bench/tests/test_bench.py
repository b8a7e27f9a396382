"""Tests of the benchmark itself. Kept out of the Tier-1 run (pytest's
testpaths is `tests`); run them with

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def first_ops(workload, seed, count=60):
    return list(itertools.islice(itertools.chain.from_iterable(workloads.generate(workload, seed)), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    assert first_ops(workload, 3) == first_ops(workload, 3)
    assert first_ops(workload, 3) != first_ops(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_deck_has_the_same_size_mix(workload):
    def sizes(deck):
        return sorted((op.kind, op.params.get("grid", 0)) for op in deck)

    decks = list(itertools.islice(workloads.generate(workload, 5), 3))
    assert sizes(decks[0]) == sizes(decks[1]) == sizes(decks[2])


def test_cell_points_spread_evenly_over_decks():
    design = workloads._Design(np.random.default_rng(0))
    points = []
    for _ in range(40):
        points += [u for u in design.cells(4, 2) if u[0] < 0.25 and u[1] < 0.5]
        design.next_deck()
    assert len(points) == 40
    counts = np.histogram2d(*zip(*points), bins=[np.linspace(0, 0.25, 3), np.linspace(0, 0.5, 3)])[0]
    assert counts.min() >= 8 and counts.max() <= 12


def test_inverse_decks_balance_sweep_kinds():
    for deck in itertools.islice(workloads.generate("inverse", 2), 3):
        kinds = [op.params["kind"] for op in deck if op.kind == "sweep"]
        assert kinds.count("soft") == kinds.count("hard") == 6


def test_sweep_configs_keep_noise_above_cutoff():
    for op in first_ops("inverse", 9, 300):
        if op.kind == "sweep":
            assert max(op.params["k_list"]) ** 0.5 < op.params["profile"]["max_degree"]


def test_self_time_with_nested_and_worker_spans():
    # span 0: op on thread 1 (cpu 100); 1: child on thread 1 (cpu 30);
    # 2: grandchild on thread 1 (cpu 10); 3 and 4: worker spans on threads
    # 2 and 3 whose parent is span 1 (cpu 25 each, overlapping in wall time)
    cpu = [100, 30, 10, 25, 25]
    thread = [1, 1, 1, 2, 3]
    parent = [-1, 0, 1, 1, 1]
    own = spans.self_times(cpu, thread, parent)
    assert own.tolist() == [70, 20, 10, 25, 25]
    assert spans.inclusive_times(own, parent).tolist() == [150, 80, 10, 25, 25]


def test_tracer_attributes_worker_spans_to_the_op_in_flight():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    leaf = tracer.name_id("specfun.leaf")
    outer = tracer.name_id("bounds.outer")

    def work(_):
        tracer.close(tracer.open(leaf))

    tracer.begin_op("test")
    idx = tracer.open(outer)
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(4)))
    tracer.close(idx)
    tracer.end_op()
    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name"]]
    assert names[:2] == ["op.test", "bounds.outer"]
    assert cols["parent"].tolist() == [-1, 0, 1, 1, 1, 1]
    assert set(cols["op"].tolist()) == {0}
    assert np.all(cols["end_ns"] >= cols["start_ns"])


def test_disturbed_decks_are_left_out_unless_most_are():
    calm = run.Deck([], [10, 10], 1.0)
    hit = run.Deck([], [40, 40], 0.5)
    assert run.measured([calm, hit, calm]) == [calm, calm]
    assert run.measured([calm, hit, hit]) == [calm, hit, hit]


def test_times_are_scaled_by_the_kernel_times_around_them():
    reference = run.Reference()
    reference.times = [0.02, 0.02, 0.05, 0.05, 0.05, 0.05]
    assert reference.scale_at(0) == run.REFERENCE_S / 0.02
    assert reference.scale_at(1) == run.REFERENCE_S / 0.035
    assert reference.scale_at(3) == run.REFERENCE_S / 0.05
    deck = run.Deck([], [10, 20], 1.0, [0, 3]).scaled(reference)
    assert deck.latencies == [10 * run.REFERENCE_S / 0.02, 20 * run.REFERENCE_S / 0.05]
    reference.measure()
    assert len(reference.times) == 7 and reference.times[-1] > 0


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    record = json.loads((run.OUT / f"{workload}-seed0-trace0.json").read_text())
    assert record["fail_ratio"] == 0
    assert record["fingerprints"]["acceptance_bounds_check_violations"] == 0


def test_traced_certify_touches_only_its_layers():
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["harmonics.sph_harm_y.calls"] == 0
    assert metrics["lab.calls"] == 0
    shares = {k: v for k, v in metrics.items() if k.endswith(".self_share")}
    assert max(shares, key=shares.get) == "specfun.self_share"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "1", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
