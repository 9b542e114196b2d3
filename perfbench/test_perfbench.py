"""Tests of the benchmark itself: output gate, tracer and metric names.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import run  # noqa: E402
from tracer import LAYER_METRICS, ROOT_SPAN, Tracer, install_layers, layer_metrics  # noqa: E402
from workloads import NLevel, Sweep  # noqa: E402


class SmallSweep(Sweep):
    SAMPLES = 12


class PerturbedSweep(SmallSweep):
    """Reports one row of the CSV 1e-2 off, as a wrong result would."""

    def __init__(self, key: str, purity_index: int):
        self.key = key
        self.purity_index = purity_index

    def rows(self, state):
        rows = super().rows(state)
        samples = state["values"]["samples"]
        j = next(j for j in range(samples) if rows[j]["class"] != "black")
        row = rows[self.purity_index * samples + j]
        row[self.key] = repr(float(row[self.key]) + 1e-2)
        return rows


class FailingSweep(SmallSweep):
    """Makes the CLI exit with a non-zero status (threads must be >= 1)."""

    def argv(self, state, i, threads=1):
        return super().argv(state, i, threads=0)


def run_once(workload, tmp_path):
    state = workload.setup(7, tmp_path)
    loop = run.Loop(workload, state, started=0.0)
    loop.attempt(1)
    return loop


def test_gate_passes_an_unchanged_sweep(tmp_path):
    loop = run_once(SmallSweep(), tmp_path)
    assert (loop.attempted, loop.failed) == (1, 0)


@pytest.mark.parametrize("key", ["tau_new", "tau_existing"])
@pytest.mark.parametrize("purity_index", [0, 2])
def test_gate_counts_a_perturbed_sweep_row(tmp_path, key, purity_index):
    loop = run_once(PerturbedSweep(key, purity_index), tmp_path)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_gate_counts_a_nonzero_exit_status(tmp_path):
    workload = FailingSweep()
    state = workload.setup(7, tmp_path)
    status, _ = workload.op(state, 1)
    assert status != 0
    loop = run.Loop(workload, state, started=0.0)
    loop.attempt(1)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_span_self_times_add_up_to_op_wall_time(tmp_path):
    workload = NLevel()
    state = workload.setup(3, tmp_path)
    tracer = Tracer()
    untraced = [run.run_op(workload, state, i)[0] for i in range(3)]
    traced = []
    for i in range(3, 6):
        install_layers(tracer)
        elapsed, result, error = run.run_op(workload, state, i, tracer)
        tracer.uninstall()
        assert error is None and workload.check(state, i, result) == []
        traced.append(elapsed)
    overhead = layer_metrics(tracer, [3, 4, 5], traced, untraced, {})["trace.overhead_frac"]["value"]
    # the tolerance is the measured tracing overhead, floored at 1% for timer noise
    tolerance = max(overhead, 0.01)
    for i, wall in zip(range(3, 6), traced):
        total_self = sum(tracer.self_times({i}).values())
        assert abs(total_self - wall) <= tolerance * wall
    names = {s[0] for s in tracer.spans}
    assert {ROOT_SPAN, "dynamics.propagate_timedep", "dynamics.propagate_lindblad", "qsl.qsl_report"} <= names


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nlevel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_calibrated_loop_times_every_op_and_set_up(tmp_path):
    workload = NLevel()
    state = workload.setup(5, tmp_path)
    loop = run.Loop(workload, state, started=time.monotonic(), probe=lambda: 0.2, calibrated=True)
    loop.run(seconds=0.01, min_ops=3)
    assert len(loop.setups.ratios) == run.SETUP_PROBES
    assert len(loop.ops.ratios) == len(loop.ops.seconds) >= 3
    assert (loop.attempted, loop.failed) == (len(loop.ops.seconds) + 1, 0)
    metrics = run.end_to_end(loop)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())
