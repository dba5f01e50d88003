"""Self-test of the benchmark: tiny runs of every workload.

    python3 -m pytest -q perfbench/tests

Each workload must emit exactly the metric names ``BENCHMARK.json``
declares, in both modes; a deliberately corrupted answer must be
counted as failed; no process the run started may outlive it; the span
accounting must add up; and the benchmark must refuse to run where the
program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("serve-small", "gateway-durable", "store-mixed")


def declared(section: str):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return [metric["name"] for metric in json.load(f)[section]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench.run_workload(workload, seed=3, seconds=0.3, trace=False,
                                min_ops=5)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5
    assert sorted(result["metrics"]) == sorted(declared("end_to_end"))
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    # every process the run started has ended and been reaped
    assert common.child_pids(os.getpid()) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = bench.run_workload(workload, seed=3, seconds=0.3, trace=True,
                                min_ops=5)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert sorted(metrics) == sorted(declared("per_layer"))
    assert metrics["fail_ratio"] == 0.0
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0, abs=0.1)
    if workload == "store-mixed":
        assert metrics["persistence.commits_per_op"] == 1.0
        assert metrics["graphs.label_ms_per_op"] > 0
        assert metrics["query_p50_ms"] > 0
    else:
        assert metrics["daemon.hop_ms"] > 0
        assert metrics["service.shards_per_op"] >= 1
    if workload == "gateway-durable":
        assert metrics["gateway.hop_ms"] > 0
        assert metrics["joblog.calls_per_op"] >= 2
    assert common.child_pids(os.getpid()) == []


@pytest.mark.parametrize("workload", ("serve-small", "store-mixed"))
@pytest.mark.parametrize("trace", (False, True))
def test_corrupted_answer_is_counted(workload, trace):
    result = bench.run_workload(workload, seed=5, seconds=0.2, trace=trace,
                                min_ops=5, corrupt=True)
    assert not result["correct"]
    assert result["failed"] == 1
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == \
            pytest.approx(1 / result["attempted"])


def _span(name, start, end, key="k"):
    return [name, start, end, key, 0]


def test_self_times_add_up_and_overlap_shows():
    nested = {"spans": [_span("op", 0, 100),
                        _span("daemon.compute", 10, 60),
                        _span("core.validate", 20, 30),
                        _span("protocol.encode", 70, 80)],
              "events": {}}
    metrics = spans.analyse([nested], (0, 100))
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0)
    assert metrics["daemon.hop_ms"] == pytest.approx(40e-6)
    assert metrics["daemon.busy_ms_per_op"] == pytest.approx(40e-6)
    overlapping = {"spans": [_span("op", 0, 100),
                             _span("daemon.compute", 10, 60),
                             _span("protocol.encode", 50, 70)],
                   "events": {}}
    metrics = spans.analyse([overlapping], (0, 100))
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.1)


def test_time_under_a_span_of_no_op_is_lost():
    # the compute span names a job no op has: its 50 ns would otherwise
    # pass silently into the hop
    dropped = {"spans": [_span("op", 0, 100),
                         _span("daemon.compute", 10, 60, key="other"),
                         _span("protocol.encode", 70, 80)],
               "events": {}}
    metrics = spans.analyse([dropped], (0, 100))
    assert metrics["trace.accounted_ratio"] == pytest.approx(0.5)
    assert metrics["trace.unattributed_ratio"] == pytest.approx(0.5)
    assert metrics["trace.idle_ms_per_op"] == pytest.approx(90e-6)


def test_slices_merge_to_enough_ops_and_report_medians():
    def part(ops, latency_ms, seconds=1.0):
        piece = common.Slice(seconds, cpu_s=ops * 0.01)
        piece.attempted = ops
        piece.latencies_ms = [latency_ms] * ops
        return piece

    # 60-op slices pair up into 120-op ones; the lone 60-op tail joins
    # the last pair; one slow second moves only its own merged slice
    parts = [part(60, 10.0) for _ in range(6)] + [part(60, 90.0, 3.0)]
    metrics = common.slice_metrics(parts)
    assert metrics["ops_per_s"] == pytest.approx(60.0)
    assert metrics["op_p50_ms"] == pytest.approx(10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(10.0)
    # too few ops for two slices: the window is one slice
    short = common.slice_metrics([part(30, 10.0), part(30, 30.0)])
    assert short["ops_per_s"] == pytest.approx(30.0)
    assert short["op_p50_ms"] == pytest.approx(20.0)


def test_time_figures_are_taken_to_the_reference_speed():
    # waiting stays as measured, the CPU share shrinks by the slowness
    assert common.reference_scale(1.0, 0.0, 2.0) == pytest.approx(1.0)
    assert common.reference_scale(1.0, 1.0, 2.0) == pytest.approx(0.5)
    assert common.reference_scale(1.0, 0.5, 2.0) == pytest.approx(0.75)
    assert common.reference_scale(1.0, 3.0, 2.0) == pytest.approx(0.5)
    # a slice of pure CPU work on a host at half speed reads as if the
    # host ran at full speed
    piece = common.Slice(2.0, cpu_s=2.0)
    piece.attempted = 100
    piece.latencies_ms = [20.0] * 100
    piece.slowness = [2.0] * 10
    metrics = common.slice_metrics([piece])
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    assert metrics["op_p50_ms"] == pytest.approx(10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(10.0)


def test_speed_probe_samples_every_cpu():
    probe = common.SpeedProbe()
    for _ in probe.cpus:
        probe.sample()
    assert len(probe.history) == len(probe.cpus)
    assert probe.mean_slowness() > 0
    assert os.sched_getaffinity(0) == set(probe.cpus)


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(BENCH)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
