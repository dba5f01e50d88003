"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-small --seed 1 \\
        --seconds 15 --trace 0

runs from the root of a checkout, builds nothing (the program is pure
Python under ``src/``), measures for ``--seconds`` seconds, checks
every answer against an in-process oracle, prints the environment and
every metric with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs an untraced phase and then a traced one and reports
the per-layer metrics.  Workloads, metric names, units and directions
are declared in ``BENCHMARK.json``; this file checks its output
against that declaration before printing it.

Time figures are reported at a reference host speed: see
``common.SpeedProbe``, ``common.launch_slowness`` and
``common.reference_scale``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from typing import Dict, List, Optional

import common

WORKLOADS = ("serve-small", "gateway-durable", "store-mixed")
DEFAULT_SEED = 2009

E2E_METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms",
               "cpu_ms_per_op", "peak_rss_mb")
#: timed set-ups per untraced run, before the timed window (the last of
#: these serves it) and after it; ``setup_s`` is their median
SETUP_BEFORE = 8
SETUP_AFTER = 8


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``."""
    path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def make_bench(workload: str, seed: int, run_dir: str):
    """The workload's runner: ``setup()``, ``release()``, ``measure()``,
    ``traced()``, ``check()``, ``corrupt()`` and ``close()``."""
    if workload == "store-mixed":
        import store_mixed

        return store_mixed.Bench(seed, run_dir)
    import served

    return served.Bench(workload, seed, run_dir)


class SetupTimer:
    """The timed set-ups of a run, at the reference speed.

    A reference launch (``common.launch_slowness``) runs before and
    after each set-up, and one between two set-ups serves both; the
    set-up is taken to the reference speed with the mean of the two,
    and ``setup_s`` is the median."""

    def __init__(self, bench) -> None:
        self.bench = bench
        self.seconds: List[float] = []
        self.slowness: List[float] = []
        self._slowness: Optional[float] = None

    def setup(self):
        """One timed set-up; returns its target."""
        before = self._slowness
        if before is None:
            before = common.launch_slowness()
        cpu0 = time.process_time()
        started = time.perf_counter()
        target, child_cpu_s = self.bench.setup()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0 + child_cpu_s
        self._slowness = common.launch_slowness()
        slowness = (before + self._slowness) / 2
        self.seconds.append(
            wall * common.reference_scale(wall, cpu, slowness))
        self.slowness.append(slowness)
        return target

    def interrupted(self) -> None:
        """Other work ran since the last set-up: probe afresh."""
        self._slowness = None

    def median(self) -> float:
        return common.median(self.seconds)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = 100, corrupt: bool = False
                 ) -> Dict[str, object]:
    """One run; returns the result object plus the environment.
    ``corrupt`` damages one answer (the self-test's probe that wrong
    outputs are counted)."""
    common.require_program()
    run_dir = common.fresh_run_dir(workload)
    bench = make_bench(workload, seed, run_dir)
    probe = common.SpeedProbe()
    try:
        env = common.environment(run_dir)
        setups = SetupTimer(bench)
        for _ in range(0 if trace else SETUP_BEFORE - 1):
            bench.release(setups.setup())
        target = setups.setup()
        phases = [bench.measure(target, seconds, min_ops, probe)]
        bench.release(target)
        setups.interrupted()
        for _ in range(0 if trace else SETUP_AFTER):
            bench.release(setups.setup())
        if trace:
            phases.append(bench.traced(seconds, min_ops, probe))
        if corrupt:
            bench.corrupt(phases[0])
        failed = sum(bench.check(phase) for phase in phases)
        attempted = sum(len(phase.ops) for phase in phases)
        untraced = phases[0].metrics()
        env["slowness"] = round(probe.mean_slowness(), 4)
        env["launch_slowness"] = round(common.median(setups.slowness), 4)
        if trace:
            values = dict(phases[1].layer_metrics)
            values.update({
                "fail_ratio": failed / attempted,
                "db_bytes_per_op": untraced["db_bytes_per_op"],
                "query_p50_ms": untraced.get("query_p50_ms", 0.0),
                "query_p90_ms": untraced.get("query_p90_ms", 0.0),
                "trace.overhead_ratio": 1.0 - values["trace.ops_per_s"]
                / untraced["ops_per_s"],
            })
        else:
            untraced["setup_s"] = setups.median()
            values = {name: untraced[name] for name in E2E_METRICS}
    finally:
        bench.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise common.BenchError(f"metrics not measured: {missing}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()},
            "env": env}


def _terminated(signum, _frame) -> None:
    # SystemExit, which no ``except Exception`` around an op swallows
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through the clean-up, so that every server is
    # stopped, and ends the run without a result
    signal.signal(signal.SIGTERM, _terminated)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = result.pop("env")
    common.emit(result, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
