"""The ``store-mixed`` workload: durable ingest with cold reads beside it.

One process, one thread.  Each op records one pre-generated run with
``DurableProvenanceStore.add_run`` (labelling, SQL rows, catalog fold,
commit) and then answers 8 cold ``lineage_tasks`` queries through a
read-only handle on the same WAL database, for seeded (run, task)
pairs across every committed run.  The read share exposes a write-path
change that costs cold reads.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from typing import Dict, List, Tuple

import common
from common import percentile

_now = time.perf_counter_ns

#: the 40-task layered workflow of ``benchmarks/bench_sql_lineage.py``
SPEC_SEED, SPEC_TASKS = 20090931, 40
#: runs recorded during set-up, before the first op
BASE_RUNS = 100
#: untimed ops before the window: an op's cost rises with the first few
#: hundred runs recorded (database, WAL and the writer's in-memory
#: mirror grow) and then levels off, and the window should start there
WARMUP_OPS = 600
QUERIES_PER_OP = 8
#: runs are generated ahead in chunks, outside the timed ops
CHUNK = 256
#: the writer store mirrors every recorded run in memory, so its peak
#: resident set grows with the ops done; it is read after this many
#: timed ops so that it measures a fixed amount of ingest, not how fast
#: the machine happened to be
RSS_AT_OPS = 800


class Inputs:
    """Everything the seed determines: run payloads and query picks."""

    def __init__(self, seed: int) -> None:
        from repro.repository.synthetic import synthetic_workflow

        self.seed = seed
        self.spec = synthetic_workflow(SPEC_SEED, SPEC_TASKS,
                                       shape="layered").spec
        self.tasks = sorted(self.spec.task_ids(), key=str)
        self.entry_tasks = list(self.spec.entry_tasks())
        self.rng = random.Random(f"store-mixed-{seed}")

    def run(self, name: str, index: int):
        from repro.provenance.execution import execute

        return execute(self.spec, run_id=f"{name}-{index}",
                       inputs={task: f"{self.seed}-{name}-{index}"
                               for task in self.entry_tasks})

    def picks(self, committed: List[str]) -> List[Tuple[str, object]]:
        return [(committed[self.rng.randrange(len(committed))],
                 self.tasks[self.rng.randrange(len(self.tasks))])
                for _ in range(QUERIES_PER_OP)]


def _digest(tasks) -> str:
    return hashlib.sha256(
        "\n".join(sorted(str(t) for t in tasks)).encode()).hexdigest()


class Phase:
    """Warm-up and one timed window of ops on a store that holds the
    base runs; ``label`` names the runs it records."""

    def __init__(self, bench: "Bench", store, path: str, label: str,
                 seconds: float, min_ops: int, probe: common.SpeedProbe,
                 tracer=None) -> None:
        from repro.persistence import DurableProvenanceStore
        from repro.provenance.facade import LineageQueryEngine

        inputs = bench.inputs
        self.seconds = seconds
        reader = DurableProvenanceStore(path, readonly=True)
        try:
            engine = LineageQueryEngine(store=reader, prefer="sql")
            self.runs = {run.run_id: run for run in bench.base}
            committed = [run.run_id for run in bench.base]
            pending: List = []
            counter = [0]

            def one_op(timed: bool):
                if not pending:
                    first = counter[0]
                    pending.extend(inputs.run(label, first + i)
                                   for i in range(CHUNK))
                    counter[0] += CHUNK
                run = pending.pop(0)
                self.runs[run.run_id] = run
                committed.append(run.run_id)
                picks = inputs.picks(committed)
                op = {"run": run.run_id, "picks": picks, "error": None}
                key = f"op-{len(committed)}"
                cpu0 = time.process_time()
                op["start"] = _now()
                try:
                    if tracer is not None and timed:
                        with tracer.root(key):
                            answers = self._op(store, engine, run, picks,
                                               op)
                    else:
                        answers = self._op(store, engine, run, picks, op)
                    op["answers"] = answers
                except Exception as exc:  # a failed op, counted
                    op["error"] = f"{type(exc).__name__}: {exc}"
                op["end"] = _now()
                op["cpu"] = time.process_time() - cpu0
                if timed:
                    op["slowness"] = probe.sample()[0]
                return op

            for _ in range(WARMUP_OPS):
                one_op(False)
            db_before = common.dir_bytes(bench.run_dir)
            common.quiesce()
            ops = []
            busy_ns = 0
            window_start = _now()
            self.rss_mb = None
            while busy_ns < seconds * 1e9 or len(ops) < min_ops:
                op = one_op(True)
                busy_ns += op["end"] - op["start"]
                ops.append(op)
                if len(ops) == RSS_AT_OPS:
                    self.rss_mb = common.peak_rss_mb([os.getpid()])
            self.window = (window_start, _now())
            self.ops = ops
            if self.rss_mb is None:
                self.rss_mb = common.peak_rss_mb([os.getpid()])
            self.db_bytes = common.dir_bytes(bench.run_dir) - db_before
        finally:
            reader.close()

    @staticmethod
    def _op(store, engine, run, picks, op) -> List:
        store.add_run(run)
        started = _now()
        answers = [engine.lineage_tasks(task, run_id=run_id)
                   for run_id, task in picks]
        op["query_ns"] = (_now() - started) / len(picks)
        return answers

    def check(self) -> int:
        """Cold SQL answers against hydrated ``LineageQueryEngine(run=)``
        answers, by digest; returns the ops that failed or differ."""
        from repro.provenance.facade import LineageQueryEngine

        engines: Dict[str, LineageQueryEngine] = {}
        bad = 0
        for op in self.ops:
            if op["error"] is not None:
                bad += 1
                continue
            for (run_id, task), answer in zip(op["picks"], op["answers"]):
                engine = engines.get(run_id)
                if engine is None:
                    engine = engines[run_id] = LineageQueryEngine(
                        run=self.runs[run_id])
                truth = engine.lineage_tasks(task).tasks
                if answer.source != "sql" or \
                        _digest(answer.tasks) != _digest(truth):
                    bad += 1
                    break
        return bad

    def slices(self) -> List[common.Slice]:
        """The ops cut into equal slices of the time spent inside ops
        (run generation and speed probes between ops are not part of
        the window)."""
        slice_ns = self.seconds * 1e9 / common.SLICES
        slices = [common.Slice(0.0, 0.0) for _ in range(common.SLICES)]
        busy_ns = 0
        for op in self.ops:
            part = slices[min(int(busy_ns // slice_ns), common.SLICES - 1)]
            elapsed = op["end"] - op["start"]
            busy_ns += elapsed
            part.seconds += elapsed * 1e-9
            part.cpu_s += op["cpu"]
            part.attempted += 1
            part.slowness.append(op["slowness"])
            if op["error"] is None:
                part.latencies_ms.append(elapsed * 1e-6)
        return slices

    def metrics(self) -> Dict[str, float]:
        """The slice metrics; the cold-read latencies, like the ops',
        at the reference speed (reads are CPU work in this process)."""
        done = [op for op in self.ops if op["error"] is None]
        queries = [op["query_ns"] * 1e-6 / op["slowness"]
                   for op in done] or [0]
        return {
            **common.slice_metrics(self.slices()),
            "peak_rss_mb": self.rss_mb,
            "db_bytes_per_op": self.db_bytes / len(self.ops),
            "query_p50_ms": percentile(queries, 50),
            "query_p90_ms": percentile(queries, 90),
        }


class Bench:
    """Runs ``store-mixed`` for ``run.run_workload``."""

    def __init__(self, seed: int, run_dir: str) -> None:
        self.inputs = Inputs(seed)
        self.run_dir = run_dir
        self.base = [self.inputs.run("base", i) for i in range(BASE_RUNS)]
        self.stores: List = []
        self._made = 0

    def setup(self):
        """Store and schema creation plus the base runs; no process is
        started, so no other CPU is spent."""
        from repro.persistence import DurableProvenanceStore

        path = os.path.join(self.run_dir, f"store-{self._made}.db")
        self._made += 1
        store = DurableProvenanceStore(path, self.inputs.spec)
        self.stores.append(store)
        for run in self.base:
            store.add_run(run)
        return (store, path), 0.0

    def release(self, target) -> None:
        target[0].close()
        self.stores.remove(target[0])

    def measure(self, target, seconds: float, min_ops: int,
                probe: common.SpeedProbe) -> Phase:
        store, path = target
        return Phase(self, store, path, "untraced", seconds, min_ops, probe)

    def traced(self, seconds: float, min_ops: int,
               probe: common.SpeedProbe) -> Phase:
        """A phase on a fresh store with every layer's spans recorded,
        with the layer metrics as ``layer_metrics``."""
        import pbtrace
        import spans

        (store, path), _cpu = self.setup()
        tracer = pbtrace.Tracer()
        pbtrace.install(tracer, side="client")
        try:
            phase = Phase(self, store, path, "traced", seconds, min_ops,
                          probe, tracer=tracer)
        finally:
            tracer.enabled = False
            store.close()
        phase.layer_metrics = spans.analyse(
            [tracer.export()], phase.window,
            extras={"daemon.coalesced_ratio": 0.0, "gateway.shard_skew": 0.0,
                    "trace.ops_per_s": phase.metrics()["ops_per_s"]})
        return phase

    def check(self, phase: Phase) -> int:
        return phase.check()

    def corrupt(self, phase: Phase) -> None:
        target = phase.ops[0]
        target["answers"][0] = _Corrupted(target["answers"][0])

    def close(self) -> None:
        for store in self.stores:
            store.close()


class _Corrupted:
    """An answer with one task dropped (the self-test's wrong output)."""

    def __init__(self, answer) -> None:
        self.source = answer.source
        self.tasks = frozenset(sorted(answer.tasks, key=str)[1:]) \
            if answer.tasks else frozenset({"not-a-task"})
