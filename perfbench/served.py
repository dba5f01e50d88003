"""The two served workloads: ``serve-small`` and ``gateway-durable``.

Both are closed loops: one client submits one job and blocks on its
full record stream before sending the next.  The servers run as
their own processes (``wolves serve`` / ``wolves cluster``), apart
from this single-process load generator.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import common
from common import ServerProcess

_now = time.perf_counter_ns

#: untimed jobs before the window: connections, imports, caches warm
WARMUP_OPS = 6


class Op:
    __slots__ = ("index", "start", "end", "records", "error")

    def __init__(self, index: int) -> None:
        self.index = index
        self.start = self.end = 0
        self.records: Optional[list] = None
        self.error: Optional[str] = None


class Workload:
    """What differs between the served workloads."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._manifests: Dict[int, object] = {}

    def corpus_seed(self, index: int) -> int:
        raise NotImplementedError

    def manifest(self, index: int):
        from repro.repository.corpus import CorpusSpec
        from repro.server import JobManifest

        manifest = self._manifests.get(index)
        if manifest is None:
            manifest = JobManifest(
                op=self.op, corpus=CorpusSpec(seed=self.corpus_seed(index),
                                              **self.corpus_kwargs))
            self._manifests[index] = manifest
        return manifest

    def launch(self, run_dir: str, trace_dir: Optional[str]
               ) -> Tuple[ServerProcess, int]:
        raise NotImplementedError

    def client(self, port: int):
        raise NotImplementedError

    def submit(self, client, manifest) -> list:
        raise NotImplementedError

    def counters(self, port: int) -> Dict[str, float]:
        raise NotImplementedError


class ServeSmall(Workload):
    """Tiny ``analyze`` jobs, one connection, a daemon without a
    database: transport and protocol cost dominate."""

    name = "serve-small"
    op = "analyze"
    corpus_kwargs = {"count": 2}

    def corpus_seed(self, index: int) -> int:
        return self.seed * 1_000_003 + index

    def launch(self, run_dir, trace_dir):
        from repro.server import DaemonClient

        server = ServerProcess(["serve", "--port", "0"], "serving on ",
                               trace_dir=trace_dir)
        try:
            line = server.wait_ready()
            port = int(line.split()[2].rsplit(":", 1)[1])
            with DaemonClient(port, timeout=30.0) as probe:
                probe.ping()
        except BaseException:
            server.stop()
            raise
        return server, port

    def client(self, port):
        from repro.server import DaemonClient

        return DaemonClient(port, timeout=60.0)

    def submit(self, client, manifest):
        result = client.submit(manifest)
        if not result.ok:
            raise RuntimeError(f"job {result.state}: {result.error}")
        return result.records

    def counters(self, port):
        from repro.server import DaemonClient

        with DaemonClient(port, timeout=30.0) as probe:
            stats = probe.stats()
        submitted = stats.get("submitted", 0)
        return {"daemon.coalesced_ratio":
                stats.get("coalesced", 0) / submitted if submitted else 0.0,
                "gateway.shard_skew": 0.0}


class GatewayDurable(Workload):
    """``lineage`` jobs from one client through the HTTP gateway to two
    durable workers; a quarter of the jobs repeat an earlier manifest
    that has finished, so the shard's result cache answers them.  (With
    two clients on a 2-CPU host, the three server processes and the
    load generator contend for the CPUs, and p90 spread over a third
    from run to run.)"""

    name = "gateway-durable"
    op = "lineage"
    corpus_kwargs = {"count": 6, "min_size": 24, "max_size": 48}
    #: share of submissions that repeat an earlier manifest, and how far
    #: back at least
    repeat_share = 0.25
    repeat_gap = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._rng = random.Random(f"gateway-durable-{seed}")
        self._seeds: List[int] = []

    def corpus_seed(self, index: int) -> int:
        while len(self._seeds) <= index:
            i = len(self._seeds)
            if i >= self.repeat_gap and \
                    self._rng.random() < self.repeat_share:
                self._seeds.append(
                    self._seeds[self._rng.randrange(i - self.repeat_gap + 1)])
            else:
                self._seeds.append(self.seed * 1_000_003 + i)
        return self._seeds[index]

    def launch(self, run_dir, trace_dir):
        from repro.server.gateway import GatewayClient

        db_dir = os.path.join(run_dir, f"shards-{time.monotonic_ns()}")
        self.db_dir = db_dir
        server = ServerProcess(
            ["cluster", "--workers", "2", "--db-dir", db_dir, "--port", "0"],
            "gateway on ", trace_dir=trace_dir)
        try:
            line = server.wait_ready()
            port = int(line.split()[2].rsplit(":", 1)[1])
            health = GatewayClient(port, timeout=30.0).health()
            if not all(worker.get("healthy")
                       for worker in health.get("workers", [])):
                raise common.BenchError(f"cluster unhealthy: {health}")
        except BaseException:
            server.stop()
            raise
        return server, port

    def client(self, port):
        from repro.server.gateway import GatewayClient

        return GatewayClient(port, timeout=120.0)

    def submit(self, client, manifest):
        result = client.submit(manifest, wait=True)
        if not result.ok:
            raise RuntimeError(f"job {result.state}: {result.error}")
        return result.records

    def counters(self, port):
        from repro.server.gateway import GatewayClient

        stats = GatewayClient(port, timeout=30.0).stats()
        workers = [w for w in stats["workers"].values() if w]
        submitted = [w.get("submitted", 0) for w in workers]
        coalesced = sum(w.get("coalesced", 0) for w in workers)
        return {"daemon.coalesced_ratio":
                coalesced / sum(submitted) if sum(submitted) else 0.0,
                "gateway.shard_skew":
                max(submitted) / min(submitted) if min(submitted) else 0.0}


WORKLOADS = {cls.name: cls for cls in (ServeSmall, GatewayDurable)}


# -- the closed loop ----------------------------------------------------------


def closed_loop(workload: Workload, port: int, first: int, seconds: float,
                min_ops: int, probe: Optional[common.SpeedProbe] = None,
                tracer=None, start: Optional[int] = None
                ) -> Tuple[List[Op], List[tuple], int, int]:
    """Run one closed-loop client from sequence index ``first`` until
    ``seconds`` have passed since ``start`` (default: now) and
    ``min_ops`` completed, with a speed probe after every op.  Returns
    the ops, the probes (``(end_ns, slowness, wall_ns, cpu_ns)``) and
    the window's bounds (``perf_counter_ns``)."""
    ops: List[Op] = []
    probes: List[tuple] = []
    if start is None:
        start = _now()
    stop_at = start + int(seconds * 1e9)
    client = workload.client(port)
    try:
        while _now() < stop_at or len(ops) < min_ops:
            op = Op(first + len(ops))
            manifest = workload.manifest(op.index)
            key = manifest.fingerprint() if tracer is not None else None
            op.start = _now()
            try:
                if tracer is not None:
                    with tracer.root(key):
                        op.records = workload.submit(client, manifest)
                else:
                    op.records = workload.submit(client, manifest)
            except Exception as exc:  # a failed op, counted
                op.error = f"{type(exc).__name__}: {exc}"
            op.end = _now()
            ops.append(op)
            if probe is not None:
                probes.append((_now(), *probe.sample()))
    finally:
        if hasattr(client, "close"):
            client.close()
    return ops, probes, start, ops[-1].end


# -- output checks ------------------------------------------------------------


#: processes that sweep the manifests for the check, side by side
ORACLE_PROCESSES = 2


def reference_records(documents: List[dict]) -> List[list]:
    """Direct in-process sweeps of the manifests (the served ≡
    in-process oracle)."""
    from repro.server import JobManifest
    from repro.service.service import AnalysisService

    answers = []
    for document in documents:
        manifest = JobManifest.from_dict(document)
        service = AnalysisService(workers=1, criterion=manifest.criterion)
        if manifest.op == "analyze":
            answers.append(list(service.analyze_corpus(manifest.corpus)))
        else:
            answers.append(list(service.lineage_audit(
                manifest.corpus,
                queries_per_view=manifest.queries_per_view)))
    return answers


def _oracle_process(documents: List[dict]) -> List[list]:
    """:func:`reference_records` in a child process of this module,
    which is waited for on every path out (``subprocess.run``)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=json.dumps(documents).encode("utf-8"),
        stdout=subprocess.PIPE, env=common.child_env(), cwd=common.ROOT,
        check=True)
    return pickle.loads(done.stdout)


def check_ops(workload: Workload, ops: List[Op]) -> int:
    """Compare every op's records with the in-process sweep; returns
    how many ops failed or answered wrong."""
    wanted = sorted({workload.corpus_seed(op.index): op.index
                     for op in ops if op.error is None}.items())
    documents = [workload.manifest(index).to_dict()
                 for _seed, index in wanted]
    shares = max(1, min(ORACLE_PROCESSES, os.cpu_count() or 1,
                        len(documents)))
    with ThreadPoolExecutor(max_workers=shares) as pool:
        answers = list(pool.map(
            _oracle_process,
            [documents[i::shares] for i in range(shares)]))
    references = {}
    for i, share in enumerate(answers):
        for (seed, _index), records in zip(wanted[i::shares], share):
            references[seed] = records
    bad = 0
    for op in ops:
        if op.error is not None or \
                op.records != references[workload.corpus_seed(op.index)]:
            bad += 1
    return bad


# -- one measured phase -------------------------------------------------------


class Phase:
    """Warm-up and one timed window against a running server."""

    def __init__(self, workload: Workload, server: ServerProcess, port: int,
                 seconds: float, min_ops: int, probe: common.SpeedProbe,
                 tracer=None) -> None:
        warm, _p, _s, _e = closed_loop(workload, port, 0, 0.0, WARMUP_OPS)
        pids = self.pids = server.pids()
        db_dir = getattr(workload, "db_dir", None)
        db_before = common.dir_bytes(db_dir) if db_dir else 0
        common.quiesce()
        sampler = common.CpuSampler(
            lambda: time.process_time() + common.total_cpu_seconds(pids),
            seconds)
        ops, probes, start, end = closed_loop(
            workload, port, len(warm), seconds, min_ops, probe=probe,
            tracer=tracer, start=sampler.start_ns)
        sampler.finish()
        self.ops, self.window = ops, (start, end)
        self.slices = sampler.slices(
            [op.end for op in ops],
            [None if op.error else (op.end - op.start) * 1e-6 for op in ops],
            probes)
        self.rss_mb = common.peak_rss_mb(pids)
        self.db_bytes = (common.dir_bytes(db_dir) - db_before) if db_dir \
            else 0
        self.counters = workload.counters(port) if tracer else {}

    def metrics(self) -> Dict[str, float]:
        return {**common.slice_metrics(self.slices),
                "peak_rss_mb": self.rss_mb,
                "db_bytes_per_op": self.db_bytes / max(1, len(self.ops))}


class Bench:
    """Runs a served workload for ``run.run_workload``."""

    def __init__(self, name: str, seed: int, run_dir: str) -> None:
        # the clients' modules, imported here rather than inside the
        # first timed set-up
        import repro.server.gateway  # noqa: F401

        self.workload = WORKLOADS[name](seed)
        self.run_dir = run_dir
        self.servers: List[ServerProcess] = []

    def setup(self) -> Tuple[Tuple[ServerProcess, int], float]:
        """Launch the server until its health check passes; returns it
        and the CPU its processes used to get there."""
        server, port = self.workload.launch(self.run_dir, None)
        self.servers.append(server)
        return (server, port), common.total_cpu_seconds(server.pids())

    def release(self, target) -> None:
        target[0].stop()
        self.servers.remove(target[0])

    def measure(self, target, seconds: float, min_ops: int,
                probe: common.SpeedProbe) -> Phase:
        server, port = target
        return Phase(self.workload, server, port, seconds, min_ops, probe)

    def traced(self, seconds: float, min_ops: int,
               probe: common.SpeedProbe) -> Phase:
        """A phase against a fresh server whose processes record spans,
        with the layer metrics as ``layer_metrics``."""
        import pbtrace
        import spans

        trace_dir = os.path.join(self.run_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = pbtrace.Tracer()
        pbtrace.install(tracer, side="client")
        try:
            server, port = self.workload.launch(self.run_dir, trace_dir)
            self.servers.append(server)
            phase = Phase(self.workload, server, port, seconds, min_ops,
                          probe, tracer=tracer)
            server.stop()
        finally:
            tracer.enabled = False
        exports = [tracer.export()] + read_exports(trace_dir, phase.pids)
        phase.layer_metrics = spans.analyse(
            exports, phase.window,
            extras={**phase.counters,
                    "trace.ops_per_s": phase.metrics()["ops_per_s"]})
        return phase

    def check(self, phase: Phase) -> int:
        return check_ops(self.workload, phase.ops)

    def corrupt(self, phase: Phase) -> None:
        target = phase.ops[0]
        target.records = list(target.records or [])[:-1]

    def close(self) -> None:
        for server in self.servers:
            server.stop()


def read_exports(trace_dir: str, pids: List[int]) -> List[dict]:
    """The span files the traced servers wrote at exit, one per
    process; a missing one would silently drop a layer's time."""
    exports = []
    for pid in pids:
        path = os.path.join(trace_dir, f"spans-{pid}.json")
        if not os.path.exists(path):
            raise common.BenchError(f"traced server {pid} wrote no spans")
        with open(path, encoding="utf-8") as handle:
            exports.append(json.load(handle))
    return exports


if __name__ == "__main__":
    # the oracle process of check_ops: manifests (JSON) on stdin, their
    # records (pickled) on stdout; the program's own output goes to stderr
    out, sys.stdout = sys.stdout.buffer, sys.stderr
    out.write(pickle.dumps(reference_records(json.load(sys.stdin))))
    out.flush()
