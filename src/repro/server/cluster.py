"""The cluster layer: N daemon workers, one shard each, one supervisor.

The scaling story (the LogBase-style split applied per shard): every
worker is a stock :class:`~repro.server.daemon.AnalysisDaemon` that owns
**one** shard database — a single sequential writer per SQLite file —
and the gateway routes every submission by the *manifest fingerprint*,
so identical computations always land on the same worker and PR 5's
singleflight coalescing keeps firing unchanged.  Read traffic never
touches the writers: the gateway answers it from read-only WAL replica
connections (:func:`repro.persistence.db.open_replica`).

Three pieces live here:

* :func:`shard_of` — the routing function.  Pure and minimal on
  purpose: the shard depends on nothing but ``(fingerprint,
  num_shards)``, never on ports, health, or worker generations, so a
  restarted worker (new port, same shard) keeps every live job's
  routing stable and re-attaching clients land where their job lives.
* :class:`ClusterMap` — the shared, mutable answer to "where is shard
  *k* right now": host/port endpoint, health flag, and a generation
  counter bumped on every restart.  The supervisor writes it, the
  gateway reads it; a lock keeps the two honest.
* :class:`ClusterSupervisor` — spawns the workers (in-process daemon
  threads for tests/benchmarks, or real ``wolves serve`` subprocesses
  for the CLI and the kill-a-worker soaks), starts the gateway over
  them, and — in process mode — watches for dead workers and restarts
  them on their shard database, where the daemon's resume path
  re-queues unfinished jobs and the job-log ownership lease
  (:mod:`repro.server.joblog`) fences any zombie predecessor.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServerError

#: filename pattern of shard ``k``'s database inside the cluster's
#: database directory
SHARD_DB_PATTERN = "shard-%02d.db"


def shard_of(fingerprint: str, num_shards: int) -> int:
    """Which shard a manifest fingerprint routes to.

    The fingerprint is a sha256 hex digest (uniform by construction),
    so taking its leading 64 bits modulo the shard count spreads
    distinct computations evenly while keeping equal fingerprints on
    one worker — the property singleflight coalescing and the
    one-writer-per-shard discipline both ride on.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return int(fingerprint[:16], 16) % num_shards


def shard_db_path(db_dir: str, shard: int) -> str:
    return os.path.join(db_dir, SHARD_DB_PATTERN % shard)


@dataclass
class WorkerEndpoint:
    """Where one shard's worker listens right now."""

    shard: int
    host: str
    port: int
    healthy: bool = True
    #: bumped by the supervisor on every restart of this shard
    generation: int = 0


class ClusterMap:
    """Thread-safe shard -> endpoint table (supervisor writes, gateway
    reads)."""

    def __init__(self, endpoints: Sequence[WorkerEndpoint]) -> None:
        if not endpoints:
            raise ValueError("a cluster needs at least one worker")
        self._lock = threading.Lock()
        self._endpoints: Dict[int, WorkerEndpoint] = {}
        for endpoint in endpoints:
            if endpoint.shard in self._endpoints:
                raise ValueError(f"duplicate shard {endpoint.shard}")
            self._endpoints[endpoint.shard] = endpoint
        if sorted(self._endpoints) != list(range(len(self._endpoints))):
            raise ValueError("shards must be 0..N-1, one worker each")

    @property
    def num_shards(self) -> int:
        return len(self._endpoints)

    def endpoint(self, shard: int) -> WorkerEndpoint:
        """A snapshot copy (the caller can't race the supervisor)."""
        with self._lock:
            entry = self._endpoints.get(shard)
            if entry is None:
                raise ServerError(f"unknown shard {shard}",
                                  code="unknown_shard")
            return WorkerEndpoint(**vars(entry))

    def endpoints(self) -> List[WorkerEndpoint]:
        with self._lock:
            return [WorkerEndpoint(**vars(entry))
                    for _shard, entry in sorted(self._endpoints.items())]

    def replace(self, shard: int, host: str, port: int) -> None:
        """A restarted worker took over the shard (new port, healthy,
        next generation)."""
        with self._lock:
            entry = self._endpoints[shard]
            entry.host = host
            entry.port = port
            entry.healthy = True
            entry.generation += 1

    def mark_down(self, shard: int) -> None:
        with self._lock:
            self._endpoints[shard].healthy = False

    def mark_up(self, shard: int) -> None:
        with self._lock:
            self._endpoints[shard].healthy = True


# -- workers ------------------------------------------------------------------


class _Worker:
    """One shard's daemon, either as an in-process background thread
    (fast, coverage-visible) or a real ``wolves serve`` subprocess
    (SIGKILL-able, multi-core)."""

    def __init__(self, shard: int, mode: str,
                 db_path: Optional[str]) -> None:
        self.shard = shard
        self.mode = mode
        self.db_path = db_path
        self.handle = None  # thread mode: ServerHandle
        self.proc = None  # process mode: DaemonProcess

    @property
    def port(self) -> int:
        if self.mode == "thread":
            return self.handle.port
        return self.proc.port

    def alive(self) -> bool:
        if self.mode == "thread":
            return self.handle is not None
        return self.proc is not None and self.proc.alive()

    def kill(self) -> None:
        """SIGKILL (process mode only) — the soak tests' weapon."""
        if self.mode != "process":
            raise ServerError("thread-mode workers cannot be killed",
                              code="bad_request")
        self.proc.kill()

    def stop(self) -> None:
        if self.mode == "thread":
            if self.handle is not None:
                self.handle.stop()
                self.handle = None
        elif self.proc is not None:
            self.proc.terminate()


class ClusterSupervisor:
    """Spawn N workers + the gateway; supervise, restart, drain, stop.

    ``mode="thread"`` runs each worker as an in-process daemon on its
    own event-loop thread (:func:`repro.server.daemon.start_in_thread`)
    — the harness the differential tests and quota/auth tests use,
    where worker code runs under coverage.  ``mode="process"`` spawns
    real ``wolves serve`` subprocesses and a supervision thread that
    restarts any dead worker on its shard database (resume + lease
    fencing give exactly-once streams across SIGKILL).
    """

    def __init__(self, workers: int = 2, *, mode: str = "thread",
                 db_dir: Optional[str] = None,
                 host: str = "127.0.0.1",
                 gateway_port: int = 0,
                 tokens: Optional[Dict[str, str]] = None,
                 quota_inflight: Optional[int] = 8,
                 restart: bool = True,
                 poll_interval: float = 0.2,
                 worker_args: Sequence[str] = (),
                 worker_env: Optional[Dict[str, str]] = None,
                 daemon_kwargs: Optional[Dict[str, Any]] = None,
                 gateway_kwargs: Optional[Dict[str, Any]] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError("mode must be 'thread' or 'process'")
        if mode == "process" and db_dir is None:
            raise ValueError(
                "process mode needs db_dir: restart-with-resume (the "
                "exactly-once story) requires durable shard job logs")
        self.workers = workers
        self.mode = mode
        self.db_dir = db_dir
        self.host = host
        self.gateway_port = gateway_port
        self.tokens = tokens
        self.quota_inflight = quota_inflight
        self.restart = restart
        self.poll_interval = poll_interval
        self.worker_args = list(worker_args)
        self.worker_env = worker_env
        self.daemon_kwargs = dict(daemon_kwargs or {})
        self.gateway_kwargs = dict(gateway_kwargs or {})

    def _shard_db(self, shard: int) -> Optional[str]:
        if self.db_dir is None:
            return None
        return shard_db_path(self.db_dir, shard)

    def _spawn(self, shard: int) -> _Worker:
        worker = _Worker(shard, self.mode, self._shard_db(shard))
        if self.mode == "thread":
            from repro.server.daemon import start_in_thread

            worker.handle = start_in_thread(
                host=self.host, port=0, db_path=worker.db_path,
                **self.daemon_kwargs)
        else:
            # lazy import: repro.resilience.chaos imports repro.server
            # modules, so a module-level import here would be circular
            from repro.resilience.chaos import DaemonProcess

            worker.proc = DaemonProcess(
                ["--host", self.host, "--db", worker.db_path,
                 *self.worker_args],
                env=self.worker_env)
            worker.proc.wait_ready()
        return worker

    def start(self) -> "ClusterHandle":
        from repro.server.gateway import start_gateway_in_thread

        if self.db_dir is not None:
            os.makedirs(self.db_dir, exist_ok=True)
        workers: List[_Worker] = []
        try:
            for shard in range(self.workers):
                workers.append(self._spawn(shard))
        except BaseException:
            for worker in workers:
                worker.stop()
            raise
        cluster_map = ClusterMap([
            WorkerEndpoint(shard=worker.shard, host=self.host,
                           port=worker.port)
            for worker in workers])
        shard_dbs = [worker.db_path for worker in workers]
        gateway = start_gateway_in_thread(
            cluster_map, host=self.host, port=self.gateway_port,
            tokens=self.tokens, quota_inflight=self.quota_inflight,
            shard_dbs=(None if self.db_dir is None else shard_dbs),
            **self.gateway_kwargs)
        return ClusterHandle(self, workers, cluster_map, gateway)


class ClusterHandle:
    """A running cluster: the gateway endpoint, the workers, the
    supervision thread, and the test hooks (:meth:`kill_worker`)."""

    def __init__(self, supervisor: ClusterSupervisor,
                 workers: List[_Worker], cluster_map: ClusterMap,
                 gateway) -> None:
        self.supervisor = supervisor
        self.workers = workers
        self.map = cluster_map
        self.gateway = gateway
        self.stats = {"restarts": 0}
        self._stopped = False
        self._stop_event = threading.Event()
        self._supervise_thread: Optional[threading.Thread] = None
        if supervisor.mode == "process" and supervisor.restart:
            self._supervise_thread = threading.Thread(
                target=self._supervise, name="wolves-cluster-supervise",
                daemon=True)
            self._supervise_thread.start()

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        """The gateway's HTTP port."""
        return self.gateway.port

    # -- supervision -------------------------------------------------------

    def _supervise(self) -> None:
        """Restart dead process workers on their shard database.  The
        daemon's resume re-queues unfinished jobs; the job-log lease
        fences the dead worker if it turns out to be merely wedged."""
        while not self._stop_event.wait(self.supervisor.poll_interval):
            for worker in self.workers:
                if worker.alive() or self._stop_event.is_set():
                    continue
                self.map.mark_down(worker.shard)
                try:
                    worker.proc.terminate()  # reap + close the pipe
                    replacement = self.supervisor._spawn(worker.shard)
                except Exception:  # pragma: no cover - spawn raced stop
                    continue  # stays down; retried next tick
                worker.proc = replacement.proc
                self.map.replace(worker.shard, self.supervisor.host,
                                 worker.port)
                self.stats["restarts"] += 1

    # -- test hooks --------------------------------------------------------

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one worker mid-whatever (the soak tests' move); the
        supervision thread restarts it."""
        self.workers[shard].kill()

    def wait_healthy(self, timeout_s: float = 30.0) -> None:
        """Block until every shard is marked healthy again."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(endpoint.healthy
                   for endpoint in self.map.endpoints()):
                return
            time.sleep(0.05)
        raise TimeoutError("cluster did not return to healthy in "
                           f"{timeout_s}s")

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting new submissions at the gateway (existing jobs
        keep running and their streams keep flowing)."""
        self.gateway.call_soon(setattr, self.gateway.server, "draining",
                               True)

    def stop(self) -> None:
        """Drain, stop the gateway, stop every worker."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_event.set()
        if self._supervise_thread is not None:
            self._supervise_thread.join(timeout=30.0)
        self.gateway.stop()
        for worker in self.workers:
            worker.stop()

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def run_cluster(workers: int, db_dir: str, host: str = "127.0.0.1",
                port: int = 0, tokens: Optional[Dict[str, str]] = None,
                quota_inflight: Optional[int] = 8,
                worker_args: Sequence[str] = (),
                on_ready=None,
                stop_event: Optional[threading.Event] = None) -> int:
    """The blocking ``wolves cluster`` body: spawn, supervise, serve
    until SIGINT/SIGTERM (or ``stop_event``, the test harness's
    substitute for a signal), then drain and stop."""
    supervisor = ClusterSupervisor(
        workers, mode="process", db_dir=db_dir, host=host,
        gateway_port=port, tokens=tokens,
        quota_inflight=quota_inflight, worker_args=worker_args)
    stop = stop_event if stop_event is not None else threading.Event()

    def _on_signal(_signum, _frame):  # pragma: no cover - signal path
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        with supervisor.start() as handle:
            if on_ready is not None:
                on_ready(handle)
            stop.wait()
            handle.drain()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
