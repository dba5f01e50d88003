"""The long-lived analysis daemon: ``wolves serve``.

:class:`AnalysisDaemon` is an asyncio TCP server speaking the NDJSON
protocol of :mod:`repro.server.protocol`.  Its moving parts:

* **connection handling** — over the shared
  :class:`~repro.server.transport.StreamServer` transport, one reader
  loop per client plus one writer task draining a per-connection outbox
  queue, so record streams from background jobs never interleave
  partially with request/response frames and a slow or vanished client
  never blocks the daemon;
* **the job queue** — submissions become :class:`~repro.server.jobs.
  Computation` entries in a bounded priority queue; an over-limit
  submission is rejected with the typed ``queue_full`` error
  (backpressure), and identical in-flight manifests coalesce onto one
  computation (singleflight) with the records fanned out to every
  attached job;
* **dispatchers** — ``parallel_jobs`` asyncio tasks pop computations
  and run them on a thread-pool executor through
  :class:`~repro.service.service.AnalysisService` (whose own process
  pool provides multi-core scaling when ``service_workers > 1``);
  records are published back into the event loop as they stream out of
  the sweep, so a watching client sees its first record while the sweep
  is still running;
* **cancellation** — per job; the computation's ``cancel_event`` is set
  only when its last live job is cancelled, at which point the sweep
  stops cooperatively at the next shard boundary
  (:class:`~repro.errors.SweepCancelled`), leaving every already-
  persisted record valid;
* **durability** — with ``db_path``, submits and finishes go through
  the :class:`~repro.server.joblog.JobLog` on a dedicated single-thread
  I/O executor: the ``done`` frame is sent only after the job's records
  are committed, so a reconnecting client can always replay them, and a
  daemon killed mid-job re-queues the unfinished work on restart.

Threading model: all daemon state is owned by the event loop.  Executor
threads touch only their computation's ``cancel_event`` (read) and
publish records via ``call_soon_threadsafe``; the job log lives on its
one I/O thread.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    QuarantinedError,
    ReproError,
    ServerError,
    StaleJobLogError,
    SweepCancelled,
    UnknownJobError,
)
from repro.resilience import faults
from repro.resilience.policy import Deadline, Quarantine
from repro.server import protocol
from repro.server.jobs import Computation, Job, JobQueue
from repro.server.joblog import JobLog
from repro.server.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    OP_STORE_AUDIT,
    OP_VALIDATE,
    RUNNING,
    JobManifest,
    decode_frame,
    encode_frame,
    error_frame,
    record_to_wire,
    utc_now,
)
from repro.server.transport import ServerHandle, StreamServer
from repro.service.service import AnalysisService


class _Connection:
    """Per-client context: the outbox its writer task drains and the
    jobs it watches (deregistered on disconnect or when shed)."""

    def __init__(self) -> None:
        self.outbox: "asyncio.Queue[Optional[Dict[str, Any]]]" = \
            asyncio.Queue()
        self.watched: List[Job] = []
        #: set when the daemon dropped this connection's stream
        #: subscriptions because it could not keep up (see
        #: ``AnalysisDaemon.max_outbox``); request/response still works
        self.shed = False

    def send(self, frame: Dict[str, Any]) -> None:
        self.outbox.put_nowait(frame)


class AnalysisDaemon(StreamServer):
    """The serving layer over :class:`AnalysisService`."""

    read_limit = protocol.MAX_FRAME_BYTES

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 db_path: Optional[str] = None,
                 max_queued: int = 32,
                 parallel_jobs: int = 2,
                 service_workers: int = 1,
                 retain_jobs: int = 512,
                 max_outbox: int = 1024,
                 quarantine_strikes: int = 3,
                 quarantine_retry_after: float = 60.0,
                 reaper_interval: float = 0.05,
                 _gate: Optional[threading.Event] = None) -> None:
        if parallel_jobs < 1:
            raise ValueError("parallel_jobs must be >= 1")
        if retain_jobs < 1:
            raise ValueError("retain_jobs must be >= 1")
        if max_outbox < 1:
            raise ValueError("max_outbox must be >= 1")
        super().__init__(host, port)
        self.db_path = db_path
        self.parallel_jobs = parallel_jobs
        self.service_workers = service_workers
        #: how many finished jobs a database-less daemon keeps around
        #: for replay before evicting the oldest (a long-lived daemon
        #: must not grow without bound; with a database the records are
        #: released to the job log instead and replay survives anyway)
        self.retain_jobs = retain_jobs
        #: per-connection outbox bound: a stream subscriber whose outbox
        #: grows past this is shed (graceful degradation) instead of
        #: ballooning daemon memory behind a stalled client
        self.max_outbox = max_outbox
        #: poison-manifest circuit breaker: a fingerprint that breaks
        #: the pool / fails this many times is parked
        self._quarantine = Quarantine(threshold=quarantine_strikes,
                                      retry_after=quarantine_retry_after)
        self.reaper_interval = reaper_interval
        self._queue = JobQueue(max_queued=max_queued)
        #: every job this daemon knows, submission order
        self._jobs: Dict[str, Job] = {}
        self._finished_order: deque = deque()
        #: fingerprint -> queued/running computation (the singleflight
        #: window; entries leave on finish or full cancellation)
        self._inflight: Dict[str, Computation] = {}
        self._running: List[Computation] = []
        self._dispatch_seq = 0
        self._executor = ThreadPoolExecutor(
            max_workers=parallel_jobs,
            thread_name_prefix="wolves-compute")
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="wolves-joblog")
        self._joblog: Optional[JobLog] = None
        self._dispatchers: List[asyncio.Task] = []
        self._cond: Optional[asyncio.Condition] = None
        #: test hook: when set, computations wait for this event before
        #: computing (still honouring cancellation), which makes queue /
        #: cancellation tests deterministic
        self._gate = _gate
        self._reaper_task: Optional[asyncio.Task] = None
        #: set once a job-log write reports the lease was taken over
        #: (another daemon owns this shard database now); this daemon
        #: keeps serving from memory but stops persisting
        self._log_fenced = False
        self.stats = {"submitted": 0, "computations": 0, "coalesced": 0,
                      "done": 0, "failed": 0, "cancelled": 0,
                      "resumed": 0, "timed_out": 0, "shed": 0,
                      "quarantined": 0, "fenced": 0}
        self._started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, resume the durable job log, start the
        dispatchers.  ``port=0`` picks a free port (read it back from
        :attr:`port`)."""
        self._loop = asyncio.get_running_loop()
        self._cond = asyncio.Condition()
        self._started_at = time.monotonic()
        if self.db_path is not None:
            self._joblog = await self._io_call(JobLog, self.db_path)
            await self._resume()
        await self._listen()
        self._dispatchers = [
            self._loop.create_task(self._dispatch_loop())
            for _ in range(self.parallel_jobs)]
        self._reaper_task = self._loop.create_task(self._reaper_loop())

    def _admit(self) -> bool:
        try:
            faults.fire("daemon.accept")
        except (ReproError, ConnectionError, OSError):
            return False  # injected: the client sees a dropped dial
        return True

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, cancel dispatchers, let
        running sweeps stop at their next shard, close the job log.
        Unfinished jobs stay ``queued``/``running`` in the log and are
        resumed by the next daemon on this database."""
        await self._stop_listening()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            await asyncio.gather(self._reaper_task,
                                 return_exceptions=True)
            self._reaper_task = None
        for computation in list(self._running):
            computation.cancel_event.set()
        async with self._cond:
            self._cond.notify_all()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self._joblog is not None:
            await self._io_call(self._joblog.close)
            self._joblog = None
        self._io.shutdown(wait=True)
        # close live client connections last: blocked clients get EOF
        await self._close_connections()

    def run(self, on_ready=None) -> None:
        """Blocking entry point (the ``wolves serve`` body): serve until
        SIGINT/SIGTERM."""
        asyncio.run(self._run_async(on_ready))

    async def _run_async(self, on_ready) -> None:
        await self.start()
        try:
            if on_ready is not None:
                on_ready(self)
            stop_event = asyncio.Event()
            loop = asyncio.get_running_loop()
            try:
                import signal

                loop.add_signal_handler(signal.SIGINT, stop_event.set)
                loop.add_signal_handler(signal.SIGTERM, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # no signal handlers here: Ctrl-C still works
            await stop_event.wait()
        finally:
            await self.stop()

    async def _io_call(self, fn, *args):
        """Run a job-log operation on the single I/O thread (the log's
        SQLite connection is bound to it)."""
        return await self._loop.run_in_executor(self._io, fn, *args)

    async def _log_safe(self, method: str, *args) -> None:
        """A job-log write that tolerates losing the ownership lease.

        When another daemon takes over this shard's database (the
        cluster supervisor restarted a worker the old process outlived),
        the first fenced write flips :attr:`_log_fenced`: this daemon
        keeps answering its connected clients from memory — the records
        are deterministic, so they match what the new owner recomputes —
        but never writes to the log again.  Durable truth belongs to
        the new owner.
        """
        if self._joblog is None or self._log_fenced:
            return
        try:
            await self._io_call(getattr(self._joblog, method), *args)
        except StaleJobLogError:
            self._log_fenced = True
            self.stats["fenced"] = 1

    async def _resume(self) -> None:
        """Re-queue accepted-but-unfinished jobs from the log; register
        finished ones for replay."""
        for logged in await self._io_call(self._joblog.load_jobs):
            job = Job(logged.manifest, job_id=logged.job_id)
            job.submitted_at = logged.submitted_at
            self._jobs[job.job_id] = job
            if logged.finished:
                job.state = logged.state
                job.error = logged.error
                job.finished_at = logged.finished_at
                job.records_in_log = logged.state == DONE
                job.records_total = logged.records
                continue
            self.stats["resumed"] += 1
            self._enqueue(job, force=True)

    # -- the deadline reaper -----------------------------------------------

    async def _reaper_loop(self) -> None:
        """Fail jobs whose deadline expired with the typed timeout; when
        that was the computation's last live job, the sweep is told to
        stop at its next shard boundary."""
        while True:
            await asyncio.sleep(self.reaper_interval)
            for job in list(self._jobs.values()):
                if job.finished or job.deadline is None \
                        or not job.deadline.expired():
                    continue
                await self._expire_job(job)

    async def _expire_job(self, job: Job) -> None:
        job.state = FAILED
        job.error = (f"JobTimeoutError: deadline of "
                     f"{job.manifest.deadline_s}s exceeded")
        job.finished_at = utc_now()
        self.stats["timed_out"] += 1
        self._notify_done(job)
        self._retain(job)
        computation = job.computation
        if computation is not None and computation.cancelled:
            computation.cancel_event.set()
            self._drop_inflight(computation)
        await self._log_safe("record_state", job.job_id, FAILED,
                             job.error)

    # -- submission and the queue ------------------------------------------

    def _enqueue(self, job: Job, force: bool = False) -> bool:
        """Queue ``job``'s work, coalescing onto an in-flight identical
        computation; returns whether it coalesced.  ``force`` bypasses
        backpressure (resume: the jobs were already accepted once)."""
        fingerprint = job.manifest.fingerprint()
        computation = self._inflight.get(fingerprint)
        if computation is not None:
            before = computation.priority
            computation.attach(job)
            job.computation = computation
            job.state = computation.live_template().state
            if computation.priority < before and not computation.popped:
                self._queue.reprioritize(computation)
            self.stats["coalesced"] += 1
            return True
        computation = Computation(job.manifest, job)
        if force:
            self._queue.reprioritize(computation)  # unbounded push
        else:
            self._queue.put(computation)  # may raise QueueFullError
        job.computation = computation
        self._inflight[fingerprint] = computation
        self.stats["computations"] += 1
        return False

    async def _handle_submit(self, frame: Dict[str, Any],
                             conn: _Connection) -> None:
        manifest = JobManifest.from_dict(frame.get("manifest"))
        reason = self._quarantine.reason(manifest.fingerprint())
        if reason is not None:
            # circuit breaker: this manifest keeps killing workers —
            # park the request instead of re-breaking the pool
            self.stats["quarantined"] += 1
            raise QuarantinedError(
                f"manifest is quarantined: {reason}",
                retry_after=self._quarantine.retry_after)
        job = Job(manifest)
        coalesced = self._enqueue(job)  # QueueFullError -> error frame
        self._jobs[job.job_id] = job
        self.stats["submitted"] += 1
        await self._log_safe("record_submit", job.job_id, manifest)
        async with self._cond:
            self._cond.notify_all()
        conn.send({"type": "accepted", "job": job.job_id,
                   "state": job.state, "coalesced": coalesced})
        if frame.get("stream", True):
            self._watch(job, conn)

    def _watch(self, job: Job, conn: _Connection) -> None:
        """Replay what already streamed, then follow live (one
        synchronous block: no record can slip between replay and
        registration)."""
        for seq, record in enumerate(job.records):
            conn.send(self._record_frame(job, seq, record_to_wire(record)))
        if job.finished:
            conn.send(self._done_frame(job))
        else:
            job.watchers.append(conn)
            conn.watched.append(job)

    # -- frames about existing jobs ----------------------------------------

    def _job(self, frame: Dict[str, Any]) -> Job:
        job_id = frame.get("job")
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    async def _handle_attach(self, frame: Dict[str, Any],
                             conn: _Connection) -> None:
        job = self._job(frame)
        if job.finished and job.records_in_log and not job.records:
            # the records live in the durable log (finished under an
            # earlier daemon, or released by the retention policy):
            # stream them through without re-caching in memory
            records = await self._io_call(self._joblog.load_records,
                                          job.job_id)
            for seq, record in enumerate(records):
                conn.send(self._record_frame(job, seq,
                                             record_to_wire(record)))
            conn.send(self._done_frame(job))
            return
        self._watch(job, conn)

    async def _handle_cancel(self, frame: Dict[str, Any],
                             conn: _Connection) -> None:
        job = self._job(frame)
        if not job.finished:
            job.state = CANCELLED
            job.finished_at = utc_now()
            self.stats["cancelled"] += 1
            self._notify_done(job)
            self._retain(job)
            computation = job.computation
            if computation is not None and computation.cancelled:
                # last live job gone: stop the sweep at the next shard
                computation.cancel_event.set()
                self._drop_inflight(computation)
            await self._log_safe("record_state", job.job_id, CANCELLED,
                                 None)
        conn.send({"type": "cancelled", "job": job.job_id,
                   "state": job.state})

    # -- dispatch and execution --------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            async with self._cond:
                computation = self._queue.pop()
                while computation is None:
                    if self._stopping:
                        return
                    await self._cond.wait()
                    computation = self._queue.pop()
            await self._run_computation(computation)

    def _drop_inflight(self, computation: Computation) -> None:
        """Remove the singleflight entry only if it is still ours — a
        cancelled-then-resubmitted fingerprint may already map to a
        *newer* queued computation that must keep coalescing."""
        if self._inflight.get(computation.fingerprint) is computation:
            self._inflight.pop(computation.fingerprint)

    async def _run_computation(self, computation: Computation) -> None:
        live = computation.live_jobs()
        if not live:
            self._drop_inflight(computation)
            return
        self._running.append(computation)
        self._dispatch_seq += 1
        for job in live:
            if job.finished:
                continue  # finalized while an earlier job was persisted
            job.state = RUNNING
            job.started_seq = self._dispatch_seq
            await self._log_safe("record_state", job.job_id, RUNNING,
                                 None)
        try:
            outcome, error, strikes = await self._loop.run_in_executor(
                self._executor, self._execute, computation)
        except Exception as exc:  # backstop: executor bug, not job code
            outcome, error, strikes = FAILED, repr(exc), 1
        finally:
            self._running.remove(computation)
            self._drop_inflight(computation)
        timed_out = error is not None \
            and error.startswith("JobTimeoutError")
        if outcome == FAILED and not timed_out:
            # a missed deadline is the submitter's budget, not evidence
            # the manifest is poisonous — no quarantine strike for it
            strikes += 1
        if strikes:
            self._quarantine.record_strike(
                computation.fingerprint, strikes,
                reason=error or "pool-breaking worker crashes")
        if outcome == CANCELLED:
            return  # each job was finalized by its cancel/expiry frame
        records = computation.live_template().records
        for job in computation.live_jobs():
            if job.finished:
                continue  # cancelled or timed out while we persisted
            job.state = outcome
            job.error = error
            job.finished_at = utc_now()
            if timed_out:
                self.stats["timed_out"] += 1
            # records + terminal state in ONE transaction, before the
            # done frame: a client that saw "done" can replay
            await self._log_safe("record_finish", job.job_id, outcome,
                                 records, error)
            self._notify_done(job)
            self._retain(job)
        self.stats["done" if outcome == DONE else "failed"] += 1

    def _retain(self, job: Job) -> None:
        """Memory bound for a long-lived daemon: a finished job's
        records are released to the durable log when there is one
        (replay reloads them on attach), otherwise the job counts
        against the in-memory retention window and the oldest finished
        jobs are evicted once it overflows."""
        if self._joblog is not None and not self._log_fenced:
            if job.state == DONE:
                job.records_total = len(job.records)
                job.records = []
                job.records_in_log = True
            return
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > self.retain_jobs:
            evicted = self._jobs.get(self._finished_order.popleft())
            if evicted is not None and evicted.finished:
                del self._jobs[evicted.job_id]

    def _execute(self, computation: Computation):
        """Runs on the compute executor; publishes records into the
        loop as the sweep streams them.  Returns ``(outcome, error,
        strikes)`` — strikes are the quarantine's evidence (pool breaks
        this computation caused)."""
        cancel = computation.cancel_event
        if self._gate is not None:
            while not self._gate.wait(timeout=0.02):
                if cancel.is_set():
                    return CANCELLED, None, 0
        deadlines = [job.deadline for job in computation.live_jobs()
                     if job.deadline is not None]
        deadline = min(deadlines, key=lambda d: d.expires_at) \
            if deadlines else None
        service = None
        try:
            records, service = self._record_stream(
                computation.manifest, cancel, deadline)
            try:
                for record in records:
                    if cancel.is_set():
                        return CANCELLED, None, self._strikes(service)
                    self._loop.call_soon_threadsafe(
                        self._publish, computation, record)
            finally:
                if hasattr(records, "close"):
                    records.close()
        except SweepCancelled:
            return CANCELLED, None, self._strikes(service)
        except DeadlineExceeded as exc:
            # the sweep hit the job deadline at a shard boundary before
            # the reaper's tick did — same typed terminal error either
            # way, so clients see one timeout shape
            return (FAILED, f"JobTimeoutError: {exc}",
                    self._strikes(service))
        except ReproError as exc:
            return (FAILED, f"{type(exc).__name__}: {exc}",
                    self._strikes(service))
        return DONE, None, self._strikes(service)

    @staticmethod
    def _strikes(service: Optional[AnalysisService]) -> int:
        """Pool breaks this sweep caused — each one killed a worker
        process, which is exactly the evidence quarantine counts."""
        if service is None or service.last_report is None:
            return 0
        return service.last_report.pool_breaks

    def _record_stream(self, manifest: JobManifest,
                       cancel: threading.Event,
                       deadline: Optional[Deadline] = None):
        if manifest.op == OP_VALIDATE:
            return iter([self._validate_record(manifest)]), None
        if manifest.op == OP_STORE_AUDIT:
            return self._store_audit_records(manifest, deadline), None
        service = AnalysisService(workers=self.service_workers,
                                  criterion=manifest.criterion,
                                  db_path=self.db_path)
        if manifest.op == "analyze":
            return service.analyze_corpus(
                manifest.corpus, should_stop=cancel.is_set,
                deadline=deadline), service
        if manifest.op == "correct":
            return service.correct_corpus(
                manifest.corpus, should_stop=cancel.is_set,
                deadline=deadline), service
        return service.lineage_audit(
            manifest.corpus, queries_per_view=manifest.queries_per_view,
            should_stop=cancel.is_set, deadline=deadline), service

    @staticmethod
    def _store_audit_records(manifest: JobManifest,
                             deadline: Optional[Deadline]):
        """Streaming generator for ``store_audit`` jobs: one
        :class:`~repro.service.results.StoreLineageRecord` per audited
        (run, task) pair, answered from the cold durable store — opened
        read-only and never hydrated, so a multi-thousand-run store
        streams with bounded memory.  Cancellation is handled by the
        caller between yields; the deadline is checked per item."""
        from repro.persistence.store import DurableProvenanceStore
        from repro.provenance.facade import LineageQueryEngine
        from repro.service.results import StoreLineageRecord

        def records():
            store = DurableProvenanceStore(manifest.db_path,
                                           readonly=True)
            try:
                engine = LineageQueryEngine(store=store)
                sql = store.sql_queries()
                wanted = None if manifest.tasks is None else \
                    {str(task) for task in manifest.tasks}
                for run_id in store.cold_run_ids():
                    for task_id in sql.run_task_ids(run_id):
                        if wanted is not None \
                                and str(task_id) not in wanted:
                            continue
                        if deadline is not None:
                            deadline.check()
                        answer = engine.lineage_tasks(task_id,
                                                      run_id=run_id)
                        yield StoreLineageRecord(
                            db_path=manifest.db_path, run_id=run_id,
                            task_id=task_id,
                            tasks=tuple(sorted(answer.tasks, key=str)),
                            source=answer.source)
            finally:
                store.close()

        return records()

    @staticmethod
    def _validate_record(manifest: JobManifest):
        from repro.system.session import WolvesSession
        from repro.workflow.jsonio import spec_from_dict, view_from_dict

        spec = spec_from_dict(manifest.spec_document)
        view = view_from_dict(manifest.view_document, spec)
        return WolvesSession(spec, view).analysis_record()

    # -- publishing --------------------------------------------------------

    def _publish(self, computation: Computation, record) -> None:
        """Event-loop side of streaming: append the record to every
        live attached job and push a frame to its watchers — shedding
        any watcher whose outbox the client is not draining."""
        wire = record_to_wire(record)
        for job in computation.live_jobs():
            seq = len(job.records)
            job.records.append(record)
            for conn in list(job.watchers):
                self._stream_to(conn, self._record_frame(job, seq, wire))

    def _stream_to(self, conn: _Connection,
                   frame: Dict[str, Any]) -> None:
        """Push a stream frame, unless the connection's outbox is past
        the bound — then shed the subscriber instead of ballooning."""
        if conn.outbox.qsize() >= self.max_outbox:
            self._shed(conn)
            return
        conn.send(frame)

    def _shed(self, conn: _Connection) -> None:
        """Graceful degradation for a client that stopped draining: drop
        every stream subscription (records stay replayable via attach)
        and tell the client once, past the bound, why."""
        if conn.shed:
            return
        conn.shed = True
        self.stats["shed"] += 1
        for job in conn.watched:
            if conn in job.watchers:
                job.watchers.remove(conn)
        conn.watched.clear()
        conn.send({"type": "error", "code": "overloaded",
                   "message": "stream subscriber shed: outbox exceeded "
                              f"{self.max_outbox} frames; re-attach to "
                              "replay", "retry_after": 1.0})

    @staticmethod
    def _record_frame(job: Job, seq: int,
                      wire: Dict[str, str]) -> Dict[str, Any]:
        return {"type": "record", "job": job.job_id, "seq": seq,
                "record": wire}

    @staticmethod
    def _done_frame(job: Job) -> Dict[str, Any]:
        return {"type": "done", "job": job.job_id, "state": job.state,
                "records": job.record_count, "error": job.error}

    def _notify_done(self, job: Job) -> None:
        for conn in job.watchers:
            conn.send(self._done_frame(job))
            if job in conn.watched:
                conn.watched.remove(job)
        job.watchers.clear()

    # -- the connection loop -----------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One client.  Any failure here — bad frames, a vanished peer —
        ends this connection only; the daemon keeps serving."""
        conn = _Connection()
        drain_task = self._loop.create_task(self._drain(conn, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError,
                        asyncio.IncompleteReadError):
                    break  # peer vanished or frame exceeded the limit
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                    await self._dispatch_frame(frame, conn)
                except ServerError as exc:
                    conn.send(error_frame(exc))
                except ReproError as exc:
                    # e.g. a persistence error under an injected BUSY
                    # storm: fail the request, keep the connection
                    conn.send({"type": "error", "code": "server_error",
                               "message": f"{type(exc).__name__}: {exc}"})
        finally:
            for job in conn.watched:
                if conn in job.watchers:
                    job.watchers.remove(conn)
            conn.outbox.put_nowait(None)
            await drain_task

    async def _drain(self, conn: _Connection,
                     writer: asyncio.StreamWriter) -> None:
        while True:
            frame = await conn.outbox.get()
            if frame is None:
                return
            data = encode_frame(frame)
            try:
                faults.fire("daemon.send")
            except InjectedFault as exc:
                if exc.action == "torn":
                    # half a frame, then sever: the client's reader sees
                    # a torn NDJSON line and must fail typed, not hang
                    writer.write(data[: max(1, len(data) // 2)])
                writer.close()  # torn: the connection dies here
                return
            except (ConnectionError, OSError):
                # an injected "drop" (vanished peer): close so the
                # client sees EOF instead of waiting on a dead drain
                writer.close()
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                return  # reader loop notices the dead peer and cleans up

    async def _dispatch_frame(self, frame: Dict[str, Any],
                              conn: _Connection) -> None:
        kind = frame["type"]
        if kind == "ping":
            conn.send({"type": "pong",
                       "protocol": protocol.PROTOCOL_VERSION})
        elif kind == "submit":
            await self._handle_submit(frame, conn)
        elif kind == "attach":
            await self._handle_attach(frame, conn)
        elif kind == "cancel":
            await self._handle_cancel(frame, conn)
        elif kind == "jobs":
            conn.send({"type": "jobs",
                       "jobs": [job.describe()
                                for job in self._jobs.values()]})
        elif kind == "stats":
            conn.send({"type": "stats",
                       "protocol": protocol.PROTOCOL_VERSION,
                       "queued": len(self._queue),
                       "running": len(self._running),
                       "parked": len(self._quarantine.parked),
                       "uptime_s": (time.monotonic() - self._started_at
                                    if self._started_at is not None
                                    else 0.0),
                       **self.stats})
        else:
            raise ServerError(f"unknown frame type {kind!r}",
                              code="bad_frame")


# -- the in-process harness ---------------------------------------------------


def start_in_thread(**kwargs) -> ServerHandle:
    """Start an :class:`AnalysisDaemon` on a fresh background event
    loop; returns once the socket is bound (``handle.port`` is real)."""
    return ServerHandle(AnalysisDaemon(**kwargs), name="wolves-daemon")
