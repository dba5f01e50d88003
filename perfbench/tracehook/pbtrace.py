"""Span recorder for the benchmark's traced runs.

The program has no tracing of its own yet, so the traced run wraps the
public functions each layer exposes, from outside: every wrapper is
installed on the module attribute the *caller* looks the function up
by (``repro.persistence.store.label_provenance``,
``repro.service.worker.correct_view``, ...), which is the only binding
that call sites resolve at call time.

A span is ``[name, start_ns, end_ns, key, bytes]``.  Times
come from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux, one
clock for every process on the host), so spans recorded by the load
generator, the gateway and the workers line up on one time axis.
``key`` ties a span to the job it served: the manifest fingerprint (or,
in-process, the op id the load generator set); a span whose arguments
do not name a job this process knows inherits the key of the enclosing
span through a context variable, which follows both threads and
asyncio tasks.

Spans stay in memory and are written out once, at process exit (or by
:meth:`Tracer.dump`), to ``spans-<pid>.json`` in the trace directory.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

ENV_DIR = "PERFBENCH_TRACE_DIR"

_now = time.perf_counter_ns
#: key of the innermost open span in this thread / task
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
#: the result of a call that raised (no sizer or result keyer runs)
_FAILED = object()


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.enabled = True
        self.spans: List[list] = []
        #: count-only events: ``name -> [(key, t_ns), ...]``
        self.events: Dict[str, List[tuple]] = {}
        #: job id -> manifest fingerprint (learned where the daemon
        #: creates the job), resolves frame keys at dump time
        self.jobs: Dict[str, str] = {}
        self._dumped = False

    # -- recording ---------------------------------------------------------

    def event(self, name: str, key: Any = None) -> None:
        if not self.enabled:
            return
        if key is None:
            key = _current.get()
        self.events.setdefault(name, []).append((key, _now()))

    def _open(self, name: str, keyer: Optional[Callable], args: tuple,
              kwargs: dict) -> tuple:
        inherited = _current.get()
        key = keyer(args, kwargs) if keyer is not None else None
        span = [name, _now(), 0, inherited if key is None else key, 0,
                inherited]
        return span, _current.set(span[3])

    def _close(self, span: list, token, args: tuple, result: Any,
               result_keyer: Optional[Callable],
               sizer: Optional[Callable]) -> None:
        span[2] = _now()
        _current.reset(token)
        self.spans.append(span)
        if sizer is not None and result is not _FAILED:
            span[4] = sizer(args, result)
        if result_keyer is not None and result is not _FAILED:
            derived = result_keyer(result)
            if derived is not None:
                span[3] = derived

    def wrap(self, fn: Callable, name: str,
             keyer: Optional[Callable] = None,
             result_keyer: Optional[Callable] = None,
             sizer: Optional[Callable] = None) -> Callable:
        """A sync wrapper recording one span per call.  ``keyer(args,
        kwargs)`` names the call's job; ``result_keyer(result)`` does so
        from the return value; otherwise the enclosing span's key.
        ``sizer(args, result)`` gives the bytes the call handled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span, token = tracer._open(name, keyer, args, kwargs)
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, token, args, result, result_keyer,
                              sizer)

        return traced

    def wrap_async(self, fn: Callable, name: str,
                   keyer: Optional[Callable] = None,
                   result_keyer: Optional[Callable] = None) -> Callable:
        """The coroutine-function form of :meth:`wrap`: the span runs
        from the first step to completion, awaits included."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            span, token = tracer._open(name, keyer, args, kwargs)
            result = _FAILED
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, token, args, result, result_keyer, None)

        return traced

    def root(self, key: str):
        """Context manager for the load generator's own op span."""
        return _Root(self, key)

    # -- output ------------------------------------------------------------

    def _resolve(self, key: Any) -> Optional[str]:
        if key is None or isinstance(key, str):
            return key
        kind, value = key
        if kind == "job":
            return self.jobs.get(value)
        if kind == "manifest":
            from repro.server.protocol import JobManifest

            try:
                if not isinstance(value, JobManifest):
                    value = JobManifest.from_dict(value)
                return value.fingerprint()
            except Exception:  # a malformed manifest names no job
                return None
        return None

    def export(self) -> Dict[str, Any]:
        """Spans (``[name, start_ns, end_ns, key, bytes]``) with resolved
        keys, plus events."""
        spans = [[name, start, end,
                  self._resolve(key) or self._resolve(inherited), size]
                 for name, start, end, key, size, inherited in self.spans]
        events = {name: [[self._resolve(key), t] for key, t in entries]
                  for name, entries in self.events.items()}
        return {"pid": os.getpid(), "spans": spans, "events": events}

    def dump(self) -> None:
        if self._dumped or self.out_dir is None:
            return
        self._dumped = True
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)
        os.replace(path + ".tmp", path)


class _Root:
    def __init__(self, tracer: Tracer, key: str) -> None:
        self.tracer = tracer
        self.key = key

    def __enter__(self):
        self.span = ["op", _now(), 0, self.key, 0, None]
        self.token = _current.set(self.key)
        return self.span

    def __exit__(self, *_exc) -> None:
        self.span[2] = _now()
        _current.reset(self.token)
        if self.tracer.enabled:
            self.tracer.spans.append(self.span)


# -- key extractors -----------------------------------------------------------


def _frame_key(frame: Any) -> Any:
    if not isinstance(frame, dict):
        return None
    if frame.get("type") == "submit" and "manifest" in frame:
        return ("manifest", frame["manifest"])
    job = frame.get("job")
    return ("job", job) if job is not None else None


def _arg(position: int, attr: Optional[str] = None):
    def keyer(args, kwargs):
        if len(args) <= position:
            return None
        value = args[position]
        return getattr(value, attr, None) if attr else value
    return keyer


# -- installation -------------------------------------------------------------


def _patch(obj: Any, attr: str, wrapper: Callable) -> None:
    """Replace ``obj.attr`` by ``wrapper(original)``; installing again
    (a new tracer in the same process) re-wraps the original."""
    original = getattr(obj, attr)
    original = getattr(original, "__perfbench_wrapped__", original)
    patched = wrapper(original)
    patched.__perfbench_wrapped__ = original
    setattr(obj, attr, patched)


def install(tracer: Tracer, side: str) -> None:
    """Wrap every traced function.  ``side`` is ``"server"`` in daemon
    and gateway processes and ``"client"`` in the load generator (whose
    protocol calls are the client half of each frame exchange)."""
    from repro.core import incremental
    from repro.graphs import labeling, reachability
    from repro.persistence import cache, catalog, db
    from repro.persistence import store as pstore
    from repro.provenance import facade
    from repro.provenance import index as pindex
    from repro.server import client, daemon, gateway, jobs, joblog
    from repro.service import service, worker

    w, wa = tracer.wrap, tracer.wrap_async

    # protocol: frame codec and record codec, wherever they are called
    codec = (daemon, gateway) if side == "server" else (client,)
    for module in codec:
        _patch(module, "encode_frame", lambda fn: w(
            fn, "protocol.encode", keyer=lambda a, k: _frame_key(a[0]),
            sizer=lambda a, r: len(r)))
        _patch(module, "decode_frame", lambda fn: w(
            fn, "protocol.decode", result_keyer=_frame_key,
            sizer=lambda a, r: len(a[0])))
    _patch(daemon, "record_to_wire",
           lambda fn: w(fn, "protocol.record_to_wire"))
    for module in (client, gateway):
        _patch(module, "record_from_wire",
               lambda fn: w(fn, "protocol.record_from_wire"))

    # daemon: admission, queue, compute, publishing, completion
    Daemon = daemon.AnalysisDaemon
    _patch(Daemon, "_handle_submit", lambda fn: wa(
        fn, "daemon.admitted",
        keyer=lambda a, k: _frame_key(a[1]) if len(a) > 1 else None))

    def enqueue(fn):
        def keyed(self, job, *args, **kwargs):
            coalesced = fn(self, job, *args, **kwargs)
            if job.computation is not None:
                tracer.jobs[job.job_id] = job.computation.fingerprint
            if coalesced:
                tracer.event("daemon.coalesced",
                             job.computation.fingerprint)
            return coalesced
        return keyed
    _patch(Daemon, "_enqueue", enqueue)

    def put(fn):
        def traced(self, computation, *args, **kwargs):
            result = fn(self, computation, *args, **kwargs)
            tracer.event("daemon.queued", computation.fingerprint)
            return result
        return traced

    def pop(fn):
        def traced(self, *args, **kwargs):
            computation = fn(self, *args, **kwargs)
            if computation is not None:
                tracer.event("daemon.dispatched", computation.fingerprint)
            return computation
        return traced
    _patch(jobs.JobQueue, "put", put)
    _patch(jobs.JobQueue, "pop", pop)
    _patch(Daemon, "_execute", lambda fn: w(
        fn, "daemon.compute", keyer=_arg(1, "fingerprint")))
    _patch(Daemon, "_publish", lambda fn: w(
        fn, "daemon.publish", keyer=_arg(1, "fingerprint")))
    _patch(Daemon, "_notify_done", lambda fn: w(
        fn, "daemon.done",
        keyer=lambda a, k: ("job", a[1].job_id) if len(a) > 1 else None))

    # gateway: the HTTP submit and its forward to the shard's worker
    Gateway = gateway.ClusterGateway
    _patch(Gateway, "_handle_submit", lambda fn: wa(
        fn, "gateway.received",
        result_keyer=lambda r: r.get("fingerprint")
        if isinstance(r, dict) else None))
    _patch(Gateway, "_submit_to_shard", lambda fn: wa(
        fn, "gateway.dispatched",
        keyer=lambda a, k: ("manifest", a[2]) if len(a) > 2 else None))

    # joblog: every durable write of the job lifecycle
    names = {"record_submit": "joblog.admitted",
             "record_state": "joblog.state",
             "record_finish": "joblog.persisted"}
    for method, span_name in names.items():
        _patch(joblog.JobLog, method, lambda fn, n=span_name: w(
            fn, n, keyer=lambda a, k: ("job", a[1]) if len(a) > 1
            else None))

    # service, core, provenance, graphs
    _patch(service, "run_shard", lambda fn: w(fn, "service.run_shard"))
    _patch(worker, "materialize_entry",
           lambda fn: w(fn, "repository.materialize"))
    _patch(incremental.AnalysisCache, "validate",
           lambda fn: w(fn, "core.validate"))
    _patch(worker, "correct_view", lambda fn: w(fn, "core.correct"))
    _patch(worker, "execute", lambda fn: w(fn, "provenance.execute"))
    _patch(worker, "run_lineage_comparisons",
           lambda fn: w(fn, "provenance.compare"))
    _patch(facade.LineageQueryEngine, "lineage_tasks",
           lambda fn: w(fn, "provenance.sql_query"))
    for module in (reachability, labeling, pindex):
        _patch(module, "closure_masks", lambda fn: w(fn, "graphs.closure"))
    _patch(pstore, "label_provenance", lambda fn: w(fn, "graphs.label"))

    # persistence: the durable store, catalog folds, result cache, commits
    _patch(pstore.DurableProvenanceStore, "add_run",
           lambda fn: w(fn, "persistence.add_run"))
    for fold in ("apply_run", "apply_job_finish"):
        _patch(catalog, fold, lambda fn: w(fn, "persistence.catalog"))
    _patch(cache.AnalysisResultCache, "put_many",
           lambda fn: w(fn, "persistence.cache_put"))

    def lookup(fn):
        def traced(*args, **kwargs):
            found = fn(*args, **kwargs)
            tracer.event("persistence.cache_lookup")
            if found:
                tracer.event("persistence.cache_hit")
            return found
        return traced
    for method in ("get", "get_memo"):
        _patch(cache.AnalysisResultCache, method, lookup)

    def begin(fn):
        def traced(*args, **kwargs):
            tracer.event("persistence.commit")
            return fn(*args, **kwargs)
        return traced
    _patch(db, "_begin_immediate", begin)


def install_from_env() -> Optional[Tracer]:
    """The ``sitecustomize`` entry point of traced server processes."""
    out_dir = os.environ.get(ENV_DIR)
    if not out_dir:
        return None
    tracer = Tracer(out_dir)
    install(tracer, side="server")
    atexit.register(tracer.dump)
    return tracer
