"""The cluster's front door: an HTTP/JSON gateway over the NDJSON
protocol.

:class:`ClusterGateway` is a stdlib-asyncio HTTP/1.1 server that any
HTTP client can talk to (``curl`` works); behind it, N stock
:class:`~repro.server.daemon.AnalysisDaemon` workers each own one shard
database.  What the gateway adds on the way through:

* **auth** — bearer tokens (``Authorization: Bearer <token>``) mapped
  to client names; a missing or unknown token is the typed 401;
* **quotas** — a per-client in-flight job bound; an over-quota
  submission is the typed 429 with a ``Retry-After`` hint;
* **request ids** — every response carries a gateway-assigned
  ``X-Request-Id`` (and the same id in the JSON body), so a client and
  the gateway's counters can talk about the same request;
* **shard routing** — submissions go to
  ``shard_of(manifest.fingerprint(), N)``
  (:func:`repro.server.cluster.shard_of`): equal computations always
  land on the same worker, so singleflight coalescing keeps firing and
  each shard database keeps exactly one writer;
* **deadline propagation** — a request's ``deadline_s`` arms a
  :class:`~repro.resilience.policy.Deadline` at the gateway hop and is
  stamped into the forwarded manifest, so the worker's reaper enforces
  the same budget the gateway is counting down;
* **health + re-route** — a background loop pings every worker; a
  worker that stops answering takes strikes on a
  :class:`~repro.resilience.policy.Quarantine` and is marked down in
  the shared :class:`~repro.server.cluster.ClusterMap`.  Requests to a
  down shard retry under a jittered
  :class:`~repro.resilience.policy.RetryPolicy` envelope until the
  supervisor's replacement worker appears (same shard, new port) — a
  submission that lost its worker **mid-stream** re-attaches to the
  restarted worker and rebuilds the record stream from its replay, so
  the HTTP client still receives exactly one complete stream;
* **replica reads** — ``/v1/replica/*`` answers from read-only WAL
  connections to the shard databases
  (:func:`repro.persistence.db.open_replica`), never from the writers.

Record payloads are relayed verbatim in their wire form (class name +
base64 pickle, see :mod:`repro.server.protocol`) — the gateway never
unpickles, so the trust boundary stays exactly where PR 5 put it.

Endpoints::

    GET  /healthz                 worker map + draining flag (no auth)
    GET  /v1/stats                gateway counters + per-worker stats
    POST /v1/jobs                 submit {"manifest": {...}, "wait": b,
                                          "deadline_s": s}
    GET  /v1/jobs                 merged job listing (all shards)
    GET  /v1/jobs/<id>            one job's listing entry
    GET  /v1/jobs/<id>/records    replay/follow the record stream
    POST /v1/jobs/<id>/cancel     cooperative cancel
    GET  /v1/replica/jobs         durable job rows via replica reads
    GET  /v1/replica/stats        per-shard durable state counts
    GET  /v1/report/views         per-view verdict summaries, merged
    GET  /v1/report/regressions   views whose verdict worsened
                                  (``?since=<iso-utc>``)
    GET  /v1/report/search        FTS/LIKE search (``?q=<query>``)
    GET  /v1/report/latency       per-op latency percentiles
    GET  /v1/report/census        per-scenario analysis census

The ``/v1/report/*`` family answers from the shard replicas' analysis
catalog (:mod:`repro.persistence.catalog`) — indexed scans on read-only
connections, merged across shards, zero worker traffic.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import random
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlencode

from repro.errors import (
    JobTimeoutError,
    ManifestError,
    QuotaExceededError,
    ReproError,
    ServerError,
    UnauthorizedError,
    UnknownJobError,
    WorkerUnavailableError,
)
from repro.resilience.policy import Deadline, Quarantine, RetryPolicy
from repro.server import protocol
from repro.server.cluster import ClusterMap, shard_of
from repro.server.protocol import (
    TERMINAL_STATES,
    JobManifest,
    decode_frame,
    encode_frame,
    raise_error_frame,
    record_from_wire,
)
from repro.server.transport import ServerHandle, StreamServer

#: HTTP status for each typed error code the gateway can answer with
STATUS_BY_CODE = {
    "unauthorized": 401,
    "bad_manifest": 400,
    "bad_frame": 400,
    "bad_request": 400,
    "unknown_job": 404,
    "unknown_shard": 404,
    "not_found": 404,
    "quota_exceeded": 429,
    "queue_full": 429,
    "quarantined": 503,
    "worker_unavailable": 503,
    "draining": 503,
    "timeout": 504,
}

REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
           404: "Not Found", 405: "Method Not Allowed",
           429: "Too Many Requests", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable",
           504: "Gateway Timeout"}

#: largest request head/body the gateway will read
MAX_REQUEST_BYTES = protocol.MAX_FRAME_BYTES

#: how long a request's head and body together may take to arrive; a
#: peer that sends half a request (slowloris) is disconnected after this
REQUEST_READ_TIMEOUT_S = 30.0

#: the connect-retry envelope while a shard's worker restarts: jittered
#: exponential backoff, budget-bounded by ``worker_wait_s``
WORKER_RETRY = RetryPolicy(max_attempts=64, base_delay=0.05,
                           max_delay=0.5,
                           retryable=(ConnectionError, OSError))

#: how much longer than a job's own deadline a waited submit keeps its
#: socket open — covers gateway scheduling + the response's travel time
CLIENT_WAIT_GRACE_S = 5.0


@dataclass
class _Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    request_id: str = ""
    params: Dict[str, List[str]] = field(default_factory=dict)

    def param(self, name: str, default: Optional[str] = None
              ) -> Optional[str]:
        values = self.params.get(name)
        return values[0] if values else default

    def json(self) -> Dict[str, Any]:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServerError(f"undecodable JSON body: {exc}",
                              code="bad_request") from exc
        if not isinstance(payload, dict):
            raise ServerError("request body must be a JSON object",
                              code="bad_request")
        return payload


class ClusterGateway(StreamServer):
    """The HTTP/JSON front door over a :class:`ClusterMap` of workers."""

    read_limit = MAX_REQUEST_BYTES

    def __init__(self, cluster_map: ClusterMap,
                 host: str = "127.0.0.1", port: int = 0, *,
                 tokens: Optional[Dict[str, str]] = None,
                 quota_inflight: Optional[int] = 8,
                 shard_dbs: Optional[List[Optional[str]]] = None,
                 default_deadline_s: Optional[float] = None,
                 worker_wait_s: float = 15.0,
                 worker_timeout: float = 30.0,
                 health_interval: float = 0.5,
                 health_timeout: float = 1.0,
                 quarantine_strikes: int = 3,
                 quarantine_retry_after: float = 2.0) -> None:
        super().__init__(host, port)
        self.map = cluster_map
        #: token -> client name; ``None`` disables auth (every request
        #: is the ``anonymous`` client — the single-user dev setup)
        self.tokens = dict(tokens) if tokens is not None else None
        self.quota_inflight = quota_inflight
        self.shard_dbs = list(shard_dbs) if shard_dbs else None
        self.default_deadline_s = default_deadline_s
        #: how long a request waits for a down worker to come back
        #: (the supervisor's restart window) before the typed 503
        self.worker_wait_s = worker_wait_s
        #: request/response timeout on a healthy worker link
        self.worker_timeout = worker_timeout
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        #: worker-health circuit breaker, keyed by shard
        self._quarantine = Quarantine(threshold=quarantine_strikes,
                                      retry_after=quarantine_retry_after)
        self.draining = False
        #: job id -> shard (the gateway's routing memory for attach /
        #: cancel / records requests about accepted jobs)
        self._job_shards: Dict[str, int] = {}
        #: client name -> job ids not yet known to be terminal (quota)
        self._client_jobs: Dict[str, set] = {}
        self.stats = {"requests": 0, "submitted": 0, "completed": 0,
                      "records_relayed": 0, "rerouted": 0,
                      "resubmitted": 0, "unauthorized": 0,
                      "quota_rejected": 0, "worker_retries": 0,
                      "health_probes": 0, "health_failures": 0,
                      "errors": 0}
        self._health_task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and serve; ``port=0`` picks a free port (read it back
        from :attr:`port`)."""
        await self._listen()
        self._health_task = self._loop.create_task(self._health_loop())

    async def stop(self) -> None:
        await self._stop_listening()
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task, return_exceptions=True)
            self._health_task = None
        await self._close_connections()

    # -- worker health -----------------------------------------------------

    async def _health_loop(self) -> None:
        """Ping every worker; strikes park a shard (marked down in the
        map), a successful probe brings it back."""
        while True:
            await asyncio.sleep(self.health_interval)
            for endpoint in self.map.endpoints():
                await self._probe(endpoint.shard, endpoint.host,
                                  endpoint.port)

    async def _probe(self, shard: int, host: str, port: int) -> None:
        self.stats["health_probes"] += 1
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port,
                                        limit=protocol.MAX_FRAME_BYTES),
                timeout=self.health_timeout)
            try:
                writer.write(encode_frame({"type": "ping"}))
                await writer.drain()
                frame = await asyncio.wait_for(
                    reader.readline(), timeout=self.health_timeout)
                if not frame:
                    raise ConnectionError("EOF from worker")
            finally:
                writer.close()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self.stats["health_failures"] += 1
            self._strike(shard, "health probe failed")
            return
        self._mark_worker_up(shard)

    def _strike(self, shard: int, reason: str) -> None:
        self._quarantine.record_strike(str(shard), 1, reason=reason)
        if self._quarantine.is_quarantined(str(shard)):
            self.map.mark_down(shard)

    def _mark_worker_up(self, shard: int) -> None:
        self._quarantine.release(str(shard))
        self.map.mark_up(shard)

    # -- worker links ------------------------------------------------------

    async def _worker_connect(
            self, shard: int, deadline: Optional[Deadline]
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Connect to the shard's current worker, riding out a restart:
        jittered backoff under :data:`WORKER_RETRY`, bounded by
        ``worker_wait_s`` (and the request deadline, whichever is
        tighter)."""
        wait_s = self.worker_wait_s
        if deadline is not None:
            wait_s = min(wait_s, max(0.0, deadline.remaining()))
        budget = Deadline.after(wait_s, label=f"shard {shard} connect")
        rng = random.Random()
        attempt = 0
        last: Optional[BaseException] = None
        while True:
            if deadline is not None and deadline.expired():
                raise JobTimeoutError(
                    f"deadline exceeded while shard {shard}'s worker "
                    f"was unavailable")
            endpoint = self.map.endpoint(shard)
            if endpoint.healthy:
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(
                            endpoint.host, endpoint.port,
                            limit=protocol.MAX_FRAME_BYTES),
                        timeout=max(0.1, min(self.worker_timeout,
                                             budget.remaining())))
                    self._mark_worker_up(shard)
                    return reader, writer
                except (ConnectionError, OSError,
                        asyncio.TimeoutError) as exc:
                    last = exc
                    self._strike(shard, f"connect failed: {exc}")
            if budget.expired():
                break
            self.stats["worker_retries"] += 1
            delay = rng.uniform(0.0, WORKER_RETRY.delay_cap(attempt))
            attempt += 1
            await asyncio.sleep(
                min(max(delay, 0.01), max(0.0, budget.remaining())))
        raise WorkerUnavailableError(
            f"shard {shard}'s worker stayed unreachable for "
            f"{wait_s:.1f}s" + (f" (last error: {last})" if last else ""),
            retry_after=self._quarantine.retry_after)

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader,
                          timeout: Optional[float]) -> Dict[str, Any]:
        """One worker frame; typed raise on error frames, Connection
        error on EOF."""
        if timeout is not None:
            line = await asyncio.wait_for(reader.readline(), timeout)
        else:
            line = await reader.readline()
        if not line:  # pragma: no cover - worker died mid-frame
            raise ConnectionError("worker closed the connection")
        frame = decode_frame(line)
        if frame.get("type") == "error":
            raise_error_frame(frame)
        return frame

    async def _worker_request(self, shard: int, frame: Dict[str, Any],
                              expect: str,
                              deadline: Optional[Deadline] = None
                              ) -> Dict[str, Any]:
        """One request/response roundtrip on a fresh worker link."""
        reader, writer = await self._worker_connect(shard, deadline)
        try:
            writer.write(encode_frame(frame))
            await writer.drain()
            response = await self._read_frame(reader,
                                              self.worker_timeout)
        finally:
            writer.close()
        if response.get("type") != expect:  # pragma: no cover
            raise ServerError(
                f"expected a {expect!r} frame from shard {shard}, got "
                f"{response.get('type')!r}", code="bad_frame")
        return response

    async def _submit_to_shard(self, shard: int, manifest: JobManifest,
                               wait: bool,
                               deadline: Optional[Deadline]
                               ) -> Dict[str, Any]:
        """Submit to the shard's worker; with ``wait``, follow the
        record stream to the terminal frame — **across worker death**:
        a link lost mid-stream re-attaches to the restarted worker and
        rebuilds the stream from its replay (the daemon's resume +
        atomic finish guarantee the replay is the one true stream)."""
        job_id: Optional[str] = None
        accepted: Optional[Dict[str, Any]] = None
        while True:
            if deadline is not None and deadline.expired():
                raise JobTimeoutError(
                    "deadline exceeded while following "
                    f"{job_id or 'the submission'}")
            records: Dict[int, Dict[str, str]] = {}
            reader, writer = await self._worker_connect(shard, deadline)
            try:
                if job_id is None:
                    writer.write(encode_frame(
                        {"type": "submit",
                         "manifest": manifest.to_dict(),
                         "stream": bool(wait)}))
                    await writer.drain()
                    accepted = await self._read_frame(
                        reader, self.worker_timeout)
                    if accepted.get("type") != "accepted":  # pragma: no cover
                        raise ServerError(
                            "expected an 'accepted' frame, got "
                            f"{accepted.get('type')!r}",
                            code="bad_frame")
                    job_id = accepted["job"]
                    if not wait:
                        return {"job": job_id,
                                "state": accepted["state"],
                                "coalesced": accepted["coalesced"],
                                "records": None, "error": None}
                else:  # pragma: no cover - exercised by the process-
                    # mode soak (tests/test_server_soak.py), invisible
                    # to in-process coverage: the worker died mid-
                    # stream and (by lease + resume) its replacement
                    # owns the job now — re-attach and rebuild
                    self.stats["rerouted"] += 1
                    writer.write(encode_frame(
                        {"type": "attach", "job": job_id}))
                    await writer.drain()
                try:
                    done = await self._follow(reader, job_id, records,
                                              deadline)
                except UnknownJobError:  # pragma: no cover - process-
                    # mode only: a database-less worker restarted, the
                    # job is gone with its memory — resubmit fresh
                    self.stats["resubmitted"] += 1
                    job_id = None
                    continue
                self.stats["records_relayed"] += len(records)
                stream = [records[seq] for seq in sorted(records)]
                if sorted(records) != list(range(len(records))):  # pragma: no cover
                    raise ServerError(
                        f"record stream for {job_id} has gaps",
                        code="bad_frame")
                return {"job": job_id, "state": done["state"],
                        "coalesced": bool(accepted
                                          and accepted.get("coalesced")),
                        "records": stream, "error": done.get("error")}
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:  # pragma: no cover
                # worker lost mid-request (SIGKILL soak territory):
                # strike it and loop — the supervisor's replacement
                # will pick the job back up
                self._strike(shard, f"link lost: {exc}")
            finally:
                writer.close()

    async def _follow(self, reader: asyncio.StreamReader, job_id: str,
                      records: Dict[int, Dict[str, str]],
                      deadline: Optional[Deadline]) -> Dict[str, Any]:
        """Collect record frames (wire form, never unpickled) until the
        job's terminal frame."""
        while True:
            timeout = None
            if deadline is not None:
                # the worker's reaper enforces the deadline; this is
                # the backstop for a worker that hangs past it
                timeout = max(0.1, deadline.remaining()) + 5.0
            frame = await self._read_frame(reader, timeout)
            kind = frame.get("type")
            if kind == "record" and frame.get("job") == job_id:
                records[frame["seq"]] = frame["record"]
            elif kind == "done" and frame.get("job") == job_id:
                return frame
            else:  # pragma: no cover - byzantine worker frame
                raise ServerError(
                    f"unexpected {kind!r} frame while following "
                    f"{job_id}", code="bad_frame")

    # -- auth and quotas ---------------------------------------------------

    def _client(self, request: _Request) -> str:
        if self.tokens is None:
            return "anonymous"
        header = request.headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            self.stats["unauthorized"] += 1
            raise UnauthorizedError(
                "missing bearer token (Authorization: Bearer <token>)")
        client = self.tokens.get(token.strip())
        if client is None:
            self.stats["unauthorized"] += 1
            raise UnauthorizedError("unknown bearer token")
        return client

    async def _check_quota(self, client: str) -> None:
        if self.quota_inflight is None:
            return
        jobs = self._client_jobs.setdefault(client, set())
        if len(jobs) < self.quota_inflight:
            return
        await self._refresh_client_jobs(client)
        if len(jobs) >= self.quota_inflight:
            self.stats["quota_rejected"] += 1
            raise QuotaExceededError(
                f"client {client!r} has {len(jobs)} job(s) in flight "
                f"(quota {self.quota_inflight})", retry_after=1.0)

    async def _refresh_client_jobs(self, client: str) -> None:
        """Drop terminal jobs from the client's in-flight set (a
        ``wait=false`` submitter never tells us its job finished — the
        workers' listings do)."""
        jobs = self._client_jobs.get(client, set())
        shards = {self._job_shards[job_id] for job_id in jobs
                  if job_id in self._job_shards}
        terminal = set()
        for shard in shards:
            try:
                listing = await self._worker_request(
                    shard, {"type": "jobs"}, expect="jobs")
            except (ServerError, ReproError):  # pragma: no cover
                continue  # a down worker keeps its jobs counted
            for entry in listing.get("jobs", ()):
                if entry.get("job") in jobs \
                        and entry.get("state") in TERMINAL_STATES:
                    terminal.add(entry["job"])
        jobs -= terminal

    def _job_done(self, client: str, job_id: str) -> None:
        self.stats["completed"] += 1
        self._client_jobs.get(client, set()).discard(job_id)

    # -- request handlers --------------------------------------------------

    async def _handle_submit(self, request: _Request,
                             client: str) -> Dict[str, Any]:
        if self.draining:
            raise ServerError("gateway is draining: no new submissions",
                              code="draining")
        body = request.json()
        manifest = JobManifest.from_dict(body.get("manifest"))
        wait = bool(body.get("wait", True))
        deadline_s = body.get("deadline_s", self.default_deadline_s)
        deadline = None
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) \
                    or isinstance(deadline_s, bool) or deadline_s <= 0:
                raise ServerError("deadline_s must be a positive number",
                                  code="bad_request")
            # armed here AND stamped into the manifest: the gateway
            # hop and the worker's reaper count down the same budget
            deadline = Deadline.after(float(deadline_s),
                                      label="gateway submit")
            manifest = dataclasses.replace(manifest,
                                           deadline_s=float(deadline_s))
        await self._check_quota(client)
        fingerprint = manifest.fingerprint()
        shard = shard_of(fingerprint, self.map.num_shards)
        result = await self._submit_to_shard(shard, manifest, wait,
                                             deadline)
        job_id = result["job"]
        self.stats["submitted"] += 1
        self._job_shards[job_id] = shard
        self._client_jobs.setdefault(client, set()).add(job_id)
        if wait:
            self._job_done(client, job_id)
        return {"job": job_id, "state": result["state"],
                "shard": shard, "fingerprint": fingerprint,
                "coalesced": result["coalesced"],
                "client": client, "error": result["error"],
                "records": result["records"]}

    async def _find_shard(self, job_id: str) -> int:
        """The routing memory, with a discovery fallback: a job this
        gateway never saw (it was accepted before a gateway restart and
        resumed from a shard's durable log) is located by asking the
        workers, then cached."""
        shard = self._job_shards.get(job_id)
        if shard is not None:
            return shard
        for endpoint in self.map.endpoints():
            try:
                listing = await self._worker_request(
                    endpoint.shard, {"type": "jobs"}, expect="jobs")
            except (ServerError, ReproError):
                continue
            if any(entry.get("job") == job_id
                   for entry in listing.get("jobs", ())):
                self._job_shards[job_id] = endpoint.shard
                return endpoint.shard
        raise UnknownJobError(f"no worker knows job {job_id!r}")

    async def _handle_records(self, job_id: str,
                              client: str) -> Dict[str, Any]:
        """Replay (or follow to completion) one job's record stream."""
        shard = await self._find_shard(job_id)
        records: Dict[int, Dict[str, str]] = {}
        while True:
            reader, writer = await self._worker_connect(shard, None)
            try:
                writer.write(encode_frame({"type": "attach",
                                           "job": job_id}))
                await writer.drain()
                done = await self._follow(reader, job_id, records, None)
                break
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:  # pragma: no cover
                # replay interrupted by a worker death — soak-tested
                records.clear()
                self._strike(shard, f"link lost: {exc}")
                self.stats["rerouted"] += 1
            finally:
                writer.close()
        self.stats["records_relayed"] += len(records)
        self._job_done(client, job_id)
        return {"job": job_id, "state": done["state"],
                "shard": shard, "error": done.get("error"),
                "records": [records[seq] for seq in sorted(records)]}

    async def _handle_cancel(self, job_id: str,
                             client: str) -> Dict[str, Any]:
        shard = await self._find_shard(job_id)
        response = await self._worker_request(
            shard, {"type": "cancel", "job": job_id},
            expect="cancelled")
        self._job_done(client, job_id)
        return {"job": job_id, "state": response["state"],
                "shard": shard}

    async def _handle_job(self, job_id: str) -> Dict[str, Any]:
        shard = await self._find_shard(job_id)
        listing = await self._worker_request(shard, {"type": "jobs"},
                                             expect="jobs")
        for entry in listing.get("jobs", ()):
            if entry.get("job") == job_id:
                return {**entry, "shard": shard}
        raise UnknownJobError(  # pragma: no cover - db-less restart
            f"job {job_id!r} is routed to shard {shard} but its worker "
            f"does not know it")

    async def _handle_jobs(self) -> Dict[str, Any]:
        merged: List[Dict[str, Any]] = []
        for endpoint in self.map.endpoints():
            try:
                listing = await self._worker_request(
                    endpoint.shard, {"type": "jobs"}, expect="jobs")
            except (ServerError, ReproError):
                continue  # a down shard's jobs surface after restart
            merged.extend({**entry, "shard": endpoint.shard}
                          for entry in listing.get("jobs", ()))
        return {"jobs": merged}

    async def _handle_stats(self) -> Dict[str, Any]:
        workers: Dict[str, Optional[Dict[str, Any]]] = {}
        for endpoint in self.map.endpoints():
            try:
                frame = await self._worker_request(
                    endpoint.shard, {"type": "stats"}, expect="stats")
                frame.pop("type", None)
                workers[str(endpoint.shard)] = frame
            except (ServerError, ReproError):
                workers[str(endpoint.shard)] = None
        shards: Dict[str, Optional[Dict[str, Any]]] = {}
        for shard, frame in workers.items():
            if frame is None:
                shards[shard] = None
                continue
            submitted = frame.get("submitted", 0)
            uptime_s = frame.get("uptime_s") or 0.0
            shards[shard] = {
                "queue_depth": frame.get("queued", 0),
                "running": frame.get("running", 0),
                "coalesce_hit_rate": (frame.get("coalesced", 0)
                                      / submitted if submitted else 0.0),
                "jobs_per_s": (frame.get("done", 0) / uptime_s
                               if uptime_s > 0 else 0.0),
            }
        return {"gateway": {**self.stats, "draining": self.draining,
                            "num_shards": self.map.num_shards,
                            "quota_inflight": self.quota_inflight},
                "workers": workers, "shards": shards}

    def _healthz(self) -> Dict[str, Any]:
        return {"draining": self.draining,
                "workers": [{"shard": e.shard, "host": e.host,
                             "port": e.port, "healthy": e.healthy,
                             "generation": e.generation}
                            for e in self.map.endpoints()]}

    # -- replica reads -----------------------------------------------------

    def _replica_dbs(self) -> List[Tuple[int, str]]:
        if not self.shard_dbs:
            raise ServerError(
                "this cluster has no durable shards (no replica reads)",
                code="not_found")
        return [(shard, db)
                for shard, db in enumerate(self.shard_dbs)
                if db is not None and os.path.exists(db)]

    async def _replica_read(self, read):
        """Run one replica read off-loop; a corrupt or vanished shard
        database surfaces as the typed 500, never as a raw sqlite
        exception tearing down the connection handler."""
        import sqlite3

        from repro.errors import PersistenceError

        def guarded():
            try:
                return read()
            except sqlite3.Error as exc:
                raise PersistenceError(
                    f"replica read failed: {exc}") from exc

        return await self._loop.run_in_executor(None, guarded)

    async def _handle_replica_jobs(self) -> Dict[str, Any]:
        """The durable truth, read shard by shard over read-only WAL
        replica connections — the writers are never touched."""
        from repro.server.joblog import inspect_job_log

        dbs = self._replica_dbs()

        def read() -> List[Dict[str, Any]]:
            rows = []
            for shard, db in dbs:
                for job_id, state, stored in inspect_job_log(db):
                    rows.append({"job": job_id, "state": state,
                                 "records": stored, "shard": shard})
            return rows

        return {"jobs": await self._replica_read(read)}

    async def _handle_replica_stats(self) -> Dict[str, Any]:
        from repro.persistence.db import open_replica

        dbs = self._replica_dbs()

        def read() -> Dict[str, Any]:
            shards = {}
            for shard, db in dbs:
                conn = open_replica(db)
                try:
                    states = dict(conn.execute(
                        "SELECT state, COUNT(*) FROM server_jobs "
                        "GROUP BY state").fetchall())
                    stored = conn.execute(
                        "SELECT COUNT(*) FROM server_job_records"
                    ).fetchone()[0]
                finally:
                    conn.close()
                shards[str(shard)] = {"jobs": states,
                                      "records": stored}
            return shards

        return {"shards": await self._replica_read(read)}

    async def _handle_report(self, kind: str,
                             request: _Request) -> Dict[str, Any]:
        """``/v1/report/*``: the analysis catalog, aggregated across
        every shard replica — indexed scans on read-only connections,
        no run hydration, no worker traffic."""
        from repro.persistence import catalog as _catalog
        from repro.persistence.db import open_replica

        if kind not in ("views", "regressions", "search", "latency",
                        "census"):
            raise ServerError(f"no report named {kind!r}",
                              code="not_found")
        since = request.param("since")
        query = request.param("q")
        try:
            limit = int(request.param("limit", "50"))
        except ValueError as exc:
            raise ServerError("limit must be an integer",
                              code="bad_request") from exc
        if kind == "search" and not query:
            raise ServerError("search needs ?q=<query>",
                              code="bad_request")
        dbs = self._replica_dbs()

        def ask(cat: "_catalog.AnalysisCatalog") -> Any:
            if kind == "views":
                return cat.views(limit)
            if kind == "regressions":
                return cat.regressions(since, limit)
            if kind == "search":
                return cat.search(query, limit)
            if kind == "latency":
                return cat.latency_buckets()
            return cat.census()

        def read() -> Dict[str, Any]:
            per_shard = []
            for shard, db in dbs:
                conn = open_replica(db)
                try:
                    per_shard.append(
                        (shard, ask(_catalog.AnalysisCatalog(conn))))
                finally:
                    conn.close()
            if kind in ("views", "regressions"):
                merged = _catalog.merge_views(
                    rows for _shard, rows in per_shard)
                return {"report": kind, "rows": merged[:limit]}
            if kind == "search":
                hits, seen = [], set()
                for shard, rows in per_shard:
                    for row in rows:
                        key = (row["key"], row["kind"])
                        if key not in seen:
                            seen.add(key)
                            hits.append({**row, "shard": shard})
                return {"report": kind, "rows": hits[:limit]}
            if kind == "latency":
                buckets = [bucket for _shard, rows in per_shard
                           for bucket in rows]
                return {"report": kind,
                        "ops": _catalog.percentiles_from_buckets(
                            buckets)}
            return {"report": kind,
                    "census": _catalog.merge_census(
                        census for _shard, census in per_shard)}

        return await self._replica_read(read)

    # -- HTTP plumbing -----------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        while not self._stopping:
            request = await self._read_request(reader)
            if request is None:
                return
            keep_alive = await self._respond(request, writer)
            if not keep_alive:
                return

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[_Request]:
        """The next request, or ``None`` to close the connection: EOF, a
        malformed head, or a head and body that took longer than
        :data:`REQUEST_READ_TIMEOUT_S` to arrive."""
        deadline = self._loop.time() + REQUEST_READ_TIMEOUT_S
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          REQUEST_READ_TIMEOUT_S)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError, OSError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                return None
            if n < 0 or n > MAX_REQUEST_BYTES:
                return None
            try:
                body = await asyncio.wait_for(reader.readexactly(n),
                                              deadline - self._loop.time())
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ConnectionError, OSError):
                return None
        return _Request(method=method.upper(), path=path,
                        headers=headers, body=body)

    async def _respond(self, request: _Request,
                       writer: asyncio.StreamWriter) -> bool:
        request.request_id = f"req-{uuid.uuid4().hex[:12]}"
        self.stats["requests"] += 1
        retry_after = None
        try:
            status, payload = 200, await self._route(request)
        except ServerError as exc:
            self.stats["errors"] += 1
            status = STATUS_BY_CODE.get(exc.code, 502)
            retry_after = getattr(exc, "retry_after", None)
            payload = {"type": "error", "code": exc.code,
                       "message": str(exc)}
            if retry_after is not None:
                payload["retry_after"] = retry_after
        except ReproError as exc:
            self.stats["errors"] += 1
            status = 500
            payload = {"type": "error", "code": "server_error",
                       "message": f"{type(exc).__name__}: {exc}"}
        payload.setdefault("request_id", request.request_id)
        keep_alive = request.headers.get(
            "connection", "keep-alive").lower() != "close"
        body = json.dumps(payload, separators=(",", ":"),
                          default=str).encode("utf-8")
        head = [f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                f"X-Request-Id: {request.request_id}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        if retry_after is not None:
            # the header is whole seconds (RFC 9110) and must never
            # under-shoot the JSON body's float hint, so ceil — a
            # 0.3s hint reads 1 in the header and 0.3 in the body on
            # both transports
            head.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
        try:
            writer.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return keep_alive

    async def _route(self, request: _Request) -> Dict[str, Any]:
        method = request.method
        path, _sep, query = request.path.partition("?")
        request.params = parse_qs(query) if query else {}
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                raise ServerError("method not allowed",
                                  code="bad_request")
            return self._healthz()
        client = self._client(request)
        if path == "/v1/stats" and method == "GET":
            return await self._handle_stats()
        if path == "/v1/jobs":
            if method == "POST":
                return await self._handle_submit(request, client)
            if method == "GET":
                return await self._handle_jobs()
        if path == "/v1/replica/jobs" and method == "GET":
            return await self._handle_replica_jobs()
        if path == "/v1/replica/stats" and method == "GET":
            return await self._handle_replica_stats()
        if path.startswith("/v1/report/") and method == "GET":
            return await self._handle_report(
                path[len("/v1/report/"):], request)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/records") and method == "GET":
                return await self._handle_records(
                    rest[:-len("/records")], client)
            if rest.endswith("/cancel") and method == "POST":
                return await self._handle_cancel(
                    rest[:-len("/cancel")], client)
            if "/" not in rest and method == "GET":
                return await self._handle_job(rest)
        raise ServerError(f"no route for {method} {request.path}",
                          code="not_found")


# -- the in-process harness ---------------------------------------------------


def start_gateway_in_thread(cluster_map: ClusterMap,
                            **kwargs) -> ServerHandle:
    """Start a :class:`ClusterGateway` on a fresh background event
    loop; returns once the socket is bound (``handle.port`` is real)."""
    return ServerHandle(ClusterGateway(cluster_map, **kwargs),
                        name="wolves-gateway")


# -- the blocking client ------------------------------------------------------


@dataclass
class GatewayJobResult:
    """What a gateway submit / records call returns."""

    job_id: str
    state: str
    shard: int
    records: List[Any] = field(default_factory=list)
    error: Optional[str] = None
    coalesced: bool = False
    request_id: str = ""
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.state == "done"

    @property
    def timed_out(self) -> bool:
        return self.state == "failed" and \
            (self.error or "").startswith("JobTimeoutError")


class GatewayClient:
    """A blocking HTTP client of the gateway (stdlib ``http.client``).

    One instance per thread of concurrency, like
    :class:`~repro.server.client.DaemonClient`; each request uses a
    fresh connection, so an instance is cheap and stateless."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 token: Optional[str] = None,
                 timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = -1.0) -> Dict[str, Any]:
        import http.client

        if timeout == -1.0:
            timeout = self.timeout
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        headers = {"Content-Type": "application/json",
                   "Connection": "close"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            conn.request(method, path,
                         body=(None if body is None
                               else json.dumps(body, default=str)),
                         headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except TimeoutError as exc:  # socket.timeout since 3.10
            # a gateway that died (or stalled) mid-wait must not hang
            # the caller — surface the same typed error the server's
            # own deadline path uses
            raise JobTimeoutError(
                f"no gateway response on {method} {path} within "
                f"{timeout}s") from exc
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServerError(f"undecodable gateway response: {exc}",
                              code="bad_frame") from exc
        if response.status >= 400:
            raise_error_frame(payload)  # typed, same codes as NDJSON
        return payload

    # -- requests ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def submit(self, manifest: JobManifest, wait: bool = True,
               deadline_s: Optional[float] = None) -> GatewayJobResult:
        """Submit through the gateway; with ``wait`` the call blocks
        until the terminal state and decodes the full record stream."""
        started = time.perf_counter()
        # a waited submit legitimately blocks for the whole job, but
        # never forever: the job's own deadline (plus grace for the
        # response to travel) bounds the socket, so a gateway that dies
        # mid-wait surfaces as JobTimeoutError instead of a hang
        usable_deadline = (isinstance(deadline_s, (int, float))
                           and not isinstance(deadline_s, bool)
                           and deadline_s > 0)
        if wait and usable_deadline:
            timeout = float(deadline_s) + CLIENT_WAIT_GRACE_S
        else:
            # bad deadline values still go to the gateway: its typed
            # 400 is the contract, not a client-side TypeError
            timeout = self.timeout
        payload = self._request(
            "POST", "/v1/jobs",
            body={"manifest": manifest.to_dict(), "wait": wait,
                  "deadline_s": deadline_s},
            timeout=timeout)
        return self._result(payload, started)

    def records(self, job_id: str,
                timeout_s: Optional[float] = None) -> GatewayJobResult:
        """Replay (or follow to completion) a job's record stream."""
        started = time.perf_counter()
        payload = self._request("GET", f"/v1/jobs/{job_id}/records",
                                timeout=timeout_s or self.timeout)
        return self._result(payload, started)

    @staticmethod
    def _result(payload: Dict[str, Any],
                started: float) -> GatewayJobResult:
        wire = payload.get("records") or []
        return GatewayJobResult(
            job_id=payload["job"], state=payload["state"],
            shard=payload.get("shard", -1),
            records=[record_from_wire(entry) for entry in wire],
            error=payload.get("error"),
            coalesced=bool(payload.get("coalesced")),
            request_id=payload.get("request_id", ""),
            wall_s=time.perf_counter() - started)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> str:
        payload = self._request("POST", f"/v1/jobs/{job_id}/cancel")
        return payload["state"]

    def report(self, kind: str, **params: Any) -> Dict[str, Any]:
        """One ``/v1/report/<kind>`` query (``views`` / ``regressions``
        / ``search`` / ``latency`` / ``census``); keyword arguments
        become the query string (``q=``, ``since=``, ``limit=``)."""
        query = urlencode({key: value for key, value in params.items()
                           if value is not None})
        return self._request(
            "GET", f"/v1/report/{kind}" + (f"?{query}" if query else ""))

    def replica_jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/replica/jobs")["jobs"]

    def replica_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/replica/stats")["shards"]

    def wait(self, job_id: str, states: tuple = TERMINAL_STATES,
             timeout: float = 60.0, poll_s: float = 0.05
             ) -> Dict[str, Any]:
        """Poll the merged listing until ``job_id`` reaches one of
        ``states``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                entry = self.job(job_id)
                if entry["state"] in states:
                    return entry
            except (WorkerUnavailableError, ManifestError):
                pass  # worker mid-restart: poll again
            if time.monotonic() > deadline:
                raise JobTimeoutError(
                    f"job {job_id} did not reach {states} in "
                    f"{timeout}s")
            time.sleep(poll_s)
