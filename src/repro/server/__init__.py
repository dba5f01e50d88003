"""The serving layer: a long-lived analysis daemon over the batch
service.

PRs 3–4 made corpus analysis parallel (:mod:`repro.service`) and
durable (:mod:`repro.persistence`); this package makes it *served*: an
asyncio daemon (``wolves serve``) accepts jobs over a newline-delimited
JSON protocol, queues them with priorities and backpressure, coalesces
identical in-flight requests, streams per-view records back as the
sweep produces them, supports per-job cooperative cancellation, and —
with a database — persists every job durably enough that a reconnecting
client can replay finished streams and a restarted daemon resumes
unfinished work.

Entry points:

* :class:`AnalysisDaemon` / :func:`start_in_thread` — the daemon and
  the in-process harness;
* :mod:`repro.server.transport` — the TCP core and thread harness
  (:class:`ServerHandle`) the daemon and the gateway both run over;
* :class:`DaemonClient` — the blocking client (``wolves submit`` /
  ``jobs`` / ``cancel``);
* :class:`JobManifest` and :mod:`repro.server.protocol` — the wire
  format;
* :mod:`repro.server.cluster` / :mod:`repro.server.gateway` — the
  multi-worker tier (``wolves cluster``): N daemons sharded by manifest
  fingerprint behind an HTTP/JSON gateway
  (:class:`ClusterSupervisor`, :class:`ClusterGateway`,
  :class:`GatewayClient`).
"""

from repro.server.client import DaemonClient, JobResult
from repro.server.cluster import (
    ClusterHandle,
    ClusterMap,
    ClusterSupervisor,
    WorkerEndpoint,
    shard_of,
)
from repro.server.daemon import AnalysisDaemon, start_in_thread
from repro.server.gateway import (
    ClusterGateway,
    GatewayClient,
    GatewayJobResult,
    start_gateway_in_thread,
)
from repro.server.joblog import JobLog, inspect_job_log
from repro.server.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    JobManifest,
)
from repro.server.transport import ServerHandle

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "AnalysisDaemon",
    "ClusterGateway",
    "ClusterHandle",
    "ClusterMap",
    "ClusterSupervisor",
    "DaemonClient",
    "GatewayClient",
    "GatewayJobResult",
    "JobLog",
    "JobManifest",
    "JobResult",
    "ServerHandle",
    "WorkerEndpoint",
    "inspect_job_log",
    "shard_of",
    "start_gateway_in_thread",
    "start_in_thread",
]
