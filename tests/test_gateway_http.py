"""The gateway's HTTP surface and edge paths.

The differential battery (``tests/test_cluster_equiv.py``) pins the
happy path; this one pins the boundary itself: malformed HTTP and
malformed JSON get typed 400s (never hangs or stack traces), keep-alive
really keeps the connection, deadlines arm at the gateway hop and
produce the typed timeout, replica reads answer from the durable shard
logs without touching the writers, a second gateway over the same
workers discovers existing jobs (the routing-memory fallback), and a
gateway whose workers never answer fails loudly and typed.  (A bind
conflict is pinned for both servers in ``tests/test_transport.py``.)
"""

import socket
import threading
import time

import pytest

from repro.errors import (
    JobTimeoutError,
    ReproError,
    ServerError,
    UnknownJobError,
)
from repro.repository.corpus import CorpusSpec
from repro.server import (
    ClusterMap,
    GatewayClient,
    JobManifest,
    WorkerEndpoint,
    start_gateway_in_thread,
)
from repro.server import gateway as gateway_module

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def manifest(seed, count=2):
    return JobManifest(op="analyze", corpus=CorpusSpec(
        seed=seed, count=count, min_size=8, max_size=12))


def raw_http(port, payload: bytes, recv: bool = True) -> bytes:
    """One raw TCP exchange with the gateway (for requests no sane
    client library will emit): everything the server sends until it
    closes the connection.  A server that never closes raises
    ``socket.timeout`` here rather than passing for one that did."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(payload)
        if not recv:
            return b""
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


class TestHttpSurface:
    def test_malformed_requests_close_cleanly(self, cluster_factory,
                                              monkeypatch):
        """Garbage heads, bad request lines, and bad content-lengths
        must drop the connection without wedging the accept loop; a
        request that never finishes arriving is closed by the server's
        read deadline, well before the client's own 10s timeout."""
        monkeypatch.setattr(gateway_module, "REQUEST_READ_TIMEOUT_S", 0.3)
        cluster = cluster_factory(1, mode="thread")
        port = cluster.port
        for payload in (
                b"NONSENSE\r\n\r\n",             # bad request line
                b"GET /healthz\r\n\r\n",          # two-part line
                b"GET / HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
                b"GET / HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
                b"GET / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
        ):
            assert raw_http(port, payload) == b""
        # a head or a body that never completes (slowloris): the
        # server sends EOF once the read deadline passes
        for payload in (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
                b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 50\r\n\r\nhalf",
        ):
            started = time.monotonic()
            assert raw_http(port, payload) == b""
            assert time.monotonic() - started < 3.0
        # and the gateway is still alive for well-formed traffic
        assert GatewayClient(port).health()["workers"]

    def test_bad_json_bodies_get_typed_400(self, cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        for body in (b"{not json", b"[1, 2, 3]"):
            raw = raw_http(
                cluster.port,
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: close\r\n\r\n%s" % (len(body), body))
            assert b"HTTP/1.1 400" in raw
            assert b'"code":"bad_request"' in raw

    def test_unknown_route_and_wrong_method_are_typed(
            self, cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        client = GatewayClient(cluster.port)
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.code == "not_found"
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/healthz")
        assert excinfo.value.code == "bad_request"

    def test_keep_alive_serves_two_requests_on_one_connection(
            self, cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        request = (b"GET /healthz HTTP/1.1\r\n"
                   b"Connection: keep-alive\r\n\r\n")
        closing = (b"GET /healthz HTTP/1.1\r\n"
                   b"Connection: close\r\n\r\n")
        raw = raw_http(cluster.port, request + request + closing)
        assert raw.count(b"HTTP/1.1 200") == 3
        assert b'"workers"' in raw


class TestDeadlines:
    def test_bad_deadline_values_are_typed_400(self, cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        client = GatewayClient(cluster.port)
        for bad in (True, -1, 0, "soon"):
            with pytest.raises(ServerError) as excinfo:
                client.submit(manifest(seed=20), deadline_s=bad)
            assert excinfo.value.code == "bad_request"

    def test_generous_deadline_completes_normally(self,
                                                  cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        client = GatewayClient(cluster.port)
        result = client.submit(manifest(seed=21), deadline_s=120.0)
        assert result.ok
        assert not result.timed_out
        assert result.records

    def test_expired_deadline_is_the_typed_timeout(self,
                                                   cluster_factory):
        """A job stuck behind the compute gate blows its deadline: the
        worker's reaper fails it and the gateway relays the typed
        terminal state (not a hang, not a 5xx)."""
        gate = threading.Event()
        cluster = cluster_factory(
            1, mode="thread",
            daemon_kwargs={"_gate": gate, "parallel_jobs": 1})
        try:
            client = GatewayClient(cluster.port)
            result = client.submit(manifest(seed=22), deadline_s=0.3)
            assert result.state == "failed"
            assert result.timed_out
        finally:
            gate.set()


class TestJobEndpoints:
    def test_listing_cancel_and_wait(self, cluster_factory):
        gate = threading.Event()
        cluster = cluster_factory(
            2, mode="thread",
            daemon_kwargs={"_gate": gate, "parallel_jobs": 1})
        try:
            client = GatewayClient(cluster.port)
            accepted = client.submit(manifest(seed=30), wait=False)
            entry = client.job(accepted.job_id)
            assert entry["job"] == accepted.job_id
            assert entry["shard"] == accepted.shard
            merged = client.jobs()
            assert any(row["job"] == accepted.job_id
                       for row in merged)
            with pytest.raises(JobTimeoutError):
                client.wait(accepted.job_id, states=("done",),
                            timeout=0.3, poll_s=0.05)
            gated = client.submit(manifest(seed=31), wait=False)
            assert client.cancel(gated.job_id) in (
                "cancelled", "queued", "running")
        finally:
            gate.set()
        assert client.wait(accepted.job_id)["state"] == "done"

    def test_unknown_job_is_a_typed_404_everywhere(self,
                                                   cluster_factory):
        cluster = cluster_factory(2, mode="thread")
        client = GatewayClient(cluster.port)
        for call in (lambda: client.job("job-nope"),
                     lambda: client.records("job-nope"),
                     lambda: client.cancel("job-nope")):
            with pytest.raises(UnknownJobError):
                call()


class TestReplicaReads:
    def test_replica_jobs_and_stats_reflect_the_durable_log(
            self, cluster_factory, tmp_path):
        cluster = cluster_factory(2, mode="thread",
                                  db_dir=str(tmp_path / "shards"))
        client = GatewayClient(cluster.port)
        done = [client.submit(manifest(seed=seed)) for seed in (40, 41)]
        rows = client.replica_jobs()
        by_job = {row["job"]: row for row in rows}
        for result in done:
            assert by_job[result.job_id]["state"] == "done"
            assert by_job[result.job_id]["records"] == \
                len(result.records)
            assert by_job[result.job_id]["shard"] == result.shard
        shards = client.replica_stats()
        assert sum(stats["records"] for stats in shards.values()) == \
            sum(len(result.records) for result in done)
        assert sum(stats["jobs"].get("done", 0)
                   for stats in shards.values()) >= len(done)

    def test_database_less_cluster_has_no_replica_endpoints(
            self, cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        client = GatewayClient(cluster.port)
        with pytest.raises(ServerError) as excinfo:
            client.replica_jobs()
        assert excinfo.value.code == "not_found"

    def test_corrupt_shard_database_is_a_typed_500(
            self, cluster_factory, tmp_path):
        """The plain-ReproError backstop: a replica read over garbage
        answers a typed 500 body instead of tearing the gateway down."""
        garbage = tmp_path / "shard-00.db"
        garbage.write_text("this is not a sqlite database at all")
        cluster = cluster_factory(1, mode="thread")
        gateway = start_gateway_in_thread(cluster.map,
                                          shard_dbs=[str(garbage)])
        try:
            client = GatewayClient(gateway.port)
            with pytest.raises(ReproError):
                client.replica_stats()
            assert gateway.host == "127.0.0.1"
        finally:
            gateway.stop()
            gateway.stop()  # idempotent


class TestSecondGateway:
    def test_fresh_gateway_discovers_existing_jobs(self,
                                                   cluster_factory):
        """The routing-memory fallback: a gateway that never saw a
        job's submission (restarted gateway, same workers) locates it
        by asking the workers and serves the replay."""
        cluster = cluster_factory(2, mode="thread")
        first = GatewayClient(cluster.port)
        result = first.submit(manifest(seed=50))
        assert result.ok
        gateway = start_gateway_in_thread(cluster.map)
        try:
            second = GatewayClient(gateway.port)
            replay = second.records(result.job_id)
            assert replay.records == result.records
            assert replay.shard == result.shard
            with pytest.raises(UnknownJobError):
                second.records("job-never-existed")
        finally:
            gateway.stop()


class TestBootAndHealth:
    def test_unanswering_worker_is_marked_down_by_the_health_loop(
            self):
        """A worker that accepts and immediately hangs up fails its
        probes; strikes quarantine the shard and /healthz shows it
        down.  Requests then get the typed 503 — and its stats entry
        is null rather than an error."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        stop = threading.Event()

        def slam_door():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                    conn.close()
                except OSError:
                    return

        thread = threading.Thread(target=slam_door, daemon=True)
        thread.start()
        gateway = start_gateway_in_thread(
            ClusterMap([WorkerEndpoint(shard=0, host="127.0.0.1",
                                       port=port)]),
            health_interval=0.05, health_timeout=0.2,
            worker_wait_s=0.3, quarantine_strikes=2)
        try:
            client = GatewayClient(gateway.port)
            deadline = 50
            while deadline and client.health()["workers"][0]["healthy"]:
                deadline -= 1
                threading.Event().wait(0.1)
            assert not client.health()["workers"][0]["healthy"]
            stats = client.stats()
            assert stats["gateway"]["health_failures"] >= 2
            assert stats["workers"]["0"] is None
        finally:
            gateway.stop()
            stop.set()
            listener.close()
