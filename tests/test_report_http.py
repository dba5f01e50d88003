"""The gateway's report surface and the client-hang / Retry-After
bugfixes.

Pins: ``/v1/report/*`` aggregates the shard replicas' analysis catalog
read-only (answers survive with every worker stopped — proof no worker
traffic and no run hydration is involved), ``/v1/stats`` carries the
derived per-shard queue depth / coalescing hit rate / jobs/s, the
``Retry-After`` header ceils while the JSON body keeps the float (same
floor on both transports), and a client whose gateway dies or stalls
mid-wait gets the typed :class:`JobTimeoutError` instead of hanging
forever.
"""

import socket
import threading

import pytest

from repro.errors import JobTimeoutError, ServerError
from repro.persistence.catalog import CatalogReader
from repro.repository.corpus import CorpusSpec
from repro.server import (
    ClusterMap,
    GatewayClient,
    JobManifest,
    WorkerEndpoint,
    start_gateway_in_thread,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def manifest(seed, count=2):
    return JobManifest(op="analyze", corpus=CorpusSpec(
        seed=seed, count=count, min_size=8, max_size=12))


def http_exchange(port, method, path, payload=None):
    """One raw HTTP exchange, returning (response, decoded body) — for
    asserting on the literal Retry-After header."""
    import http.client
    import json

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path,
                     body=None if payload is None else
                     json.dumps(payload),
                     headers={"Connection": "close"})
        response = conn.getresponse()
        return response, json.loads(response.read())
    finally:
        conn.close()


class TestReportEndpoints:
    def seeded_cluster(self, cluster_factory, tmp_path, workers=2):
        cluster = cluster_factory(workers, mode="thread",
                                  db_dir=str(tmp_path / "shards"))
        client = GatewayClient(cluster.port)
        results = [client.submit(manifest(seed=seed))
                   for seed in (60, 61, 62)]
        assert all(result.ok for result in results)
        return cluster, client, results

    def test_report_aggregates_across_shards(self, cluster_factory,
                                             tmp_path):
        cluster, client, results = self.seeded_cluster(
            cluster_factory, tmp_path)
        views = client.report("views")
        assert views["report"] == "views"
        shard_total = 0
        for worker in cluster.workers:
            with CatalogReader(worker.db_path) as cat:
                shard_total += len(cat.views())
        # every per-shard view appears in the merged answer (workflows
        # are corpus-unique here, so no cross-shard merging collapses)
        assert len(views["rows"]) == shard_total
        census = client.report("census")["census"]
        assert sum(c["views"] for c in census.values()) == sum(
            v["sightings"] for v in views["rows"])
        latency = client.report("latency")["ops"]
        assert latency["analyze"]["count"] == len(results)
        assert latency["analyze"]["p50"] >= 1.0

    def test_report_answers_with_every_worker_stopped(
            self, cluster_factory, tmp_path):
        """The whole point of the catalog: reports come from replica
        reads of the summary tables — no worker, no sweep, no
        hydration."""
        cluster, client, _results = self.seeded_cluster(
            cluster_factory, tmp_path, workers=1)
        before = client.report("views")["rows"]
        workflow = before[0]["workflow"]
        for worker in cluster.workers:
            worker.stop()
        after = client.report("views")["rows"]
        assert after == before
        hits = client.report("search", q=workflow)["rows"]
        assert any(h["key"] == f"view:{workflow}/"
                   f"{before[0]['family']}" for h in hits)
        assert client.report("census")["census"]

    def test_report_validation_is_typed(self, cluster_factory,
                                        tmp_path):
        cluster, client, _results = self.seeded_cluster(
            cluster_factory, tmp_path, workers=1)
        with pytest.raises(ServerError) as excinfo:
            client.report("nope")
        assert excinfo.value.code == "not_found"
        with pytest.raises(ServerError) as excinfo:
            client.report("search")  # no q=
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServerError) as excinfo:
            client.report("views", limit="lots")
        assert excinfo.value.code == "bad_request"

    def test_database_less_cluster_has_no_reports(self,
                                                  cluster_factory):
        cluster = cluster_factory(1, mode="thread")
        with pytest.raises(ServerError) as excinfo:
            GatewayClient(cluster.port).report("views")
        assert excinfo.value.code == "not_found"


class TestStatsExtension:
    def test_stats_carries_per_shard_derived_metrics(
            self, cluster_factory):
        cluster = cluster_factory(2, mode="thread")
        client = GatewayClient(cluster.port)
        # same manifest twice concurrently → the second submission
        # coalesces onto the first's computation on one shard
        jobs = []
        threads = [threading.Thread(
            target=lambda: jobs.append(client.submit(manifest(seed=70))))
            for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = client.stats()
        shards = stats["shards"]
        assert set(shards) == set(stats["workers"])
        for shard, derived in shards.items():
            frame = stats["workers"][shard]
            assert derived["queue_depth"] == frame["queued"]
            assert derived["running"] == frame["running"]
            if frame["submitted"]:
                assert derived["coalesce_hit_rate"] == pytest.approx(
                    frame["coalesced"] / frame["submitted"])
            else:
                assert derived["coalesce_hit_rate"] == 0.0
            assert frame["uptime_s"] > 0
            assert derived["jobs_per_s"] == pytest.approx(
                frame["done"] / frame["uptime_s"])
        # the twin submissions either both computed or the second
        # coalesced onto the first — both land in the derived metrics
        frames = list(stats["workers"].values())
        assert sum(frame["submitted"] for frame in frames) >= 2
        assert (sum(frame["done"] for frame in frames)
                + sum(frame["coalesced"] for frame in frames)) >= 2
        assert sum(s["jobs_per_s"] for s in shards.values()) > 0

    def test_down_worker_reports_null_shard_metrics(
            self, cluster_factory):
        cluster = cluster_factory(
            1, mode="thread",
            gateway_kwargs={"worker_wait_s": 0.2})
        client = GatewayClient(cluster.port)
        for worker in cluster.workers:
            worker.stop()
        stats = client.stats()
        assert stats["shards"] == {"0": None}


class TestRetryAfterRounding:
    def gateway_over_dead_worker(self, retry_after):
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        port = dead.getsockname()[1]
        dead.close()  # nothing listens here: instant connect refusal
        cmap = ClusterMap([WorkerEndpoint(0, "127.0.0.1", port)])
        return start_gateway_in_thread(
            cmap, worker_wait_s=0.2, health_interval=3600,
            quarantine_retry_after=retry_after)

    def submit_body(self, seed):
        return {"manifest": manifest(seed=seed).to_dict(),
                "wait": False}

    def test_header_ceils_while_json_keeps_the_float(self):
        """Sub-second hints: header reads 1 (never 0 — a 0 would make
        naive clients hammer), body keeps 0.3 on both transports."""
        gateway = self.gateway_over_dead_worker(retry_after=0.3)
        try:
            # typed-client transport: the float hint survives verbatim
            client = GatewayClient(gateway.port, timeout=30.0)
            with pytest.raises(ServerError) as excinfo:
                client.submit(manifest(seed=80), deadline_s=5.0)
            assert excinfo.value.retry_after == pytest.approx(0.3)
            # raw HTTP transport: same float in the body, ceiled header
            response, payload = http_exchange(
                gateway.port, "POST", "/v1/jobs", self.submit_body(81))
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            assert payload["retry_after"] == pytest.approx(0.3)
        finally:
            gateway.stop()

    def test_header_ceils_fractional_multi_second_hints(self):
        """1.2s must become header 2, not round()'s 1 — the header
        floor may never undercut the JSON hint."""
        gateway = self.gateway_over_dead_worker(retry_after=1.2)
        try:
            response, payload = http_exchange(
                gateway.port, "POST", "/v1/jobs", self.submit_body(82))
            assert response.status == 503
            assert response.getheader("Retry-After") == "2"
            assert payload["retry_after"] == pytest.approx(1.2)
        finally:
            gateway.stop()


class TestClientHangFix:
    @pytest.fixture
    def black_hole(self):
        """A listener that accepts connections and never responds —
        the pathological gateway that used to hang clients forever."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        accepted = []

        def accept_loop():
            try:
                while True:
                    conn, _addr = listener.accept()
                    accepted.append(conn)
            except OSError:
                pass

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        yield listener.getsockname()[1]
        # close() alone does not wake a thread blocked in accept();
        # shutdown() does, so the join below returns at once
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        for conn in accepted:
            conn.close()

    def test_waited_submit_honours_the_deadline(self, black_hole):
        client = GatewayClient(black_hole)
        with pytest.raises(JobTimeoutError):
            # deadline 0.2s + grace bounds the socket; generous margin
            # for slow CI, but nowhere near "forever"
            import time

            started = time.monotonic()
            try:
                client.submit(manifest(seed=90), wait=True,
                              deadline_s=0.2)
            finally:
                assert time.monotonic() - started < 30.0

    def test_waited_submit_without_deadline_uses_client_timeout(
            self, black_hole):
        client = GatewayClient(black_hole, timeout=0.3)
        with pytest.raises(JobTimeoutError):
            client.submit(manifest(seed=91), wait=True)

    def test_records_no_longer_waits_forever(self, black_hole):
        client = GatewayClient(black_hole, timeout=0.3)
        with pytest.raises(JobTimeoutError):
            client.records("job-whatever")
        with pytest.raises(JobTimeoutError):
            client.records("job-whatever", timeout_s=0.2)

    def test_timeout_error_is_typed_not_socket(self, black_hole):
        client = GatewayClient(black_hole, timeout=0.2)
        with pytest.raises(JobTimeoutError) as excinfo:
            client.stats()
        assert "within" in str(excinfo.value)
        assert not isinstance(excinfo.value, OSError)
