"""Lifecycle and fault behaviour of the analysis daemon.

What must hold for a serving layer in front of the durable store:

* the bounded queue rejects over-limit submissions with the *typed*
  ``queue_full`` error (backpressure, not silence, not a hang);
* cancellation is per-job and cooperative: a cancelled mid-corpus job
  stops at a shard boundary and leaves the durable store consistent —
  already-persisted analysis-cache rows stay valid and the job log
  holds no partial record stream;
* a client that vanishes mid-stream takes down nothing but its own
  connection;
* a finished job's records replay identically on a new connection;
* identical in-flight manifests coalesce onto one computation
  (singleflight) and every attached job still streams the full,
  identical records.

The deterministic queue tests hold the daemon's compute gate (the
``_gate`` test hook) so queue states are observable without races.
"""

import json

import socket
import threading
import time

import pytest

from repro.errors import ManifestError, QueueFullError, UnknownJobError
from repro.repository.corpus import CorpusSpec
from repro.server import DaemonClient, JobManifest, inspect_job_log
from repro.server.client import JobResult
from repro.server.protocol import record_from_wire, record_to_wire
from repro.service import AnalysisService
from repro.workflow.jsonio import spec_to_dict, view_to_dict
from tests.helpers import unsound_two_track_view

SMALL = CorpusSpec(seed=41, count=3, min_size=8, max_size=12)
MEDIUM = CorpusSpec(seed=43, count=12, min_size=14, max_size=24)


def manifest(op="analyze", corpus=SMALL, **kwargs):
    return JobManifest(op=op, corpus=corpus, **kwargs)


def direct_records(m: JobManifest):
    service = AnalysisService(workers=1, criterion=m.criterion)
    if m.op == "analyze":
        return list(service.analyze_corpus(m.corpus))
    if m.op == "correct":
        return list(service.correct_corpus(m.corpus))
    return list(service.lineage_audit(
        m.corpus, queries_per_view=m.queries_per_view))


class TestSubmitAndStream:
    def test_submit_streams_exact_records(self, daemon):
        with DaemonClient(daemon.port) as client:
            result = client.submit(manifest())
        assert result.ok
        assert result.records == direct_records(manifest())
        assert result.first_record_s is not None

    def test_validate_job_equals_session_record(self, daemon):
        from repro.system.session import WolvesSession

        view = unsound_two_track_view()
        m = JobManifest(op="validate",
                        spec_document=spec_to_dict(view.spec),
                        view_document=view_to_dict(view))
        with DaemonClient(daemon.port) as client:
            result = client.submit(m)
        expected = WolvesSession(view.spec, view).analysis_record()
        assert result.ok
        assert result.records == [expected]

    def test_no_wait_then_attach(self, daemon):
        with DaemonClient(daemon.port) as client:
            accepted = client.submit(manifest(), wait=False)
            client.wait(accepted.job_id)
            replay = client.attach(accepted.job_id)
        assert replay.state == "done"
        assert replay.records == direct_records(manifest())

    def test_failed_job_reports_typed_error(self, daemon):
        bad = JobManifest(op="validate",
                          spec_document={"format": "nonsense"},
                          view_document={"composites": {}})
        with DaemonClient(daemon.port) as client:
            result = client.submit(bad)
        assert result.state == "failed"
        assert "SerializationError" in result.error
        assert result.records == []


class TestProtocolErrors:
    def test_bad_manifest_is_typed(self, daemon):
        with DaemonClient(daemon.port) as client:
            with pytest.raises(ManifestError):
                _raw_submit(client, {"op": "bogus"})

    def test_unknown_job_is_typed(self, daemon):
        with DaemonClient(daemon.port) as client:
            with pytest.raises(UnknownJobError):
                client.attach("job-does-not-exist")
            with pytest.raises(UnknownJobError):
                client.cancel("job-does-not-exist")

    def test_garbage_line_gets_error_frame_and_connection_survives(
            self, daemon):
        from repro.errors import ServerError

        with DaemonClient(daemon.port) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            with pytest.raises(ServerError):
                client._recv()
            # same connection still works afterwards
            assert client.ping() >= 1

    def test_manifest_validation(self):
        with pytest.raises(ManifestError):
            JobManifest(op="analyze")  # corpus missing
        with pytest.raises(ManifestError):
            JobManifest(op="validate")  # documents missing
        with pytest.raises(ManifestError):
            JobManifest(op="analyze", corpus=SMALL, criterion="bogus")
        with pytest.raises(ManifestError):
            JobManifest.from_dict({"op": "analyze", "corpus": SMALL,
                                   "nonsense": 1})
        with pytest.raises(ManifestError):
            JobManifest.from_dict([1, 2])

    def test_manifest_json_round_trip(self):
        m = manifest(op="lineage", corpus=MEDIUM, queries_per_view=4,
                     priority=3)
        again = JobManifest.from_dict(m.to_dict())
        assert again == m
        assert again.fingerprint() == m.fingerprint()
        # priority is scheduling, not identity
        bumped = JobManifest.from_dict({**m.to_dict(), "priority": 1})
        assert bumped.fingerprint() == m.fingerprint()

    def test_record_wire_round_trip_is_exact(self):
        # dataclass equality is exact content identity for the record
        # types; pickle *bytes* are representation-dependent (string
        # sharing), so equality after a round trip — and stability of
        # the wire form itself — are the invariants
        record = direct_records(manifest())[0]
        wire = record_to_wire(record)
        again = record_from_wire(wire)
        assert again == record
        assert record_from_wire(record_to_wire(again)) == record


def _raw_submit(client, manifest_dict):
    client._send({"type": "submit", "manifest": manifest_dict,
                  "stream": False})
    return client._expect("accepted")


class TestQueueAndCancellation:
    def test_backpressure_rejects_over_limit_with_typed_error(
            self, daemon_factory):
        gate = threading.Event()
        daemon = daemon_factory(max_queued=2, parallel_jobs=1,
                                _gate=gate)
        def tiny(seed):
            return manifest(corpus=CorpusSpec(seed=seed, count=2,
                                              min_size=8, max_size=10))
        try:
            with DaemonClient(daemon.port) as client:
                running = client.submit(tiny(1), wait=False)
                client.wait(running.job_id, states=("running",))
                queued = [client.submit(tiny(2 + i), wait=False)
                          for i in range(2)]
                with pytest.raises(QueueFullError):
                    client.submit(tiny(9), wait=False)
                # cancelling a queued job frees a slot
                assert client.cancel(queued[0].job_id) == "cancelled"
                accepted = client.submit(tiny(9), wait=False)
                gate.set()
                for result in (running, queued[1], accepted):
                    assert client.wait(result.job_id)["state"] == "done"
                assert client.wait(
                    queued[0].job_id)["state"] == "cancelled"
        finally:
            gate.set()

    def test_priority_orders_queued_jobs(self, daemon_factory):
        gate = threading.Event()
        daemon = daemon_factory(parallel_jobs=1, _gate=gate)
        specs = [CorpusSpec(seed=100 + i, count=2, min_size=8,
                            max_size=10) for i in range(3)]
        try:
            with DaemonClient(daemon.port) as client:
                blocker = client.submit(manifest(corpus=specs[0]),
                                        wait=False)
                client.wait(blocker.job_id, states=("running",))
                low = client.submit(manifest(corpus=specs[1],
                                             priority=20), wait=False)
                high = client.submit(manifest(corpus=specs[2],
                                              priority=1), wait=False)
                gate.set()
                client.wait(low.job_id)
                by_id = {e["job"]: e for e in client.jobs()}
                assert by_id[high.job_id]["state"] == "done"
                # the urgent job was dispatched before the low one
                assert by_id[high.job_id]["started_seq"] \
                    < by_id[low.job_id]["started_seq"]
        finally:
            gate.set()

    def test_cancel_running_job_stops_cooperatively(self, daemon_factory,
                                                    tmp_path):
        db = str(tmp_path / "cancel.db")
        daemon = daemon_factory(db_path=db, parallel_jobs=1)
        m = manifest(op="lineage", corpus=MEDIUM)
        canceller = DaemonClient(daemon.port)
        job_ids: list = []

        def cancel_on_first_record(seq, record):
            if seq == 0:  # cancel as soon as the stream starts
                canceller.cancel(job_ids[0])

        with DaemonClient(daemon.port) as client:
            client._send({"type": "submit", "manifest": m.to_dict(),
                          "stream": True})
            accepted = client._expect("accepted")
            job_ids.append(accepted["job"])
            result = client._follow(
                JobResult(job_id=accepted["job"],
                          state=accepted["state"]),
                time.perf_counter(), cancel_on_first_record)
        canceller.close()
        assert result.state == "cancelled"
        # cooperative: stopped before the full sweep
        assert 0 < len(result.records) < MEDIUM.count
        # the durable store is consistent: job log has no partial record
        # rows for the cancelled job, and the analysis cache it did fill
        # is still fully usable — a resubmission completes with records
        # identical to a direct sweep
        logged = dict((job_id, (state, n))
                      for job_id, state, n in inspect_job_log(db))
        assert logged[result.job_id] == ("cancelled", 0)
        with DaemonClient(daemon.port) as client:
            rerun = client.submit(m)
        assert rerun.ok
        assert rerun.records == direct_records(m)

    def test_cancel_finished_job_is_a_no_op(self, daemon):
        with DaemonClient(daemon.port) as client:
            result = client.submit(manifest())
            assert client.cancel(result.job_id) == "done"


class TestCoalescing:
    def test_identical_inflight_manifests_share_one_computation(
            self, daemon_factory):
        gate = threading.Event()
        daemon = daemon_factory(parallel_jobs=1, _gate=gate)
        m = manifest(corpus=CorpusSpec(seed=77, count=3, min_size=8,
                                       max_size=12))
        try:
            with DaemonClient(daemon.port) as client:
                first = client.submit(m, wait=False)
                second = client.submit(m, wait=False)
                third = client.submit(
                    manifest(corpus=CorpusSpec(seed=78, count=2,
                                               min_size=8, max_size=10)),
                    wait=False)
                assert not first.coalesced
                assert second.coalesced
                assert not third.coalesced
                gate.set()
                for result in (first, second, third):
                    client.wait(result.job_id)
                expected = direct_records(m)
                for result in (first, second):
                    assert client.attach(result.job_id).records \
                        == expected
                stats = client.stats()
                assert stats["submitted"] == 3
                assert stats["computations"] == 2
                assert stats["coalesced"] == 1
        finally:
            gate.set()

    def test_cancelling_one_attached_job_keeps_the_other_running(
            self, daemon_factory):
        gate = threading.Event()
        daemon = daemon_factory(parallel_jobs=1, _gate=gate)
        m = manifest(corpus=CorpusSpec(seed=79, count=3, min_size=8,
                                       max_size=12))
        try:
            with DaemonClient(daemon.port) as client:
                first = client.submit(m, wait=False)
                second = client.submit(m, wait=False)
                assert client.cancel(second.job_id) == "cancelled"
                gate.set()
                assert client.wait(first.job_id)["state"] == "done"
                assert client.attach(first.job_id).records \
                    == direct_records(m)
                assert client.wait(
                    second.job_id)["state"] == "cancelled"
        finally:
            gate.set()


class TestDisconnects:
    def test_client_vanishing_mid_stream_does_not_kill_the_daemon(
            self, daemon):
        m = manifest(op="lineage", corpus=MEDIUM)
        # open a raw socket, submit a streaming job, read a bit of one
        # record, then vanish without so much as a FIN-orderly shutdown
        rude = socket.create_connection(("127.0.0.1", daemon.port))
        rude.sendall(json.dumps(
            {"type": "submit", "manifest": m.to_dict(),
             "stream": True}).encode() + b"\n")
        rude.recv(64)  # part of the accepted frame, then vanish
        rude.close()
        # the daemon must still serve: same job replayable by id once
        # finished, fresh jobs accepted
        with DaemonClient(daemon.port) as client:
            jobs = client.jobs()
            assert len(jobs) == 1
            job_id = jobs[0]["job"]
            client.wait(job_id)
            replay = client.attach(job_id)
            assert replay.records == direct_records(m)
            fresh = client.submit(manifest())
            assert fresh.ok

    def test_replay_after_reconnect_returns_identical_records(
            self, daemon):
        m = manifest(op="correct", corpus=MEDIUM)
        with DaemonClient(daemon.port) as client:
            result = client.submit(m)
        # three fresh connections, three identical replays
        for _ in range(3):
            with DaemonClient(daemon.port) as client:
                replay = client.attach(result.job_id)
                assert replay.state == "done"
                assert replay.records == result.records


class TestRunEntryPoint:
    def test_run_binds_reports_ready_and_tears_down(self):
        """``AnalysisDaemon.run`` (the ``wolves serve`` body) binds,
        reports readiness, and tears down cleanly when the serve loop
        ends.  ``on_ready`` runs inside the event loop, so it must not
        block — here it just aborts, which exercises the full
        start -> stop path.  (Serving under ``run()`` is covered by the
        soak tests, which drive a real ``wolves serve`` subprocess.)"""
        from repro.server import AnalysisDaemon

        class Abort(Exception):
            pass

        seen = {}

        def on_ready(daemon):
            seen["port"] = daemon.port
            raise Abort()

        daemon = AnalysisDaemon()
        with pytest.raises(Abort):
            daemon.run(on_ready=on_ready)
        assert seen["port"] > 0
        # the socket is really gone
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", seen["port"]),
                                     timeout=0.5)

    def test_client_against_stopped_daemon_raises_typed_error(
            self, daemon_factory):
        from repro.errors import ServerError

        daemon = daemon_factory()
        client = DaemonClient(daemon.port)
        daemon.stop()
        with pytest.raises((ServerError, OSError)):
            client.ping()
        client.close()


class TestWireEdgeCases:
    def test_from_dict_rejects_malformed_corpora(self):
        with pytest.raises(ManifestError):
            JobManifest.from_dict({"op": "analyze", "corpus": [1, 2]})
        with pytest.raises(ManifestError):
            JobManifest.from_dict({"op": "analyze",
                                   "corpus": {"count": -5}})
        with pytest.raises(ManifestError):
            JobManifest.from_dict({"op": "analyze",
                                   "corpus": {"bogus_field": 1}})

    def test_error_frame_round_trip(self):
        from repro.errors import ServerError
        from repro.server.protocol import error_frame, raise_error_frame

        frame = error_frame(QueueFullError("full"))
        assert frame == {"type": "error", "code": "queue_full",
                         "message": "full"}
        with pytest.raises(QueueFullError):
            raise_error_frame(frame)
        with pytest.raises(ServerError) as caught:
            raise_error_frame({"type": "error", "code": "novel",
                               "message": "something else"})
        assert caught.value.code == "novel"

    def test_expect_mismatch_is_typed(self, daemon):
        from repro.errors import ServerError

        with DaemonClient(daemon.port) as client:
            client._send({"type": "ping"})
            with pytest.raises(ServerError):
                client._expect("jobs")

    def test_record_payload_garbage_is_typed(self):
        from repro.errors import ServerError

        with pytest.raises(ServerError):
            record_from_wire({"kind": "ViewAnalysis",
                              "pickle": "not base64!!"})

    def test_non_integer_priority_is_rejected_and_daemon_survives(
            self, daemon):
        """A non-int priority would poison the scheduling heap (heapq
        comparisons raise mid-push and kill dispatchers), so it must
        die at the protocol boundary — and the daemon must keep
        dispatching afterwards."""
        bad = manifest().to_dict()
        bad["priority"] = "high"
        with DaemonClient(daemon.port) as client:
            with pytest.raises(ManifestError):
                _raw_submit(client, bad)
            for value in (1.5, True, None):
                with pytest.raises(ManifestError):
                    JobManifest.from_dict({**manifest().to_dict(),
                                           "priority": value})
            result = client.submit(manifest())
        assert result.ok


class TestRetention:
    def test_without_db_oldest_finished_jobs_are_evicted(
            self, daemon_factory):
        daemon = daemon_factory(retain_jobs=2)
        specs = [CorpusSpec(seed=300 + i, count=2, min_size=8,
                            max_size=10) for i in range(4)]
        with DaemonClient(daemon.port) as client:
            ids = [client.submit(manifest(corpus=spec)).job_id
                   for spec in specs]
            listed = {entry["job"] for entry in client.jobs()}
            assert set(ids[-2:]) <= listed
            assert ids[0] not in listed  # evicted, bounded memory
            with pytest.raises(UnknownJobError):
                client.attach(ids[0])
            # the retained ones still replay
            assert client.attach(ids[-1]).state == "done"

    def test_with_db_records_are_released_to_the_log_and_still_replay(
            self, daemon_factory, tmp_path):
        db = str(tmp_path / "retain.db")
        daemon = daemon_factory(db_path=db)
        m = manifest()
        with DaemonClient(daemon.port) as client:
            result = client.submit(m)
            job = daemon.server._jobs[result.job_id]
            # in-memory copy released; count survives for listings
            assert job.records == [] and job.records_in_log
            assert job.record_count == len(result.records)
            listed = {e["job"]: e for e in client.jobs()}
            assert listed[result.job_id]["records"] \
                == len(result.records)
            # replay twice from the log, exact both times
            for _ in range(2):
                replay = client.attach(result.job_id)
                assert replay.records == result.records
            assert job.records == []  # replay did not re-cache


class TestDurability:
    def test_restart_replays_finished_jobs_from_the_log(
            self, daemon_factory, tmp_path):
        db = str(tmp_path / "daemon.db")
        first = daemon_factory(db_path=db)
        m = manifest()
        with DaemonClient(first.port) as client:
            result = client.submit(m)
        first.stop()
        second = daemon_factory(db_path=db)
        with DaemonClient(second.port) as client:
            replay = client.attach(result.job_id)
            assert replay.state == "done"
            assert replay.records == result.records

    def test_restart_resumes_accepted_but_unfinished_jobs(
            self, daemon_factory, tmp_path):
        db = str(tmp_path / "resume.db")
        gate = threading.Event()  # never set: jobs stay queued
        first = daemon_factory(db_path=db, parallel_jobs=1, _gate=gate)
        m = manifest()
        with DaemonClient(first.port) as client:
            accepted = client.submit(m, wait=False)
        first.stop()
        gate.set()
        second = daemon_factory(db_path=db)
        with DaemonClient(second.port) as client:
            assert client.stats()["resumed"] == 1
            entry = client.wait(accepted.job_id)
            assert entry["state"] == "done"
            replay = client.attach(accepted.job_id)
            assert replay.records == direct_records(m)
