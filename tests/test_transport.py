"""The transport core the daemon and the gateway share.

:mod:`repro.server.transport` owns the listener, the accept loop,
connection tracking, stop-and-drain and the background-thread harness
for both servers, so every behaviour here is pinned under both
protocols: a bind conflict fails the start instead of half-starting
it, and stopping never leaves a peer waiting on a socket — live
connections and one accepted in the shutdown window both see EOF.
"""

import json
import socket
import threading
import time

import pytest

from repro.repository.corpus import CorpusSpec
from repro.server import (
    ClusterMap,
    JobManifest,
    WorkerEndpoint,
    start_gateway_in_thread,
    start_in_thread,
)


@pytest.fixture(params=["daemon", "gateway"])
def start_server(request, daemon_factory):
    """``start(port=0) -> ServerHandle`` of the parametrized kind (a
    gateway runs over one in-process worker daemon); every server a
    test starts is stopped at teardown."""
    handles = []
    worker = daemon_factory() if request.param == "gateway" else None

    def start(port=0):
        if worker is None:
            handle = start_in_thread(port=port)
        else:
            handle = start_gateway_in_thread(
                ClusterMap([WorkerEndpoint(shard=0, host="127.0.0.1",
                                           port=worker.port)]),
                port=port)
        handles.append(handle)
        return handle

    yield start
    for handle in reversed(handles):
        handle.stop()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def read_to_eof(sock) -> bytes:
    """Everything until the peer closes; a peer that never closes
    raises ``socket.timeout`` (the socket's own timeout)."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_bind_conflict_raises_instead_of_half_starting(start_server):
    first = start_server()
    with pytest.raises(OSError):
        start_server(port=first.port)  # address already in use
    # the failed start left the first server serving
    with socket.create_connection(("127.0.0.1", first.port), timeout=5):
        pass


def test_stop_closes_live_connections_with_eof(start_server):
    handle = start_server()
    with socket.create_connection(("127.0.0.1", handle.port),
                                  timeout=5) as client:
        wait_until(lambda: any(
            writer is not None
            for writer in list(handle.server._connections.values())))
        handle.stop()
        assert read_to_eof(client) == b""
    assert not handle.server._connections


def test_connection_accepted_during_stop_gets_eof(start_server):
    """``stop()`` flipping ``_stopping`` in the same loop iteration the
    accept loop hands a socket over: the handler must close that
    socket itself rather than serve it or leak it."""
    handle = start_server()

    def admit_then_stop():
        handle.server._stopping = True
        return True

    handle.call_soon(setattr, handle.server, "_admit", admit_then_stop)
    wait_until(lambda: "_admit" in vars(handle.server))
    with socket.create_connection(("127.0.0.1", handle.port),
                                  timeout=5) as client:
        assert read_to_eof(client) == b""
    wait_until(lambda: not handle.server._connections)


def test_gateway_stop_cancels_a_request_blocked_on_its_worker(
        daemon_factory):
    """A gateway handler waiting on a worker that never answers is
    cancelled by stop(): its client gets EOF at once, not after the
    job (or a drain timeout)."""
    gate = threading.Event()  # never set: the worker's job never runs
    worker = daemon_factory(parallel_jobs=1, _gate=gate)
    gateway = start_gateway_in_thread(
        ClusterMap([WorkerEndpoint(shard=0, host="127.0.0.1",
                                   port=worker.port)]))
    body = json.dumps({"manifest": JobManifest(
        op="analyze",
        corpus=CorpusSpec(seed=3, count=1, min_size=8,
                          max_size=10)).to_dict(),
        "wait": True}).encode()
    try:
        with socket.create_connection(("127.0.0.1", gateway.port),
                                      timeout=5) as client:
            client.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                           b"Content-Length: %d\r\n\r\n%s"
                           % (len(body), body))
            wait_until(lambda: worker.server.stats["submitted"] == 1)
            started = time.monotonic()
            gateway.stop()
            assert read_to_eof(client) == b""
            assert time.monotonic() - started < 2.0
    finally:
        gateway.stop()
