"""The TCP transport the daemon and the gateway share.

:class:`StreamServer` owns everything below a wire protocol: the
listening socket, the accept loop, wrapping each accepted socket in
asyncio streams, tracking its handler task, and shutdown — close every
live connection (peers see EOF, never a timeout), cancel handlers still
blocked on their own work, and wait for every handler, including one
accepted in the shutdown window, which closes its socket on seeing
``_stopping``.

The accept loop is hand-rolled (``loop.sock_accept``) rather than
``asyncio.start_server``: every accepted socket is then provably either
handed to a handler task or closed right here, even mid-shutdown —
``start_server``'s internals can silently drop an accepted fd when the
server closes in the same loop iteration, which leaves that client
hanging instead of seeing EOF.

A subclass supplies its protocol loop (:meth:`StreamServer._serve`) and
its own ``start``/``stop`` around :meth:`~StreamServer._listen`,
:meth:`~StreamServer._stop_listening` and
:meth:`~StreamServer._close_connections`; :class:`ServerHandle` runs
it on a fresh event loop in a background thread.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Any, Callable, Dict, List, Optional

#: the listening socket's accept backlog
LISTEN_BACKLOG = 128


class StreamServer:
    """A TCP server whose connections each run :meth:`_serve`."""

    #: the stream reader's buffer limit (the longest line or
    #: ``readuntil`` separator distance a peer may send)
    read_limit: int

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[socket.socket] = None
        self._accept_task: Optional[asyncio.Task] = None
        #: handler task -> its writer, or ``None`` until the handler has
        #: wrapped its socket (only then may shutdown cancel it: an
        #: unstarted task cancelled before its first step never runs its
        #: cleanup, which would leak the accepted socket)
        self._connections: Dict[asyncio.Task,
                                Optional[asyncio.StreamWriter]] = {}
        self._stopping = False

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """The protocol loop for one connection; the transport closes
        the writer when it returns."""
        raise NotImplementedError

    def _admit(self) -> bool:
        """Whether to serve a freshly accepted connection (``False``
        closes it at once: the peer sees a dropped dial)."""
        return True

    async def _listen(self) -> None:
        """Bind the listening socket and start accepting; ``port=0``
        picks a free port (read back into :attr:`port`)."""
        self._loop = asyncio.get_running_loop()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(LISTEN_BACKLOG)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_task = self._loop.create_task(self._accept_loop())

    async def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = await self._loop.sock_accept(self._listener)
            except (OSError, asyncio.CancelledError):
                return
            if self._stopping or not self._admit():
                conn.close()
                continue
            task = self._loop.create_task(self._conn_main(conn))
            self._connections[task] = None
            task.add_done_callback(self._connections.pop)

    async def _conn_main(self, conn: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(
                sock=conn, limit=self.read_limit)
        except OSError:  # pragma: no cover - peer died inside accept
            conn.close()
            return
        self._connections[asyncio.current_task()] = writer
        try:
            if not self._stopping:  # else: accepted in the shutdown race
                await self._serve(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _stop_listening(self) -> None:
        """Set ``_stopping``, stop the accept loop, close the listener."""
        self._stopping = True
        if self._accept_task is not None:
            self._accept_task.cancel()
            await asyncio.gather(self._accept_task, return_exceptions=True)
            self._accept_task = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    async def _close_connections(self) -> None:
        """Close every live connection and wait for its handler: peers
        see EOF, a handler still blocked on its own work is cancelled,
        and no accepted fd outlives this coroutine."""
        for task, writer in list(self._connections.items()):
            if writer is not None:
                writer.close()
                task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)


# -- the background-thread harness -------------------------------------------


class ServerHandle:
    """A server running on its own event loop in a background thread —
    the harness tests, benchmarks, examples and the thread-mode cluster
    share.  Construction returns once the server has started (``port``
    is real) and re-raises a start failure, such as a taken port.

    The serving thread owns the loop end to end: on stop it runs
    ``server.stop()`` *and drains every remaining task* before closing
    the loop, so no task or socket outlives the handle.
    """

    def __init__(self, server: StreamServer, name: str) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._stop_request = asyncio.Event()
        self._stopped = False
        self._ready = threading.Event()
        self._boot_error: List[BaseException] = []
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._boot_error:
            self._thread.join(timeout=30.0)
            raise self._boot_error[0]

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind/resume failures
            self._boot_error.append(exc)
            return
        finally:
            self._ready.set()
        await self._stop_request.wait()
        await self.server.stop()
        # drain to quiescence: tasks can spawn tasks, so one pass is
        # not enough — iterate until no task remains
        for _ in range(10):
            current = asyncio.current_task()
            pending = [task for task in asyncio.all_tasks()
                       if task is not current]
            if not pending:
                break
            _done, rest = await asyncio.wait(pending, timeout=5.0)
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` on the server's loop thread (server state
        is owned by its loop)."""
        self._loop.call_soon_threadsafe(fn, *args)

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join its thread; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        try:
            self._loop.call_soon_threadsafe(self._stop_request.set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
