"""The lifecycle shared by the serving front-ends.

:class:`ServingDaemon` (one engine behind an admission queue) and
:class:`ReplicaSetRouter` (N replicas behind round-robin reads) differ
in what they do with a request, not in how they live.  This module owns
the part they share:

* bind and :attr:`JSONLServer.address` — the port is bound before the
  server's own start-up work runs and accepts connections only after
  it, so a busy port fails fast and no client ever meets a half-built
  server;
* an idempotent :meth:`JSONLServer.stop` and :meth:`JSONLServer.wait_stopped`;
* the set of open writers, closed on stop;
* JSONL line framing — blank lines skipped, undecodable lines answered
  with a structured error, ``{"op": "quit"}`` closing only its own
  connection;
* the locked response write.

Each server keeps its own per-connection scheduling: the daemon
pipelines the requests of one connection, the router answers them in
order.  :func:`serve_in_thread` runs any built server on a background
thread (tests, benchmarks, notebooks) and :func:`run_server` is the
blocking ``repro serve --listen`` entry point.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from . import protocol


class JSONLServer:
    """Base class: one asyncio JSONL-over-TCP server and its lifecycle.

    Subclasses set ``host``/``port`` through :meth:`__init__`, keep a
    ``stats`` telemetry registry, name the per-connection counter in
    ``connection_counter``, and fill in the hooks:
    :meth:`_on_start` (work before the first connection),
    :meth:`_on_stop` (drain after the port closes, before the writers
    do), :meth:`_on_stopped` (release after the writers close),
    :meth:`_serve_connection` (the per-connection scheduling) and
    :meth:`listen_info` (extra fields of the announce line).
    """

    connection_counter: str

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, run the server's start-up work, serve; returns the address."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            start_serving=False)
        try:
            await self._on_start()
        except BaseException:
            self._server.close()
            raise
        await self._server.start_serving()
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        return self.address

    async def stop(self) -> None:
        """Close the port, drain, close every connection, release.

        A second call (or one racing the first) waits for the first to
        finish and returns: stopping is idempotent.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._on_stop()
        for writer in list(self._writers):
            writer.close()
        await self._on_stopped()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Park until :meth:`stop` has completed."""
        await self._stopped.wait()

    def listen_info(self) -> Dict[str, Any]:
        """Server-specific fields of the ``listen`` announce line."""
        return {}

    async def _on_start(self) -> None:
        """Start-up work between bind and the first accepted connection."""

    async def _on_stop(self) -> None:
        """Drain after the port closes, while connections are still open."""

    async def _on_stopped(self) -> None:
        """Release resources once every connection is closed."""

    # -- connections ----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.stats.incr(self.connection_counter)
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer, asyncio.Lock())
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                write_lock: asyncio.Lock) -> None:
        """Answer one connection's stream (the server's scheduling)."""
        raise NotImplementedError

    async def _requests(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter,
                        write_lock: asyncio.Lock,
                        line: Optional[bytes] = None
                        ) -> AsyncIterator[Dict[str, Any]]:
        """Yield the connection's decoded requests until EOF or ``quit``.

        Blank lines are skipped and an undecodable line is answered
        with a structured error on the spot; ``line`` is an already-read
        first line (the router sniffs it for HTTP).
        """
        while True:
            if line is None:
                line = await reader.readline()
            if not line:
                return
            text = line.decode("utf-8", errors="replace").strip()
            line = None
            if not text:
                continue
            try:
                request = protocol.decode_line(text)
            except protocol.RequestError as exc:
                await self._write(writer, write_lock,
                                  protocol.error_response(exc))
                continue
            if request.get("op") == "quit":
                return
            yield request

    async def _write(self, writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock,
                     response: Dict[str, Any]) -> None:
        async with write_lock:
            if writer.is_closing():
                return
            writer.write((json.dumps(response) + "\n").encode("utf-8"))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


class ServerHandle:
    """A server running on a background thread (see :func:`serve_in_thread`).

    ``address`` is the bound ``(host, port)``; :meth:`stop` performs
    the server's graceful shutdown and joins the thread.
    """

    def __init__(self, server: JSONLServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` of the running server."""
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its thread."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                      self._loop)
            future.result(timeout)
        self._thread.join(timeout)


def serve_in_thread(server: JSONLServer,
                    start_timeout: float = 60.0) -> ServerHandle:
    """Run a built server on a background thread.

    Blocks until the server is started (bound, restored or spawned),
    then returns a :class:`ServerHandle` whose ``address`` is
    connectable.  A start-up failure (a busy port, a bad snapshot)
    raises here.  The caller owns shutdown via :meth:`ServerHandle.stop`.
    """
    started = threading.Event()
    failure: List[BaseException] = []
    loop = asyncio.new_event_loop()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surfaced to the caller below
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_until_complete(server.wait_stopped())
        finally:
            loop.close()

    thread = threading.Thread(target=runner, daemon=True,
                              name=f"serving-{type(server).__name__}")
    thread.start()
    if not started.wait(start_timeout):
        raise RuntimeError(f"server failed to start within {start_timeout}s")
    if failure:
        thread.join(start_timeout)
        raise failure[0]
    return ServerHandle(server, loop, thread)


def run_server(server: JSONLServer, announce=print) -> int:
    """Blocking entry point for ``repro serve --listen`` (CLI).

    Starts the server, announces the bound address as one JSON line
    (``{"ok": true, "op": "listen", "address": [host, port], ...}``
    plus the server's :meth:`JSONLServer.listen_info`), installs
    SIGINT/SIGTERM handlers that trigger the graceful shutdown, and
    serves until stopped.  Returns exit code 0.
    """

    async def _main() -> None:
        import signal
        address = await server.start()
        announce(json.dumps({"ok": True, "op": "listen",
                             "address": [address[0], address[1]],
                             **server.listen_info()}), flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.stop()))
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        await server.wait_stopped()

    asyncio.run(_main())
    return 0
