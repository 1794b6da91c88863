"""Persistent serving daemon: concurrent clients over one engine.

``repro.cli serve`` was a one-client JSONL stdin loop; this module is
the long-lived service surface: an asyncio TCP server speaking
newline-delimited JSON (the exact request schema of
:mod:`repro.serving.protocol`) to many concurrent clients.  The
lifecycle (bind, stop, line framing, writes) is the shared
:class:`repro.serving.server.JSONLServer`; the daemon adds

* **one serialized engine** — every engine touch happens on a single
  worker thread owned by :class:`EngineExecutor`; the asyncio front-end
  never calls the engine directly, so the monotonic history index and
  the caches see a strictly serial op stream no matter how many clients
  connect (the ``lint-private`` Makefile target forbids reaching the
  executor's private ``_engine`` from anywhere else);
* **admission control + backpressure** — past ``max_queue`` admitted
  requests that have not started yet, new requests are *shed
  immediately* with ``{"ok": false, "error": "overloaded", "shed":
  true}`` instead of queueing unboundedly or hanging the client;
* **one request, one engine job** — each admitted request is its own
  executor job, answered by :func:`repro.serving.protocol.handle_request`
  in arrival order.  The executor's one thread runs jobs first in,
  first out, so it *is* the queue: a client's request batch stays its
  own forward (batch composition is model semantics for LogCL, whose
  query-aware attention pools relation context over the batch) and the
  engine sees exactly the serial request trace, so its monotonic time
  contract refuses the same requests it would refuse serially;
* **graceful shutdown + delta restart** — :meth:`ServingDaemon.stop`
  answers every admitted request, then snapshots the engine through
  :func:`repro.training.save_engine_state`; a daemon started with the
  same ``snapshot_path`` restores it, and an engine backed by a
  ``repro.data`` store file replays only the facts streamed *after*
  the file was adopted (the snapshot stores the backing path plus the
  delta, never a copy of the mapped facts);
* **observability** — per-op latency spans (``daemon/<op>``), a
  ``queue_depth`` scalar series, shed/connection counters, all in
  the engine's own :class:`repro.obs.Telemetry` registry, so
  ``{"op": "stats"}`` surfaces daemon health in the same schema the
  benchmarks ingest.
"""

from __future__ import annotations

import asyncio
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from . import protocol
from .engine import InferenceEngine
from .server import JSONLServer


@dataclass
class DaemonConfig:
    """Tunables for one :class:`ServingDaemon`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`ServingDaemon.address` once started).  ``max_queue`` is the
    admission-control depth: requests arriving while that many are
    admitted but not started are shed, not queued.  ``snapshot_path``
    enables the restart story: restored on start when the file exists,
    written on graceful stop.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 64
    snapshot_path: Optional[str] = None


class EngineExecutor:
    """Serializes every engine access onto one owned worker thread.

    The engine (its history index, caches and filter) is not
    thread-safe and its time contract is monotonic, so the daemon runs
    *all* engine work — ingestion, forwards, snapshotting — as jobs on
    this executor's single thread, which starts them in submission
    order.  The engine reference is private on purpose: code outside
    :mod:`repro.serving.daemon` must never reach ``_engine`` (enforced
    by the ``lint-private`` Makefile target); it passes a callable to
    :meth:`run` and receives the engine only inside the serialized job.
    """

    def __init__(self, engine: InferenceEngine):
        self._engine = engine
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="engine")

    async def run(self, fn: Callable[[InferenceEngine], Any]) -> Any:
        """Await ``fn(engine)`` executed on the serialized worker thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, self._engine)

    def shutdown(self) -> None:
        """Stop the worker thread after all submitted jobs finish."""
        self._pool.shutdown(wait=True)


class ServingDaemon(JSONLServer):
    """Asyncio JSONL-over-TCP server around one serialized engine.

    Lifecycle (see :class:`repro.serving.server.JSONLServer`):
    :meth:`start` binds the socket and restores a snapshot when
    configured and present, :meth:`stop` answers what it admitted and
    snapshots.  Run it on a background thread with
    :func:`repro.serving.server.serve_in_thread`.  Requests on one
    connection are pipelined: each is admitted as it is read and
    answered when its job completes.
    """

    connection_counter = "daemon_connections"

    def __init__(self, engine: InferenceEngine,
                 config: Optional[DaemonConfig] = None):
        self.config = config or DaemonConfig()
        super().__init__(self.config.host, self.config.port)
        self.stats = engine.stats
        self._exec = EngineExecutor(engine)
        # The queue depth is admitted minus started requests.  Each
        # count has one writer: the event loop admits, the engine
        # thread starts.
        self._admitted = 0
        self._started = 0
        self.restored_snapshot = False

    # -- lifecycle hooks ------------------------------------------------
    def listen_info(self) -> Dict[str, Any]:
        """Snapshot restore flag and the admission depth."""
        return {"restored_snapshot": self.restored_snapshot,
                "max_queue": self.config.max_queue}

    async def _on_start(self) -> None:
        """Restore the snapshot when one is configured and present.

        Restoring before the first client connects is the restart half
        of the graceful shutdown round-trip.
        """
        path = self.config.snapshot_path
        if path is not None and os.path.exists(
                path if path.endswith(".npz") else path + ".npz"):
            from ..training import load_engine_state
            await self._exec.run(
                lambda engine: load_engine_state(engine, path))
            self.restored_snapshot = True

    async def _on_stop(self) -> None:
        """Answer every admitted request, then write the snapshot.

        No request is admitted once stopping, and the executor runs
        jobs in submission order, so this last job starts after every
        admitted one has been answered.
        """
        snapshot_path = self.config.snapshot_path

        def finish(engine: InferenceEngine) -> None:
            if snapshot_path is not None:
                from ..training import save_engine_state
                save_engine_state(engine, snapshot_path)

        await self._exec.run(finish)

    async def _on_stopped(self) -> None:
        self._exec.shutdown()

    # -- connection handling --------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                write_lock: asyncio.Lock) -> None:
        """Pipeline the connection: answer each request in its own task."""
        tasks: set = set()
        async for request in self._requests(reader, writer, write_lock):
            task = asyncio.create_task(
                self._answer(request, writer, write_lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _answer(self, request: Dict[str, Any],
                      writer: asyncio.StreamWriter,
                      write_lock: asyncio.Lock) -> None:
        """Admit one request (or shed it) and write its response line.

        Admission submits the engine job before this coroutine first
        yields, so jobs reach the executor in admission order.
        """
        self.stats.incr("requests_total")
        if self._stopping:
            response = protocol.error_response("shutting down", request)
        elif self._admitted - self._started >= self.config.max_queue:
            self.stats.incr("requests_shed")
            response = protocol.with_id(
                {"ok": False, "error": "overloaded", "shed": True}, request)
        else:
            self._admitted += 1
            self.stats.observe("queue_depth", self._admitted - self._started)
            admitted_s = _time.monotonic()
            response = await self._exec.run(
                lambda engine: self._serve(engine, request, admitted_s))
        await self._write(writer, write_lock, response)

    # -- executor side (the only code that touches the engine) ----------
    def _serve(self, engine: InferenceEngine, request: Dict[str, Any],
               admitted_s: float) -> Dict[str, Any]:
        """Answer one admitted request as one ``daemon/<op>`` span.

        A request that fails yields its own error response.
        """
        self._started += 1
        self.stats.observe("queue_depth", self._admitted - self._started)
        self.stats.observe("queue_wait_ms",
                           (_time.monotonic() - admitted_s) * 1000.0)
        with self.stats.span(f"daemon/{request.get('op')}", nested=False):
            try:
                return protocol.handle_request(engine, request)
            except Exception as exc:
                return protocol.error_response(exc, request)
