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
* **admission control + backpressure** — a bounded request queue; past
  ``max_queue`` depth new requests are *shed immediately* with
  ``{"ok": false, "error": "overloaded", "shed": true}`` instead of
  queueing unboundedly or hanging the client;
* **windowed coalescing** — pending ``predict`` (or ``score``)
  requests are gathered into one group until ``batch_max_pending``
  queries are pending or ``batch_window_ms`` has passed since the
  first, whichever comes first, and the whole group rides one executor
  trip.  Inside the trip every request is answered by
  :func:`repro.serving.protocol.handle_request` on its own, in arrival
  order: a client's request batch stays its own forward (batch
  composition is model semantics for LogCL, whose query-aware
  attention pools relation context over the batch) and the engine sees
  exactly the serial request trace, so its monotonic time contract
  refuses the same requests it would refuse serially;
* **graceful shutdown + delta restart** — :meth:`ServingDaemon.stop`
  drains the queue, then snapshots the engine through
  :func:`repro.training.save_engine_state`; a daemon started with the
  same ``snapshot_path`` restores it, and an engine backed by a
  ``repro.data`` store file replays only the facts streamed *after*
  the file was adopted (the snapshot stores the backing path plus the
  delta, never a copy of the mapped facts);
* **observability** — per-op latency spans (``daemon/<op>``), a
  ``queue_depth`` scalar series, shed/group/connection counters, all in
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
from typing import Any, Callable, Dict, List, Optional

from . import protocol
from .engine import InferenceEngine
from .server import JSONLServer

# Sentinel queued to tell the consumer loop to exit after draining.
_STOP = object()

# Ops the consumer coalesces into windowed groups.  Groups are
# homogeneous — a score never joins a predict group — and ordering
# across op kinds is preserved, so the serialized engine still sees the
# arrival-order request trace.
_BATCHED_OPS = ("predict", "score")


@dataclass
class DaemonConfig:
    """Tunables for one :class:`ServingDaemon`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`ServingDaemon.address` once started).  ``max_queue`` is the
    admission-control depth: requests arriving while that many are
    queued are shed, not enqueued.  ``batch_max_pending`` /
    ``batch_window_ms`` are the coalescing triggers (close the group on
    size or age, whichever first).  ``snapshot_path`` enables the
    restart story: restored on start when the file exists, written on
    graceful stop.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 64
    batch_max_pending: int = 16
    batch_window_ms: float = 2.0
    snapshot_path: Optional[str] = None


class EngineExecutor:
    """Serializes every engine access onto one owned worker thread.

    The engine (its history index, caches and filter) is not
    thread-safe and its time contract is monotonic, so the daemon runs
    *all* engine work — ingestion, forwards, snapshotting — as jobs on
    this executor's single thread.  The engine reference is private on
    purpose: code outside :mod:`repro.serving.daemon` must never reach
    ``_engine`` (enforced by the ``lint-private`` Makefile target); it
    passes a callable to :meth:`run` and receives the engine only
    inside the serialized job.
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


class _Job:
    """One admitted request waiting for the consumer loop."""

    __slots__ = ("request", "future", "enqueued_s")

    def __init__(self, request: Dict[str, Any],
                 future: "asyncio.Future[Dict[str, Any]]"):
        self.request = request
        self.future = future
        self.enqueued_s = _time.monotonic()


class ServingDaemon(JSONLServer):
    """Asyncio JSONL-over-TCP server around one serialized engine.

    Lifecycle (see :class:`repro.serving.server.JSONLServer`):
    :meth:`start` binds the socket and restores a snapshot when
    configured and present, :meth:`stop` drains and snapshots.  Run it
    on a background thread with
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
        self._queue: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        self.restored_snapshot = False

    # -- lifecycle hooks ------------------------------------------------
    def listen_info(self) -> Dict[str, Any]:
        """Snapshot restore flag and admission/coalescing settings."""
        return {"restored_snapshot": self.restored_snapshot,
                "max_queue": self.config.max_queue,
                "batch_window_ms": self.config.batch_window_ms}

    async def _on_start(self) -> None:
        """Restore the snapshot (when present) and start the consumer.

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
        self._queue = asyncio.Queue()
        self._consumer = asyncio.create_task(self._consume())

    async def _on_stop(self) -> None:
        """Answer every admitted request, then write the snapshot."""
        await self._queue.put(_STOP)
        await self._consumer
        if self.config.snapshot_path is not None:
            from ..training import save_engine_state
            snapshot_path = self.config.snapshot_path
            await self._exec.run(
                lambda engine: save_engine_state(engine, snapshot_path))

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
        """Admit one request (or shed it) and write its response line."""
        self.stats.incr("requests_total")
        if self._stopping:
            response = protocol.error_response("shutting down", request)
        elif self._queue.qsize() >= self.config.max_queue:
            self.stats.incr("requests_shed")
            response = protocol.with_id(
                {"ok": False, "error": "overloaded", "shed": True}, request)
        else:
            future = asyncio.get_running_loop().create_future()
            self._queue.put_nowait(_Job(request, future))
            self.stats.observe("queue_depth", self._queue.qsize())
            response = await future
        await self._write(writer, write_lock, response)

    # -- consumer -------------------------------------------------------
    async def _consume(self) -> None:
        """Drain the admitted-request queue in arrival order.

        ``predict`` and ``score`` jobs open a coalescing window: more
        same-op jobs are gathered until ``batch_max_pending`` queries
        are pending or the window (``batch_window_ms`` from the first
        job) closes or a different op arrives (ordering across op kinds
        is preserved — an ``advance`` never overtakes or gets overtaken
        by the reads around it).  Each group — and every other op, as a
        group of one — is served in one executor trip.
        """
        loop = asyncio.get_running_loop()
        window_s = max(self.config.batch_window_ms, 0.0) / 1000.0
        stash: Optional[object] = None
        while True:
            if stash is not None:
                job, stash = stash, None
            else:
                job = await self._queue.get()
                # Depth is sampled on dequeue as well as on enqueue
                # (_answer), so an idle drain records the queue
                # returning to zero instead of freezing the series at
                # its high-water mark.
                self.stats.observe("queue_depth", self._queue.qsize())
            if job is _STOP:
                break
            group = [job]
            group_op = job.request.get("op")
            if group_op in _BATCHED_OPS:
                pending_queries = self._query_count(job.request)
                deadline = loop.time() + window_s
                while pending_queries < self.config.batch_max_pending:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(self._queue.get(),
                                                     timeout)
                    except asyncio.TimeoutError:
                        break
                    self.stats.observe("queue_depth", self._queue.qsize())
                    if nxt is _STOP or nxt.request.get("op") != group_op:
                        stash = nxt
                        break
                    group.append(nxt)
                    pending_queries += self._query_count(nxt.request)
            await self._run_group(group)
            if stash is _STOP:
                break
        # Orphaned jobs admitted after the STOP sentinel (racing stop())
        # still get answered instead of hanging their clients.
        while not self._queue.empty():
            job = self._queue.get_nowait()
            self.stats.observe("queue_depth", self._queue.qsize())
            if job is not _STOP:
                await self._run_group([job])

    @staticmethod
    def _query_count(request: Dict[str, Any]) -> int:
        queries = request.get("queries")
        if not isinstance(queries, list):
            # ``score`` requests carry their work under ``facts``.
            queries = request.get("facts")
        return len(queries) if isinstance(queries, list) else 1

    async def _run_group(self, jobs: List[_Job]) -> None:
        """Serve a group in one executor trip and resolve its futures."""
        responses = await self._exec.run(
            lambda engine: self._serve_group(engine, jobs))
        for job, response in zip(jobs, responses):
            if not job.future.done():
                job.future.set_result(response)

    # -- executor side (the only code that touches the engine) ----------
    def _serve_group(self, engine: InferenceEngine,
                     jobs: List[_Job]) -> List[Dict[str, Any]]:
        """Answer a same-op group in arrival order, one request at a time.

        A coalesced ``predict`` / ``score`` group counts under
        ``<op>_groups`` and ``<op>_group_size``; the whole group is one
        ``daemon/<op>`` span.  A request that fails yields its own
        error response; the rest of the group is still answered.
        """
        op = str(jobs[0].request.get("op"))
        if op in _BATCHED_OPS:
            self.stats.incr(f"{op}_groups")
            self.stats.observe(f"{op}_group_size", float(len(jobs)))
        responses: List[Dict[str, Any]] = []
        with self.stats.span(f"daemon/{op}", nested=False):
            for job in jobs:
                self.stats.observe(
                    "queue_wait_ms",
                    (_time.monotonic() - job.enqueued_s) * 1000.0)
                try:
                    responses.append(
                        protocol.handle_request(engine, job.request))
                except Exception as exc:
                    responses.append(protocol.error_response(exc,
                                                             job.request))
        return responses
