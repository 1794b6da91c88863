"""Replica-set router: load-balanced reads, all-ack write fan-out.

The front half of the replicated serving stack
(:mod:`repro.serving.replica` is the worker half).  The router speaks
the exact JSONL schema of :mod:`repro.serving.protocol` on one TCP
port — a client written against the single-process daemon connects
unchanged — plus a minimal HTTP surface on the *same* port (requests
starting with ``GET``/``HEAD`` are answered as HTTP and the connection
closed):

``/healthz``   liveness — 200 while the router serves and any replica
               process is alive;
``/readyz``    readiness — 200 only when **every** replica is at the
               router's watermark and ready; 503 with per-replica
               detail once the set is degraded;
``/stats``     the merged observability payload (per-replica telemetry
               namespaced ``replica<i>/...``, router-level counters
               under ``router/...``) plus ``watermark_age_s`` — seconds
               since the last successful ``advance`` fan-out (since
               router start when none has landed yet).  The age field
               is HTTP-only: the JSONL ``stats`` op stays wall-clock
               free so traces replay bitwise-identically.

Consistency contract
--------------------
* **Reads** (``predict`` / ``rank`` / ``score`` / ``forecast``) are
  load-balanced round-robin over *ready* replicas.  Every replica
  serves them through the daemon's own dispatch over identical history
  — and, when calibration is enabled, an identical calibration window,
  because calibration only mutates on the ``advance`` write path that
  fans out to every replica — so responses are bitwise-identical to a
  single engine's, whichever replica answers.  The router keeps the
  set's one query horizon — the furthest time any replica's history
  index reached — and runs every read and apply at it
  (``OP_AT_HORIZON``), so a read back in time is refused on whichever
  replica it lands, with the serial engine's error, after the same
  parse checks.  A ``forecast`` response
  carries the watermark it was computed at, so a client can tell a
  pre-advance forecast from a post-advance one.
* **Writes** (``advance``) take the exclusive side of a reader/writer
  lock and fan out to *every* replica; the client is acknowledged only
  after all replicas ack, with the identical (deterministic,
  watermark-stamped) payload each produced.  No read can interleave
  with a fan-out, so a trace replayed against the router sees the same
  read-your-writes ordering the serialized daemon gives.
* **Failure mode**: if a fan-out lands on some replicas and not others
  the divergent replicas are marked unready (watermark handshake) and
  dropped from rotation, the router's watermark follows the majority
  that applied, and the *client gets an error* — an ``advance`` is not
  idempotent, so the router never silently retries it.  A uniform
  rejection (every replica refused the same invalid delta) leaves the
  set ready and returns the daemon's exact validation error.
"""

from __future__ import annotations

import asyncio
import json
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Telemetry
from . import protocol
from .engine import InferenceEngine
from .replica import start_replica_set
from .server import JSONLServer


@dataclass
class RouterConfig:
    """Tunables for one :class:`ReplicaSetRouter`.

    ``port=0`` binds an ephemeral port.  ``replicas`` sizes the set;
    ``prefer_fork=False`` forces in-process replicas (no read scaling,
    identical semantics — what the unit tests use).
    """

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 2
    prefer_fork: bool = True


class _ReadWriteLock:
    """Async many-readers / one-writer lock for the read/write split.

    Reads share; an ``advance`` fan-out excludes everything, so the
    replica set's watermark can never change under an in-flight read.
    Writer-preference is deliberately not implemented — the write rate
    (one snapshot per timestamp) is orders below the read rate.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writing = False

    async def acquire_read(self) -> None:
        async with self._cond:
            while self._writing:
                await self._cond.wait()
            self._readers += 1

    async def release_read(self) -> None:
        async with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        async with self._cond:
            while self._writing or self._readers:
                await self._cond.wait()
            self._writing = True

    async def release_write(self) -> None:
        async with self._cond:
            self._writing = False
            self._cond.notify_all()


class ReplicaSetRouter(JSONLServer):
    """Asyncio front over N replicas spawned from one engine's read state.

    ``engine`` is the **template**: its immutable
    :class:`repro.serving.engine.ReadState` is shared with every
    replica and its streamed post-snapshot deltas
    (:meth:`repro.history.HistoryStore.delta_since`) are replayed into
    each on startup, so the whole set opens at the template's
    watermark.  The template itself is never served from afterwards —
    all traffic goes to the replicas.

    Lifecycle (see :class:`repro.serving.server.JSONLServer`):
    :meth:`start` binds the socket, spawns and handshakes the set, then
    serves; :meth:`stop` closes the port and the replicas.  Requests on
    one connection are answered strictly in arrival order.
    """

    connection_counter = "router_connections"

    def __init__(self, engine: InferenceEngine,
                 config: Optional[RouterConfig] = None):
        self.config = config or RouterConfig()
        if self.config.replicas < 1:
            raise ValueError("router needs at least one replica")
        super().__init__(self.config.host, self.config.port)
        self._read_state = engine.read_state()
        history = engine.history
        self._deltas = history.delta_since(history.base_watermark)
        self._watermark = history.watermark
        self._horizon = history.index.horizon
        # Freshness baseline for /stats watermark age: starts at
        # construction so a router that never advanced reports age
        # since it came up, not a null.
        self._last_advance_s = _time.monotonic()
        self.stats = Telemetry("serving")
        self._replicas: List[object] = []
        self._ready: List[bool] = []
        self._rr = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._rw = _ReadWriteLock()

    # -- lifecycle hooks ------------------------------------------------
    def listen_info(self) -> Dict[str, Any]:
        """Replica count and the set's opening watermark."""
        return {"replicas": len(self._replicas),
                "watermark": self._watermark}

    async def _on_start(self) -> None:
        """Spawn the replica set and handshake it at the template watermark."""
        self._replicas = start_replica_set(
            self._read_state, self.config.replicas, deltas=self._deltas,
            prefer_fork=self.config.prefer_fork)
        self._ready = [True] * len(self._replicas)
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._replicas),
            thread_name_prefix="replica-io")
        # Startup handshake: every replica must open at the template
        # watermark before the first client connects.
        for i in range(len(self._replicas)):
            status = await self._ask(i, {"op": protocol.OP_WATERMARK,
                                         "expect": self._watermark})
            if not (isinstance(status, dict) and status.get("ready")):
                self._ready[i] = False
        if not any(self._ready):
            raise RuntimeError("no replica reached the template watermark "
                               f"{self._watermark} at startup")

    async def _on_stopped(self) -> None:
        loop = asyncio.get_running_loop()
        for replica in self._replicas:
            await loop.run_in_executor(self._pool, replica.close)
        self._pool.shutdown(wait=True)

    # -- replica I/O ----------------------------------------------------
    async def _ask(self, index: int, message: Dict[str, Any]
                   ) -> Dict[str, Any]:
        """One replica round-trip on the I/O thread pool."""
        loop = asyncio.get_running_loop()
        replica = self._replicas[index]
        try:
            return await loop.run_in_executor(
                self._pool, replica.request, message)
        except Exception as exc:
            self._ready[index] = False
            self.stats.incr("replica_io_errors")
            return protocol.error_response(
                f"replica {index} failed: {exc}", message
                if message.get("op") in protocol.VALID_OPS else None)

    async def _ask_at_horizon(self, index: int, message: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """:meth:`_ask` with the replica pinned at the set's horizon.

        The replica reports where its horizon ended up, and the router
        keeps the furthest one.
        """
        reply = await self._ask(index, {"op": protocol.OP_AT_HORIZON,
                                        "horizon": self._horizon,
                                        "message": message})
        if "response" not in reply:
            return protocol.error_response(
                reply["error"], message
                if message.get("op") in protocol.VALID_OPS else None)
        self._horizon = max(self._horizon, reply["horizon"])
        return reply["response"]

    def _next_ready(self) -> Optional[int]:
        """Round-robin index of the next ready replica (None if none)."""
        n = len(self._replicas)
        for offset in range(n):
            index = (self._rr + offset) % n
            if self._ready[index]:
                self._rr = (index + 1) % n
                return index
        return None

    # -- request dispatch -----------------------------------------------
    async def _serve_request(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        self.stats.incr("requests_total")
        op = request.get("op")
        if op == "advance":
            return await self._advance(request)
        if op == "stats":
            return await self._merged_stats(request)
        return await self._read(request)

    async def _read(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one read on the next ready replica (shared lock side).

        ``save`` rides the read path too: any ready replica's
        serving-state snapshot is the deterministic single-engine one.
        Unknown ops also land here so the *replica's* dispatch renders
        the daemon's exact unknown-op error.
        """
        await self._rw.acquire_read()
        try:
            index = self._next_ready()
            if index is None:
                self.stats.incr("reads_unserved")
                return protocol.error_response(
                    "no ready replicas (set degraded past quorum)", request)
            with self.stats.span("router/read", nested=False):
                return await self._ask_at_horizon(index, request)
        finally:
            await self._rw.release_read()

    async def _advance(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Fan one ``advance`` out to every replica; all-ack or error."""
        await self._rw.acquire_write()
        try:
            with self.stats.span("router/advance", nested=False):
                results = await asyncio.gather(*[
                    self._ask_at_horizon(i, {"op": protocol.OP_APPLY,
                                             "request": request})
                    for i in range(len(self._replicas))])
            self.stats.incr("advance_fanouts")
            acked = [bool(r.get("ok")) for r in results]
            if all(acked):
                self._watermark += 1
                self._last_advance_s = _time.monotonic()
                return results[0]
            if not any(acked):
                # Uniform rejection: no replica mutated (advance
                # validates before touching the engine), the set stays
                # ready, and the error is the daemon's own.
                return results[0]
            # Mixed outcome: the acked replicas are at watermark+1, the
            # rest diverged.  Follow the applied side, demote the
            # divergent replicas (an explicit demotion, not just the
            # watermark handshake — a replica can diverge in *content*
            # while matching in snapshot count), and surface the
            # failure: advance is not idempotent, so the client must
            # not blindly retry.
            self._watermark += 1
            self._last_advance_s = _time.monotonic()
            self.stats.incr("advance_partial_failures")
            for i, ok in enumerate(acked):
                if ok:
                    continue
                self._ready[i] = False
                await self._ask(i, {"op": protocol.OP_WATERMARK,
                                    "expect": self._watermark,
                                    "demote": True})
            degraded = [i for i, ready in enumerate(self._ready)
                        if not ready]
            return protocol.error_response(
                f"advance applied on {sum(acked)}/{len(acked)} replicas; "
                f"replicas {degraded} dropped from rotation (do not "
                f"retry: advance is not idempotent)", request)
        finally:
            await self._rw.release_write()

    # -- observability --------------------------------------------------
    async def replica_status(self, handshake: bool = False
                             ) -> List[Dict[str, Any]]:
        """Per-replica ``{replica, watermark, ready, alive}`` rows.

        With ``handshake=True`` each replica is asked against the
        router's current watermark, so a lagging replica flips itself
        unready right here (the ``/readyz`` path).
        """
        rows = []
        for i, replica in enumerate(self._replicas):
            alive = replica.alive()
            row = {"replica": i, "alive": alive,
                   "ready": self._ready[i] and alive,
                   "watermark": None, "kind": replica.kind}
            if alive and self._ready[i]:
                message = {"op": protocol.OP_WATERMARK}
                if handshake:
                    message["expect"] = self._watermark
                status = await self._ask(i, message)
                if isinstance(status, dict) and status.get("ok"):
                    row["watermark"] = status.get("watermark")
                    row["ready"] = bool(status.get("ready"))
                else:
                    row["ready"] = False
                self._ready[i] = row["ready"]
            rows.append(row)
        return rows

    async def _merged_stats(self, request: Optional[Dict[str, Any]] = None
                            ) -> Dict[str, Any]:
        """The aggregated stats payload (JSONL ``stats`` op and HTTP).

        Replica telemetry merges under ``replica<i>/`` namespaces and
        the router's own counters under ``router/`` — one payload, per-
        replica attribution preserved.
        """
        merged = Telemetry("serving")
        merged.merge_child(self.stats, prefix="router")
        statuses = []
        for i in range(len(self._replicas)):
            if not self._ready[i]:
                statuses.append({"replica": i, "ready": False})
                continue
            res = await self._ask(i, {"op": protocol.OP_TELEMETRY})
            if isinstance(res, dict) and res.get("ok"):
                merged.merge_state(res["state"], prefix=f"replica{i}")
                statuses.append({"replica": i, "ready": True,
                                 "watermark": res.get("watermark")})
            else:
                statuses.append({"replica": i, "ready": False})
        return protocol.with_id(
            {"ok": True, "op": "stats", "watermark": self._watermark,
             "replicas": statuses, "stats": merged.as_dict()}, request)

    # -- connection handling --------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                write_lock: asyncio.Lock) -> None:
        """Sniff HTTP vs JSONL on the first line, then serve the stream.

        JSONL requests on one connection are answered strictly in
        arrival order — per-connection ordering is part of the bitwise
        trace-parity contract with the daemon.
        """
        first = await reader.readline()
        if first.startswith(b"GET ") or first.startswith(b"HEAD "):
            await self._serve_http(first, reader, writer)
            return
        async for request in self._requests(reader, writer, write_lock,
                                            first):
            if self._stopping:
                response = protocol.error_response("shutting down", request)
            else:
                response = await self._serve_request(request)
            await self._write(writer, write_lock, response)

    # -- HTTP surface ---------------------------------------------------
    async def _serve_http(self, first: bytes, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        parts = first.decode("latin-1").split()
        method = parts[0] if parts else "GET"
        target = (parts[1] if len(parts) > 1 else "/").split("?")[0]
        while True:  # drain request headers
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        status, body = await self._http_payload(target)
        payload = json.dumps(body).encode("utf-8")
        reason = {200: "OK", 404: "Not Found",
                  503: "Service Unavailable"}[status]
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1")
                     + (b"" if method == "HEAD" else payload))
        await writer.drain()

    async def _http_payload(self, target: str) -> Tuple[int, Dict[str, Any]]:
        if target == "/healthz":
            alive = sum(1 for r in self._replicas if r.alive())
            healthy = alive > 0 and not self._stopping
            return (200 if healthy else 503), {
                "ok": healthy, "replicas": len(self._replicas),
                "alive": alive, "watermark": self._watermark}
        if target == "/readyz":
            rows = await self.replica_status(handshake=True)
            ready = (bool(rows) and all(row["ready"] for row in rows)
                     and not self._stopping)
            return (200 if ready else 503), {
                "ok": ready, "watermark": self._watermark,
                "replicas": rows}
        if target == "/stats":
            payload = await self._merged_stats()
            # Wall-clock freshness lives only on the HTTP surface: the
            # JSONL stats op stays deterministic for trace parity.
            payload["watermark_age_s"] = round(
                _time.monotonic() - self._last_advance_s, 3)
            return 200, payload
        return 404, {"ok": False,
                     "error": f"unknown path {target!r}; "
                     "try /healthz /readyz /stats"}
