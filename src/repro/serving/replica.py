"""Serving replicas: N read-serving engines over one shared read state.

The read/write split in :mod:`repro.serving.engine` makes an engine's
shareable half explicit (:class:`repro.serving.engine.ReadState`: the
frozen model parameters plus the path of the mmap-backed store file);
this module turns that into processes.  A **replica** is a worker that

* spawns its own :class:`InferenceEngine` from the shared read state —
  re-opening the ``.hst`` store by path, so every replica's base fact
  buffer is the same physical pages through the OS page cache;
* serves the read ops (``predict`` / ``rank`` / ``score`` /
  ``forecast`` / ``stats``) through the very same
  :func:`repro.serving.protocol.handle_request` dispatch the
  single-process daemon uses, so replicated responses are
  bitwise-identical to one engine's for an identical request trace.
  Calibrated scoring stays replica-safe because the calibration
  window only mutates inside ``advance`` (which every replica
  applies), never on the round-robin read path — the read state
  carries the :class:`repro.serving.ops.CalibrationConfig` so each
  spawned replica rebuilds the identical rolling window;
* applies ``advance`` deltas it receives over a private **control
  channel** (:data:`repro.serving.protocol.CONTROL_OPS`) — never from
  clients — and tracks the store **watermark** against the value the
  router expects, so a replica that missed a delta marks itself
  *unready* and refuses reads rather than serving stale,
  bitwise-divergent answers.

Two transports share one worker implementation: :class:`ForkedReplica`
runs the loop in a forked child over an ``mp.Pipe`` (fork keeps the
model parameters copy-on-write and lets the child re-map the store
file), :class:`LocalReplica` runs it in-process for fork-less platforms
and unit tests.  :func:`start_replica_set` picks per platform.  The
router in :mod:`repro.serving.router` owns fan-out and load balancing.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import protocol
from .engine import InferenceEngine, ReadState

# One delta as shipped to a starting replica: (time, (k, 3) facts).
Delta = Tuple[int, np.ndarray]


def fork_replicas_available() -> bool:
    """Whether forked replica workers are supported on this platform.

    True when the ``fork`` start method exists: replicas rely on
    fork's copy-on-write inheritance of the model parameters (spawn
    would re-import and re-pickle the whole model per replica).
    """
    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


class ReplicaWorker:
    """One replica's serving logic, transport-agnostic.

    Owns a private engine spawned from a shared :class:`ReadState` and
    answers two kinds of traffic: client *read* requests through
    :meth:`handle` and router *control* messages (apply / watermark /
    telemetry) through the module-level :func:`dispatch`.  The engine
    reference is deliberately private — the ``lint-private`` Makefile
    target forbids reaching a replica's ``_engine`` from anywhere else,
    the same rule the daemon's ``EngineExecutor`` lives under.
    """

    def __init__(self, engine: InferenceEngine, replica_id: int = 0):
        self._engine = engine
        self.replica_id = int(replica_id)
        self._stale = False

    @classmethod
    def from_read_state(cls, read_state: ReadState, replica_id: int = 0,
                        deltas: Optional[Sequence[Delta]] = None
                        ) -> "ReplicaWorker":
        """Spawn a worker over shared read state, replaying ``deltas``.

        ``deltas`` are the post-snapshot ``(time, facts)`` pairs the
        source engine streamed on top of the store file
        (:meth:`repro.history.HistoryStore.delta_since`); replaying them
        brings the fresh replica to the source watermark before it
        serves its first read.
        """
        engine = read_state.spawn()
        for time, facts in (deltas or ()):
            engine.advance(np.asarray(facts), time=int(time))
        return cls(engine, replica_id=replica_id)

    # -- control surface ------------------------------------------------
    @property
    def watermark(self) -> int:
        """The replica engine's store watermark (snapshot count)."""
        return self._engine.watermark

    @property
    def ready(self) -> bool:
        """Whether this replica may serve reads (never missed a delta)."""
        return not self._stale

    def status(self, expect: Optional[int] = None,
               demote: bool = False) -> Dict[str, Any]:
        """The watermark/readiness handshake payload.

        With ``expect`` set (the router's current watermark) a mismatch
        marks the replica permanently unready: it lagged or diverged,
        and serving reads from it would break bitwise parity.
        ``demote`` forces unready regardless of the watermark — the
        router's signal for a replica that rejected a fan-out its
        siblings applied (content divergence the snapshot *count*
        cannot witness).
        """
        if demote or (expect is not None and self.watermark != int(expect)):
            self._stale = True
        return {"ok": True, "replica": self.replica_id,
                "watermark": self.watermark, "ready": self.ready}

    def apply_delta(self, request: Dict[str, Any],
                    expect: Optional[int] = None) -> Dict[str, Any]:
        """Apply one client ``advance`` request to the private engine.

        Runs the daemon's exact dispatch so the acknowledgement payload
        is bitwise the single-engine one.  A *validation* failure leaves
        the engine untouched (``InferenceEngine.advance`` validates
        before mutating) and therefore keeps the replica ready — every
        replica rejects the same bad delta identically.  ``expect`` is
        the watermark the router requires after the apply; missing it
        means this replica diverged and must stop serving reads.
        """
        try:
            response = protocol.handle_request(self._engine, request)
        except Exception as exc:
            response = protocol.error_response(exc, request)
        if expect is not None and self.watermark != int(expect):
            self._stale = True
        return response

    def telemetry(self) -> Dict[str, Any]:
        """The engine's raw telemetry accumulators (for router merging)."""
        return {"ok": True, "replica": self.replica_id,
                "watermark": self.watermark,
                "state": self._engine.stats.export_state()}

    # -- read surface ---------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one client *read* request (predict / rank / stats).

        An unready replica answers every read with a structured
        ``replica unready`` error instead of stale scores; the router
        treats that replica as out of rotation.  ``advance`` is not
        accepted here — deltas arrive only over the control channel, so
        a single replica can never advance past its siblings.
        """
        op = request.get("op")
        if op == "advance":
            return protocol.error_response(protocol.RequestError(
                "replicas accept advance only over the control channel "
                "(send it to the router)", op=op), request)
        if self._stale:
            return protocol.error_response(protocol.RequestError(
                f"replica {self.replica_id} unready "
                f"(stale at watermark {self.watermark})", op=op), request)
        try:
            return protocol.handle_request(self._engine, request)
        except Exception as exc:
            return protocol.error_response(exc, request)


def dispatch(worker: ReplicaWorker, message: Dict[str, Any]
             ) -> Dict[str, Any]:
    """Route one router→replica message (control op or read request).

    The single demultiplexer both transports share: the forked child's
    pipe loop and the in-process :class:`LocalReplica` call the same
    function, so the two transports cannot drift behaviourally.
    """
    op = message.get("op")
    if op == protocol.OP_APPLY:
        return worker.apply_delta(message.get("request") or {},
                                  expect=message.get("expect"))
    if op == protocol.OP_WATERMARK:
        return worker.status(expect=message.get("expect"),
                             demote=bool(message.get("demote")))
    if op == protocol.OP_TELEMETRY:
        return worker.telemetry()
    if op == protocol.OP_STOP:
        return {"ok": True, "replica": worker.replica_id, "stopped": True}
    return worker.handle(message)


def _replica_loop(conn, read_state: ReadState, replica_id: int,
                  deltas: Optional[Sequence[Delta]]) -> None:
    """The forked child's main loop: recv message, send response.

    Built *after* the fork so the child maps the store file itself
    (shared pages, private mmap handle) instead of inheriting live
    numpy views whose file descriptors the parent may close.
    """
    worker = ReplicaWorker.from_read_state(read_state, replica_id, deltas)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        try:
            response = dispatch(worker, message)
        except Exception as exc:  # never let the child die mid-protocol
            response = protocol.error_response(exc)
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
        if message.get("op") == protocol.OP_STOP:
            break
    conn.close()


class LocalReplica:
    """In-process replica transport (fork-less platforms, unit tests).

    Each local replica still owns a private engine (own history tail,
    own caches), but all of them share the *same model object*, whose
    forward pass is not thread-safe — so every local replica in a set
    serializes through one shared lock.  Read scaling is therefore
    nil in local mode; correctness and the protocol surface are
    identical to :class:`ForkedReplica`.
    """

    kind = "local"

    def __init__(self, worker: ReplicaWorker,
                 lock: Optional[threading.Lock] = None):
        self._worker = worker
        self._lock = lock if lock is not None else threading.Lock()
        self.replica_id = worker.replica_id
        self.pid: Optional[int] = None

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one router message synchronously."""
        with self._lock:
            return dispatch(self._worker, message)

    def alive(self) -> bool:
        """Local replicas live exactly as long as the process."""
        return True

    def close(self) -> None:
        """Nothing to tear down in-process."""


class ForkedReplica:
    """A replica running in a forked child over an ``mp.Pipe``.

    Fork inherits the read state copy-on-write: the model parameters
    are never written at serving time, so N replicas keep one physical
    copy; the child re-opens the store file by path, so the fact buffer
    is shared through the page cache.  One in-flight message at a time
    per replica (the pipe is a serial channel); the router holds one
    thread per replica, so the set still serves reads concurrently.
    """

    kind = "forked"

    def __init__(self, read_state: ReadState, replica_id: int = 0,
                 deltas: Optional[Sequence[Delta]] = None):
        if not fork_replicas_available():
            raise RuntimeError("forked replicas need the fork start "
                               "method; use LocalReplica instead")
        context = mp.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        self._conn = parent_conn
        self._lock = threading.Lock()
        self.replica_id = int(replica_id)
        self._process = context.Process(
            target=_replica_loop,
            args=(child_conn, read_state, replica_id, deltas),
            daemon=True, name=f"replica-{replica_id}")
        self._process.start()
        child_conn.close()
        self.pid: Optional[int] = self._process.pid

    def request(self, message: Dict[str, Any],
                timeout: float = 120.0) -> Dict[str, Any]:
        """Round-trip one message to the child (serialized per replica)."""
        with self._lock:
            self._conn.send(message)
            if not self._conn.poll(timeout):
                raise TimeoutError(
                    f"replica {self.replica_id} did not answer within "
                    f"{timeout}s")
            return self._conn.recv()

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self._process.is_alive()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the child: polite stop message, then terminate."""
        try:
            if self._process.is_alive():
                self.request({"op": protocol.OP_STOP}, timeout=timeout)
        except (TimeoutError, BrokenPipeError, OSError):
            pass
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - stuck child
            self._process.terminate()
            self._process.join(timeout)
        self._conn.close()


def start_replica_set(read_state: ReadState, replicas: int,
                      deltas: Optional[Sequence[Delta]] = None,
                      prefer_fork: bool = True) -> List[object]:
    """Spawn ``replicas`` workers over one shared read state.

    Forked workers when the platform supports it (true read scaling:
    own process, shared physical pages), in-process workers otherwise
    (shared-lock serialized, still protocol-identical).  Each worker
    replays ``deltas`` before serving, so the whole set starts at one
    watermark.  Callers own shutdown via each replica's ``close()``.
    """
    if replicas < 1:
        raise ValueError("a replica set needs at least one replica")
    if prefer_fork and fork_replicas_available():
        return [ForkedReplica(read_state, replica_id=i, deltas=deltas)
                for i in range(replicas)]
    shared_lock = threading.Lock()
    return [LocalReplica(
        ReplicaWorker.from_read_state(read_state, replica_id=i,
                                      deltas=deltas), lock=shared_lock)
        for i in range(replicas)]
