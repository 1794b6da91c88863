"""Replica-set router: bitwise daemon parity, consistency, HTTP surface.

The acceptance-grade property: a request trace (reads, an ``advance``,
post-advance reads) replayed against a ≥2-replica router produces
responses **bitwise identical** to the single-process daemon serving an
identical engine — whichever replica answers each read.
"""

import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.data import write_store
from repro.datasets import load_preset
from repro.serving import (CalibrationConfig, DaemonConfig,
                           InferenceEngine, ReplicaSetRouter, RouterConfig,
                           ServingDaemon, fork_replicas_available,
                           serve_in_thread)
from repro.serving import protocol


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


@pytest.fixture(scope="module")
def store_path(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "tiny.hst")
    write_store(path, dataset)
    return path


def _engine(dataset, store_path, seed=0):
    model = LogCL(LogCLConfig(dim=16, window=3, seed=seed),
                  dataset.num_entities, dataset.num_relations).eval()
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=3)
    # Calibration rides the read state, so spawned replicas re-enable
    # it and rebuild the identical window from the delta stream —
    # min_samples=1 makes the trace's single advance enough to arm
    # anomaly flags on the post-advance score request.
    engine.enable_calibration(CalibrationConfig(
        quantile=0.2, reference_size=32, min_samples=1))
    engine.use_store_file(store_path)
    return engine


class Client:
    """One blocking JSONL-over-TCP client connection."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=60)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def request(self, request):
        payload = request if isinstance(request, str) \
            else json.dumps(request)
        self.sock.sendall((payload + "\n").encode("utf-8"))
        line = self.reader.readline()
        assert line, "router closed the connection unexpectedly"
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def _trace(dataset, t):
    """Reads, an advance, then post-advance reads (+ error paths).

    The score/forecast pairs bracket the advance: the pre-advance score
    sees a cold calibrator (null flags), the post-advance one sees the
    window the fan-out rolled on *every* replica — so equality across
    daemon/router/serial proves calibration itself is replica-safe.
    """
    facts = dataset.valid.array
    snapshot = facts[facts[:, 3] == t]
    if not len(snapshot):
        snapshot = facts[:3]
    return [
        {"op": "rank", "queries": facts[:4, :3].tolist(), "id": "r1"},
        {"op": "predict", "queries": facts[:3, :2].tolist(), "topk": 5,
         "filtered": True, "id": "p1"},
        {"op": "score", "facts": facts[:4, :3].tolist(),
         "time": int(t), "id": "s1"},
        {"op": "forecast", "queries": facts[:3, :2].tolist(),
         "horizon": 2, "topk": 5, "id": "f1"},
        {"op": "advance", "facts": snapshot[:, :3].tolist(),
         "time": int(t), "id": "a1"},
        {"op": "rank", "queries": facts[:4, :3].tolist(),
         "time": int(t) + 1, "id": "r2"},
        {"op": "predict", "queries": facts[:2, :2].tolist(),
         "time": int(t) + 1, "id": "p2"},
        {"op": "score", "facts": facts[:4, :3].tolist(),
         "time": int(t) + 1, "id": "s2"},
        {"op": "forecast", "queries": facts[:2, :2].tolist(),
         "horizon": 3, "topk": 4, "id": "f2"},
        {"op": "advance", "facts": [[0, 0]], "time": int(t) + 1,
         "id": "bad-shape"},
        {"op": "advance", "facts": [[0, 0, 1]], "time": int(t) - 5,
         "id": "bad-time"},
        {"op": "score", "facts": [[0, 0, 1, 3], [0, 0, 1, 4]],
         "id": "bad-score"},
        {"op": "forecast", "queries": [[0, 0]], "horizon": 0,
         "id": "bad-horizon"},
        {"op": "nope", "id": "bad-op"},
        {"op": "rank", "queries": facts[4:7, :3].tolist(),
         "time": int(t) + 1, "id": "r3"},
    ]


def _serial_response(engine, request):
    """What a bare engine answers — the daemon's exact dispatch."""
    try:
        return protocol.handle_request(engine, request)
    except Exception as exc:
        return protocol.error_response(exc, request)


def _parity_roundtrip(dataset, store_path, prefer_fork, replicas=2):
    served = _engine(dataset, store_path)
    serial = _engine(dataset, store_path)
    router = serve_in_thread(ReplicaSetRouter(served, RouterConfig(
        replicas=replicas, prefer_fork=prefer_fork)))
    daemon = serve_in_thread(ServingDaemon(_engine(dataset, store_path),
                                           DaemonConfig()))
    try:
        rc, dc = Client(router.address), Client(daemon.address)
        t = served.next_time
        for request in _trace(dataset, t):
            a, b = rc.request(request), dc.request(request)
            c = _serial_response(serial, request)
            assert a == b, f"divergence on {request.get('id')}: {a} != {b}"
            assert b == c, f"divergence on {request.get('id')}: {b} != {c}"
        rc.close(), dc.close()
    finally:
        router.stop()
        daemon.stop()


class TestBitwiseDaemonParity:
    def test_two_replicas_local(self, dataset, store_path):
        """The in-process transport: parity independent of fork support."""
        _parity_roundtrip(dataset, store_path, prefer_fork=False)

    @pytest.mark.skipif(not fork_replicas_available(),
                        reason="fork start method unavailable")
    def test_two_replicas_forked(self, dataset, store_path):
        """The production transport: two processes, one store file."""
        _parity_roundtrip(dataset, store_path, prefer_fork=True)

    def test_reads_actually_rotate_replicas(self, dataset, store_path):
        """Round-robin means consecutive identical reads still agree."""
        router = serve_in_thread(ReplicaSetRouter(
            _engine(dataset, store_path),
            RouterConfig(replicas=2, prefer_fork=False)))
        try:
            client = Client(router.address)
            facts = dataset.test.array
            request = {"op": "rank", "queries": facts[:3, :3].tolist()}
            first = client.request(request)
            second = client.request(request)   # lands on the other replica
            assert first == second
            stats = client.request({"op": "stats"})
            served = [k for k in stats["stats"]["counters"]
                      if k.endswith("/queries_ranked")]
            assert len(served) == 2   # both replicas ranked something
            client.close()
        finally:
            router.stop()


# Reads at ``t`` to send after a predict at ``t + 1``, and whether a
# serial engine refuses them for going back in time: it refuses each
# valid read, and answers each malformed one with its parse error,
# which comes first.
BACK_IN_TIME = {
    "predict": (True, lambda t: {"op": "predict", "queries": [[1, 1]],
                                 "time": t}),
    "rank": (True, lambda t: {"op": "rank", "queries": [[1, 1, 2]],
                              "time": t}),
    "score": (True, lambda t: {"op": "score", "facts": [[1, 1, 2]],
                               "time": t}),
    "forecast": (True, lambda t: {"op": "forecast", "queries": [[1, 1]],
                                  "horizon": 2}),
    "bad-predict": (False, lambda t: {"op": "predict", "queries": [[1, 1]],
                                      "time": t, "topk": "x"}),
    "bad-rank": (False, lambda t: {"op": "rank", "queries": [[1, 1]],
                                   "time": t}),
    "bad-score": (False, lambda t: {"op": "score",
                                    "facts": [[1, 1, 2, t],
                                              [1, 1, 2, t + 1]]}),
    "bad-forecast": (False, lambda t: {"op": "forecast",
                                       "queries": [[1, 1]], "horizon": 0}),
}


class TestOneQueryHorizon:
    """The replica set keeps one query horizon, as a serial engine does."""

    @pytest.mark.parametrize("name", list(BACK_IN_TIME))
    def test_read_back_in_time_matches_serial(self, name, dataset,
                                              store_path):
        """The read lands on the replica that never saw ``t + 1``.

        The router still answers it byte for byte as the serial engine
        does: the refusal for a valid read, the parse error for a
        malformed one.
        """
        served = _engine(dataset, store_path)
        serial = _engine(dataset, store_path)
        t = int(serial.next_time)
        refused, build = BACK_IN_TIME[name]
        trace = [{"op": "predict", "queries": [[0, 0]], "time": t + 1,
                  "id": "ahead"}, dict(build(t), id=name)]
        router = serve_in_thread(ReplicaSetRouter(served, RouterConfig(
            replicas=2, prefer_fork=False)))
        try:
            client = Client(router.address)
            got = [client.request(request) for request in trace]
            client.close()
        finally:
            router.stop()
        expected = [_serial_response(serial, request) for request in trace]
        assert got == expected
        assert expected[0]["ok"] and expected[1]["ok"] is False
        assert ("monotonically" in expected[1]["error"]) == refused


class TestSingleReplicaSmoke:
    """The fast path `make test-fast` relies on: one replica, full surface."""

    def test_single_replica_router_end_to_end(self, dataset, store_path):
        served = _engine(dataset, store_path)
        router = serve_in_thread(ReplicaSetRouter(
            served, RouterConfig(replicas=1, prefer_fork=False)))
        try:
            client = Client(router.address)
            t = served.next_time
            facts = dataset.valid.array
            ranked = client.request({"op": "rank",
                                     "queries": facts[:3, :3].tolist()})
            assert ranked["ok"] and len(ranked["ranks"]) == 3
            ack = client.request({"op": "advance",
                                  "facts": facts[:2, :3].tolist(),
                                  "time": int(t)})
            assert ack["ok"] and ack["watermark"] == router.server._watermark
            after = client.request({"op": "predict",
                                    "queries": facts[:2, :2].tolist(),
                                    "time": int(t) + 1})
            assert after["ok"] and len(after["results"]) == 2
            bad = client.request("not json {")
            assert bad["ok"] is False and bad["op"] == "<none>"
            client.close()
            host, port = router.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=30) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["ok"] is True
        finally:
            router.stop()


class TestConsistency:
    def test_lagging_replica_goes_unready_not_stale_reads(
            self, dataset, store_path):
        """Divergence degrades the set instead of breaking parity.

        One replica is advanced behind the router's back, so the next
        fan-out is a mixed outcome: the client gets an error, the
        divergent replica drops from rotation (/readyz goes 503), and
        reads keep flowing from the consistent replica.
        """
        served = _engine(dataset, store_path)
        router = serve_in_thread(ReplicaSetRouter(
            served, RouterConfig(replicas=2, prefer_fork=False)))
        try:
            t = served.next_time
            # Behind the router's back: replica 0 applies a snapshot at
            # the fan-out timestamp, so the router's own advance at t
            # will fail on it (monotonic time) but succeed on replica 1.
            router.server._replicas[0].request({
                "op": protocol.OP_APPLY,
                "request": {"op": "advance", "facts": [[0, 0, 1]],
                            "time": int(t)}})
            client = Client(router.address)
            facts = dataset.valid.array
            mixed = client.request({"op": "advance",
                                    "facts": facts[:2, :3].tolist(),
                                    "time": int(t)})
            assert mixed["ok"] is False
            assert "not idempotent" in mixed["error"]
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/readyz",
                                       timeout=30)
            assert excinfo.value.code == 503
            rows = json.loads(excinfo.value.read())["replicas"]
            assert [row["ready"] for row in rows] == [False, True]
            # Reads keep flowing from the surviving replica.
            after = client.request({"op": "rank",
                                    "queries": facts[:3, :3].tolist(),
                                    "time": int(t) + 1})
            assert after["ok"]
            client.close()
        finally:
            router.stop()

    def test_replica_failure_answers_the_read(self, dataset, store_path):
        """A replica that fails mid-read yields the read's own error.

        The error names the request's op and echoes its id, the replica
        drops from rotation, and the next read is served by the other.
        """
        router = serve_in_thread(ReplicaSetRouter(
            _engine(dataset, store_path),
            RouterConfig(replicas=2, prefer_fork=False)))
        try:
            def broken(message):
                raise OSError("pipe closed")

            router.server._replicas[0].request = broken
            client = Client(router.address)
            read = {"op": "rank", "queries": [[0, 0, 1]]}
            failed = client.request(dict(read, id="first"))
            served = client.request(dict(read, id="second"))
            client.close()
            assert failed == {"ok": False, "op": "rank", "id": "first",
                              "error": "replica 0 failed: pipe closed"}
            assert served["ok"] and served["id"] == "second"
        finally:
            router.stop()

    def test_uniform_rejection_keeps_set_ready(self, dataset, store_path):
        router = serve_in_thread(ReplicaSetRouter(
            _engine(dataset, store_path),
            RouterConfig(replicas=2, prefer_fork=False)))
        try:
            client = Client(router.address)
            rejected = client.request({"op": "advance", "facts": [[0, 0]],
                                       "time": 999})
            assert rejected["ok"] is False and rejected["op"] == "advance"
            host, port = router.address
            with urllib.request.urlopen(f"http://{host}:{port}/readyz",
                                        timeout=30) as resp:
                assert resp.status == 200
            client.close()
        finally:
            router.stop()


class TestHTTPSurface:
    def test_stats_merges_per_replica_telemetry(self, dataset, store_path):
        router = serve_in_thread(ReplicaSetRouter(
            _engine(dataset, store_path),
            RouterConfig(replicas=2, prefer_fork=False)))
        try:
            client = Client(router.address)
            facts = dataset.test.array
            for _ in range(2):
                client.request({"op": "rank",
                                "queries": facts[:3, :3].tolist()})
            client.close()
            host, port = router.address
            with urllib.request.urlopen(f"http://{host}:{port}/stats",
                                        timeout=30) as resp:
                payload = json.loads(resp.read())
            counters = payload["stats"]["counters"]
            assert counters["router/requests_total"] == 2
            per_replica = [k for k in counters
                           if k.endswith("/queries_ranked")
                           and k.startswith("replica")]
            assert len(per_replica) == 2   # attribution preserved
            assert len(payload["replicas"]) == 2
        finally:
            router.stop()

    def test_stats_merge_per_replica_cache_entries(self, dataset,
                                                   store_path):
        """Each replica reports its cache entries after every advance,
        and the reads after an advance retire what the advance's time
        left behind."""
        served = _engine(dataset, store_path)
        router = serve_in_thread(ReplicaSetRouter(
            served, RouterConfig(replicas=2, prefer_fork=False)))
        try:
            client = Client(router.address)
            queries = dataset.test.array[:3, :2].tolist()
            t = int(served.next_time)
            assert client.request({"op": "advance", "time": t,
                                   "facts": dataset.valid.array[:4, :3]
                                   .tolist()})["ok"]
            for _ in range(2):
                assert client.request({"op": "predict",
                                       "queries": queries})["ok"]
            stats = client.request({"op": "stats"})["stats"]
            client.close()
            for i in range(2):
                for name in ("context", "subgraph", "score"):
                    series = stats["scalars"][
                        f"replica{i}/{name}_cache_entries"]
                    assert series["count"] == 1
                assert stats["counters"][
                    f"replica{i}/cache_entries_retired"] > 0
        finally:
            router.stop()

    def test_stats_reports_watermark_age(self, dataset, store_path):
        """/stats carries seconds-since-last-advance; an advance resets it.

        The age field is HTTP-only — the JSONL ``stats`` op must stay
        wall-clock free so request traces replay bitwise-identically.
        """
        served = _engine(dataset, store_path)
        router = serve_in_thread(ReplicaSetRouter(
            served, RouterConfig(replicas=1, prefer_fork=False)))
        try:
            host, port = router.address

            def http_stats():
                with urllib.request.urlopen(
                        f"http://{host}:{port}/stats", timeout=30) as resp:
                    return json.loads(resp.read())

            first = http_stats()
            assert first["watermark_age_s"] >= 0.0  # age since start
            client = Client(router.address)
            jsonl_stats = client.request({"op": "stats"})
            assert "watermark_age_s" not in jsonl_stats
            import time
            time.sleep(0.05)
            aged = http_stats()["watermark_age_s"]
            assert aged >= 0.05
            facts = dataset.valid.array
            ack = client.request({"op": "advance",
                                  "facts": facts[:2, :3].tolist(),
                                  "time": int(served.next_time)})
            assert ack["ok"]
            assert http_stats()["watermark_age_s"] < aged
            client.close()
        finally:
            router.stop()

    def test_unknown_path_404(self, dataset, store_path):
        router = serve_in_thread(ReplicaSetRouter(
            _engine(dataset, store_path),
            RouterConfig(replicas=1, prefer_fork=False)))
        try:
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/nope",
                                       timeout=30)
            assert excinfo.value.code == 404
        finally:
            router.stop()
