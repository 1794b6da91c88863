"""Serving daemon lifecycle: concurrency, backpressure, restart.

The three acceptance-grade properties:

* concurrent clients get **bitwise** the answers the serial engine
  gives (each request batch is its own forward — composition preserved);
* past the admission-control depth requests are *shed* with a
  structured overload error, never hung;
* graceful shutdown snapshots the engine and a restarted daemon
  replays only the post-snapshot delta (store-file-backed engines keep
  their facts in the mapped file).
"""

import json
import os
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.data import write_store
from repro.datasets import load_preset
from repro.serving import (DaemonConfig, InferenceEngine, ServingDaemon,
                           serve_in_thread)
from repro.serving import protocol


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


def _model(dataset, seed=0):
    return LogCL(LogCLConfig(dim=16, window=3, seed=seed),
                 dataset.num_entities, dataset.num_relations).eval()


def _engine(dataset, seed=0, preload=("train",)):
    engine = InferenceEngine(_model(dataset, seed), dataset.num_entities,
                             dataset.num_relations, window=3)
    if preload:
        engine.preload(dataset, splits=preload)
    return engine


class Client:
    """One blocking JSONL-over-TCP client connection."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, *requests):
        """Send request lines in one write (a pipelined burst)."""
        self.sock.sendall("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n"
            for r in requests).encode("utf-8"))

    def recv(self):
        line = self.reader.readline()
        assert line, "daemon closed the connection unexpectedly"
        return json.loads(line)

    def request(self, request):
        self.send(request)
        return self.recv()

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture()
def daemon_pair(dataset):
    """A served engine plus an identical serial engine for parity."""
    served = _engine(dataset, seed=0)
    serial = _engine(dataset, seed=0)
    handle = serve_in_thread(ServingDaemon(served,
                                           DaemonConfig(max_queue=256)))
    yield handle, serial
    handle.stop()


class TestConcurrentParity:
    def test_predict_parity_bitwise(self, daemon_pair, dataset):
        """8 concurrent clients == the serial engine, response-for-response.

        Each client sends a differently composed query batch; the daemon
        serves each request as its own forward, so every response must
        equal (including every probability digit) what
        `protocol.handle_request` produces on an identical serial engine.
        """
        handle, serial = daemon_pair
        t = serial.next_time
        facts = dataset.valid.array
        requests = []
        for i in range(8):
            rows = facts[i:i + 3 + (i % 3)]
            requests.append({"op": "predict", "id": i, "time": int(t),
                             "queries": rows[:, :2].tolist(), "topk": 5})
        expected = {r["id"]: protocol.handle_request(serial, r)
                    for r in requests}

        responses = {}
        errors = []

        def run(request):
            client = Client(handle.address)
            try:
                responses[request["id"]] = client.request(request)
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=run, args=(r,)) for r in requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        assert responses == expected

    def test_rank_parity_bitwise(self, daemon_pair, dataset):
        handle, serial = daemon_pair
        t = serial.next_time
        facts = dataset.valid.array
        requests = [{"op": "rank", "id": i, "time": int(t),
                     "queries": facts[i:i + 4, :3].tolist()}
                    for i in range(8)]
        expected = {r["id"]: protocol.handle_request(serial, r)
                    for r in requests}
        responses = {}

        def run(request):
            client = Client(handle.address)
            try:
                responses[request["id"]] = client.request(request)
            finally:
                client.close()

        threads = [threading.Thread(target=run, args=(r,)) for r in requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert responses == expected

    def test_score_parity_bitwise_and_grouped(self, dataset):
        """Concurrent score requests match the serial engine.

        Each fact batch keeps its own forward, so a calibrated daemon's
        responses must equal the serial engine's digit-for-digit.
        """
        from repro.serving import CalibrationConfig

        def calibrated(seed=0):
            engine = _engine(dataset, seed=seed, preload=None)
            engine.enable_calibration(CalibrationConfig(
                quantile=0.2, reference_size=64, min_samples=1))
            engine.preload(dataset, splits=("train",))
            return engine

        served, serial = calibrated(), calibrated()
        handle = serve_in_thread(ServingDaemon(served,
                                               DaemonConfig(max_queue=256)))
        try:
            t = serial.next_time
            facts = dataset.valid.array
            requests = [{"op": "score", "id": i, "time": int(t),
                         "facts": facts[i:i + 3, :3].tolist()}
                        for i in range(8)]
            expected = {r["id"]: protocol.handle_request(serial, r)
                        for r in requests}
            assert all(row["anomalous"] is not None
                       for r in expected.values() for row in r["results"])
            responses = {}

            def run(request):
                client = Client(handle.address)
                try:
                    responses[request["id"]] = client.request(request)
                finally:
                    client.close()

            threads = [threading.Thread(target=run, args=(r,))
                       for r in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert responses == expected
        finally:
            handle.stop()


class TestCoalescing:
    """Pipelined requests are served one engine job each, in order."""

    def test_failing_request_errors_alone(self, dataset):
        """An engine fault answers that request alone with an error.

        The pipelined requests before and after it are served normally:
        nothing is dropped and nothing else fails.
        """
        served, serial = _engine(dataset), _engine(dataset)
        real_predict = served.predict
        calls = {"n": 0}

        def flaky_predict(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected engine fault")
            return real_predict(*args, **kwargs)

        served.predict = flaky_predict
        handle = serve_in_thread(ServingDaemon(served, DaemonConfig()))
        try:
            t = int(serial.next_time)
            requests = [{"op": "predict", "id": i, "time": t, "topk": 3,
                         "queries": [[i, 0]]} for i in range(3)]
            client = Client(handle.address)
            client.send(*requests)
            responses = {r["id"]: r for r in
                         (client.recv() for _ in requests)}
            client.close()
            assert responses[1]["ok"] is False
            assert "injected engine fault" in responses[1]["error"]
            for i in (0, 2):
                assert responses[i] == protocol.handle_request(serial,
                                                               requests[i])
        finally:
            handle.stop()


class TestBackpressure:
    def test_overload_sheds_instead_of_hanging(self, dataset):
        """A saturating client gets `overloaded` errors, not silence."""
        engine = _engine(dataset, seed=0)
        real_predict = engine.predict

        def slow_predict(*args, **kwargs):
            time.sleep(0.05)
            return real_predict(*args, **kwargs)

        engine.predict = slow_predict
        handle = serve_in_thread(ServingDaemon(engine,
                                               DaemonConfig(max_queue=2)))
        try:
            client = Client(handle.address)
            total = 30
            for i in range(total):
                client.send({"op": "predict", "id": i,
                             "queries": [[0, 0]], "topk": 3})
            responses = [client.recv() for _ in range(total)]
            client.close()
            shed = [r for r in responses if r.get("shed")]
            served = [r for r in responses if r["ok"]]
            assert len(responses) == total  # nothing hung
            assert shed, "saturating load produced no shed responses"
            assert all(r["error"] == "overloaded" for r in shed)
            assert served, "backpressure must not shed everything"
            assert handle.server.stats.counters["requests_shed"] == len(shed)
        finally:
            handle.stop()


class TestSnapshotRestart:
    def test_restart_replays_only_post_snapshot_delta(self, dataset,
                                                      tmp_path):
        """stop() snapshots; a restarted daemon answers identically.

        The engine is backed by a store file, so the snapshot must hold
        the backing *path* plus only the facts advanced after adoption —
        never a copy of the mapped history.
        """
        store_path = str(tmp_path / "history.store")
        write_store(store_path, dataset)
        snapshot = str(tmp_path / "daemon_state.npz")

        engine = InferenceEngine(_model(dataset, seed=0),
                                 dataset.num_entities, dataset.num_relations,
                                 window=3)
        mapped_facts = engine.use_store_file(store_path)
        handle = serve_in_thread(ServingDaemon(
            engine, DaemonConfig(snapshot_path=snapshot)))
        client = Client(handle.address)
        t = int(client.request({"op": "stats"})["stats"]["counters"]
                .get("snapshots_ingested", 0))  # just exercises stats op
        delta = [[0, 0, 1], [2, 1, 3]]
        advance = client.request({"op": "advance", "facts": delta})
        assert advance["ok"]
        query = {"op": "predict", "queries": [[0, 0], [2, 1]], "topk": 5,
                 "time": advance["time"] + 1}
        before = client.request(query)
        assert before["ok"]
        client.close()
        handle.stop()  # graceful: drains, snapshots

        assert os.path.exists(snapshot)
        with np.load(snapshot) as archive:
            assert "__serving_store__" in archive.files
            assert str(archive["__serving_store__"]) == \
                os.path.abspath(store_path)
            saved = archive["__serving_facts__"]
            # Only the delta rows, not the mapped history.
            assert len(saved) == len(delta)
            assert len(saved) < mapped_facts

        # "Restart": a fresh engine with *different* init weights — the
        # snapshot must restore weights AND history.
        engine2 = InferenceEngine(_model(dataset, seed=7),
                                  dataset.num_entities,
                                  dataset.num_relations, window=3)
        handle2 = serve_in_thread(ServingDaemon(
            engine2, DaemonConfig(snapshot_path=snapshot)))
        try:
            assert handle2.server.restored_snapshot
            client2 = Client(handle2.address)
            after = client2.request(query)
            client2.close()
            assert after == before
        finally:
            handle2.stop()

    def test_missing_snapshot_starts_cold(self, dataset, tmp_path):
        engine = _engine(dataset, seed=0)
        handle = serve_in_thread(ServingDaemon(engine, DaemonConfig(
            snapshot_path=str(tmp_path / "never_written.npz"))))
        try:
            assert not handle.server.restored_snapshot
            client = Client(handle.address)
            assert client.request({"op": "stats"})["ok"]
            client.close()
        finally:
            handle.stop()


class TestProtocolOverTheWire:
    def test_bad_lines_get_structured_errors(self, dataset):
        engine = _engine(dataset, seed=0, preload=())
        handle = serve_in_thread(ServingDaemon(engine, DaemonConfig()))
        try:
            client = Client(handle.address)
            bare = client.request("5")
            assert not bare["ok"] and "JSON object" in bare["error"]
            assert "'5'" in bare["error"]  # names the offending line
            broken = client.request("{not json")
            assert not broken["ok"] and "invalid JSON" in broken["error"]
            unknown = client.request({"op": "nonsense", "id": 7})
            assert not unknown["ok"] and unknown["id"] == 7
            assert "unknown op" in unknown["error"]
            client.close()
        finally:
            handle.stop()

    def test_out_of_range_ids_rejected(self, dataset):
        engine = _engine(dataset, seed=0, preload=())
        handle = serve_in_thread(ServingDaemon(engine, DaemonConfig()))
        try:
            client = Client(handle.address)
            response = client.request({
                "op": "advance", "id": "big",
                "facts": [[0, 0, 2 ** 40]]})
            assert not response["ok"] and response["id"] == "big"
            assert "int32" in response["error"]
            client.close()
        finally:
            handle.stop()

    def test_id_echo_on_success(self, dataset):
        engine = _engine(dataset, seed=0)
        handle = serve_in_thread(ServingDaemon(engine, DaemonConfig()))
        try:
            client = Client(handle.address)
            response = client.request({"op": "predict", "id": "q-1",
                                       "queries": [[0, 0]], "topk": 3})
            assert response["ok"] and response["id"] == "q-1"
            stats = client.request({"op": "stats", "id": 2})
            assert stats["ok"] and stats["id"] == 2
            client.close()
        finally:
            handle.stop()

    def test_daemon_stats_expose_queue_and_batching(self, dataset):
        engine = _engine(dataset, seed=0)
        handle = serve_in_thread(ServingDaemon(engine, DaemonConfig()))
        try:
            client = Client(handle.address)
            client.request({"op": "predict", "queries": [[0, 0]]})
            client.request({"op": "stats"})
            stats = client.request({"op": "stats"})["stats"]
            client.close()
            assert stats["counters"]["requests_total"] >= 3
            assert stats["counters"]["daemon_connections"] >= 1
            assert "daemon/predict" in stats["stages"]
            # The span around an op closes after its payload renders, so
            # the *second* stats request sees the first one's span.
            assert "daemon/stats" in stats["stages"]
            assert "queue_wait_ms" in stats["scalars"]
        finally:
            handle.stop()


class TestQueueDepthSampling:
    def test_depth_sampled_on_dequeue_not_just_enqueue(self, dataset):
        """The series must record the queue draining, not only filling.

        A sequential client leaves depth 1 at every enqueue; only the
        dequeue-side sample ever sees 0.  Under enqueue-only sampling
        this renders count == jobs and last == 1.0 — the regression this
        test pins down is exactly 2 samples per job with the *last* one
        taken after the consumer pulled the job off (depth back to 0).
        """
        handle = serve_in_thread(ServingDaemon(_engine(dataset, seed=0),
                                               DaemonConfig()))
        try:
            client = Client(handle.address)
            facts = dataset.test.array
            jobs = 5
            for i in range(jobs):
                ranked = client.request({"op": "rank", "id": i,
                                         "queries": facts[:2, :3].tolist()})
                assert ranked["ok"]
            depth = client.request({"op": "stats"})["stats"]["scalars"][
                "queue_depth"]
            client.close()
            # jobs rank requests + the stats request itself, each sampled
            # at enqueue (depth 1) and at dequeue (depth 0).
            assert depth["count"] == 2 * (jobs + 1)
            assert depth["last"] == 0.0
            assert depth["max"] >= 1.0
        finally:
            handle.stop()


    def test_depth_returns_to_zero_under_concurrent_clients(self, dataset):
        """Admission and job start count on two threads; none is lost.

        Four clients pipeline cheap requests while the interpreter
        switches threads as often as it can.  Every request is sampled
        once at admission and once at start, and a final request, sent
        after every other is answered, must see the depth back at 0.
        """
        handle = serve_in_thread(ServingDaemon(_engine(dataset, seed=0),
                                               DaemonConfig(max_queue=1000)))
        clients, per_client = 4, 50
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def run():
                client = Client(handle.address)
                try:
                    client.send(*[{"op": "nonsense"}] * per_client)
                    for _ in range(per_client):
                        client.recv()
                finally:
                    client.close()

            threads = [threading.Thread(target=run) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            client = Client(handle.address)
            depth = client.request({"op": "stats"})["stats"]["scalars"][
                "queue_depth"]
            client.close()
            assert depth["count"] == 2 * (clients * per_client + 1)
            assert depth["last"] == 0.0
        finally:
            sys.setswitchinterval(interval)
            handle.stop()


class TestSnapshotAdvanceRace:
    def test_mid_advance_client_neither_doubles_nor_drops(self, dataset,
                                                          tmp_path):
        """An advance racing graceful stop() lands exactly 0 or 1 times.

        The client fires an ``advance`` concurrently with ``stop()``.
        Whatever the interleaving, the snapshot the daemon writes must
        agree with the acknowledgement the client saw: an acked delta
        appears in the restarted engine exactly once (watermark base+1,
        ranks match a reference advanced once), an unacked one not at
        all (watermark base, ranks match the un-advanced reference).
        """
        store_path = str(tmp_path / "history.store")
        write_store(store_path, dataset)
        snapshot = str(tmp_path / "race_state.npz")

        engine = InferenceEngine(_model(dataset, seed=0),
                                 dataset.num_entities, dataset.num_relations,
                                 window=3)
        engine.use_store_file(store_path)
        base, t = engine.watermark, int(engine.next_time)
        handle = serve_in_thread(ServingDaemon(
            engine, DaemonConfig(snapshot_path=snapshot)))

        outcome = {}

        def racer():
            try:
                client = Client(handle.address)
                try:
                    outcome["ack"] = client.request(
                        {"op": "advance", "facts": [[0, 0, 1]], "time": t})
                finally:
                    client.close()
            except Exception as exc:   # connection torn down mid-stop
                outcome["refused"] = exc

        thread = threading.Thread(target=racer)
        thread.start()
        handle.stop()   # graceful: drains admitted jobs, then snapshots
        thread.join(60)
        assert outcome, "racer thread recorded no outcome"
        acked = bool(outcome.get("ack", {}).get("ok"))

        # Restart from the snapshot and interrogate the watermark.
        engine2 = InferenceEngine(_model(dataset, seed=0),
                                  dataset.num_entities, dataset.num_relations,
                                  window=3)
        handle2 = serve_in_thread(ServingDaemon(
            engine2, DaemonConfig(snapshot_path=snapshot)))
        try:
            assert handle2.server.restored_snapshot
            client = Client(handle2.address)
            stats = client.request({"op": "stats"})
            assert stats["watermark"] == base + (1 if acked else 0)

            reference = InferenceEngine(_model(dataset, seed=0),
                                        dataset.num_entities,
                                        dataset.num_relations, window=3)
            reference.use_store_file(store_path)
            if acked:
                reference.advance(np.array([[0, 0, 1]]), time=t)
            query = {"op": "rank", "time": t + 1,
                     "queries": dataset.test.array[:4, :3].tolist()}
            assert client.request(query) == \
                protocol.handle_request(reference, query)
            client.close()
        finally:
            handle2.stop()
