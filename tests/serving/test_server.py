"""The lifecycle shared by the daemon and the router.

Every check runs against both servers (the router over in-process
replicas): bind failures surface from the in-thread runner, ``quit``
and malformed lines are handled per connection, a second ``stop`` does
nothing, and a pipelined connection is served in arrival order.
"""

import asyncio

import pytest

from repro import LogCL, LogCLConfig
from repro.data import write_store
from repro.datasets import load_preset
from repro.serving import (DaemonConfig, InferenceEngine, ReplicaSetRouter,
                           RouterConfig, ServingDaemon, protocol,
                           serve_in_thread)
from tests.serving.test_daemon import Client

KINDS = ("daemon", "router")


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


@pytest.fixture(scope="module")
def store_path(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "tiny.hst")
    write_store(path, dataset)
    return path


def _engine(dataset, store_path):
    model = LogCL(LogCLConfig(dim=16, window=3, seed=0),
                  dataset.num_entities, dataset.num_relations).eval()
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=3)
    engine.use_store_file(store_path)
    return engine


def _server(kind, engine, port=0, replicas=2):
    if kind == "daemon":
        return ServingDaemon(engine, DaemonConfig(port=port))
    return ReplicaSetRouter(engine, RouterConfig(
        port=port, replicas=replicas, prefer_fork=False))


@pytest.mark.parametrize("kind", KINDS)
def test_lifecycle(kind, dataset, store_path):
    handle = serve_in_thread(_server(kind, _engine(dataset, store_path)))
    try:
        # Binding a port that is already in use raises from the runner.
        with pytest.raises(OSError):
            serve_in_thread(_server(kind, _engine(dataset, store_path),
                                    port=handle.address[1]))

        # ``quit`` closes only its own connection (and gets no reply).
        leaving, staying = Client(handle.address), Client(handle.address)
        leaving.send({"op": "quit"})
        assert leaving.reader.readline() == ""
        leaving.close()
        assert staying.request({"op": "stats", "id": 1})["id"] == 1

        # Blank lines are skipped; a malformed line gets a structured
        # error and the connection keeps serving.
        staying.send("", "{not json")
        bad = staying.recv()
        assert bad["ok"] is False and bad["op"] == "<none>"
        assert "invalid JSON" in bad["error"]
        assert staying.request({"op": "stats"})["ok"]
        staying.close()
    finally:
        handle.stop()

    # A second stop, through the handle or on the server, is a no-op.
    handle.stop()
    asyncio.run(handle.server.stop())


@pytest.mark.parametrize("kind,replicas", [
    pytest.param("daemon", None, id="daemon"),
    pytest.param("router", 1, id="router-1"),
    pytest.param("router", 2, id="router-2")])
def test_pipelined_predicts_keep_arrival_order(kind, replicas, dataset,
                                               store_path):
    """A pipelined predict at ``t`` after one at ``t + 1`` is refused.

    The serial engine refuses the second query (time must not go back),
    so the server must too: it answers the trace in arrival order, and
    a 2-replica router refuses it though the other replica answers it.
    """
    serial = _engine(dataset, store_path)
    handle = serve_in_thread(_server(kind, _engine(dataset, store_path),
                                     replicas=replicas))
    try:
        t = int(serial.next_time)
        trace = [{"op": "predict", "id": "later", "time": t + 1,
                  "queries": [[0, 0]], "topk": 3},
                 {"op": "predict", "id": "earlier", "time": t,
                  "queries": [[1, 1]], "topk": 3}]
        expected = {}
        for request in trace:
            try:
                response = protocol.handle_request(serial, request)
            except Exception as exc:
                response = protocol.error_response(exc, request)
            expected[request["id"]] = response
        assert "monotonically" in expected["earlier"]["error"]
        client = Client(handle.address)
        client.send(*trace)
        got = {r["id"]: r for r in (client.recv() for _ in trace)}
        client.close()
        assert got == expected
    finally:
        handle.stop()
