"""Store files and engine snapshots replace their path atomically.

Both writers go through :func:`repro.utils.atomic_write`: a write that
fails partway leaves the previous file byte-identical under its name
and no temporary file behind.  The failure is injected into the real
writer by a handle that raises after a few ``write`` calls.
"""

import os
from contextlib import contextmanager

import pytest

from repro import LogCL, LogCLConfig
from repro.data import storefile, write_store
from repro.datasets import load_preset
from repro.serving import InferenceEngine
from repro.training import checkpoint, load_engine_state, save_engine_state
from repro.utils import atomic_write


class _FailingHandle:
    """Forwards to a file handle; its ``writes + 1``-th write raises."""

    def __init__(self, handle, writes):
        self._handle = handle
        self._left = writes

    def write(self, data):
        if self._left == 0:
            raise OSError("injected failure mid-write")
        self._left -= 1
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _fail_after(writes):
    @contextmanager
    def failing(path):
        with atomic_write(path) as handle:
            yield _FailingHandle(handle, writes)
    return failing


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_failed_store_write_keeps_the_previous_file(dataset, tmp_path,
                                                    monkeypatch):
    path = str(tmp_path / "tiny.hst")
    write_store(path, dataset)
    before = _read(path)
    assert os.listdir(tmp_path) == ["tiny.hst"]
    monkeypatch.setattr(storefile, "atomic_write", _fail_after(3))
    with pytest.raises(OSError, match="mid-write"):
        write_store(path, dataset)
    assert _read(path) == before
    assert os.listdir(tmp_path) == ["tiny.hst"]
    storefile.open_store(path)      # still a valid store


def test_failed_engine_snapshot_keeps_the_previous_one(dataset, tmp_path,
                                                       monkeypatch):
    model = LogCL(LogCLConfig(dim=16, window=3, seed=0),
                  dataset.num_entities, dataset.num_relations).eval()
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=3)
    engine.preload(dataset, splits=("train",))
    path = str(tmp_path / "state.npz")
    save_engine_state(engine, path)
    before = _read(path)
    engine.advance(dataset.valid.array[:4, :3], time=engine.next_time)
    monkeypatch.setattr(checkpoint, "atomic_write", _fail_after(2))
    with pytest.raises(OSError, match="mid-write"):
        save_engine_state(engine, path)
    assert _read(path) == before
    assert os.listdir(tmp_path) == ["state.npz"]
    restored = InferenceEngine(model, dataset.num_entities,
                               dataset.num_relations, window=3)
    load_engine_state(restored, path)
    assert restored.watermark == engine.watermark - 1
