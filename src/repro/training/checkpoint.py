"""Checkpointing model weights (and serving-engine state) to .npz archives."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

import numpy as np

from ..nn import Module
from ..utils.atomic import atomic_write


def save_checkpoint(model: Module, path: str,
                    metadata: Optional[Dict[str, Any]] = None) -> None:
    """Persist a model's parameters (and optional JSON metadata) to disk.

    The archive stores each named parameter as an array plus a reserved
    ``__metadata__`` JSON blob, so checkpoints are portable and inspectable
    with plain numpy.
    """
    state = model.state_dict()
    if "__metadata__" in state:
        raise ValueError("parameter name __metadata__ is reserved")
    payload = dict(state)
    payload["__metadata__"] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savez(path if path.endswith(".npz") else path + ".npz", **payload)


def load_checkpoint(model: Module, path: str) -> Dict[str, Any]:
    """Load parameters into ``model`` in place; returns the metadata."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        metadata = json.loads(bytes(archive["__metadata__"]).decode("utf-8"))
        state = {name: archive[name] for name in archive.files
                 if name != "__metadata__"}
    model.load_state_dict(state)
    return metadata


# -- serving-engine state --------------------------------------------------

_ENGINE_KEYS = ("__metadata__", "__serving_facts__", "__serving_meta__",
                "__serving_store__", "__serving_calibration__")


def save_engine_state(engine, path: str,
                      metadata: Optional[Dict[str, Any]] = None) -> None:
    """Persist a serving engine (model weights + ingested history).

    One archive restarts the whole service: the model's parameters are
    stored exactly as :func:`save_checkpoint` would, plus the engine's
    replayable history under reserved ``__serving_*`` keys.  For an
    engine backed by a store file the archive records the backing path
    (``__serving_store__``) and **only the post-adoption delta facts**
    — restore re-maps the file and replays just the delta, never a
    duplicated copy of the mapped history.  The archive replaces
    ``path`` atomically (:func:`repro.utils.atomic_write`), so a crash
    mid-save leaves the previous snapshot readable.
    """
    state = engine.model.state_dict()
    for reserved in _ENGINE_KEYS:
        if reserved in state:
            raise ValueError(f"parameter name {reserved} is reserved")
    serving = engine.serving_state()
    payload = dict(state)
    payload["__serving_facts__"] = serving["facts"]
    payload["__serving_meta__"] = serving["meta"]
    if "store_path" in serving:
        payload["__serving_store__"] = serving["store_path"]
    if "calibration" in serving:
        # The score calibrator's rolling reference window: restart must
        # flag anomalies against the same threshold as the live engine.
        payload["__serving_calibration__"] = serving["calibration"]
    payload["__metadata__"] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path if path.endswith(".npz")
                      else path + ".npz") as handle:
        np.savez(handle, **payload)


def load_engine_state(engine, path: str) -> Dict[str, Any]:
    """Restore model weights and ingested history into ``engine``.

    The engine must be built for the same model architecture and
    vocabulary sizes; returns the archive's metadata.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        if "__serving_facts__" not in archive.files:
            raise ValueError(f"{path} is a plain model checkpoint, not an "
                             "engine state (use load_checkpoint)")
        metadata = json.loads(bytes(archive["__metadata__"]).decode("utf-8"))
        params = {name: archive[name] for name in archive.files
                  if name not in _ENGINE_KEYS}
        serving = {"facts": archive["__serving_facts__"],
                   "meta": archive["__serving_meta__"]}
        if "__serving_store__" in archive.files:
            serving["store_path"] = archive["__serving_store__"]
        if "__serving_calibration__" in archive.files:
            serving["calibration"] = archive["__serving_calibration__"]
    engine.model.load_state_dict(params)
    engine.model.eval()
    engine.restore_state(serving)
    return metadata
