"""Save and load fitted TriAD detectors.

A fitted detector is three things: encoder weights, the window plan,
and the configuration (plus the training series, which single-window
selection compares against).  Everything is packed into one ``.npz``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from ..signal.windows import WindowPlan
from .config import TriADConfig
from .detector import TriAD
from .encoder import TriDomainEncoder
from .trainer import TrainResult

__all__ = ["save_detector", "load_detector"]

_META_KEY = "__triad_meta__"
_TRAIN_KEY = "__train_series__"
# Config fields that older files carry but TriADConfig no longer has.
_RETIRED_CONFIG_KEYS = ("discord_mode", "data_parallel_workers")


def save_detector(detector: TriAD, path: str | os.PathLike) -> None:
    """Persist a fitted detector to ``path`` (npz)."""
    result = detector._fitted()
    meta = {
        "config": dataclasses.asdict(detector.config),
        "plan": dataclasses.asdict(result.plan),
        "train_losses": result.train_losses,
        "val_losses": result.val_losses,
    }
    payload = dict(result.encoder.state_dict())
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    payload[_TRAIN_KEY] = detector._train_series
    np.savez_compressed(path, **payload)


def load_detector(path: str | os.PathLike) -> TriAD:
    """Restore a detector saved with :func:`save_detector`.

    The returned detector is ready for :meth:`TriAD.detect` without
    retraining.
    """
    with np.load(path) as archive:
        raw_meta = bytes(archive[_META_KEY].tobytes())
        meta = json.loads(raw_meta.decode("utf-8"))
        train_series = archive[_TRAIN_KEY]
        state = {
            key: archive[key]
            for key in archive.files
            if key not in (_META_KEY, _TRAIN_KEY)
        }

    config_dict = meta["config"]
    config_dict["domains"] = tuple(config_dict["domains"])
    for key in _RETIRED_CONFIG_KEYS:
        config_dict.pop(key, None)
    config = TriADConfig(**config_dict)
    encoder = TriDomainEncoder(config)
    encoder.load_state_dict(state)
    encoder.eval()

    detector = TriAD(config)
    detector._train_series = np.asarray(train_series, dtype=np.float64)
    detector._result = TrainResult(
        encoder=encoder,
        plan=WindowPlan(**meta["plan"]),
        config=config,
        train_losses=list(meta["train_losses"]),
        val_losses=list(meta["val_losses"]),
    )
    return detector
