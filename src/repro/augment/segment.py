"""Random-segment augmentation pipeline (paper Sec. III-A, Fig. 5).

Rather than distorting the whole window — which computer-vision-style
pipelines do and which makes augmented data indistinguishable from
anomalies everywhere — TriAD alters one random segment of varying
location, length, and shape, simulating how real anomalies appear
embedded in normal context.
"""

from __future__ import annotations

import numpy as np

from .jitter import jitter_segment
from .warp import warp_segment

__all__ = ["augment_window", "augment_batch", "AUGMENTATIONS"]

# TriAD's pipeline: the paper's Eq. 3-4 pair.
AUGMENTATIONS = ("jitter", "warp")


def augment_window(
    window: np.ndarray,
    rng: np.random.Generator,
    min_fraction: float = 0.1,
    max_fraction: float = 0.5,
) -> np.ndarray:
    """Apply jitter or warp, chosen at random, to one segment of ``window``.

    The segment start ``j`` and length ``l`` (Eq. 3) are drawn uniformly
    with ``l`` between ``min_fraction`` and ``max_fraction`` of the
    window, so the model sees anomalies of many sizes during training.
    """
    window = np.asarray(window, dtype=np.float64)
    size = len(window)
    length = int(rng.integers(max(int(size * min_fraction), 2), max(int(size * max_fraction), 3)))
    start = int(rng.integers(0, size - length + 1))
    if AUGMENTATIONS[rng.integers(0, len(AUGMENTATIONS))] == "jitter":
        return jitter_segment(window, start, length, rng)
    return warp_segment(window, start, length, rng)


def augment_batch(windows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Augment each row of a ``(batch, length)`` array independently."""
    windows = np.asarray(windows, dtype=np.float64)
    return np.stack([augment_window(w, rng) for w in windows])
