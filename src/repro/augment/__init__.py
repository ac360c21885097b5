"""Anomaly-simulating data augmentation (paper Sec. III-A)."""

from .jitter import jitter_segment
from .segment import AUGMENTATIONS, augment_batch, augment_window
from .warp import warp_segment

__all__ = [
    "jitter_segment",
    "warp_segment",
    "augment_window",
    "augment_batch",
    "AUGMENTATIONS",
]
