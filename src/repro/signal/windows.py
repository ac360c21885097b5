"""Time series segmentation into fixed-length windows.

The paper segments each series into windows of 2.5 × the estimated
period with a stride of a quarter window (Sec. IV-A2).  These helpers
produce the windows together with their start offsets so detections can
be mapped back to absolute timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .period import estimate_period

__all__ = ["WindowPlan", "sliding_windows", "plan_windows"]


@dataclass(frozen=True)
class WindowPlan:
    """Segmentation parameters for one dataset.

    Attributes
    ----------
    length:
        Window length (2.5 × period by default).
    stride:
        Hop between consecutive windows (length // 4 by default).
    period:
        The period estimate the plan is based on.
    """

    length: int
    stride: int
    period: int


def plan_windows(
    train: np.ndarray,
    periods_per_window: float = 2.5,
    stride_fraction: float = 0.25,
    min_length: int = 16,
    max_length: int | None = None,
) -> WindowPlan:
    """Derive the paper's segmentation plan from the training split."""
    period = estimate_period(train)
    length = max(int(round(periods_per_window * period)), min_length)
    if max_length is not None:
        length = min(length, max_length)
    length = min(length, len(train))
    stride = max(int(round(length * stride_fraction)), 1)
    return WindowPlan(length=length, stride=stride, period=period)


def sliding_windows(
    x: np.ndarray, length: int, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Slice ``x`` into overlapping windows.

    Returns
    -------
    windows:
        Array of shape ``(count, length)`` (a copy, safe to mutate).
    starts:
        Start index of each window within ``x``.  The final window is
        anchored to the end of the series so full coverage is guaranteed
        even when ``len(x) - length`` is not a multiple of ``stride``.
    """
    x = np.asarray(x, dtype=np.float64)
    if length > len(x):
        raise ValueError(f"window length {length} exceeds series length {len(x)}")
    if stride < 1:
        raise ValueError("stride must be positive")
    starts = list(range(0, len(x) - length + 1, stride))
    last = len(x) - length
    if starts[-1] != last:
        starts.append(last)
    starts = np.asarray(starts, dtype=np.int64)
    windows = np.stack([x[s : s + length] for s in starts])
    return windows, starts
