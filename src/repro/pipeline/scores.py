"""Shared point-score utilities.

Hoisted out of ``repro.baselines.base`` so every layer — baseline
thresholds, serve alert calibration, window-scorer adapters — turns
window scores into point scores and thresholds through one
implementation (``repro.baselines`` re-exports both for
compatibility).
"""

from __future__ import annotations

import numpy as np

__all__ = ["spread_window_scores", "calibrate_threshold"]


def spread_window_scores(
    scores: np.ndarray, starts: np.ndarray, length: int, total: int
) -> np.ndarray:
    """Convert per-window scores into per-point scores by averaging the
    scores of every window covering each point.

    ``scores`` holds one scalar per window (shape ``(n,)``) or one row of
    per-point values per window (shape ``(n, length)``); either way a
    point gets the mean over the windows that cover it."""
    accumulated = np.zeros(total)
    counts = np.zeros(total)
    for score, start in zip(scores, starts):
        accumulated[start : start + length] += score
        counts[start : start + length] += 1.0
    counts[counts == 0] = 1.0
    return accumulated / counts


def calibrate_threshold(train_scores: np.ndarray, sigma: float = 3.0) -> float:
    """Mean + ``sigma`` std of the training scores — the conventional
    label-free threshold for reconstruction/likelihood detectors."""
    train_scores = np.asarray(train_scores, dtype=np.float64)
    return float(train_scores.mean() + sigma * train_scores.std())
