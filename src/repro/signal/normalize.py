"""Normalization utilities shared across the library."""

from __future__ import annotations

import numpy as np

__all__ = ["zscore", "robust_zscore"]

_EPS = 1e-12


def zscore(x: np.ndarray, axis=None) -> np.ndarray:
    """Standard z-normalization; constant inputs map to zeros."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=axis, keepdims=axis is not None)
    std = x.std(axis=axis, keepdims=axis is not None)
    return (x - mean) / np.maximum(std, _EPS)


def robust_zscore(x: np.ndarray) -> np.ndarray:
    """Median/MAD-based z-score, resilient to the anomaly itself."""
    x = np.asarray(x, dtype=np.float64)
    median = np.median(x)
    mad = np.median(np.abs(x - median))
    scale = 1.4826 * mad  # consistent with std under normality
    return (x - median) / max(scale, _EPS)
