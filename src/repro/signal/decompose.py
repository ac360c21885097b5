"""Seasonal–trend–residual decomposition.

TriAD's residual encoder consumes the series with its periodic trend
removed (Sec. III-B: "derived by eliminating the underlying periodic
trends from the original input").  This module implements a classical
moving-average decomposition — a lightweight STL analogue — sufficient
for that purpose and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Decomposition",
    "decompose",
    "residual_component",
    "residual_components",
    "moving_average",
]


@dataclass(frozen=True)
class Decomposition:
    """Additive decomposition ``x = trend + seasonal + residual``."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.trend + self.seasonal + self.residual


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with reflected edges (same length as input)."""
    x = np.asarray(x, dtype=np.float64)
    if window <= 1:
        return x.copy()
    window = min(window, len(x))
    pad_left = window // 2
    pad_right = window - 1 - pad_left
    padded = np.pad(x, (pad_left, pad_right), mode="reflect")
    kernel = np.ones(window) / window
    return np.convolve(padded, kernel, mode="valid")


def decompose(x: np.ndarray, period: int) -> Decomposition:
    """Classical additive decomposition with known ``period``.

    The trend is a centered moving average of one period; the seasonal
    component is the per-phase mean of the detrended series, centered to
    sum to zero; the residual is what remains.
    """
    x = np.asarray(x, dtype=np.float64)
    period = max(int(period), 1)
    trend = moving_average(x, period)
    detrended = x - trend

    if period == 1:
        seasonal = np.zeros_like(x)
    else:
        phases = np.arange(len(x)) % period
        seasonal_profile = np.zeros(period)
        for phase in range(period):
            values = detrended[phases == phase]
            seasonal_profile[phase] = values.mean() if len(values) else 0.0
        seasonal_profile -= seasonal_profile.mean()
        seasonal = seasonal_profile[phases]

    residual = x - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


def residual_component(x: np.ndarray, period: int) -> np.ndarray:
    """Residual channel for TriAD's residual encoder, z-normalized.

    Normalization keeps the residual scale comparable across datasets so
    a single encoder architecture works archive-wide.
    """
    residual = decompose(x, period).residual
    std = residual.std()
    if std < 1e-12:
        return np.zeros_like(residual)
    return (residual - residual.mean()) / std


def residual_components(windows: np.ndarray, period: int) -> np.ndarray:
    """Batched :func:`residual_component` over ``(batch, length)`` windows.

    Bit-identical to stacking per-window calls, so a window's features
    do not depend on its batch (the feature-cache tests assert exact
    equality): the trend still goes through the same per-row
    ``np.convolve``, and every reduction (per-phase means, centering,
    z-normalization) runs along contiguous rows so NumPy's pairwise
    summation visits elements in the same order as the 1-D path.  Only
    the Python-level per-window and per-phase loop overhead is
    amortized across the batch — the hot path of tri-domain feature
    extraction (~90% of :func:`repro.pipeline.extract_all_domains`).
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    batch, length = windows.shape
    period = max(int(period), 1)

    window = min(period, length)
    if window <= 1:
        trend = windows.copy()
    else:
        pad_left = window // 2
        pad_right = window - 1 - pad_left
        padded = np.pad(windows, ((0, 0), (pad_left, pad_right)), mode="reflect")
        kernel = np.ones(window) / window
        # Filled row by row, so a batch of zero windows gives (0, length).
        trend = np.empty_like(windows)
        for row, padded_row in zip(trend, padded):
            row[:] = np.convolve(padded_row, kernel, mode="valid")
        del padded  # freed before the per-phase means gather a copy
    detrended = windows - trend

    if period == 1:
        seasonal = np.zeros_like(windows)
    else:
        profile = _phase_means(detrended, period)
        profile -= profile.mean(axis=1, keepdims=True)
        seasonal = profile[:, np.arange(length) % period]

    residual = windows - trend - seasonal
    std = residual.std(axis=1)
    mean = residual.mean(axis=1)
    live = std >= 1e-12
    out = np.zeros_like(residual)
    if live.any():
        out[live] = (residual[live] - mean[live, None]) / std[live, None]
    return out


def _phase_means(detrended: np.ndarray, period: int) -> np.ndarray:
    """``(batch, period)`` per-phase means of ``(batch, length)`` rows,
    0 for a phase with no sample.

    One gather lays each row out phase by phase, so each phase's
    samples are one contiguous run in their original order; the
    ``length % period`` leading phases hold one sample more than the
    rest, so each group reshapes to ``(batch, phases, samples)`` and is
    averaged along its last axis: the same pairwise sums over the same
    element order as averaging each phase's samples on their own,
    without a Python loop over phases.
    """
    batch, length = detrended.shape
    full, extra = divmod(length, period)
    order = np.argsort(np.arange(length) % period, kind="stable")
    by_phase = np.take(detrended, order, axis=1)
    split = extra * (full + 1)
    profile = np.zeros((batch, period))
    if extra:
        profile[:, :extra] = by_phase[:, :split].reshape(batch, extra, full + 1).mean(axis=2)
    if full:
        profile[:, extra:] = by_phase[:, split:].reshape(batch, period - extra, full).mean(axis=2)
    return profile
