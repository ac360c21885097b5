"""Spectral Residual baseline (Ren et al., KDD 2019 — SR-CNN's SR core).

A classic training-free time series anomaly detector: the log-amplitude
spectrum minus its local average (the "spectral residual") is mapped
back to the time domain as a saliency map; salient points are anomalies.
Included as an additional non-deep comparator alongside the paper's
baseline set — it shares the one-liner detector's blindness to subtle
shape anomalies but handles spikes and level changes well.

One function, :func:`spectral_residual_saliency`, computes the
saliency for every route: the whole-series
:class:`SpectralResidualDetector` scores one row with it, and
:class:`SpectralResidualWindowScorer` — the ``spectral-residual``
entry of both the serving degradation chain and the job registry that
shard workers build from — scores a batch of windows as rows.  So the
name means one statistic wherever it is used.

Every row is z-normalised before the FFT, so the DC bin's amplitude is
~0 and clamped to 1e-12; its log drags the local average of bins 1 and
N-1 down, which lets a first-harmonic term dominate the saliency.  The
definition is kept on purpose (a fix that excludes the DC bin scored
lower on the archive); see EXPERIMENTS.md, "Spectral residual: the DC
artefact".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..pipeline import WindowScorer, default_pipeline
from .base import BaseDetector

__all__ = [
    "SpectralResidualDetector",
    "SpectralResidualWindowScorer",
    "spectral_residual_saliency",
]

#: Width of the moving average over the log-amplitude spectrum.
AVERAGE_WINDOW = 3
#: Width of the local saliency level each point is normalised by.
BASELINE_WINDOW = 21


def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
    """Edge-padded centred moving average along the last axis, in O(n)
    via cumulative sums.  Row-independent."""
    left = (width - 1) // 2
    right = width - 1 - left
    padded = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(left, right)], mode="edge")
    sums = np.cumsum(padded, axis=-1)
    sums = np.concatenate([np.zeros(sums.shape[:-1] + (1,), dtype=sums.dtype), sums], axis=-1)
    return (sums[..., width:] - sums[..., :-width]) / width


def spectral_residual_saliency(x: np.ndarray) -> np.ndarray:
    """Normalised spectral-residual saliency of each row of ``x``.

    Works along the last axis: each row is z-normalised, transformed,
    and its saliency divided by its local level (``BASELINE_WINDOW``
    points), as in SR-CNN.  Every operation is row-independent, so
    scoring rows in chunks of any size is bit-identical to scoring them
    all at once — the property the job executor's chunk stitching
    rests on.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    std = x.std(axis=-1, keepdims=True)
    spectrum = np.fft.fft((x - mean) / np.maximum(std, 1e-12), axis=-1)
    log_amplitude = np.log(np.maximum(np.abs(spectrum), 1e-12))
    averaged = _moving_average(log_amplitude, AVERAGE_WINDOW)
    # exp(log|S| - avg + i*angle(S)) == S * exp(-avg) wherever |S| >=
    # 1e-12, without the (slow) complex exp and angle; a bin below the
    # clamp (the z-scored DC bin) keeps its own amplitude
    saliency = np.abs(np.fft.ifft(spectrum * np.exp(-averaged), axis=-1))
    baseline = _moving_average(saliency, BASELINE_WINDOW)
    return (saliency - baseline) / np.maximum(baseline, 1e-12)


class SpectralResidualDetector(BaseDetector):
    """Training-free saliency detector over the whole series."""

    name = "Spectral Residual"

    def fit(self, train_series: np.ndarray) -> "SpectralResidualDetector":
        self._remember_train(train_series)
        return self

    def score_series(self, series: np.ndarray) -> np.ndarray:
        return spectral_residual_saliency(np.asarray(series, dtype=np.float64)[None])[0]


class SpectralResidualWindowScorer(WindowScorer):
    """Window scorer: the peak normalised saliency of each window.

    ``calibration_series`` (normal data) lets
    :meth:`calibration_scores` hand the serving engine a score
    distribution to seed its alert baselines with.
    """

    name = "spectral-residual"

    def __init__(self, calibration_series: np.ndarray | None = None) -> None:
        self._calibration_series = (
            np.asarray(calibration_series, dtype=np.float64)
            if calibration_series is not None
            else None
        )
        self._calibration: dict[tuple[int, int], np.ndarray] = {}

    def calibration_scores(self, length: int, stride: int) -> np.ndarray | None:
        if self._calibration_series is None or len(self._calibration_series) < length:
            return None
        key = (length, stride)
        if key not in self._calibration:
            windows, _ = default_pipeline().windows(
                self._calibration_series, length, stride
            )
            self._calibration[key] = self.score_windows(windows, ())
        return self._calibration[key]

    def score_windows(self, windows: np.ndarray, batch: Sequence) -> np.ndarray:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        return spectral_residual_saliency(windows).max(axis=-1)
