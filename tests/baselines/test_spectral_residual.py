"""Tests for the Spectral Residual baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SpectralResidualDetector
from repro.baselines.spectral_residual import spectral_residual_saliency


def reference_saliency(x: np.ndarray) -> np.ndarray:
    """The per-series SR transform with ``np.convolve`` smoothing and the
    classic ``exp(residual + i*phase)`` reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    z = (x - x.mean()) / max(x.std(), 1e-12)
    spectrum = np.fft.fft(z)
    log_amplitude = np.log(np.maximum(np.abs(spectrum), 1e-12))
    averaged = np.convolve(np.pad(log_amplitude, (1, 1), mode="edge"), np.ones(3) / 3, "valid")
    saliency = np.abs(np.fft.ifft(np.exp(log_amplitude - averaged + 1j * np.angle(spectrum))))
    baseline = np.convolve(np.pad(saliency, (10, 10), mode="edge"), np.ones(21) / 21, "valid")
    return (saliency - baseline) / np.maximum(baseline, 1e-12)


class TestSaliency:
    def test_output_shape_and_finite(self, rng):
        x = rng.normal(size=500)
        saliency = spectral_residual_saliency(x)
        assert saliency.shape == x.shape
        assert np.all(np.isfinite(saliency))
        # a non-negative saliency over its positive local mean, minus 1
        assert np.all(saliency >= -1)

    def test_spike_is_salient(self, sine_wave):
        x = sine_wave.copy()
        x[500] += 5.0
        saliency = spectral_residual_saliency(x)
        assert np.argmax(saliency) in range(495, 506)

    def test_matches_the_per_series_reference(self, rng):
        # The batched form keeps the DC bin's own (sub-1e-12) amplitude
        # where the reference uses the 1e-12 clamp; that term, not
        # rounding, sets the tolerance (~1e-8 seen on series like these).
        for n in (24, 100, 500, 2000):
            x = rng.normal(size=n) * rng.uniform(0.01, 100) + np.sin(np.arange(n) / 7)
            got = spectral_residual_saliency(x[None])[0]
            assert np.allclose(got, reference_saliency(x), rtol=0, atol=1e-6)

    def test_constant_signal_no_crash(self):
        saliency = spectral_residual_saliency(np.zeros(100))
        assert np.all(np.isfinite(saliency))


class TestDetector:
    def test_detects_spike(self, spike_dataset):
        detector = SpectralResidualDetector().fit(spike_dataset.train)
        predictions = detector.detect(spike_dataset.test)
        start, end = spike_dataset.anomaly_interval
        assert predictions[max(start - 2, 0) : end + 2].any()

    def test_scores_shape(self, small_dataset):
        detector = SpectralResidualDetector().fit(small_dataset.train)
        scores = detector.score_series(small_dataset.test)
        assert scores.shape == small_dataset.test.shape

    def test_struggles_on_subtle_anomaly(self, small_dataset):
        """Like the one-liner, SR misses shape-only anomalies — this is
        the behavior that motivates learned detectors."""
        detector = SpectralResidualDetector().fit(small_dataset.train)
        predictions = detector.detect(small_dataset.test)
        start, end = small_dataset.anomaly_interval
        assert predictions[start:end].mean() < 0.5
