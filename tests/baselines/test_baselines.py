"""Baseline detector tests: interface contract plus model-specific behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AnomalyTransformerDetector,
    DCdetectorDetector,
    LSTMAEDetector,
    MTGFlowDetector,
    OneLinerDetector,
    RandomScoreDetector,
    TS2VecDetector,
    USADDetector,
    calibrate_threshold,
    spread_window_scores,
)

FAST_DETECTORS = [
    pytest.param(lambda: LSTMAEDetector(trained=False, seed=0), id="lstm-ae-random"),
    pytest.param(lambda: LSTMAEDetector(trained=True, epochs=1, seed=0), id="lstm-ae-trained"),
    pytest.param(lambda: USADDetector(epochs=2, seed=0), id="usad"),
    pytest.param(lambda: TS2VecDetector(epochs=1, seed=0), id="ts2vec"),
    pytest.param(lambda: AnomalyTransformerDetector(epochs=1, seed=0), id="anomaly-transformer"),
    pytest.param(lambda: MTGFlowDetector(epochs=2, seed=0), id="mtgflow"),
    pytest.param(lambda: DCdetectorDetector(epochs=1, seed=0), id="dcdetector"),
    pytest.param(lambda: RandomScoreDetector(seed=0), id="random"),
    pytest.param(lambda: OneLinerDetector(), id="one-liner"),
]


class TestDetectorContract:
    @pytest.mark.parametrize("factory", FAST_DETECTORS)
    def test_fit_score_detect(self, factory, small_dataset):
        detector = factory()
        assert detector.fit(small_dataset.train) is detector
        scores = detector.score_series(small_dataset.test)
        assert scores.shape == small_dataset.test.shape
        assert np.all(np.isfinite(scores))
        predictions = detector.detect(small_dataset.test)
        assert predictions.shape == small_dataset.labels.shape
        assert set(np.unique(predictions)) <= {0, 1}
        assert predictions.any()  # never an empty prediction

    @pytest.mark.parametrize("factory", FAST_DETECTORS)
    def test_detect_before_fit_raises(self, factory, small_dataset):
        with pytest.raises(RuntimeError):
            factory().detect(small_dataset.test)

    def test_predict_is_detect(self, small_dataset):
        detector = OneLinerDetector().fit(small_dataset.train)
        assert np.array_equal(
            detector.predict(small_dataset.test), detector.detect(small_dataset.test)
        )


class TestHelpers:
    def test_spread_window_scores_averages(self):
        scores = np.array([1.0, 3.0])
        starts = np.array([0, 2])
        out = spread_window_scores(scores, starts, length=4, total=6)
        assert out[0] == 1.0
        assert out[2] == 2.0  # covered by both windows
        assert out[5] == 3.0
        # per-point rows spread point by point
        rows = np.array([[1.0, 1.0, 2.0, 2.0], [4.0, 4.0, 6.0, 6.0]])
        out = spread_window_scores(rows, starts, length=4, total=6)
        assert np.array_equal(out, [1.0, 1.0, 3.0, 3.0, 6.0, 6.0])

    def test_calibrate_threshold(self):
        scores = np.array([0.0, 2.0])  # mean 1, std 1
        assert calibrate_threshold(scores, sigma=2.0) == pytest.approx(3.0)


class TestLSTMAE:
    def test_training_reduces_reconstruction_error(self, small_dataset):
        random = LSTMAEDetector(trained=False, seed=0).fit(small_dataset.train)
        trained = LSTMAEDetector(trained=True, epochs=3, seed=0).fit(small_dataset.train)
        err_random = random.score_series(small_dataset.train).mean()
        err_trained = trained.score_series(small_dataset.train).mean()
        assert err_trained < err_random

    def test_reconstruction_shape(self, small_dataset):
        detector = LSTMAEDetector(trained=False, seed=0).fit(small_dataset.train)
        recon = detector.reconstruction(small_dataset.test)
        assert recon.shape == small_dataset.test.shape

    def test_name_reflects_variant(self):
        assert "Random" in LSTMAEDetector(trained=False).name
        assert "Trained" in LSTMAEDetector(trained=True).name


class TestOneLiner:
    def test_nails_spike_anomaly(self, spike_dataset):
        """Amplitude spikes are exactly what the one-liner catches."""
        detector = OneLinerDetector().fit(spike_dataset.train)
        predictions = detector.detect(spike_dataset.test)
        start, end = spike_dataset.anomaly_interval
        assert predictions[start:end].any()

    def test_misses_subtle_anomaly(self, small_dataset):
        """Contextual (shape) anomalies evade the amplitude threshold."""
        detector = OneLinerDetector().fit(small_dataset.train)
        predictions = detector.detect(small_dataset.test)
        start, end = small_dataset.anomaly_interval
        hit_fraction = predictions[start:end].mean()
        assert hit_fraction < 0.5


class TestMTGFlow:
    def test_likelihood_lower_on_anomaly(self, spike_dataset):
        detector = MTGFlowDetector(epochs=4, seed=0).fit(spike_dataset.train)
        scores = detector.score_series(spike_dataset.test)
        start, end = spike_dataset.anomaly_interval
        inside = scores[max(start - 16, 0) : min(end + 16, len(scores))].max()
        outside = np.median(scores)
        assert inside > outside


class TestDCdetector:
    def test_window_patch_validation(self):
        with pytest.raises(ValueError):
            DCdetectorDetector(window=30, patch=8)


class TestRandomDetector:
    def test_deterministic_per_series(self, small_dataset):
        detector = RandomScoreDetector(seed=1).fit(small_dataset.train)
        a = detector.score_series(small_dataset.test)
        b = detector.score_series(small_dataset.test)
        assert np.array_equal(a, b)

    def test_different_series_different_scores(self, small_dataset):
        detector = RandomScoreDetector(seed=1).fit(small_dataset.train)
        a = detector.score_series(small_dataset.test)
        b = detector.score_series(small_dataset.test + 1.0)
        assert not np.array_equal(a, b)
