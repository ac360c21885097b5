"""End-to-end TriAD detector tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TriAD, TriADConfig
from repro.metrics import window_hits_event


@pytest.fixture(scope="module")
def fitted():
    """One trained detector shared by read-only tests in this module."""
    from repro.data import DatasetSpec, make_dataset

    spec = DatasetSpec(
        name="det_ds",
        family="ecg",
        period=40,
        train_length=1200,
        test_length=1400,
        anomaly_type="seasonal",
        anomaly_start=700,
        anomaly_length=80,
        noise_level=0.04,
        seed=21,
    )
    dataset = make_dataset(spec)
    config = TriADConfig(depth=2, hidden_dim=16, epochs=3, seed=0, max_window=128)
    detector = TriAD(config).fit(dataset.train)
    return detector, dataset


class TestLifecycle:
    def test_unfitted_raises(self):
        detector = TriAD()
        with pytest.raises(RuntimeError):
            detector.detect(np.zeros(100))
        with pytest.raises(RuntimeError):
            _ = detector.plan

    def test_fit_returns_self(self, noisy_wave):
        config = TriADConfig(depth=1, hidden_dim=4, epochs=1, max_window=64)
        detector = TriAD(config)
        assert detector.fit(noisy_wave) is detector
        assert detector.train_losses


class TestDetection:
    def test_detection_artifacts_complete(self, fitted):
        detector, dataset = fitted
        detection = detector.detect(dataset.test)
        assert detection.predictions.shape == dataset.labels.shape
        assert set(detection.similarity) == set(detector.config.domains)
        assert len(detection.candidate_windows) == 3
        assert detection.window in detection.candidate_windows.values()
        assert 1 <= len(detection.candidate_intervals) <= 3
        lo, hi = detection.search_region
        assert lo <= detection.window[0] and hi >= detection.window[1]

    def test_window_contains_anomaly(self, fitted):
        detector, dataset = fitted
        detection = detector.detect(dataset.test)
        assert window_hits_event(detection.window, dataset.anomaly_interval)

    def test_similarity_dips_at_anomaly(self, fitted):
        detector, dataset = fitted
        detection = detector.detect(dataset.test)
        start, end = dataset.anomaly_interval
        # In at least one domain, the minimum-similarity window overlaps
        # the anomaly.
        hits = 0
        for domain, scores in detection.similarity.items():
            idx = int(np.argmin(scores))
            w_start = int(detection.window_starts[idx])
            window = (w_start, w_start + detection.window_length)
            hits += window_hits_event(window, (start, end))
        assert hits >= 1

    def test_predictions_binary(self, fitted):
        detector, dataset = fitted
        predictions = detector.predict(dataset.test)
        assert set(np.unique(predictions)) <= {0, 1}
        assert predictions.any()

    def test_representations_shapes(self, fitted):
        detector, _ = fitted
        length = detector.plan.length
        windows = np.random.default_rng(0).normal(size=(5, length))
        reps = detector.representations(windows)
        for r in reps.values():
            assert r.shape == (5, length)
            assert np.allclose(np.linalg.norm(r, axis=1), 1.0, atol=1e-8)

    def test_window_similarity_range(self, fitted):
        detector, dataset = fitted
        from repro.signal import sliding_windows

        windows, _ = sliding_windows(dataset.test, detector.plan.length, detector.plan.stride)
        sims = detector.window_similarity(windows)
        for values in sims.values():
            assert np.all(values <= 1.0 + 1e-9) and np.all(values >= -1.0 - 1e-9)

    def test_detect_stage_spans_only_under_a_session(self, fitted, monkeypatch):
        from repro import obs

        detector, dataset = fitted
        with obs.observed(trace=True) as session:
            expected = detector.detect(dataset.test)
        stages = [s.name for s in session.tracer.spans if s.name.startswith("core.detect.")]
        assert stages == [
            "core.detect.nominate",
            "core.detect.select",
            "core.detect.merlin",
            "core.detect.vote",
        ]

        # With no session each span is the facade's None check: building
        # a real span context outside a session fails the detect.
        def no_span_context(*args, **kwargs):
            raise AssertionError("span context built with no session active")

        recorded = len(session.tracer.spans)
        monkeypatch.setattr(obs.session, "_SpanContext", no_span_context)
        detection = detector.detect(dataset.test)
        assert detection.window == expected.window
        assert len(session.tracer.spans) == recorded


class TestConfiguredBehavior:
    def test_merlin_step_bounds_search(self, fitted):
        detector, dataset = fitted
        region = detector.search_region(len(dataset.test), (500, 600))
        result = detector.run_discord_search(dataset.test, region)
        assert len(result.discords) > 0

    def test_padding_override(self, noisy_wave):
        config = TriADConfig(
            depth=1, hidden_dim=4, epochs=1, max_window=64, merlin_padding=10
        )
        detector = TriAD(config).fit(noisy_wave)
        region = detector.search_region(1000, (500, 550))
        assert region == (490, 560)

    def test_padding_clipped_to_series(self, noisy_wave):
        config = TriADConfig(depth=1, hidden_dim=4, epochs=1, max_window=64)
        detector = TriAD(config).fit(noisy_wave)
        region = detector.search_region(600, (0, 64))
        assert region[0] == 0 and region[1] <= 600
