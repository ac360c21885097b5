"""Adapter round-trips between the canonical contracts."""

from __future__ import annotations

import numpy as np
import pytest

import repro.eval.runner as runner
import repro.pipeline as pipeline_pkg
import repro.serve.registry as registry_mod
from repro.baselines import SpectralResidualDetector
from repro.core import TriAD, TriADConfig
from repro.pipeline import (
    Detector,
    ScoringDetector,
    WindowScorer,
    from_baseline,
    from_triad,
)


@pytest.fixture(scope="module")
def fitted_triad() -> TriAD:
    t = np.arange(600)
    series = np.sin(2 * np.pi * t / 32) + 0.03 * np.cos(2 * np.pi * t / 7)
    config = TriADConfig(
        epochs=1, depth=1, hidden_dim=4, max_window=64, seed=0
    )
    return TriAD(config).fit(series)


class TestContractReexports:
    def test_eval_contracts_are_the_pipeline_contracts(self):
        assert runner.Detector is Detector
        assert runner.ScoringDetector is ScoringDetector

    def test_serve_scorers_are_the_pipeline_adapters(self):
        assert registry_mod.WindowScorer is WindowScorer
        assert registry_mod.TriADWindowScorer is pipeline_pkg.TriADWindowScorer

    def test_triad_satisfies_detector_protocol(self, fitted_triad):
        assert isinstance(fitted_triad, Detector)

    def test_baseline_satisfies_scoring_detector_protocol(self):
        detector = SpectralResidualDetector()
        assert isinstance(detector, Detector)
        assert isinstance(detector, ScoringDetector)


class TestFromTriad:
    def test_scorer_flags_the_deviant_window(self, fitted_triad):
        scorer = from_triad(fitted_triad)
        length = scorer.window_length
        t = np.arange(length)
        normal = np.sin(2 * np.pi * t / 32)
        spiked = normal.copy()
        spiked[length // 2] += 6.0
        scores = scorer.score_windows(np.stack([normal, spiked]), ())
        assert scores.shape == (2,)
        assert scores[1] > scores[0]

    def test_calibration_scores_are_cached_and_finite(self, fitted_triad):
        scorer = from_triad(fitted_triad)
        first = scorer.calibration_scores(scorer.window_length, 16)
        assert np.all(np.isfinite(first))
        assert scorer.calibration_scores(scorer.window_length, 16) is first

    def test_rejects_unfit_detector(self):
        with pytest.raises(RuntimeError):
            from_triad(TriAD())

    def test_rejects_wrong_window_length(self, fitted_triad):
        scorer = from_triad(fitted_triad)
        with pytest.raises(ValueError):
            scorer.score_windows(np.zeros((1, scorer.window_length + 1)), ())

    def test_train_windows_is_public_and_matches_plan(self, fitted_triad):
        windows, starts = fitted_triad.train_windows()
        assert windows.shape[1] == fitted_triad.plan.length
        assert len(windows) == len(starts)
        with pytest.raises(RuntimeError):
            TriAD().train_windows()


class TestTrainRepresentations:
    """A fitted detector encodes its training windows once per stride,
    however many scorers are built on it; ``fit`` drops them."""

    def test_scorers_share_one_encoding_per_stride(self, fitted_triad, monkeypatch):
        t = np.arange(600)
        series = np.sin(2 * np.pi * t / 32) + 0.03 * np.cos(2 * np.pi * t / 7)
        detector = TriAD(fitted_triad.config).fit(series)
        encoded = []
        representations = TriAD.representations

        def counting(self, windows, cached=False):
            encoded.append(len(windows))
            return representations(self, windows, cached=cached)

        monkeypatch.setattr(TriAD, "representations", counting)
        first = from_triad(detector)
        second = from_triad(detector)
        assert len(encoded) == 1
        from_triad(detector, train_stride=3)
        assert len(encoded) == 2
        assert first._train_reps is second._train_reps

        windows, _ = detector.train_windows(detector.plan.stride)
        fresh = representations(detector, windows, cached=True)
        for domain, r in fresh.items():
            assert r.tobytes() == first._train_reps[domain].tobytes()
        test = np.sin(2 * np.pi * np.arange(200) / 32)
        test_windows, _ = detector.pipeline.windows(test, detector.plan.length, 8)
        assert (
            first.score_windows(test_windows, ()).tobytes()
            == second.score_windows(test_windows, ()).tobytes()
        )

    def test_fit_drops_them(self, fitted_triad):
        t = np.arange(600)
        detector = TriAD(fitted_triad.config).fit(np.sin(2 * np.pi * t / 32))
        before = detector.train_representations()
        assert detector.train_representations() is before
        plan = detector.plan
        detector.fit(np.sin(2 * np.pi * t / 32 + 1.0))  # the same plan
        assert detector.plan == plan
        after = detector.train_representations()
        assert after is not before
        windows, _ = detector.train_windows()
        for domain, r in detector.representations(windows).items():
            assert r.tobytes() == after[domain].tobytes()


class TestFromBaseline:
    def test_window_score_is_the_peak_point_score(self):
        train = np.sin(2 * np.pi * np.arange(400) / 25)
        detector = SpectralResidualDetector().fit(train)
        scorer = from_baseline(detector)
        assert isinstance(scorer, WindowScorer)
        quiet = np.sin(2 * np.pi * np.arange(64) / 25)
        loud = quiet.copy()
        loud[30] += 5.0
        windows = np.stack([quiet, loud])
        scores = scorer.score_windows(windows, ())
        expected = [float(detector.score_series(w).max()) for w in windows]
        assert scores.tolist() == pytest.approx(expected)

    def test_calibration_uses_public_train_series(self):
        train = np.sin(2 * np.pi * np.arange(400) / 25)
        detector = SpectralResidualDetector().fit(train)
        np.testing.assert_array_equal(detector.train_series, train)
        scorer = from_baseline(detector)
        calibration = scorer.calibration_scores(64, 16)
        assert calibration is not None
        assert np.all(np.isfinite(calibration))
        # Too-short training data means no calibration, not a crash.
        assert scorer.calibration_scores(1000, 16) is None

    def test_unfit_baseline_has_no_calibration(self):
        scorer = from_baseline(SpectralResidualDetector())
        assert scorer.calibration_scores(64, 16) is None
