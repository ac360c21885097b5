"""Tests for the registry's fixed fallback chain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SpectralResidualWindowScorer
from repro.serve.engine import EngineConfig, ScoringEngine
from repro.serve.registry import (
    DegradationExhaustedError,
    DiscordWindowScorer,
    ModelRegistry,
    WindowScorer,
)


class ConstantScorer(WindowScorer):
    """Returns the same score for every window; optionally misbehaves."""

    def __init__(self, name, value=1.0, fail=False, bad_shape=False, nan=False):
        self.name = name
        self.value = value
        self.fail = fail
        self.bad_shape = bad_shape
        self.nan = nan
        self.calls = 0

    def score_windows(self, windows, batch):
        self.calls += 1
        if self.fail:
            raise RuntimeError(f"{self.name} is down")
        if self.bad_shape:
            return np.zeros(len(windows) + 1)
        scores = np.full(len(windows), self.value)
        if self.nan:
            scores[0] = np.nan
        return scores


def windows_batch(n=4, length=32):
    return np.zeros((n, length)), []


class TestRegistration:
    def test_register_appends_to_the_chain(self):
        registry = ModelRegistry()
        first = registry.register(ConstantScorer("m"))
        second = registry.register(ConstantScorer("backup"))
        assert first.name == "m"
        assert registry.entries == [first, second]
        assert registry.chain == ["m", "backup"]
        assert [status["model"] for status in registry.describe()] == ["m", "backup"]

    def test_duplicate_name_rejected(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("m"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(ConstantScorer("m", value=2.0))
        assert registry.chain == ["m"]


class TestDegradation:
    def test_error_trips_and_falls_through(self):
        registry = ModelRegistry()
        primary = registry.register(ConstantScorer("primary", fail=True), max_failures=2)
        registry.register(ConstantScorer("backup", value=7.0))
        windows, batch = windows_batch()

        scores, used = registry.score(windows, batch)
        assert used.name == "backup"
        assert np.all(scores == 7.0)
        assert primary.failures == 1 and not primary.tripped

        registry.score(windows, batch)
        assert primary.tripped

        # Tripped entries are skipped without even being called.
        calls_before = primary.scorer.calls
        registry.score(windows, batch)
        assert primary.scorer.calls == calls_before

    def test_one_try_per_entry_per_batch(self):
        registry = ModelRegistry()
        scorer = ConstantScorer("flaky", fail=True)
        registry.register(scorer, max_failures=10)
        registry.register(ConstantScorer("backup"))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert scorer.calls == 1

    def test_success_clears_the_failure_streak(self):
        registry = ModelRegistry()
        scorer = ConstantScorer("m", fail=True)
        entry = registry.register(scorer, max_failures=2)
        registry.register(ConstantScorer("backup"))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert entry.failures == 1
        scorer.fail = False
        _, used = registry.score(windows, batch)
        assert used is entry and entry.failures == 0

    def test_tripped_entry_stays_tripped(self):
        registry = ModelRegistry()
        scorer = ConstantScorer("m", fail=True)
        entry = registry.register(scorer, max_failures=1)
        registry.register(ConstantScorer("backup"))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert entry.tripped
        scorer.fail = False
        for _ in range(3):
            _, used = registry.score(windows, batch)
            assert used.name == "backup"
        assert scorer.calls == 1

    def test_exhausted_chain_raises(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("a", fail=True), max_failures=1)
        registry.register(ConstantScorer("b", fail=True), max_failures=1)
        windows, batch = windows_batch()
        with pytest.raises(DegradationExhaustedError, match=r"a \[tripped\], b \[tripped\]"):
            registry.score(windows, batch)
        with pytest.raises(DegradationExhaustedError):
            ModelRegistry().score(windows, batch)

    def test_bad_shape_and_nan_count_as_failures(self):
        registry = ModelRegistry()
        shape = registry.register(ConstantScorer("shape", bad_shape=True), max_failures=1)
        registry.register(ConstantScorer("backup"))
        windows, batch = windows_batch()
        _, used = registry.score(windows, batch)
        assert used.name == "backup" and shape.tripped

        registry = ModelRegistry()
        nan = registry.register(ConstantScorer("nan", nan=True), max_failures=1)
        registry.register(ConstantScorer("backup"))
        _, used = registry.score(windows, batch)
        assert used.name == "backup" and nan.tripped


class TestLatencyBudget:
    def test_overrun_is_late_not_wrong(self, rng):
        """A budget every batch overruns shrinks the engine's batch limit
        and never counts against the scorer's breaker."""
        registry = ModelRegistry()
        primary = registry.register(ConstantScorer("slow", value=3.0), max_failures=1)
        registry.register(ConstantScorer("backup", value=9.0))
        engine = ScoringEngine(
            registry,
            EngineConfig(window_length=16, stride=4, max_batch=8, latency_budget_s=1e-12),
        )
        engine.ingest_many("s", rng.normal(size=400))
        engine.drain()
        assert engine.batch_limit == 1
        assert engine.stats.batches > 1
        assert engine.stats.models_used == {"slow"}
        assert primary.failures == 0 and not primary.tripped


class TestBuiltinScorers:
    def test_spectral_residual_scores_every_window(self, rng):
        scorer = SpectralResidualWindowScorer()
        windows = rng.normal(size=(5, 64))
        scores = scorer.score_windows(windows, [])
        assert scores.shape == (5,)
        assert np.all(np.isfinite(scores))

    def test_spectral_residual_calibration_matches_live_scale(self, sine_wave):
        scorer = SpectralResidualWindowScorer(calibration_series=sine_wave)
        calibration = scorer.calibration_scores(100, 25)
        assert calibration is not None and len(calibration) > 10
        live = scorer.score_windows(sine_wave[:100][None, :], [])
        assert abs(live[0] - calibration.mean()) < 6 * max(calibration.std(), 1e-9)

    def test_calibration_default_is_none(self):
        assert SpectralResidualWindowScorer().calibration_scores(64, 16) is None
        assert DiscordWindowScorer().calibration_scores(64, 16) is None

    def test_discord_calibration_is_max_aggregated(self, sine_wave):
        scorer = DiscordWindowScorer(subsequence_length=16, calibration_series=sine_wave)
        calibration = scorer.calibration_scores(100, 25)
        assert calibration is not None
        # Block maxima over the raw distance stream.
        raw = scorer._calibration_distances
        assert calibration.max() == pytest.approx(raw[: len(calibration) * 25].max())
