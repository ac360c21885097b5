"""Tests for the versioned registry and its degradation chain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SpectralResidualWindowScorer
from repro.runtime import RetryPolicy
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


class FakeClock:
    """Monotonic clock advancing a fixed amount per read."""

    def __init__(self, step: float):
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def windows_batch(n=4, length=32):
    return np.zeros((n, length)), []


class TestRegistration:
    def test_first_version_is_active(self):
        registry = ModelRegistry()
        entry = registry.register(ConstantScorer("m"))
        assert entry.key() == "m@v1"
        assert registry.active_entry("m") is entry
        assert registry.chain == ["m"]

    def test_later_versions_wait_for_promote(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("m", value=1.0))
        v2 = registry.register(ConstantScorer("m", value=2.0))
        assert v2.version == 2
        assert registry.active_entry("m").version == 1
        assert registry.versions("m") == [1, 2]

        windows, batch = windows_batch()
        scores, used = registry.score(windows, batch)
        assert used.version == 1
        assert np.all(scores == 1.0)

    def test_promote_hot_swaps_on_next_batch(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("m", value=1.0))
        registry.register(ConstantScorer("m", value=2.0))
        registry.promote("m", 2)
        windows, batch = windows_batch()
        scores, used = registry.score(windows, batch)
        assert used.key() == "m@v2"
        assert np.all(scores == 2.0)

    def test_promote_clears_breaker(self):
        registry = ModelRegistry()
        entry = registry.register(ConstantScorer("m", fail=True), max_failures=1)
        registry.register(ConstantScorer("backup", value=9.0))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert entry.tripped
        registry.register(ConstantScorer("m", value=5.0))
        registry.promote("m", 2)
        scores, used = registry.score(windows, batch)
        assert used.key() == "m@v2"
        assert np.all(scores == 5.0)

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("m"), version=3)
        with pytest.raises(ValueError):
            registry.register(ConstantScorer("m"), version=3)

    def test_unknown_lookups_raise(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.active_entry("ghost")
        with pytest.raises(KeyError):
            registry.promote("ghost", 1)
        with pytest.raises(KeyError):
            registry.set_chain(["ghost"])


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

    def test_reset_rearms_a_tripped_entry(self):
        registry = ModelRegistry()
        scorer = ConstantScorer("m", fail=True)
        entry = registry.register(scorer, max_failures=1)
        registry.register(ConstantScorer("backup"))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert entry.tripped
        scorer.fail = False
        registry.reset("m")
        _, used = registry.score(windows, batch)
        assert used.name == "m"

    def test_exhausted_chain_raises(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("a", fail=True), max_failures=1)
        registry.register(ConstantScorer("b", fail=True), max_failures=1)
        windows, batch = windows_batch()
        with pytest.raises(DegradationExhaustedError):
            registry.score(windows, batch)
        with pytest.raises(DegradationExhaustedError):
            ModelRegistry().score(windows, batch)

    def test_retry_policy_grants_extra_attempts(self):
        registry = ModelRegistry(policy=RetryPolicy(max_retries=2))
        scorer = ConstantScorer("flaky", fail=True)
        registry.register(scorer, max_failures=10)
        registry.register(ConstantScorer("backup"))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert scorer.calls == 3  # 1 try + 2 retries before degrading

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
    def test_overrun_is_late_not_wrong(self):
        # Each clock read advances 10s; any 5s budget is always blown.
        clock = FakeClock(step=10.0)
        registry = ModelRegistry(clock=clock)
        entry = registry.register(
            ConstantScorer("slow", value=3.0), latency_budget=5.0, max_failures=3
        )
        windows, batch = windows_batch()
        scores, used = registry.score(windows, batch)
        # Scores come back even though the budget was blown...
        assert used.name == "slow"
        assert np.all(scores == 3.0)
        # ...but the breaker advanced.
        assert entry.failures == 1

    def test_consecutive_overruns_trip(self):
        clock = FakeClock(step=10.0)
        registry = ModelRegistry(clock=clock)
        entry = registry.register(
            ConstantScorer("slow"), latency_budget=5.0, max_failures=2
        )
        registry.register(ConstantScorer("fast", value=8.0))
        windows, batch = windows_batch()
        registry.score(windows, batch)
        registry.score(windows, batch)
        assert entry.tripped
        _, used = registry.score(windows, batch)
        assert used.name == "fast"

    def test_within_budget_resets_streak(self):
        clock = FakeClock(step=10.0)
        registry = ModelRegistry(clock=clock)
        entry = registry.register(
            ConstantScorer("slow"), latency_budget=5.0, max_failures=3
        )
        windows, batch = windows_batch()
        registry.score(windows, batch)
        assert entry.failures == 1
        entry.latency_budget = 1e9  # generous budget: next call is on time
        registry.score(windows, batch)
        assert entry.failures == 0


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


class TestChainReset:
    def test_reset_chain_rearms_every_tripped_entry(self):
        registry = ModelRegistry()
        first = ConstantScorer("first", fail=True)
        second = ConstantScorer("second", fail=True)
        registry.register(first, max_failures=1)
        registry.register(second, max_failures=1)
        registry.register(ConstantScorer("last", value=3.0))
        windows, batch = windows_batch()
        _, used = registry.score(windows, batch)
        assert used.name == "last"
        assert all(entry["tripped"] for entry in registry.describe()[:2])

        first.fail = second.fail = False
        registry.reset_chain()
        assert not any(entry["tripped"] for entry in registry.describe())
        _, used = registry.score(windows, batch)
        assert used.name == "first"

    def test_active_version_tracks_promotion(self):
        registry = ModelRegistry()
        registry.register(ConstantScorer("m", value=1.0))
        assert registry.active_version("m") == 1
        entry = registry.register(ConstantScorer("m", value=2.0), name="m")
        assert registry.active_version("m") == 1  # not yet promoted
        registry.promote("m", entry.version)
        assert registry.active_version("m") == 2
