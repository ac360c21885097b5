"""Tests for the streaming (left-profile) detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discord import (
    StreamingDiscordDetector,
    left_matrix_profile,
)


@pytest.fixture
def two_anomaly_series(rng):
    t = np.arange(1500)
    x = np.sin(2 * np.pi * t / 50) + 0.04 * rng.standard_normal(len(t))
    x[400:440] = -x[400:440]  # event 1: inverted cycles
    x[1000:1040] += np.sin(2 * np.pi * np.arange(40) / 10)  # event 2: fast ripple
    return x


class TestLeftMatrixProfile:
    def test_past_only_semantics(self, rng):
        x = rng.normal(size=200)
        length = 12
        profile = left_matrix_profile(x, length)
        # First `length` entries have no fully-past neighbor.
        assert np.all(np.isinf(profile[:length]))
        assert np.all(np.isfinite(profile[length:]))

    def test_matches_python_loop_reference(self, rng):
        from repro.discord.distance import znorm_subsequences

        x = rng.normal(size=300)
        length = 14
        profile = left_matrix_profile(x, length)
        z = znorm_subsequences(x, length)
        reference = np.full(len(z), np.inf)
        for i in range(length, len(z)):
            eligible = z[: i - length + 1]
            sq = ((eligible - z[i]) ** 2).sum(axis=1)
            reference[i] = np.sqrt(max(float(sq.min()), 0.0))
        finite = np.isfinite(reference)
        np.testing.assert_allclose(profile[finite], reference[finite], atol=1e-9)
        assert np.all(np.isinf(profile[~finite]))

    def test_chunk_invariance(self, rng):
        x = rng.normal(size=250)
        a = left_matrix_profile(x, 10, chunk=3)
        b = left_matrix_profile(x, 10, chunk=1024)
        np.testing.assert_allclose(a, b, equal_nan=True)

    def test_manual_check(self, rng):
        from repro.discord.distance import znorm_subsequences

        x = rng.normal(size=80)
        length = 10
        profile = left_matrix_profile(x, length)
        z = znorm_subsequences(x, length)
        i = 40
        expected = min(np.linalg.norm(z[j] - z[i]) for j in range(i - length + 1))
        assert profile[i] == pytest.approx(expected, abs=1e-9)

    def test_novel_pattern_has_high_left_distance(self, two_anomaly_series):
        profile = left_matrix_profile(two_anomaly_series[:600], 50)
        peak = int(np.argmax(np.where(np.isfinite(profile), profile, -np.inf)))
        assert 350 <= peak <= 450  # the inverted-cycle event


class TestStreamingDetector:
    def test_alerts_on_planted_anomaly(self, two_anomaly_series):
        detector = StreamingDiscordDetector(length=25, warmup=40, sigma=4.0)
        for value in two_anomaly_series[:700]:
            detector.update(value)
        assert detector.alerts, "no alert raised on a strong anomaly"
        first = detector.alerts[0]
        assert 350 <= first.index <= 460

    def test_quiet_on_clean_periodic_data(self, sine_wave):
        detector = StreamingDiscordDetector(length=25, warmup=40, sigma=6.0)
        for value in sine_wave:
            detector.update(value)
        assert len(detector.alerts) == 0

    def test_points_seen_counter(self):
        detector = StreamingDiscordDetector(length=5, warmup=5)
        for value in range(42):
            detector.update(float(value))
        assert detector.points_seen == 42

    def test_max_history_bounds_memory(self, rng):
        detector = StreamingDiscordDetector(length=5, warmup=5, max_history=50)
        for value in rng.normal(size=500):
            detector.update(float(value))
        assert len(detector._history) <= 50

    def test_distance_baseline_is_bounded(self, rng):
        from repro.discord.streaming import BASELINE_WINDOW

        detector = StreamingDiscordDetector(length=5, warmup=5)
        for value in rng.normal(size=3000):
            detector.update(float(value))
        # The threshold baseline only ever reads the trailing
        # BASELINE_WINDOW entries, so the list must not grow past that
        # (plus the one in-flight distance) on an unbounded stream.
        assert len(detector._distances) <= BASELINE_WINDOW + 1
        assert detector._distances_seen > BASELINE_WINDOW + 1

    def test_trimming_does_not_change_alerts(self, two_anomaly_series):
        # warmup accounting uses the total-seen counter, not the trimmed
        # list length, so alerts match the untrimmed implementation.
        detector = StreamingDiscordDetector(length=25, warmup=40, sigma=4.0)
        for value in two_anomaly_series[:700]:
            detector.update(value)
        assert detector.alerts
        assert 350 <= detector.alerts[0].index <= 460

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingDiscordDetector(length=1)
        with pytest.raises(ValueError):
            StreamingDiscordDetector(length=5, warmup=1)
