"""Discord algorithm tests: brute force, DRAG, MERLIN, MERLIN++."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discord import brute_force_discord, drag, merlin


@pytest.fixture
def discord_series(rng):
    """Periodic series with a planted shape anomaly around index 600."""
    t = np.arange(1200)
    x = np.sin(2 * np.pi * t / 50) + 0.05 * rng.standard_normal(len(t))
    x[600:650] = np.sin(2 * np.pi * np.arange(50) / 12.5) + 0.05 * rng.standard_normal(50)
    return x


class TestBruteForce:
    def test_finds_planted_discord(self, discord_series):
        found = brute_force_discord(discord_series, 50, exclusion=50)
        assert 550 <= found.index <= 655

    def test_interval_property(self, discord_series):
        found = brute_force_discord(discord_series, 50)
        assert found.interval == (found.index, found.index + 50)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            brute_force_discord(np.zeros(20), 15, exclusion=15)


class TestDrag:
    def test_agrees_with_brute_force_when_r_valid(self, discord_series):
        reference = brute_force_discord(discord_series, 50, exclusion=50)
        found = drag(discord_series, 50, r=reference.distance * 0.9, exclusion=50)
        assert found is not None
        assert found.index == reference.index
        assert found.distance == pytest.approx(reference.distance, abs=1e-9)

    def test_tiny_r_equals_brute_force(self, discord_series):
        reference = brute_force_discord(discord_series, 40, exclusion=40)
        found = drag(discord_series, 40, r=1e-6, exclusion=40)
        assert found is not None
        assert found.index == reference.index

    def test_huge_r_fails(self, discord_series):
        assert drag(discord_series, 50, r=1e6, exclusion=50) is None

    def test_series_too_short_returns_none(self):
        assert drag(np.zeros(30), 20, r=1.0, exclusion=20) is None


class TestMerlin:
    def test_discords_cluster_on_anomaly(self, discord_series):
        result = merlin(discord_series, 30, 70, step=10)
        assert len(result.discords) == 5
        hits = sum(1 for d in result.discords if 540 <= d.index <= 660)
        assert hits >= 4

    def test_lengths_covered(self, discord_series):
        result = merlin(discord_series, 20, 60, step=20)
        assert [d.length for d in result.discords] == [20, 40, 60]

    def test_each_length_matches_brute_force(self, discord_series):
        result = merlin(discord_series, 25, 55, step=15)
        for found in result.discords:
            reference = brute_force_discord(
                discord_series, found.length, exclusion=found.length
            )
            assert found.index == reference.index
            assert found.distance == pytest.approx(reference.distance, abs=1e-9)

    def test_intervals_and_best(self, discord_series):
        result = merlin(discord_series, 30, 50, step=20)
        assert len(result.intervals()) == len(result.discords)
        assert result.best() in result.discords

    def test_empty_result_for_too_short_series(self):
        result = merlin(np.zeros(20), 15, 30)
        assert result.discords == []
        assert result.best() is None

    def test_skips_lengths_exceeding_half_series(self, discord_series):
        result = merlin(discord_series[:100], 30, 80, step=10)
        assert all(d.length <= 50 for d in result.discords)
