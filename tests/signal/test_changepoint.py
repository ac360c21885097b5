"""Tests for binary segmentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.signal import binary_segmentation, segment_costs
from repro.signal.changepoint import _sse


@pytest.fixture
def step_series(rng):
    """Mean 0 for 300 points, then mean 3 for 300 points."""
    return np.concatenate(
        [rng.normal(0.0, 1.0, 300), rng.normal(3.0, 1.0, 300)]
    )


class TestSegmentCosts:
    def test_sse_matches_numpy(self, rng):
        x = rng.normal(size=100)
        sums, squares = segment_costs(x)
        for lo, hi in [(0, 100), (10, 50), (97, 100), (3, 4)]:
            segment = x[lo:hi]
            expected = float(((segment - segment.mean()) ** 2).sum())
            assert _sse(sums, squares, lo, hi) == pytest.approx(expected, abs=1e-9)

    def test_empty_segment_zero(self, rng):
        sums, squares = segment_costs(rng.normal(size=10))
        assert _sse(sums, squares, 5, 5) == 0.0


class TestBinarySegmentation:
    def test_finds_single_step(self, step_series):
        changepoints = binary_segmentation(step_series)
        assert len(changepoints) >= 1
        assert any(285 <= cp <= 315 for cp in changepoints)

    def test_finds_multiple_steps(self, rng):
        x = np.concatenate(
            [rng.normal(0, 0.5, 200), rng.normal(4, 0.5, 200), rng.normal(-2, 0.5, 200)]
        )
        changepoints = binary_segmentation(x)
        assert any(185 <= cp <= 215 for cp in changepoints)
        assert any(385 <= cp <= 415 for cp in changepoints)

    def test_no_split_on_stationary_noise(self, rng):
        changepoints = binary_segmentation(rng.normal(size=400))
        assert changepoints == []

    def test_respects_min_size(self, step_series):
        changepoints = binary_segmentation(step_series, min_size=50)
        for cp in changepoints:
            assert 50 <= cp <= len(step_series) - 50

    def test_short_series_empty(self):
        assert binary_segmentation(np.zeros(6), min_size=5) == []

    def test_sorted_output(self, rng):
        x = np.concatenate([rng.normal(i * 3, 0.5, 150) for i in range(4)])
        changepoints = binary_segmentation(x)
        assert changepoints == sorted(changepoints)
