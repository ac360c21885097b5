"""Windowing and segmentation-plan tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal import plan_windows, sliding_windows


def covered(starts: np.ndarray, length: int, total: int) -> np.ndarray:
    """Boolean mask of timestamps covered by at least one window."""
    mask = np.zeros(total, dtype=bool)
    for start in starts:
        mask[start : start + length] = True
    return mask


class TestSlidingWindows:
    def test_shapes_and_starts(self, rng):
        x = rng.normal(size=100)
        windows, starts = sliding_windows(x, 20, 10)
        assert windows.shape[1] == 20
        assert starts[0] == 0
        assert starts[-1] == 80  # anchored to the end

    def test_full_coverage_guaranteed(self, rng):
        x = rng.normal(size=103)  # not a multiple of the stride
        windows, starts = sliding_windows(x, 20, 7)
        mask = covered(starts, 20, len(x))
        assert mask.all()

    def test_stride_one_count(self, rng):
        x = rng.normal(size=50)
        windows, starts = sliding_windows(x, 10, 1)
        assert len(windows) == 41

    def test_windows_match_source(self, rng):
        x = rng.normal(size=60)
        windows, starts = sliding_windows(x, 15, 9)
        for w, s in zip(windows, starts):
            assert np.array_equal(w, x[s : s + 15])

    def test_window_longer_than_series_raises(self):
        with pytest.raises(ValueError):
            sliding_windows(np.zeros(10), 20)

    def test_invalid_stride_raises(self):
        with pytest.raises(ValueError):
            sliding_windows(np.zeros(10), 5, 0)

    @given(
        st.integers(min_value=30, max_value=300),
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_coverage_and_bounds(self, n, length, stride):
        x = np.arange(n, dtype=np.float64)
        if length > n:
            length = n
        windows, starts = sliding_windows(x, length, stride)
        if stride <= length:  # full coverage is only possible then
            assert covered(starts, length, n).all()
        assert np.all(starts >= 0)
        assert np.all(starts + length <= n)
        assert np.all(np.diff(starts) > 0)


class TestPlanWindows:
    def test_plan_follows_paper_rules(self, noisy_wave):
        plan = plan_windows(noisy_wave)
        assert plan.period in range(36, 45)
        assert plan.length == round(2.5 * plan.period)
        assert plan.stride == round(plan.length * 0.25)

    def test_min_length_respected(self, rng):
        x = np.sin(2 * np.pi * np.arange(500) / 4) + 0.01 * rng.standard_normal(500)
        plan = plan_windows(x, min_length=32)
        assert plan.length >= 32

    def test_max_length_cap(self, noisy_wave):
        plan = plan_windows(noisy_wave, max_length=50)
        assert plan.length <= 50

    def test_length_never_exceeds_series(self):
        x = np.sin(2 * np.pi * np.arange(60) / 20)
        plan = plan_windows(x)
        assert plan.length <= 60
