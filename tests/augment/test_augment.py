"""Augmentation pipeline tests (Eq. 3-4, Fig. 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment import augment_batch, augment_window, jitter_segment, warp_segment


@pytest.fixture
def window():
    t = np.arange(200)
    return np.sin(2 * np.pi * t / 40) + 0.3 * np.sin(2 * np.pi * t / 8)


class TestJitter:
    def test_only_segment_changes(self, window, rng):
        out = jitter_segment(window, 50, 40, rng)
        assert np.array_equal(out[:50], window[:50])
        assert np.array_equal(out[90:], window[90:])
        assert not np.array_equal(out[50:90], window[50:90])

    def test_noise_scales_with_strength(self, window):
        weak = jitter_segment(window, 50, 100, np.random.default_rng(1), strength=0.1)
        strong = jitter_segment(window, 50, 100, np.random.default_rng(1), strength=2.0)
        assert np.abs(strong - window).sum() > np.abs(weak - window).sum()

    def test_out_of_range_raises(self, window, rng):
        with pytest.raises(ValueError):
            jitter_segment(window, 190, 20, rng)

    def test_input_untouched(self, window, rng):
        copy = window.copy()
        jitter_segment(window, 0, 50, rng)
        assert np.array_equal(window, copy)


class TestWarp:
    def test_only_segment_changes(self, window, rng):
        out = warp_segment(window, 60, 50, rng)
        assert np.array_equal(out[:60], window[:60])
        assert np.array_equal(out[110:], window[110:])
        assert not np.array_equal(out[60:110], window[60:110])

    def test_warped_segment_is_smoother(self, window, rng):
        """Warping low-passes the segment: high-frequency power drops."""
        out = warp_segment(window, 40, 120, rng, cutoff_range=(0.05, 0.06))

        def hf_power(x):
            # Power at and above the period-8 component's band.
            spectrum = np.abs(np.fft.rfft(x - x.mean()))
            return spectrum[len(spectrum) // 4 :].sum()

        assert hf_power(out[40:160]) < 0.2 * hf_power(window[40:160])

    def test_out_of_range_raises(self, window, rng):
        with pytest.raises(ValueError):
            warp_segment(window, -1, 20, rng)


class TestAugmentWindow:
    def test_changes_some_segment_only(self, window, rng):
        out = augment_window(window, rng)
        changed = np.flatnonzero(out != window)
        assert len(changed) > 0
        span = changed[-1] - changed[0] + 1
        assert span <= len(window) * 0.5 + 1

    def test_respects_fraction_bounds(self, window):
        for seed in range(10):
            out = augment_window(
                window, np.random.default_rng(seed), min_fraction=0.2, max_fraction=0.3
            )
            changed = np.flatnonzero(out != window)
            # jitter changes every point in its span; warp may leave a few
            # nearly-identical points, so check the span not the count.
            span = changed[-1] - changed[0] + 1
            assert span <= int(len(window) * 0.3) + 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_always_differs_and_same_shape(self, seed):
        t = np.arange(120)
        window = np.sin(2 * np.pi * t / 30)
        out = augment_window(window, np.random.default_rng(seed))
        assert out.shape == window.shape
        assert np.all(np.isfinite(out))
        assert not np.array_equal(out, window)


class TestAugmentBatch:
    def test_shape_preserved(self, rng):
        windows = rng.normal(size=(6, 100)) + np.sin(np.arange(100) / 5)
        out = augment_batch(windows, rng)
        assert out.shape == windows.shape

    def test_rows_augmented_independently(self, rng):
        windows = np.tile(np.sin(np.arange(150) / 10), (4, 1))
        out = augment_batch(windows, rng)
        # Identical inputs must yield different augmentations per row.
        assert not np.array_equal(out[0], out[1])
