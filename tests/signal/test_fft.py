"""Frequency feature tests (Table I definitions)."""

from __future__ import annotations

import numpy as np

from repro.signal import frequency_features


class TestFrequencyFeatures:
    def test_single_window_shape(self, rng):
        assert frequency_features(rng.normal(size=100)).shape == (3, 100)

    def test_batch_shape(self, rng):
        assert frequency_features(rng.normal(size=(5, 64))).shape == (5, 3, 64)

    def test_channels_are_normalized(self, rng):
        features = frequency_features(rng.normal(size=(4, 64)))
        assert np.allclose(features.mean(axis=-1), 0.0, atol=1e-8)
        stds = features.std(axis=-1)
        assert np.all((stds < 1.5) & (stds > 0.5))

    def test_constant_window_is_finite(self):
        features = frequency_features(np.ones(32))
        assert np.all(np.isfinite(features))

    def test_frequency_shift_changes_features(self):
        n = 128
        t = np.arange(n)
        slow = np.sin(2 * np.pi * 4 * t / n)
        fast = np.sin(2 * np.pi * 8 * t / n)
        f_slow = frequency_features(slow)
        f_fast = frequency_features(fast)
        assert not np.allclose(f_slow[0], f_fast[0], atol=0.1)


