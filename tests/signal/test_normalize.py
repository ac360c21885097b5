"""Normalization tests, including hypothesis invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.signal import robust_zscore, zscore

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=3, max_value=100),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestZscore:
    def test_zero_mean_unit_std(self, rng):
        z = zscore(rng.normal(size=1000) * 7 + 3)
        assert abs(z.mean()) < 1e-10
        assert np.isclose(z.std(), 1.0)

    def test_constant_input_maps_to_zero_mean(self):
        z = zscore(np.full(10, 4.0))
        assert np.all(np.isfinite(z))
        assert np.allclose(z, 0.0)

    def test_axis_normalization(self, rng):
        x = rng.normal(size=(4, 50)) * np.array([[1], [10], [100], [1000]])
        z = zscore(x, axis=-1)
        assert np.allclose(z.std(axis=-1), 1.0)

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_property_bounded_and_finite(self, x):
        z = zscore(x)
        assert np.all(np.isfinite(z))
        if x.std() > 1e-9:  # below that, the eps floor dominates
            assert abs(z.mean()) < 1e-6


class TestRobustZscore:
    def test_outlier_does_not_dominate_scale(self, rng):
        x = rng.normal(size=1000)
        x_spiked = x.copy()
        x_spiked[0] = 1e6
        z = robust_zscore(x_spiked)
        # Body of the distribution stays on a sane scale.
        assert np.abs(z[1:]).mean() < 2.0
        assert z[0] > 100  # the outlier is extreme in robust units

    def test_constant_input_finite(self):
        assert np.all(np.isfinite(robust_zscore(np.full(10, 3.0))))


