"""FeaturePipeline correctness: memoized results must be bit-identical
to the uncached path, and cached arrays must be tamper-proof."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TriADConfig
from repro.pipeline import DOMAINS, FeatureCache, FeaturePipeline
from repro.signal.decompose import residual_component, residual_components
from repro.signal.windows import plan_windows, sliding_windows


@pytest.fixture
def pipeline() -> FeaturePipeline:
    return FeaturePipeline(cache=FeatureCache(max_entries=16))


@pytest.fixture
def series(rng) -> np.ndarray:
    t = np.arange(600)
    return np.sin(2 * np.pi * t / 32) + 0.05 * rng.standard_normal(len(t))


class TestBitIdentity:
    def test_cached_features_equal_uncached(self, pipeline, series):
        windows, _ = pipeline.windows(series, 80, 20)
        cached = pipeline.features(windows, 32)
        uncached = pipeline.extract(windows, 32)
        assert set(cached) == set(DOMAINS)
        for domain in DOMAINS:
            np.testing.assert_array_equal(cached[domain], uncached[domain])
            assert cached[domain].tobytes() == uncached[domain].tobytes()

    def test_memoize_off_is_same_code_path(self, series):
        on = FeaturePipeline(cache=FeatureCache())
        off = FeaturePipeline(memoize=False)
        w_on, s_on = on.windows(series, 80, 20)
        w_off, s_off = off.windows(series, 80, 20)
        np.testing.assert_array_equal(w_on, w_off)
        np.testing.assert_array_equal(s_on, s_off)
        f_on = on.features(w_on, 32)
        f_off = off.features(w_off, 32)
        for domain in DOMAINS:
            assert f_on[domain].tobytes() == f_off[domain].tobytes()
        assert len(off.cache) == 0  # memoize=False never stores

    def test_sliced_features_equal_per_batch_extraction(self, pipeline, series):
        """The trainer's contract: slicing rows out of a full-set
        extraction is exactly per-batch extraction (row independence)."""
        windows, _ = pipeline.windows(series, 80, 20)
        full = pipeline.features(windows, 32)
        idx = np.array([7, 0, 3, 11])
        batch = pipeline.extract(np.asarray(windows)[idx], 32)
        for domain in DOMAINS:
            np.testing.assert_array_equal(full[domain][idx], batch[domain])
            assert full[domain][idx].tobytes() == batch[domain].tobytes()

    def test_batched_residual_equals_per_window_loop(self, rng):
        cases = [
            (rng.standard_normal((5, 120)), 32),  # ordinary
            (rng.standard_normal((3, 40)), 64),   # period > length
            (rng.standard_normal((4, 50)), 1),    # degenerate period
            (np.ones((2, 64)), 16),               # constant rows -> zeros
            (rng.standard_normal((1, 33)), 7),    # single window, ragged phase
        ]
        for windows, period in cases:
            batched = residual_components(windows, period)
            looped = np.stack(
                [residual_component(w, period) for w in windows]
            )
            np.testing.assert_array_equal(batched, looped)
            assert batched.tobytes() == looped.tobytes()

    @pytest.mark.parametrize("period", [1, 7, 32, 64])
    def test_zero_windows_give_an_empty_batch(self, period):
        out = residual_components(np.empty((0, 50)), period)
        assert out.shape == (0, 50)
        assert out.dtype == np.float64

    def test_zero_windows_extract_every_domain(self, pipeline):
        features = pipeline.extract(np.empty((0, 96)), 32)
        assert set(features) == set(DOMAINS)
        for array in features.values():
            assert array.shape[0] == 0 and array.shape[-1] == 96


class TestMemoization:
    def test_second_call_is_a_hit_returning_the_same_object(
        self, pipeline, series
    ):
        first = pipeline.windows(series, 80, 20)
        second = pipeline.windows(series, 80, 20)
        assert second[0] is first[0]
        assert pipeline.cache.stats.hits == 1

    def test_value_identical_copies_hit(self, pipeline, series):
        pipeline.windows(series, 80, 20)
        pipeline.windows(series.copy(), 80, 20)
        assert pipeline.cache.stats.hits == 1

    def test_different_parameters_miss(self, pipeline, series):
        pipeline.windows(series, 80, 20)
        pipeline.windows(series, 80, 21)
        assert pipeline.cache.stats.hits == 0
        assert pipeline.cache.stats.misses == 2

    def test_cached_arrays_are_read_only(self, pipeline, series):
        windows, starts = pipeline.windows(series, 80, 20)
        with pytest.raises(ValueError):
            windows[0, 0] = 99.0
        with pytest.raises(ValueError):
            starts[0] = 99
        features = pipeline.features(windows, 32)
        for array in features.values():
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_extract_bypasses_the_cache(self, pipeline, series):
        windows, _ = pipeline.windows(series, 80, 20)
        before = len(pipeline.cache)
        pipeline.extract(np.asarray(windows), 32)
        assert len(pipeline.cache) == before


class TestPlanning:
    def test_plan_matches_plan_windows(self, pipeline, series):
        assert pipeline.plan(series, max_length=128) == plan_windows(
            series, max_length=128
        )

    def test_plan_for_reads_config_fields(self, pipeline, series):
        config = TriADConfig(max_window=96, min_window=24)
        plan = pipeline.plan_for(series, config)
        assert plan == plan_windows(
            series,
            periods_per_window=config.periods_per_window,
            stride_fraction=config.stride_fraction,
            min_length=24,
            max_length=96,
        )
        assert pipeline.plan_for(series, config) is plan  # memo hit

    def test_windows_match_sliding_windows(self, pipeline, series):
        got_w, got_s = pipeline.windows(series, 64, 16)
        want_w, want_s = sliding_windows(series, 64, 16)
        np.testing.assert_array_equal(got_w, want_w)
        np.testing.assert_array_equal(got_s, want_s)

    def test_series_features_bundle(self, pipeline, series):
        plan = pipeline.plan(series, max_length=128)
        bundle = pipeline.series_features(series, plan)
        assert bundle.plan == plan
        assert len(bundle.windows) == len(bundle.starts)
        for domain in DOMAINS:
            assert len(bundle.features[domain]) == len(bundle.windows)

