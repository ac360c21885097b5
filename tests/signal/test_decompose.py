"""Seasonal-trend decomposition tests."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal import decompose, moving_average, residual_component
from repro.signal.decompose import residual_components


class TestMovingAverage:
    def test_window_one_is_identity(self, rng):
        x = rng.normal(size=50)
        assert np.allclose(moving_average(x, 1), x)

    def test_constant_preserved(self):
        assert np.allclose(moving_average(np.full(40, 5.0), 7), 5.0)

    def test_output_length(self, rng):
        x = rng.normal(size=33)
        assert len(moving_average(x, 8)) == 33

    def test_smooths_noise(self, rng):
        x = rng.normal(size=500)
        assert moving_average(x, 20).std() < x.std() * 0.5

    def test_window_larger_than_input_clamped(self, rng):
        x = rng.normal(size=10)
        out = moving_average(x, 100)
        assert len(out) == 10 and np.all(np.isfinite(out))


class TestDecompose:
    def test_components_sum_to_input(self, noisy_wave):
        d = decompose(noisy_wave, 40)
        assert np.allclose(d.reconstruct(), noisy_wave, atol=1e-12)

    def test_seasonal_profile_zero_mean(self, noisy_wave):
        d = decompose(noisy_wave, 40)
        assert abs(d.seasonal[:40].mean()) < 1e-10

    def test_seasonal_is_periodic(self, noisy_wave):
        d = decompose(noisy_wave, 40)
        assert np.allclose(d.seasonal[:40], d.seasonal[40:80])

    def test_pure_sine_mostly_seasonal(self, sine_wave):
        d = decompose(sine_wave, 50)
        assert d.seasonal.std() > 0.5
        assert d.residual.std() < 0.15 * sine_wave.std()

    def test_linear_trend_captured_by_trend(self):
        x = np.linspace(0, 10, 300)
        d = decompose(x, 20)
        assert np.corrcoef(d.trend, x)[0, 1] > 0.999

    def test_period_one_no_seasonality(self, rng):
        x = rng.normal(size=100)
        d = decompose(x, 1)
        assert np.allclose(d.seasonal, 0.0)


class TestResidualComponent:
    def test_normalized_output(self, noisy_wave):
        r = residual_component(noisy_wave, 40)
        assert abs(r.mean()) < 1e-10
        assert np.isclose(r.std(), 1.0)

    def test_constant_input_returns_zeros(self):
        assert np.allclose(residual_component(np.full(100, 2.0), 10), 0.0)

    def test_level_shift_appears_in_residual(self, sine_wave):
        x = sine_wave.copy()
        x[500:520] += 3.0  # residual-scale anomaly
        r = residual_component(x, 50)
        inside = np.abs(r[500:520]).mean()
        outside = np.abs(np.concatenate([r[:480], r[540:]])).mean()
        assert inside > 2.0 * outside


def looped_residual_components(windows: np.ndarray, period: int) -> np.ndarray:
    """``residual_components`` as it was with a Python loop over phases:
    the oracle of the loop-free per-phase means."""
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    batch, length = windows.shape
    period = max(int(period), 1)

    window = min(period, length)
    if window <= 1:
        trend = windows.copy()
    else:
        pad_left = window // 2
        pad_right = window - 1 - pad_left
        padded = np.pad(windows, ((0, 0), (pad_left, pad_right)), mode="reflect")
        kernel = np.ones(window) / window
        trend = np.empty_like(windows)
        for row, padded_row in zip(trend, padded):
            row[:] = np.convolve(padded_row, kernel, mode="valid")
    detrended = windows - trend

    if period == 1:
        seasonal = np.zeros_like(windows)
    else:
        phases = np.arange(length) % period
        profile = np.zeros((batch, period))
        for phase in range(period):
            columns = detrended[:, phases == phase]
            if columns.shape[1]:
                profile[:, phase] = columns.mean(axis=1)
        profile -= profile.mean(axis=1, keepdims=True)
        seasonal = profile[:, phases]

    residual = windows - trend - seasonal
    std = residual.std(axis=1)
    mean = residual.mean(axis=1)
    live = std >= 1e-12
    out = np.zeros_like(residual)
    if live.any():
        out[live] = (residual[live] - mean[live, None]) / std[live, None]
    return out


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(min_value=2, max_value=300),
    period=st.integers(min_value=1, max_value=150),
    batch=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_loop_free_residual_equals_the_phase_loop(length, period, batch, seed):
    """Byte-equal to stacking per-window :func:`residual_component`
    calls, and so to the per-phase loop wherever that loop was itself
    batch-independent: one window, or fewer than 8 samples per phase.
    Beyond that the loop's boolean-mask columns came out column-major, so
    with two or more windows it summed a phase sequentially where one
    window sums it pairwise."""
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(batch, length)) * rng.uniform(0.1, 100.0) + rng.normal(size=(batch, 1))
    got = residual_components(windows, period)
    per_window = [residual_component(w, period) for w in windows]
    assert got.shape == (batch, length)
    assert got.tobytes() == np.array(per_window).reshape(batch, length).tobytes()
    if batch <= 1 or -(-length // period) < 8:
        assert got.tobytes() == looped_residual_components(windows, period).tobytes()
