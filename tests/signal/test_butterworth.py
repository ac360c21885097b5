"""Butterworth filter validated against scipy.signal."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from repro.signal import butter_lowpass, butterworth_smooth, filtfilt, lfilter


class TestDesign:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("cutoff", [0.05, 0.2, 0.5, 0.8])
    def test_matches_scipy_coefficients(self, order, cutoff):
        b, a = butter_lowpass(order, cutoff)
        b_ref, a_ref = sp_signal.butter(order, cutoff)
        assert np.allclose(b, b_ref, atol=1e-9)
        assert np.allclose(a, a_ref, atol=1e-9)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            butter_lowpass(0, 0.2)

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_cutoff(self, cutoff):
        with pytest.raises(ValueError):
            butter_lowpass(2, cutoff)

    def test_dc_gain_is_unity(self):
        b, a = butter_lowpass(3, 0.3)
        assert np.isclose(b.sum() / a.sum(), 1.0, atol=1e-9)


class TestLfilter:
    def test_matches_scipy(self, rng):
        b, a = butter_lowpass(3, 0.2)
        x = rng.normal(size=200)
        assert np.allclose(lfilter(b, a, x), sp_signal.lfilter(b, a, x), atol=1e-9)

    def test_fir_case(self, rng):
        b = np.array([0.5, 0.5])
        a = np.array([1.0])
        x = rng.normal(size=50)
        assert np.allclose(lfilter(b, a, x), sp_signal.lfilter(b, a, x), atol=1e-12)

    def test_non_normalized_a0(self, rng):
        b = np.array([2.0, 1.0])
        a = np.array([2.0, 0.5])
        x = rng.normal(size=30)
        assert np.allclose(lfilter(b, a, x), sp_signal.lfilter(b, a, x), atol=1e-9)

    def test_state_passthrough(self, rng):
        """Filtering in two chunks with carried state equals one pass."""
        b, a = butter_lowpass(2, 0.3)
        x = rng.normal(size=100)
        full = lfilter(b, a, x)
        first, state = lfilter(b, a, x[:50], zi=np.zeros(2))
        second, _ = lfilter(b, a, x[50:], zi=state)
        assert np.allclose(np.concatenate([first, second]), full, atol=1e-9)


def _numpy_scalar_lfilter(b, a, x, zi=None):
    """The recursion over numpy scalars, as lfilter ran it before it moved
    to Python floats: the bit-identity oracle."""
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a[0] != 1.0:
        b = b / a[0]
        a = a / a[0]
    n = max(len(a), len(b))
    b = np.pad(b, (0, n - len(b)))
    a = np.pad(a, (0, n - len(a)))
    state = np.zeros(n - 1) if zi is None else np.array(zi, dtype=np.float64)
    y = np.empty_like(x)
    for i, value in enumerate(x):
        out = b[0] * value + state[0] if n > 1 else b[0] * value
        for j in range(n - 2):
            state[j] = b[j + 1] * value + state[j + 1] - a[j + 1] * out
        if n > 1:
            state[n - 2] = b[n - 1] * value - a[n - 1] * out
        y[i] = out
    if zi is None:
        return y
    return y, state


class TestLfilterBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nb=st.integers(min_value=1, max_value=6),
        na=st.integers(min_value=1, max_value=6),
        length=st.integers(min_value=0, max_value=140),
        with_zi=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_numpy_scalar_recursion(self, seed, nb, na, length, with_zi):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=nb)
        a = rng.normal(size=na)
        a[0] = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        x = rng.normal(size=length)
        if with_zi:
            zi = rng.normal(size=max(nb, na) - 1)
            y, state = lfilter(b, a, x, zi=zi)
            y_ref, state_ref = _numpy_scalar_lfilter(b, a, x, zi=zi)
            assert np.array_equal(state, state_ref)
        else:
            y = lfilter(b, a, x)
            y_ref = _numpy_scalar_lfilter(b, a, x)
        assert y.dtype == np.float64 and y.shape == x.shape
        assert np.array_equal(y, y_ref, equal_nan=True)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_butterworth_design_with_carried_state(self, rng, order):
        b, a = butter_lowpass(order, 0.3)
        x = rng.normal(size=140)
        y, state = lfilter(b, a, x, zi=np.full(order, 0.25))
        y_ref, state_ref = _numpy_scalar_lfilter(b, a, x, zi=np.full(order, 0.25))
        assert np.array_equal(y, y_ref) and np.array_equal(state, state_ref)


class TestFiltfilt:
    def test_close_to_scipy(self, rng):
        b, a = butter_lowpass(3, 0.2)
        x = np.sin(np.linspace(0, 20 * np.pi, 500)) + 0.2 * rng.normal(size=500)
        mine = filtfilt(b, a, x)
        ref = sp_signal.filtfilt(b, a, x)
        # Padding conventions differ slightly at the edges; interior
        # agreement should be tight.
        assert np.allclose(mine[50:-50], ref[50:-50], atol=1e-2)

    def test_zero_phase_preserves_peak_location(self):
        t = np.arange(400, dtype=np.float64)
        x = np.exp(-0.5 * ((t - 200) / 10) ** 2)
        b, a = butter_lowpass(3, 0.15)
        smoothed = filtfilt(b, a, x)
        assert abs(int(np.argmax(smoothed)) - 200) <= 1

    def test_too_short_input_raises(self):
        b, a = butter_lowpass(4, 0.2)
        with pytest.raises(ValueError):
            filtfilt(b, a, np.zeros(5))

    def test_attenuates_high_frequency(self, rng):
        t = np.arange(600, dtype=np.float64)
        slow = np.sin(2 * np.pi * t / 100)
        fast = np.sin(2 * np.pi * t / 4)
        out = butterworth_smooth(slow + fast, cutoff=0.1, order=3)
        # The fast component should be mostly gone.
        residual_fast = out - slow
        assert residual_fast.std() < 0.3 * fast.std()
