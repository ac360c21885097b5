"""Property tests on tri-domain feature extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import extract_domain


def make_windows(seed: int, batch: int = 3, length: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 16)
    return base[None, :] + 0.3 * rng.standard_normal((batch, length))


@given(
    st.integers(min_value=0, max_value=5_000),
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=20, deadline=None)
def test_temporal_features_affine_invariant(seed, scale, offset):
    """Per-window z-normalization makes the temporal view invariant to
    affine amplitude transforms — the property that lets one encoder
    serve datasets of wildly different scales."""
    windows = make_windows(seed)
    original = extract_domain(windows, "temporal", 16)
    transformed = extract_domain(windows * scale + offset, "temporal", 16)
    assert np.allclose(original, transformed, atol=1e-8)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=20, deadline=None)
def test_all_domains_finite_and_shaped(seed):
    windows = make_windows(seed)
    for domain, channels in (("temporal", 1), ("frequency", 3), ("residual", 1)):
        features = extract_domain(windows, domain, 16)
        assert features.shape == (3, channels, 64)
        assert np.all(np.isfinite(features))


@given(
    st.integers(min_value=0, max_value=5_000),
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=15, deadline=None)
def test_frequency_features_affine_invariant_but_shift_sensitive(seed, scale, offset):
    """Windows are z-normalized before the FFT, so a pure gain/offset
    leaves the frequency view unchanged; altering the frequency content
    does not."""
    windows = make_windows(seed, batch=1)
    original = extract_domain(windows, "frequency", 16)
    transformed = extract_domain(windows * scale + offset, "frequency", 16)
    assert np.allclose(original, transformed, atol=1e-6)

    doubled = extract_domain(windows[:, ::2].repeat(2, axis=1), "frequency", 16)
    assert not np.allclose(original[0, 0], doubled[0, 0], atol=0.1)


def test_residual_features_remove_seasonality():
    t = np.arange(96)
    clean = np.sin(2 * np.pi * t / 16)
    features = extract_domain(clean[None, :], "residual", 16)
    # A perfectly periodic window has (near-)zero residual energy.
    assert float(np.abs(features).mean()) < 1.0
