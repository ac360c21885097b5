"""Hypothesis property tests on discord-discovery invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discord import (
    brute_force_discord,
    drag,
    nearest_neighbor_distances,
)


def make_series(seed: int, n: int = 160) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    period = int(rng.integers(10, 30))
    return np.sin(2 * np.pi * t / period) + 0.1 * rng.standard_normal(n)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_drag_with_small_r_equals_brute_force(seed):
    """DRAG's correctness guarantee: r <= discord distance => exact result."""
    series = make_series(seed)
    length = 16
    reference = brute_force_discord(series, length, exclusion=length)
    found = drag(series, length, r=reference.distance * 0.5, exclusion=length)
    assert found is not None
    assert found.index == reference.index
    assert found.distance == pytest.approx(reference.distance, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_profile_bounds(seed):
    """NN distances are bounded by 2*sqrt(length) for z-normed vectors."""
    series = make_series(seed)
    length = 12
    profile = nearest_neighbor_distances(series, length, exclusion=length)
    finite = profile[np.isfinite(profile)]
    assert np.all(finite >= 0)
    assert np.all(finite <= 2.0 * np.sqrt(length) + 1e-6)
