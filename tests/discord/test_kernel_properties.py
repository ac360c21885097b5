"""Hypothesis property suite: the batched kernels match the reference
oracle.

The contract the whole refactor rests on (and docs/PERF.md documents):
for any series, subsequence length, and exclusion zone, the batched
kernels return *identical discord indices* and distances within
``1e-9`` of the original scalar implementations — including degenerate
constant subsequences and the short-series all-``inf`` contract of
``nearest_neighbor_distances``.  The oracles live in
``tests/discord/reference.py``; ``reference_discord()`` swaps them in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.discord import (
    brute_force_discord,
    drag,
    merlin,
    nearest_neighbor_distances,
)

from .reference import DISCORD_PATHS, reference_discord, reference_nn_distances


def make_series(seed: int, n: int = 180, constant_run: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    period = int(rng.integers(8, 40))
    series = np.sin(2 * np.pi * t / period) + 0.15 * rng.standard_normal(n)
    if constant_run:
        start = int(rng.integers(0, n - 40))
        series[start : start + 40] = series[start]
    return series


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    length=st.integers(min_value=3, max_value=48),
    exclusion_num=st.integers(min_value=1, max_value=8),
    constant_run=st.booleans(),
)
# A near-duplicate pair at distance ~1.93e-7: the oracle must be exact
# there too, not just the batched kernel.
@example(seed=1619, length=3, exclusion_num=1, constant_run=False)
@settings(max_examples=40, deadline=None)
def test_nn_profile_matches_reference(seed, length, exclusion_num, constant_run):
    """The batched kernel reproduces the reference NN profile to 1e-9."""
    series = make_series(seed, constant_run=constant_run)
    # Exclusion factors from 1/4 of the length up to 2x it.
    exclusion = max(length * exclusion_num // 4, 1)
    oracle = reference_nn_distances(series, length, exclusion=exclusion)
    fast = nearest_neighbor_distances(series, length, exclusion=exclusion)
    np.testing.assert_array_equal(np.isinf(fast), np.isinf(oracle))
    finite = np.isfinite(oracle)
    np.testing.assert_allclose(fast[finite], oracle[finite], atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_drag_matches_reference(seed):
    """Blocked DRAG returns the same discord as the sequential scan."""
    series = make_series(seed)
    length = 16
    with reference_discord():
        oracle = drag(series, length, r=1.0)
    fast = drag(series, length, r=1.0)
    if oracle is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast.index == oracle.index
        assert fast.distance == pytest.approx(oracle.distance, abs=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_drag_success_threshold_agrees(seed):
    """Both paths succeed/fail together at r just around the discord
    distance (the property MERLIN's schedule depends on)."""
    series = make_series(seed)
    length = 12
    top = brute_force_discord(series, length, exclusion=length)
    for r, should_find in ((top.distance * 0.999, True), (top.distance * 1.5, None)):
        with reference_discord():
            oracle = drag(series, length, r)
        fast = drag(series, length, r)
        assert (oracle is None) == (fast is None)
        if should_find:
            assert fast is not None and fast.index == top.index


@given(seed=st.integers(min_value=0, max_value=10_000), constant_run=st.booleans())
@example(seed=822, constant_run=True)  # first-length r halves onto sqrt(8), the constant-run tie
@settings(max_examples=15, deadline=None)
def test_merlin_matches_reference(seed, constant_run):
    """The full MERLIN sweep — lower-bound seeding, pre-pruning and all —
    finds the reference's discords."""
    series = make_series(seed, constant_run=constant_run)
    with reference_discord():
        oracle = merlin(series, 8, 40, step=8)
    fast = merlin(series, 8, 40, step=8)
    assert [(d.index, d.length) for d in fast.discords] == [
        (d.index, d.length) for d in oracle.discords
    ]
    for a, b in zip(fast.discords, oracle.discords):
        assert a.distance == pytest.approx(b.distance, abs=1e-9)


@given(
    n=st.integers(min_value=8, max_value=24),
    length=st.integers(min_value=4, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_short_series_all_inf_contract(n, length):
    """A zone wide enough to ban every pair yields all-inf, not an error,
    on both paths."""
    series = np.sin(np.arange(n) / 2.0)
    count = n - length + 1
    exclusion = count  # |i - j| < count always holds
    for mode, path in DISCORD_PATHS.items():
        with path():
            profile = nearest_neighbor_distances(series, length, exclusion=exclusion)
        assert profile.shape == (count,)
        assert np.isinf(profile).all(), mode
