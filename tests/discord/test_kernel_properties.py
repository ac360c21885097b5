"""Hypothesis property suite: kernel modes match the reference oracle.

The contract the whole refactor rests on (and docs/PERF.md documents):
for any series, subsequence length, and exclusion zone, the blocked and
fft kernel modes return *identical discord indices* and distances within
``1e-9`` of the original scalar implementations — including degenerate
constant subsequences and the short-series all-``inf`` contract of
``nearest_neighbor_distances``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.discord import (
    brute_force_discord,
    damp,
    discord_mode,
    drag,
    matrix_profile,
    merlin,
    nearest_neighbor_distances,
)
from repro.discord.distance import (
    nearest_neighbor_distances as reference_nn_distances,
)

FAST_MODES = ("blocked", "fft")


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
@settings(max_examples=40, deadline=None)
def test_nn_profile_matches_reference(seed, length, exclusion_num, constant_run):
    """Every mode reproduces the reference NN profile to 1e-9."""
    series = make_series(seed, constant_run=constant_run)
    # Exclusion factors from 1/4 of the length up to 2x it.
    exclusion = max(length * exclusion_num // 4, 1)
    oracle = reference_nn_distances(series, length, exclusion=exclusion)
    for mode in FAST_MODES:
        with discord_mode(mode):
            fast = nearest_neighbor_distances(series, length, exclusion=exclusion)
        np.testing.assert_array_equal(np.isinf(fast), np.isinf(oracle), err_msg=mode)
        finite = np.isfinite(oracle)
        np.testing.assert_allclose(fast[finite], oracle[finite], atol=1e-9, err_msg=mode)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_drag_matches_reference(seed):
    """Blocked DRAG returns the same discord as the sequential scan."""
    series = make_series(seed)
    length = 16
    with discord_mode("reference"):
        oracle = drag(series, length, r=1.0)
    for mode in FAST_MODES:
        with discord_mode(mode):
            fast = drag(series, length, r=1.0)
        if oracle is None:
            assert fast is None, mode
        else:
            assert fast is not None, mode
            assert fast.index == oracle.index, mode
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
        with discord_mode("reference"):
            oracle = drag(series, length, r)
        with discord_mode("blocked"):
            fast = drag(series, length, r)
        assert (oracle is None) == (fast is None)
        if should_find:
            assert fast is not None and fast.index == top.index


@given(seed=st.integers(min_value=0, max_value=10_000), constant_run=st.booleans())
@example(seed=822, constant_run=True)  # first-length r halves onto sqrt(8), the constant-run tie
@settings(max_examples=15, deadline=None)
def test_merlin_matches_reference(seed, constant_run):
    """The full MERLIN sweep — lower-bound seeding, pre-pruning and all —
    finds identical discords in every mode."""
    series = make_series(seed, constant_run=constant_run)
    with discord_mode("reference"):
        oracle = merlin(series, 8, 40, step=8)
    for mode in FAST_MODES:
        with discord_mode(mode):
            fast = merlin(series, 8, 40, step=8)
        assert [(d.index, d.length) for d in fast.discords] == [
            (d.index, d.length) for d in oracle.discords
        ], mode
        for a, b in zip(fast.discords, oracle.discords):
            assert a.distance == pytest.approx(b.distance, abs=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_matrix_profile_and_damp_match_reference(seed):
    series = make_series(seed)
    length = 14
    with discord_mode("reference"):
        mp_oracle = matrix_profile(series, length)
        damp_oracle = damp(series, length)
    for mode in FAST_MODES:
        with discord_mode(mode):
            mp_fast = matrix_profile(series, length)
            damp_fast = damp(series, length)
        np.testing.assert_array_equal(mp_fast.indices, mp_oracle.indices, err_msg=mode)
        np.testing.assert_allclose(
            mp_fast.profile, mp_oracle.profile, atol=1e-9, err_msg=mode
        )
        assert (damp_fast.discord is None) == (damp_oracle.discord is None)
        if damp_oracle.discord is not None:
            assert damp_fast.discord.index == damp_oracle.discord.index
            assert damp_fast.discord.distance == pytest.approx(
                damp_oracle.discord.distance, abs=1e-9
            )


@given(
    n=st.integers(min_value=8, max_value=24),
    length=st.integers(min_value=4, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_short_series_all_inf_contract(n, length):
    """A zone wide enough to ban every pair yields all-inf, not an error,
    in every mode."""
    series = np.sin(np.arange(n) / 2.0)
    count = n - length + 1
    exclusion = count  # |i - j| < count always holds
    for mode in ("reference", *FAST_MODES):
        with discord_mode(mode):
            profile = nearest_neighbor_distances(series, length, exclusion=exclusion)
        assert profile.shape == (count,)
        assert np.isinf(profile).all(), mode
