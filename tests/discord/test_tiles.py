"""Tile invariance of the discord kernels, and MERLIN's drop to its
seeded bound after a failed DRAG pass.

Every tiled kernel sizes its tiles from the one scratch budget
``repro.discord.kernels.TILE_BYTES``.  The tile size decides how work is
grouped, never what is found: at a budget of one to three rows per tile
DRAG, MERLIN and the NN profile must report the same discord indices and
lengths as at the default, with distances within 1e-12.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discord import (
    SeriesContext,
    brute_force_discord,
    drag,
    left_matrix_profile,
    merlin,
)
from repro.discord import kernels
from repro.discord.distance import TINY_SQ, correct_tiny_distances, trivial_match_mask
from repro.discord.kernels import nn_profile, tile_rows

from .reference import merlin_module, reference_discord


@contextlib.contextmanager
def tile_budget(nbytes: int):
    """Hold ``kernels.TILE_BYTES`` at ``nbytes`` for the block."""
    previous = kernels.TILE_BYTES
    kernels.TILE_BYTES = nbytes
    try:
        yield
    finally:
        kernels.TILE_BYTES = previous


def tiny_budget(rows: int) -> int:
    """The budget whose square tile is ``rows`` rows; a profile tile at
    that budget is one row."""
    return 8 * rows * rows


def make_series(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    period = int(rng.integers(8, 40))
    series = np.sin(2 * np.pi * t / period) + 0.15 * rng.standard_normal(n)
    start = int(rng.integers(0, n - 20))
    series[start : start + int(rng.integers(4, 20))] += rng.normal(0.0, 1.0)
    return series


def top_index(profile: np.ndarray) -> int:
    """The discord start a profile names (tie-snapped, as brute force)."""
    return kernels.snap_argmax(np.where(np.isfinite(profile), profile, -np.inf))


series_seeds = st.integers(min_value=0, max_value=10_000)
tiny_rows = st.integers(min_value=1, max_value=3)


def test_tile_rule():
    with tile_budget(tiny_budget(3)):
        assert tile_rows() == 3
        assert tile_rows(100) == 1
    with tile_budget(128 * 1024):
        assert tile_rows() == 128
        assert tile_rows(1200) == 13
    assert tile_rows(10**9) == 1


@given(seed=series_seeds, rows=tiny_rows, length=st.integers(min_value=4, max_value=24))
@settings(max_examples=25, deadline=None)
def test_drag_is_tile_invariant(seed, rows, length):
    series = make_series(seed, n=220)
    top = brute_force_discord(series, length, exclusion=length)
    for r in (0.5 * top.distance, 0.999 * top.distance, 1.5 * top.distance):
        default = drag(series, length, r)
        with tile_budget(tiny_budget(rows)):
            tiny = drag(series, length, r)
        assert (default is None) == (tiny is None)
        if default is not None:
            assert (tiny.index, tiny.length) == (default.index, default.length)
            assert tiny.distance == pytest.approx(default.distance, abs=1e-12)


@given(seed=series_seeds, rows=tiny_rows)
@settings(max_examples=10, deadline=None)
def test_merlin_is_tile_invariant(seed, rows):
    series = make_series(seed, n=200)
    default = merlin(series, 8, 40, step=8)
    with tile_budget(tiny_budget(rows)):
        tiny = merlin(series, 8, 40, step=8)
    assert [(d.index, d.length) for d in tiny.discords] == [
        (d.index, d.length) for d in default.discords
    ]
    for a, b in zip(tiny.discords, default.discords):
        assert a.distance == pytest.approx(b.distance, abs=1e-12)


@given(
    seed=series_seeds,
    rows=tiny_rows,
    length=st.integers(min_value=3, max_value=32),
    exclusion=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_nn_profile_is_tile_invariant(seed, rows, length, exclusion):
    series = make_series(seed, n=180)
    default = nn_profile(SeriesContext(series), length, exclusion)
    with tile_budget(tiny_budget(rows)):
        tiny = nn_profile(SeriesContext(series), length, exclusion)
        tiny_left = left_matrix_profile(series, length)
    np.testing.assert_array_equal(np.isinf(tiny), np.isinf(default))
    finite = np.isfinite(default)
    np.testing.assert_allclose(tiny[finite], default[finite], rtol=0, atol=1e-12)
    if finite.any():
        assert top_index(tiny) == top_index(default)
    # The left profile has no tiny-distance recompute, so it keeps the
    # 1e-9 contract of its reference test rather than 1e-12.
    default_left = left_matrix_profile(series, length)
    np.testing.assert_array_equal(np.isinf(tiny_left), np.isinf(default_left))
    finite = np.isfinite(default_left)
    np.testing.assert_allclose(
        tiny_left[finite], default_left[finite], rtol=0, atol=1e-9
    )


def always_corrected_nn_profile(ctx, length, exclusion, rows):
    """``nn_profile``'s tile loop with the tiny-distance correction run
    on every tile, as it was before the correction was gated."""
    count = ctx.count(length)
    z, norms = ctx.znorm(length), ctx.znorm_sq_norms(length)
    band = trivial_match_mask(count, exclusion)
    profile = np.empty(count)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        sq = kernels.pair_sq_distances(z[start:stop], norms[start:stop], z, norms)
        np.maximum(sq, 0.0, out=sq)
        np.copyto(sq, np.inf, where=band[start:stop])
        correct_tiny_distances(ctx.series, length, np.arange(start, stop), sq)
        profile[start:stop] = np.sqrt(np.maximum(sq.min(axis=1), 0.0))
    return profile


@pytest.mark.parametrize("rows", [1, 3, 7, 64])
def test_nn_profile_skips_the_correction_only_where_it_changes_nothing(rows):
    """``nn_profile`` runs the exact tiny-distance correction only on
    tiles where some row's minimum is below ``TINY_SQ``; its bits equal
    correcting every tile.  A near-duplicate segment and a constant run
    put tiny entries in a few tiles only."""
    series = make_series(7, n=240)
    series[150:190] = series[20:60] + 1e-6 * np.arange(40)
    series[100:120] = series[100]
    length, exclusion = 16, 4
    ctx = SeriesContext(series)
    count = ctx.count(length)
    with tile_budget(8 * rows * count):
        assert tile_rows(count) == rows
        profile = nn_profile(ctx, length, exclusion)
    expected = always_corrected_nn_profile(ctx, length, exclusion, rows)
    assert profile.tobytes() == expected.tobytes()
    tiny_rows_hit = np.flatnonzero(profile < np.sqrt(TINY_SQ))
    assert 0 < len(tiny_rows_hit) < count // 2  # some tiles skip, some correct


class TestSeededDrop:
    """After a failed pass at a seeded length, ``r`` drops to the seeded
    lower bound, which cannot overshoot the discord distance."""

    LENGTHS = (16, 128, 8)

    @staticmethod
    def drag_calls_per_length(monkeypatch, series, lengths):
        calls: dict[int, int] = {}

        def counting_drag(series, length, r, **kwargs):
            calls[length] = calls.get(length, 0) + 1
            return drag(series, length, r, **kwargs)

        monkeypatch.setattr(merlin_module, "drag", counting_drag)
        result = merlin(series, *lengths)
        return result, calls

    def test_seeded_lengths_take_at_most_two_calls(self, monkeypatch):
        series = make_series(7, n=1200)
        result, calls = self.drag_calls_per_length(monkeypatch, series, self.LENGTHS)
        # On this series the previous discord start fits at every length,
        # so every length after the first has a seed.
        seeded = range(self.LENGTHS[0], self.LENGTHS[1] + 1, self.LENGTHS[2])[1:]
        assert result.drag_calls == sum(calls.values())
        assert all(calls[length] <= 2 for length in seeded), calls
        # The series exercises the drop: some seeded guess overshoots.
        assert any(calls[length] == 2 for length in seeded), calls

    def test_reference_mode_keeps_the_decay_schedule(self, monkeypatch):
        series = make_series(7, n=1200)
        with reference_discord():
            oracle, calls = self.drag_calls_per_length(
                monkeypatch, series, self.LENGTHS
            )
        assert max(calls.values()) > 2, calls
        fast = merlin(series, *self.LENGTHS)
        assert [(d.index, d.length) for d in fast.discords] == [
            (d.index, d.length) for d in oracle.discords
        ]
        assert fast.drag_calls < oracle.drag_calls
