"""Tile invariance of TriAD's encoder inference, and zero-window batches.

``TriAD.representations`` runs the encoder in even row tiles sized from
one budget, ``repro.core.encoder.INFERENCE_TILE_BYTES``.  Every encoder
op is row-independent, so the tile split decides how work is grouped,
never the bits: at any budget the representations are bytewise equal to
one untiled forward, in float32 and on the float64 oracle.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TriAD, TriADConfig, nn
from repro.core import encoder as encoder_module
from repro.core.encoder import TriDomainEncoder
from repro.pipeline import from_triad

from ..conftest import encoder_dtype

#: Largest tile the property draws, in rows.
MAX_TILE = 8


@contextlib.contextmanager
def tile_budget(nbytes: int):
    """Hold ``INFERENCE_TILE_BYTES`` at ``nbytes`` for the block."""
    previous = encoder_module.INFERENCE_TILE_BYTES
    encoder_module.INFERENCE_TILE_BYTES = nbytes
    try:
        yield
    finally:
        encoder_module.INFERENCE_TILE_BYTES = previous


def row_bytes(detector: TriAD) -> int:
    """Bytes of one row of a ``(rows, hidden_dim, length)`` activation."""
    encoder = detector.encoder
    return encoder.dtype.itemsize * detector.config.hidden_dim * detector.plan.length


def untiled(detector: TriAD, windows: np.ndarray) -> dict[str, np.ndarray]:
    """One forward over every window: the oracle the tiles must match."""
    features = detector.pipeline.extract(
        windows, detector.plan.period, detector.config.domains
    )
    with nn.no_grad():
        encoded = detector.encoder(features)
    return {domain: r.data.astype(np.float64) for domain, r in encoded.items()}


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def fitted(request):
    """A fitted TriAD in each dtype, with enough test windows for three
    of the largest tiles drawn."""
    rng = np.random.default_rng(3)
    t = np.arange(900)
    series = np.sin(2 * np.pi * t / 24) + 0.05 * rng.standard_normal(len(t))
    config = TriADConfig(depth=2, hidden_dim=8, epochs=1, seed=0, max_window=96)
    with encoder_dtype(request.param):
        detector = TriAD(config).fit(series[:600])
    windows, _ = detector.pipeline.windows(series[600:], detector.plan.length, 4)
    assert len(windows) > 3 * MAX_TILE + 1
    assert detector.encoder.dtype == request.param
    return detector, np.ascontiguousarray(windows)


@st.composite
def splits(draw):
    """A tile size and a window count from 0 to ~3 tiles, favouring the
    edges (tile - 1, tile, tile + 1)."""
    tile = draw(st.integers(min_value=1, max_value=MAX_TILE))
    edge = st.sampled_from([tile - 1, tile, tile + 1, 2 * tile + 1, 3 * tile])
    count = draw(st.one_of(edge, st.integers(min_value=0, max_value=3 * tile + 1)))
    return tile, count


@settings(max_examples=30, deadline=None)
@given(split=splits())
def test_tiled_representations_are_bytewise_untiled(fitted, split):
    detector, all_windows = fitted
    tile, count = split
    windows = all_windows[:count]
    expected = untiled(detector, windows)
    with tile_budget(tile * row_bytes(detector)):
        tiles = detector.encoder.row_tiles(count, detector.plan.length)
        reps = detector.representations(windows)
    assert len(tiles) == max(-(-count // tile), 1)
    for domain, r in expected.items():
        assert reps[domain].shape == (count, detector.plan.length)
        assert reps[domain].dtype == np.float64
        assert reps[domain].tobytes() == r.tobytes()


class TestRowTiles:
    def test_default_budget_at_the_paper_width(self):
        encoder = TriDomainEncoder(TriADConfig())
        assert encoder.config.hidden_dim == 32 and encoder.dtype == np.float32
        assert {t.stop - t.start for t in encoder.row_tiles(256, 120)} == {32}
        assert encoder.row_tiles(34, 120) == [slice(0, 34)]
        assert len(encoder.row_tiles(35, 120)) == 2
        assert {t.stop - t.start for t in encoder.row_tiles(64, 256)} == {16}

    @pytest.mark.parametrize("rows", [1, 5, 33, 34, 35, 100, 1024])
    def test_even_split_covers_every_row_once(self, rows):
        encoder = TriDomainEncoder(TriADConfig())
        tiles = encoder.row_tiles(rows, 120)
        sizes = [t.stop - t.start for t in tiles]
        assert tiles[0].start == 0 and tiles[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        assert max(sizes) - min(sizes) <= 1  # no tiny tail tile
        assert max(sizes) <= 34

    def test_zero_rows_give_one_empty_tile(self):
        encoder = TriDomainEncoder(TriADConfig())
        assert encoder.row_tiles(0, 120) == [slice(0, 0)]

    def test_a_row_wider_than_the_budget_is_one_row_per_tile(self):
        encoder = TriDomainEncoder(TriADConfig())
        with tile_budget(1):
            assert encoder.row_tiles(3, 120) == [slice(0, 1), slice(1, 2), slice(2, 3)]


class TestZeroWindows:
    @pytest.mark.parametrize("cached", [False, True])
    def test_representations(self, fitted, cached):
        detector, _ = fitted
        length = detector.plan.length
        reps = detector.representations(np.empty((0, length)), cached=cached)
        assert set(reps) == set(detector.config.domains)
        for r in reps.values():
            assert r.shape == (0, length) and r.dtype == np.float64

    def test_score_windows(self, fitted):
        detector, _ = fitted
        scores = from_triad(detector).score_windows(
            np.empty((0, detector.plan.length)), ()
        )
        assert scores.shape == (0,) and scores.dtype == np.float64
