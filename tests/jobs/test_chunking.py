"""Chunk planning and stitching: the bit-identical-to-single-pass core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.spectral_residual import SpectralResidualWindowScorer
from repro.jobs import Chunk, chunk_windows_view, plan_chunks, stitch, window_starts
from repro.signal.windows import sliding_windows


@pytest.mark.parametrize(
    "n_points,length,stride",
    [(1000, 50, 10), (1000, 50, 7), (64, 64, 8), (777, 33, 33), (100, 99, 100)],
)
def test_window_starts_matches_sliding_windows(n_points, length, stride):
    series = np.arange(n_points, dtype=np.float64)
    _, reference = sliding_windows(series, length, stride)
    np.testing.assert_array_equal(window_starts(n_points, length, stride), reference)


def test_window_starts_rejects_bad_plan():
    with pytest.raises(ValueError, match="exceeds series length"):
        window_starts(10, 11, 1)
    with pytest.raises(ValueError, match="stride"):
        window_starts(10, 5, 0)


@pytest.mark.parametrize("chunk_windows", [1, 3, 7, 1000])
def test_plan_chunks_partitions_every_window(chunk_windows):
    n_points, length, stride = 503, 40, 9
    starts = window_starts(n_points, length, stride)
    chunks = plan_chunks(n_points, length, stride, chunk_windows)
    assert sum(c.n_windows for c in chunks) == len(starts)
    assert [c.index for c in chunks] == list(range(len(chunks)))
    cursor = 0
    for chunk in chunks:
        assert chunk.first_window == cursor
        run = starts[cursor : cursor + chunk.n_windows]
        assert chunk.start == run[0]
        assert chunk.stop == run[-1] + length
        cursor += chunk.n_windows
    assert chunks[-1].stop == n_points


def test_plan_chunks_rejects_nonpositive_granularity():
    with pytest.raises(ValueError, match="chunk_windows"):
        plan_chunks(100, 10, 5, 0)


def test_chunk_windows_view_matches_global_rows():
    rng = np.random.default_rng(3)
    series = rng.standard_normal(311)
    length, stride = 28, 5
    full, _ = sliding_windows(series, length, stride)
    for chunk in plan_chunks(len(series), length, stride, 11):
        windows, run = chunk_windows_view(series, chunk, length, stride)
        np.testing.assert_array_equal(
            windows, full[chunk.first_window : chunk.first_window + chunk.n_windows]
        )
        assert len(run) == chunk.n_windows


@pytest.mark.parametrize("chunk_windows", [2, 5, 64])
def test_stitch_is_bit_identical_to_single_pass(chunk_windows):
    rng = np.random.default_rng(9)
    series = np.sin(np.arange(900) / 11.0) + 0.1 * rng.standard_normal(900)
    length, stride = 60, 13
    scorer = SpectralResidualWindowScorer()

    windows, starts = sliding_windows(series, length, stride)
    reference_windows = scorer.score_windows(windows, [None] * len(windows))
    from repro.pipeline.scores import spread_window_scores

    reference = spread_window_scores(reference_windows, starts, length, len(series))

    chunks = plan_chunks(len(series), length, stride, chunk_windows)
    per_chunk = {}
    for chunk in chunks:
        chunk_view, _ = chunk_windows_view(series, chunk, length, stride)
        per_chunk[chunk.index] = scorer.score_windows(
            chunk_view, [None] * chunk.n_windows
        )
    stitched = stitch(per_chunk, chunks, length, stride, len(series))
    assert np.array_equal(stitched, reference)


def test_stitch_names_missing_chunk():
    chunks = plan_chunks(200, 20, 10, 4)
    partial = {chunks[0].index: np.zeros(chunks[0].n_windows)}
    with pytest.raises(KeyError, match=f"chunk {chunks[1].index}"):
        stitch(partial, chunks, 20, 10, 200)


def test_stitch_rejects_wrong_shape():
    chunks = plan_chunks(100, 10, 10, 100)
    bad = {0: np.zeros(chunks[0].n_windows + 1)}
    with pytest.raises(ValueError, match="expected"):
        stitch(bad, chunks, 10, 10, 100)
