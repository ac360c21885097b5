"""Table IV — TriAD vs full-series MERLIN on the shortest datasets.

The paper compares event-detection accuracy (a hit = prediction within
100 points of the anomaly) and total inference time on the 62 shortest
UCR datasets: MERLIN++ scans each full test series across all candidate
lengths, while TriAD only nominates windows (tri-window / single-window)
with a trained encoder.

The comparator here is :func:`repro.discord.merlin` on the shared
distance kernels.  MERLIN++ finds exactly the same discords as MERLIN
(it only changes how the nearest-neighbor search is pruned), so the
accuracy column is the paper's; the time column is that of a
kernel-backed MERLIN, a stronger baseline than the paper's MERLIN++.

Expected shapes (paper Table IV): TriAD's windows beat MERLIN++'s
accuracy by ~50% relative, at roughly an order of magnitude less
inference time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_archive
from repro.discord import merlin
from repro.eval import bench_config, render_table
from repro.metrics import Timer, event_detected, window_hits_event

from _common import emit, fmt, trained_triad

ARCHIVE_SIZE = 8


@pytest.fixture(scope="module")
def short_archive():
    """The 'shortest datasets' slice: smaller test splits."""
    return make_archive(size=ARCHIVE_SIZE, seed=23, train_length=1200, test_length=1200)


@pytest.fixture(scope="module")
def merlin_run(short_archive):
    hits, elapsed = [], 0.0
    for ds in short_archive:
        with Timer() as t:
            result = merlin(ds.test, 16, 128, step=8)
        elapsed += t.elapsed
        points = np.concatenate(
            [np.arange(d.index, d.index + d.length) for d in result.discords]
        ) if result.discords else np.array([])
        hits.append(event_detected(points, ds.anomaly_interval))
    return hits, elapsed


@pytest.fixture(scope="module")
def triad_run(short_archive):
    config = bench_config(seed=0)
    tri_hits, single_hits = [], []
    tri_elapsed = single_elapsed = 0.0
    for ds in short_archive:
        detector = trained_triad(ds, config)  # training time not counted,
        # matching the paper's *inference time* comparison.
        with Timer() as t:
            candidates, _, _, _ = detector.nominate_windows(ds.test)
        tri_elapsed += t.elapsed
        tri_hits.append(
            any(window_hits_event(w, ds.anomaly_interval) for w in candidates.values())
        )
        with Timer() as t:
            candidates, _, _, _ = detector.nominate_windows(ds.test)
            window = detector.select_window(ds.test, candidates)
        single_elapsed += t.elapsed
        single_hits.append(window_hits_event(window, ds.anomaly_interval))
    return tri_hits, single_hits, tri_elapsed, single_elapsed


def test_table4_accuracy_and_time(merlin_run, triad_run, benchmark):
    merlin_hits, merlin_time = benchmark(lambda: merlin_run)
    tri_hits, single_hits, tri_time, single_time = triad_run

    rows = [
        ["MERLIN (full series)", fmt(np.mean(merlin_hits)), fmt(merlin_time / 60, 2)],
        ["TriAD (tri-window)", fmt(np.mean(tri_hits)), fmt(tri_time / 60, 2)],
        ["TriAD (single window)", fmt(np.mean(single_hits)), fmt(single_time / 60, 2)],
    ]
    table = render_table(
        ["Model", "Accuracy", "Inference Time (mins)"],
        rows,
        title=f"Table IV: {ARCHIVE_SIZE} shortest UCR-style datasets",
    )
    emit("table4_merlin", table)

    # Shape assertions: TriAD at least matches MERLIN's accuracy and is
    # dramatically faster at inference (paper: ~10x on far longer series;
    # our short test sets compress the gap).
    assert np.mean(tri_hits) >= np.mean(merlin_hits)
    assert tri_time < merlin_time / 4.0, (tri_time, merlin_time)


def test_bench_merlin_full_series(short_archive, benchmark):
    """Timed section: one full-series MERLIN scan."""
    ds = short_archive[0]
    benchmark.pedantic(
        lambda: merlin(ds.test, 16, 96, step=16), rounds=1, iterations=1
    )
