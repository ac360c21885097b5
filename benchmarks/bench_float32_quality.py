"""float32 encoder vs the float64 oracle — detection quality.

TriAD's encoder runs in float32 (``repro.core.encoder.ENCODER_DTYPE``);
float64 is its test oracle.  This bench fits and detects every
``bench_archive()`` series at ``bench_config()`` for seeds 0-2 under
both dtypes and compares the two quality metrics the benchmark ledger
reports for ``fit_detect``: ``core.window_hit_rate`` (the selected
window hits the event) and ``metrics.pak_auc_f1`` (PA%K AUC F1 of the
point predictions).  It also lists every series whose selected window
moved.

Expected: float32 is no worse than float64 on either metric.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import TriAD
from repro.eval import bench_archive, bench_config, render_table
from repro.metrics import pa_k_auc, window_hits_event

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repo root
from tests.conftest import encoder_dtype  # noqa: E402

from _common import emit, fmt

SEEDS = (0, 1, 2)
DTYPES = {"float64 (oracle)": np.float64, "float32": np.float32}


def _run(dtype) -> dict[tuple[str, int], tuple[tuple[int, int], bool, float]]:
    """(series, seed) -> (selected window, window hit, PA%K AUC F1)."""
    out = {}
    with encoder_dtype(dtype):
        for dataset in bench_archive():
            for seed in SEEDS:
                detection = TriAD(bench_config(seed=seed)).fit(dataset.train).detect(dataset.test)
                out[dataset.name, seed] = (
                    detection.window,
                    window_hits_event(detection.window, dataset.anomaly_interval),
                    pa_k_auc(detection.predictions, dataset.labels).f1_auc,
                )
    return out


@pytest.fixture(scope="module")
def quality():
    return {name: _run(dtype) for name, dtype in DTYPES.items()}


def test_float32_quality(quality, benchmark):
    def summarize():
        return {
            name: (
                float(np.mean([hit for _, hit, _ in runs.values()])),
                float(np.mean([f1 for _, _, f1 in runs.values()])),
            )
            for name, runs in quality.items()
        }

    summary = benchmark(summarize)
    oracle, single = (quality[name] for name in DTYPES)
    moved = sorted(key for key in oracle if oracle[key][0] != single[key][0])
    rows = [[name, fmt(hit), fmt(f1)] for name, (hit, f1) in summary.items()]
    table = render_table(
        ["Encoder dtype", "window_hit_rate", "PA%K AUC F1"],
        rows,
        title=f"float32 vs float64: bench_archive() x seeds {SEEDS[0]}-{SEEDS[-1]}",
    )
    changes = [
        f"  {name} seed {seed}: {oracle[name, seed][0]} -> {single[name, seed][0]}"
        f" (hit {oracle[name, seed][1]} -> {single[name, seed][1]})"
        for name, seed in moved
    ]
    emit(
        "float32_quality",
        table
        + f"\nselected window moved in {len(moved)} of {len(oracle)} runs"
        + ("\n" + "\n".join(changes) if changes else ""),
    )

    (hit64, f1_64), (hit32, f1_32) = (summary[name] for name in DTYPES)
    assert hit32 >= hit64
    assert f1_32 >= f1_64
