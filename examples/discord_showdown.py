"""Discord discovery showdown (paper Sec. IV-B2, Table IV & Fig. 7).

Compares three ways to find an anomaly with discord search:

1. brute-force matrix profile over the full series (the O(N^2) classic);
2. MERLIN over the full series (the discords MERLIN++, the paper's
   comparator, also finds);
3. TriAD: a trained encoder nominates one window, MERLIN scans only a
   padded region around it.

Prints per-method wall-clock time, scanned length, and whether the
anomaly was hit — demonstrating the search-space reduction the paper
reports (Fig. 7) and the accuracy/time trade of Table IV.

Run:
    python examples/discord_showdown.py
"""

from __future__ import annotations

import numpy as np

from repro import TriAD, TriADConfig
from repro.data import make_archive
from repro.discord import brute_force_discord, merlin
from repro.eval import render_table
from repro.metrics import Timer, event_detected, window_hits_event


def main() -> None:
    dataset = make_archive(size=4, seed=19, train_length=1500, test_length=2000)[2]
    start, end = dataset.anomaly_interval
    n = len(dataset.test)
    print(f"dataset {dataset.name}: anomaly [{start}, {end}) in {n} points\n")

    rows = []

    # 1. Brute force at one representative length.
    with Timer() as t_brute:
        discord = brute_force_discord(dataset.test, 64, exclusion=64)
    hit = event_detected(np.arange(*discord.interval), (start, end))
    rows.append(["brute force (L=64)", f"{n}", f"{t_brute.elapsed:.2f}s", str(hit)])

    # 2. MERLIN across lengths on the full series.
    with Timer() as t_merlin:
        result = merlin(dataset.test, 16, 128, step=16)
    points = (
        np.concatenate([np.arange(d.index, d.index + d.length) for d in result.discords])
        if result.discords
        else np.array([])
    )
    hit = event_detected(points, (start, end))
    rows.append(["MERLIN (16..128)", f"{n}", f"{t_merlin.elapsed:.2f}s", str(hit)])

    # 3. TriAD: nomination + windowed MERLIN (training time shown separately).
    with Timer() as t_train:
        detector = TriAD(TriADConfig(epochs=5, max_window=256, seed=0)).fit(dataset.train)
    with Timer() as t_triad:
        detection = detector.detect(dataset.test)
    span = detection.search_region[1] - detection.search_region[0]
    hit = window_hits_event(detection.window, (start, end))
    rows.append(["TriAD (windowed MERLIN)", f"{span}", f"{t_triad.elapsed:.2f}s", str(hit)])

    print(
        render_table(
            ["Method", "scanned points", "inference time", "anomaly hit"],
            rows,
            title="Discord showdown",
        )
    )
    print(f"\n(TriAD one-off training: {t_train.elapsed:.1f}s; "
          f"search-space reduction: {n / span:.1f}x — cf. paper Fig. 7)")


if __name__ == "__main__":
    main()
