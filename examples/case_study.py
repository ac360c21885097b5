"""Case study (paper Sec. IV-E, Figs. 10-13): walking one detection.

Reproduces the paper's UCR "025" walkthrough on its synthetic twin — an
ECG-like series whose anomaly is a missing secondary peak (a subtle
frequency shift).  Prints every intermediate artifact of the pipeline:

1. per-domain window similarity curves (Fig. 11) as ASCII sparklines;
2. the nominated and selected windows;
3. MERLIN discords per anomaly length (Fig. 12);
4. the voting threshold study (Fig. 13).

Run:
    python examples/case_study.py
"""

from __future__ import annotations

import numpy as np

from repro import TriAD, TriADConfig
from repro.data import DatasetSpec, make_dataset
from repro.metrics import precision_recall_f1
from repro.viz import sparkline


def main() -> None:
    spec = DatasetSpec(
        name="synthetic-025",
        family="ecg",
        period=56,
        train_length=2000,
        test_length=2400,
        anomaly_type="contextual",
        anomaly_start=1400,
        anomaly_length=27,
        noise_level=0.03,
        seed=25,
    )
    dataset = make_dataset(spec)
    start, end = dataset.anomaly_interval
    print(f"test set of {len(dataset.test)} points; "
          f"anomaly = {end - start} points at [{start}, {end})")
    print("the anomaly omits the secondary ECG peak (subtle frequency shift)\n")

    detector = TriAD(TriADConfig(epochs=6, max_window=256, seed=0)).fit(dataset.train)
    detection = detector.detect(dataset.test)

    print("Fig. 11 — per-domain window similarity (dip = deviant window):")
    for domain, scores in detection.similarity.items():
        deviant = int(np.argmin(scores))
        marker = f"min @ window {deviant}"
        print(f"  {domain:9s} {sparkline(scores, width=64)}  {marker}")

    print(f"\ncandidate windows : {detection.candidate_windows}")
    print(f"selected window   : {detection.window}")
    print(f"search region     : {detection.search_region} "
          f"(padding gives MERLIN normal context)")

    print("\nFig. 12 — MERLIN discords per search length:")
    offset = detection.search_region[0]
    for discord in detection.discords.discords:
        lo = offset + discord.index
        hi = lo + discord.length
        near = "<-- anomaly" if lo < end + 50 and hi > start - 50 else ""
        print(f"  length {discord.length:4d}: [{lo}, {hi})  "
              f"distance {discord.distance:6.2f} {near}")

    print("\nFig. 13 — voting threshold study:")
    votes = detection.votes.votes
    voted = votes[votes > 0]
    print(f"  {'threshold':22s} {'precision':>9s} {'recall':>7s} {'F1':>6s}")
    for label, threshold in [
        ("mean (paper default)", float(voted.mean())),
        ("median", float(np.percentile(voted, 50))),
        ("P75", float(np.percentile(voted, 75))),
        ("P90", float(np.percentile(voted, 90))),
    ]:
        predictions = (votes > threshold).astype(int)
        p, r, f1 = precision_recall_f1(predictions, dataset.labels)
        print(f"  {label:22s} {p:9.3f} {r:7.3f} {f1:6.3f}")


if __name__ == "__main__":
    main()
