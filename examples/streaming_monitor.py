"""Streaming anomaly monitoring (extension beyond the paper).

The paper's pipeline is batch: a full test set arrives, TriAD nominates
windows, MERLIN refines.  Industrial telemetry often needs *online*
detection instead.  This example runs
:class:`repro.discord.StreamingDiscordDetector`, a DAMP-style
left-matrix-profile monitor that ingests one point at a time and alerts
the moment an unprecedented subsequence completes.

Run:
    python examples/streaming_monitor.py
"""

from __future__ import annotations

import numpy as np

from repro.data import DatasetSpec, make_dataset
from repro.discord import StreamingDiscordDetector


def main() -> None:
    # A stream with two distinct anomalous events.
    spec = DatasetSpec(
        name="stream",
        family="harmonics",
        period=50,
        train_length=100,  # unused here; the monitor is label- and train-free
        test_length=3000,
        anomaly_type="seasonal",
        anomaly_start=1200,
        anomaly_length=120,
        noise_level=0.04,
        seed=77,
    )
    stream = make_dataset(spec).test
    rng = np.random.default_rng(0)
    stream[2400:2440] += rng.standard_normal(40) * 1.5  # second event: noise burst

    print("=== online monitoring (one point at a time) ===")
    monitor = StreamingDiscordDetector(length=40, warmup=60, sigma=5.0)
    reported: list[int] = []
    for value in stream:
        alert = monitor.update(value)
        if alert is not None:
            # Report once per burst: skip alerts within 100 pts of the last.
            if not reported or alert.index - reported[-1] > 100:
                print(
                    f"  t={monitor.points_seen:5d}  ALERT: novel subsequence at "
                    f"index {alert.index} (left-NN distance {alert.distance:.2f})"
                )
                reported.append(alert.index)
    print(f"  events planted at ~1200-1320 and ~2400-2440; "
          f"{len(reported)} alert bursts raised")


if __name__ == "__main__":
    main()
