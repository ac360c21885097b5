"""Sharded multi-worker serving (extension beyond the paper).

One :class:`repro.serve.ScoringEngine` is bounded by a single core and
a single address space.  This example drives the shard fabric
(``docs/SHARDING.md``) end to end:

1. partition a fleet of streams across a fixed set of worker
   processes by hash (:class:`repro.serve.ShardRouter`); the router
   keeps each stream's last acknowledged snapshot;
2. ``kill -9`` a worker mid-run and watch the router heal it —
   respawn, rehydrate from the saved snapshots, replay unacked
   batches — with the final scores bit-identical to an undisturbed
   run.

Run:
    python examples/sharded_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines.spectral_residual import SpectralResidualWindowScorer
from repro.serve import EngineConfig, ModelRegistry, RecordingEngine, ShardRouter

STREAMS = 16
CHUNK = 100
ROUNDS = 8


def make_fleet() -> dict[str, np.ndarray]:
    """16 noisy periodic streams; half of them carry a mid-run spike."""
    rng = np.random.default_rng(7)
    t = np.arange(CHUNK * ROUNDS)
    fleet = {}
    for i in range(STREAMS):
        series = np.sin(2 * np.pi * (t + 13 * i) / 32)
        series += 0.03 * rng.standard_normal(len(t))
        if i % 2 == 0:
            series[420:428] += 6.0  # the event the fleet should alert on
        fleet[f"sensor-{i:02d}"] = series
    return fleet


def main() -> None:
    t = np.arange(800)
    train = np.sin(2 * np.pi * t / 32)
    train += 0.03 * np.random.default_rng(5).standard_normal(len(t))
    # The scorer is built once, here; every worker (and every respawn)
    # gets it by fork, so the factory closes over a live object.  A
    # RecordingEngine logs each window score so we can prove
    # bit-identity below.
    scorer = SpectralResidualWindowScorer(calibration_series=train)
    config = EngineConfig(
        window_length=32, stride=8, max_batch=32, score_baseline=64,
        warmup_scores=8,
    )

    def make_engine() -> RecordingEngine:
        registry = ModelRegistry()
        registry.register(scorer)
        return RecordingEngine(registry, config)

    fleet = make_fleet()

    print("=== reference: one in-process engine ===")
    engine = make_engine()
    reference_alerts = []
    for position in range(0, CHUNK * ROUNDS, CHUNK):
        for stream_id, series in fleet.items():
            reference_alerts.extend(
                engine.ingest_many(stream_id, series[position : position + CHUNK])
            )
        reference_alerts.extend(engine.drain())
    reference = sorted(engine.take_records())
    print(f"scored {len(reference)} windows, {len(reference_alerts)} alerts")

    print("\n=== sharded run with a kill -9 ===")
    records, alerts = [], []
    with ShardRouter(make_engine, workers=2) as router:
        for round_index, position in enumerate(range(0, CHUNK * ROUNDS, CHUNK)):
            if round_index == 3:
                victim = router.workers[0]
                pid = router.kill_worker(victim)
                print(f"round {round_index}: SIGKILLed {victim} (pid {pid})")
            batch = [
                (stream_id, series[position : position + CHUNK])
                for stream_id, series in fleet.items()
            ]
            alerts.extend(router.submit(batch))
            records.extend(router.last_records)
        report = router.report()

    print(f"scored {len(records)} windows, {len(alerts)} alerts, "
          f"respawns={report['respawns']}")
    for name, count in sorted(report["placement"].items()):
        print(f"  {name}: {count} streams")

    identical = sorted(records) == reference
    print(f"\nbit-identical to the in-process reference: {identical}")
    assert identical, "sharded run diverged from the reference"
    assert sorted(
        (a.stream_id, a.index, a.score) for a in alerts
    ) == sorted((a.stream_id, a.index, a.score) for a in reference_alerts)
    print("every alert matched, through a kill -9.")


if __name__ == "__main__":
    main()
