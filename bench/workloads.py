"""The benchmark's four workloads; runs one of them in this process.

``bench/run.py`` starts this file in a fresh interpreter per workload,
with one BLAS thread and ``src`` on ``PYTHONPATH``::

    python bench/workloads.py --workload fit_detect --seed 0 --trace 0 --seconds 30

and reads the JSON object printed on the last line of standard output:
the end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``) with their samples, plus ``attempted`` and ``failed``
counts of the operations and output checks.  A failed check never stops
the run; it is counted.  Traced runs also write a ``repro profile``
renderable JSONL to ``.bench_work/trace/<workload>.jsonl``.

Every input comes from ``--seed``; see ``bench/README.md`` for why each
workload exists and what it stresses.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.core import TriAD
from repro.core.scoring import score_votes
from repro.data import make_archive, make_dataset
from repro.discord import merlin
from repro.eval import bench_config
from repro.jobs import SUCCEEDED, JobManager, JobSpec, plan_chunks, register_job_detector, stitch
from repro.jobs.executor import score_chunk
from repro.metrics import event_detected, pa_k_auc, window_hits_event
from repro.pipeline import from_triad
from repro.pipeline.scores import spread_window_scores
from repro.serve import EngineConfig, ModelRegistry, ScoringEngine
from repro.signal.windows import sliding_windows

from ledger import Ledger, peak_rss_mb, percentile, summary

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: Period of each dataset slot.  ``make_archive`` draws a random period
#: per dataset, and the period sets the window plan, hence the cost and
#: peak memory of training, MERLIN and serving.  Across seeds 0-9 with
#: make_archive's periods, the quartile spread of peak RSS was 18%
#: (fit_detect) and 14% (table4_inference); with these it is about 1%.
#: fit_detect gives all its series the first period, so that each of its
#: rounds (one series) does the same work.
PERIODS = (48, 64, 32, 72, 40, 56, 28, 76)
SETUPS = 3  # set-ups per run; setup_s is their median
SETUP_EPOCHS = 1  # models fitted in set-up only serve inference
MIN_ROUNDS = 2  # per series or stream set, so the round-to-round checks run
STREAMS = 16
CHUNK = 32  # points per ingest_many call
OPEN_LOOP_RATE = 8000.0  # points per second, all streams together
OPEN_LOOP_SHARE = 0.4  # of serve_stream's timed phase; closed rounds fill the rest
OPEN_LOOP_SEGMENTS = 8  # the open loop's p50 is taken per segment
JOB_WORKERS = 2  # the machine's core count
JOB_CHUNK_WINDOWS = 256
JOB_DETECTOR = "bench-triad"


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run.

    Every round of a workload does the same work; the number of rounds
    follows from the timed phase's length (:meth:`Run.rounds`).
    ``QUICK`` is the smoke-test toy size, with a timed phase of its own.
    """

    fit_datasets: int = 4
    fit_epochs: int = 5
    table4_datasets: int = 4
    stream_points: int = 1000  # per stream per closed-loop round
    job_chunks: int = 4  # full chunks per job series, shared by the job workers
    seconds: float | None = None  # timed phase; None takes --seconds


FULL = Scale()
QUICK = Scale(
    fit_datasets=1,
    fit_epochs=1,
    table4_datasets=1,
    stream_points=400,
    job_chunks=2,
    seconds=1.5,
)


@dataclass
class Outcome:
    """What a workload measured."""

    setup: list[float]  # seconds per set-up
    latency: list[float]  # seconds per operation, one sample per round
    rounds: list[tuple[int, float]]  # (points, seconds) per measured round
    ops: int  # operations the per-layer metrics are divided by
    extra: dict[str, float] = field(default_factory=dict)


class Run:
    """Arguments, ledger and outcome checks of one workload run."""

    def __init__(self, seed: int, scale: Scale, traced: bool, seconds: float) -> None:
        self.seed = seed
        self.scale = scale
        self.seconds = seconds if scale.seconds is None else scale.seconds
        self.ledger = Ledger(traced)
        self.attempted = 0
        self.failures: list[str] = []
        self.rss_mb = 0.0

    def set_up(self, build):
        """Call ``build`` ``SETUPS`` times; its last value and the times."""
        times = []
        for _ in range(SETUPS):
            value, seconds = timed(build)
            times.append(seconds)
        return value, times

    def rounds(self, minimum: int, seconds: float | None = None):
        """Round indices of one timed phase of ``seconds`` (default: the
        run's): at least ``minimum`` rounds, then one more while the median
        round so far would still end inside the phase.  The loop body is
        the round.  Every round does the same work, so a faster commit or
        machine gets more samples of it, not different ones."""
        budget = self.seconds if seconds is None else seconds
        start = time.perf_counter()
        took: list[float] = []
        while True:
            begin = time.perf_counter()
            if (
                took
                and len(took) >= minimum
                and begin - start + statistics.median(took) > budget
            ):
                return
            yield len(took)
            took.append(time.perf_counter() - begin)

    @contextlib.contextmanager
    def timed_rounds(self):
        """Around the timed rounds: records them if traced, and reads peak
        memory as they end, before output checks that allocate more (a
        single-pass score of a whole series) can raise it."""
        with self.ledger.recording():
            yield
        self.rss_mb = peak_rss_mb()

    def check(self, ok: bool, what: str) -> None:
        """Count one operation or property; a false ``ok`` fails it."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def detect(self, detector: TriAD, test: np.ndarray) -> tuple[tuple[int, int], np.ndarray]:
        """``detect()``; traced, the same four stages called one by one."""
        if not self.ledger.traced:
            detection = detector.detect(test)
            return detection.window, detection.predictions
        config = detector.config
        if config.top_z != 1 or config.scoring != "uniform":
            raise ValueError("the staged detect mirrors top_z=1, uniform voting only")
        with obs.span("bench.core.detect"):
            with obs.span("bench.core.nominate"):
                candidates, _, _, _ = detector.nominate_windows(test)
            with obs.span("bench.core.select"):
                window = detector.select_window(test, candidates)
            with obs.span("bench.core.merlin"):
                region = detector.search_region(len(test), window)
                discords = detector.run_discord_search(test, region)
            with obs.span("bench.core.vote"):
                votes = score_votes(
                    test_length=len(test),
                    window=window,
                    discords=discords,
                    search_offset=region[0],
                    exception_fraction=0.05 if config.exception_enabled else 0.0,
                )
        return window, votes.predictions

    def check_staged(self, detector: TriAD, test: np.ndarray, staged) -> None:
        """Traced runs: the staged detect must equal ``detect()``."""
        if self.ledger.traced:
            detection = detector.detect(test)
            self.check(
                detection.window == staged[0]
                and np.array_equal(detection.predictions, staged[1]),
                "staged detect differs from detect()",
            )


def timed(build):
    start = time.perf_counter()
    value = build()
    return value, time.perf_counter() - start


def tiled(series: np.ndarray, length: int, shift: int, rng) -> np.ndarray:
    """``series`` repeated from offset ``shift`` to ``length`` points with
    1% noise, so its events recur."""
    reps = -(-(length + shift) // len(series))
    base = np.tile(series, reps)[shift : shift + length]
    return base + rng.normal(0.0, 0.01 * series.std(), length)


def archive(size: int, seed: int, train_length: int, test_length: int, periods=PERIODS):
    """``make_archive``'s datasets with each slot's period pinned
    (``periods``, cycled); the seed still draws everything else."""
    datasets = make_archive(size, seed, train_length, test_length)
    return [
        make_dataset(replace(dataset.spec, period=periods[index % len(periods)]))
        for index, dataset in enumerate(datasets)
    ]


def fit_setup_model(run: Run, dataset) -> TriAD:
    config = bench_config(seed=0, epochs=SETUP_EPOCHS)
    return TriAD(config, pipeline=run.ledger.pipeline()).fit(dataset.train)


def serving_model(run: Run):
    """The dataset and fitted model that ``serve_stream`` and ``bulk_job``
    score with."""
    dataset = archive(size=1, seed=41 + run.seed, train_length=1200, test_length=2000)[0]
    return dataset, fit_setup_model(run, dataset)


# ----------------------------------------------------------------------
# fit_detect: the paper's offline workload (Fig. 4)
# ----------------------------------------------------------------------
def fit_detect(run: Run) -> Outcome:
    config = bench_config(seed=0, epochs=run.scale.fit_epochs)

    def set_up():
        datasets = archive(
            run.scale.fit_datasets, 7 + run.seed, train_length=1600, test_length=2000,
            periods=PERIODS[:1],
        )
        warm = datasets[0]
        warm_config = bench_config(seed=0, epochs=SETUP_EPOCHS)
        TriAD(warm_config, pipeline=run.ledger.pipeline()).fit(warm.train).detect(warm.test)
        return datasets

    datasets, setup = run.set_up(set_up)
    latency, measured, first = [], [], []
    with run.timed_rounds():
        # One round is one series, taken in turn.
        for round_index in run.rounds(MIN_ROUNDS * len(datasets)):
            index = round_index % len(datasets)
            dataset = datasets[index]
            start = time.perf_counter()
            # A fresh pipeline per fit: a new series never hits the cache.
            detector = TriAD(config, pipeline=run.ledger.pipeline())
            with obs.span("bench.core.fit"):
                detector.fit(dataset.train)
            window, predictions = run.detect(detector, dataset.test)
            seconds = time.perf_counter() - start
            latency.append(seconds)
            measured.append((len(dataset.train) + len(dataset.test), seconds))
            if round_index < len(datasets):
                first.append((detector, window, predictions))
                run.check(True, "fit+detect")
            else:
                _, window0, predictions0 = first[index]
                run.check(
                    window == window0 and np.array_equal(predictions, predictions0),
                    f"{dataset.name}: round {round_index} differs from its first fit",
                )

    for dataset, (detector, window, predictions) in zip(datasets, first):
        run.check_staged(detector, dataset.test, (window, predictions))
    return Outcome(
        setup=setup,
        latency=latency,
        rounds=measured,
        ops=len(latency),
        extra={
            "core.window_hit_rate": float(np.mean([
                window_hits_event(window, d.anomaly_interval)
                for d, (_, window, _) in zip(datasets, first)
            ])),
            "metrics.pak_auc_f1": float(np.mean([
                pa_k_auc(predictions, d.labels).f1_auc
                for d, (_, _, predictions) in zip(datasets, first)
            ])),
        },
    )


# ----------------------------------------------------------------------
# table4_inference: Table IV, TriAD detect against full-series MERLIN
# ----------------------------------------------------------------------
def table4_inference(run: Run) -> Outcome:
    def set_up():
        datasets = archive(
            run.scale.table4_datasets, 23 + run.seed, train_length=1200, test_length=1200
        )
        return datasets, [fit_setup_model(run, dataset) for dataset in datasets]

    def infer(detector: TriAD, test: np.ndarray):
        detector.pipeline.cache.clear()  # inference on a series never seen
        window, predictions = run.detect(detector, test)
        with obs.span("bench.discord.merlin_full"):
            full = merlin(test, 16, 128, step=8)
        return window, predictions, [(d.index, d.length, d.distance) for d in full.discords]

    (datasets, detectors), setup = run.set_up(set_up)
    infer(detectors[0], datasets[0].test)  # warm-up, discarded
    hits_before = sum(d.pipeline.cache.stats.hits for d in detectors)

    latency, measured, first = [], [], []
    with run.timed_rounds():
        for round_index in run.rounds(MIN_ROUNDS):
            round_start = time.perf_counter()
            for index, (detector, dataset) in enumerate(zip(detectors, datasets)):
                out = infer(detector, dataset.test)
                if round_index == 0:
                    first.append(out)
                    run.check(True, "detect+merlin")
                else:
                    window0, predictions0, discords0 = first[index]
                    run.check(
                        out[0] == window0
                        and np.array_equal(out[1], predictions0)
                        and out[2] == discords0,
                        f"{dataset.name}: round {round_index} differs from round 0",
                    )
            seconds = time.perf_counter() - round_start
            latency.append(seconds / len(datasets))
            measured.append((sum(len(d.test) for d in datasets), seconds))

    run.check(
        sum(d.pipeline.cache.stats.hits for d in detectors) == hits_before,
        "a timed detect hit the feature cache",
    )
    for detector, dataset, (window, predictions, _) in zip(detectors, datasets, first):
        run.check_staged(detector, dataset.test, (window, predictions))

    def merlin_hit(dataset, discords) -> bool:
        points = [np.arange(start, start + length) for start, length, _ in discords]
        flagged = np.concatenate(points) if points else np.array([])
        return event_detected(flagged, dataset.anomaly_interval)

    return Outcome(
        setup=setup,
        latency=latency,
        rounds=measured,
        ops=len(latency) * len(datasets),
        extra={
            "core.window_hit_rate": float(np.mean([
                window_hits_event(window, d.anomaly_interval)
                for d, (window, _, _) in zip(datasets, first)
            ])),
            "discord.merlin_hit_rate": float(np.mean([
                merlin_hit(d, discords) for d, (_, _, discords) in zip(datasets, first)
            ])),
        },
    )


# ----------------------------------------------------------------------
# serve_stream: online scoring, closed-loop rounds around an open loop
# ----------------------------------------------------------------------
class Tally(NamedTuple):
    """What a finished feed leaves for the per-layer metrics; the feed and
    its engine can then go, so memory does not grow with the rounds."""

    flush_calls: list[float]
    plain_calls: list[tuple[float, int]]
    scored: int
    shed: int


class Feed:
    """Drives one engine and times every call and every window.

    Windows leave the engine queue in arrival order, so the due times of
    windows still queued form a FIFO: a call that scored ``k`` windows
    scored the ``k`` oldest.
    """

    def __init__(self, engine: ScoringEngine) -> None:
        self.engine = engine
        self.queued: deque[float] = deque()
        self.emitted = 0
        self.scored = 0
        self.alerts: set[tuple[str, int]] = set()
        self.latency: list[float] = []  # due -> scored, per window
        self.wait: list[float] = []  # due -> start of the scoring call
        self.flush_calls: list[float] = []  # calls that scored a batch
        self.plain_calls: list[tuple[float, int]] = []  # (seconds, points)

    def call(self, due: float, points: int, ingest) -> None:
        engine = self.engine
        start = time.perf_counter()
        alerts = ingest()
        end = time.perf_counter()
        self.alerts.update((alert.stream_id, alert.index) for alert in alerts)
        emitted = engine.queue_depth + engine.stats.windows_scored + engine.stats.shed
        self.queued.extend([due] * (emitted - self.emitted))
        self.emitted = emitted
        scored = engine.stats.windows_scored - self.scored
        self.scored += scored
        if not scored:
            self.plain_calls.append((end - start, points))
            return
        self.flush_calls.append(end - start)
        for _ in range(scored):
            due_at = self.queued.popleft()
            self.latency.append(end - due_at)
            self.wait.append(start - due_at)

    def send(self, due: float, stream_id: str, chunk: np.ndarray) -> None:
        self.call(due, len(chunk), lambda: self.engine.ingest_many(stream_id, chunk))

    def drain(self) -> None:
        self.call(time.perf_counter(), 0, self.engine.drain)

    def tally(self) -> Tally:
        return Tally(self.flush_calls, self.plain_calls, self.scored, self.engine.stats.shed)


def serve_stream(run: Run) -> Outcome:
    open_loop_s = OPEN_LOOP_SHARE * run.seconds
    closed_s = (run.seconds - open_loop_s) / 2  # before and after the open loop
    per_stream = max(run.scale.stream_points, int(open_loop_s * OPEN_LOOP_RATE / STREAMS) + CHUNK)

    def set_up():
        dataset, model = serving_model(run)
        registry = ModelRegistry()
        registry.register(from_triad(model))
        rng = np.random.default_rng(run.seed)
        streams = {
            f"s{k:02d}": tiled(dataset.test, per_stream, k * len(dataset.test) // STREAMS, rng)
            for k in range(STREAMS)
        }
        return model.plan, registry, streams

    (plan, registry, streams), setup = run.set_up(set_up)
    config = EngineConfig(
        window_length=plan.length, stride=plan.stride, max_batch=64, queue_capacity=100_000
    )
    closed = {stream_id: values[: run.scale.stream_points] for stream_id, values in streams.items()}

    def windows_of(points: int) -> int:
        """Windows one stream of ``points`` points emits."""
        return 0 if points < plan.length else (points - plan.length) // plan.stride + 1

    def closed_round() -> tuple[Feed, float]:
        feed = Feed(ScoringEngine(registry, config))
        start = time.perf_counter()
        for offset in range(0, run.scale.stream_points, CHUNK):
            for stream_id, values in closed.items():
                feed.send(time.perf_counter(), stream_id, values[offset : offset + CHUNK])
        feed.drain()
        return feed, time.perf_counter() - start

    warm, _ = closed_round()  # warm-up, discarded
    tallies, measured = [], []

    def closed_rounds() -> None:
        for _ in run.rounds(MIN_ROUNDS // 2, closed_s):
            feed, seconds = closed_round()
            tallies.append(feed.tally())
            measured.append((STREAMS * run.scale.stream_points, seconds))
            run.check(
                feed.scored == STREAMS * windows_of(run.scale.stream_points)
                and feed.engine.stats.shed == 0,
                "closed loop: windows scored differ from the window count",
            )
            run.check(feed.alerts == warm.alerts, "closed loop: alert set changed")

    with run.timed_rounds():
        # Closed rounds run before and after the open loop, so the
        # throughput samples span the whole run, not one stretch of it.
        closed_rounds()

        # Open loop: chunk j is due j * CHUNK / rate after the start, whatever
        # the engine is doing; a stall delays every chunk behind it.
        live = Feed(ScoringEngine(registry, config))
        interval = CHUNK / OPEN_LOOP_RATE
        chunks = int(open_loop_s / interval)
        lag = []
        begin = time.perf_counter() + 0.01
        for j in range(chunks):
            due = begin + j * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            lag.append(time.perf_counter() - due)
            stream_id, offset = f"s{j % STREAMS:02d}", (j // STREAMS) * CHUNK
            live.send(due, stream_id, streams[stream_id][offset : offset + CHUNK])
        live.drain()
        tallies.append(live.tally())

        closed_rounds()

    sent = [CHUNK * len(range(k, chunks, STREAMS)) for k in range(STREAMS)]
    run.check(
        live.scored == sum(windows_of(points) for points in sent)
        and live.engine.stats.shed == 0,
        "open loop: windows scored differ from the window count",
    )
    run.check(len(live.latency) == live.scored, "open loop: a window was not timed")

    flushes = [s for f in tallies for s in f.flush_calls]
    plain = [c for f in tallies for c in f.plain_calls]
    scored = sum(f.scored for f in tallies)
    ledger = run.ledger
    extra = {
        "serve.flush_p50_ms": percentile(flushes, 0.5, 1e3),
        "serve.flush_p90_ms": percentile(flushes, 0.9, 1e3),
        "serve.ingest_us_per_point": (
            1e6 * sum(s for s, _ in plain) / max(sum(n for _, n in plain), 1)
        ),
        "serve.queue_wait_p50_ms": percentile(live.wait, 0.5, 1e3),
        "serve.generator_lag_p99_ms": percentile(lag, 0.99, 1e3),
        "serve.window_p99_ms": percentile(live.latency, 0.99, 1e3),
        "serve.windows_shed": float(sum(f.shed for f in tallies)),
    }
    if ledger.traced:
        batches = max(ledger.calls("serve.batch.size"), 1)
        extra["serve.batch_size_mean"] = ledger.total("serve.batch.size") / batches
        extra["serve.scorer_ms_per_window"] = 1e3 * ledger.total("serve.batch") / max(scored, 1)
    # Windows are scored in due order, so consecutive slices of the open
    # loop's windows are consecutive stretches of time; a p50 per stretch
    # gives the median its run-to-run spread.
    latency = [
        percentile(part, 0.5) for part in np.array_split(live.latency, OPEN_LOOP_SEGMENTS)
    ]
    return Outcome(setup=setup, latency=latency, rounds=measured, ops=scored, extra=extra)


# ----------------------------------------------------------------------
# bulk_job: offline bulk scoring through repro.jobs
# ----------------------------------------------------------------------
def bulk_job(run: Run) -> Outcome:
    def set_up():
        dataset, model = serving_model(run)
        length, stride = model.plan.length, model.plan.stride
        register_job_detector(
            JOB_DETECTOR,
            lambda train, params: (from_triad(model), length, stride),
            plan=lambda train, params: (length, stride),
        )
        # Exactly job_chunks full chunks, so the workers get equal shares.
        windows = run.scale.job_chunks * JOB_CHUNK_WINDOWS
        points = length + stride * (windows - 1)
        series = tiled(dataset.test, points, 0, np.random.default_rng(run.seed))
        return dataset, model, series

    (dataset, model, series), setup = run.set_up(set_up)
    length, stride = model.plan.length, model.plan.stride
    spec = JobSpec(detector=JOB_DETECTOR, chunk_windows=JOB_CHUNK_WINDOWS)
    WORK.mkdir(parents=True, exist_ok=True)

    def job() -> tuple[np.ndarray, int]:
        store = tempfile.mkdtemp(prefix="jobs-", dir=WORK)
        try:
            manager = JobManager(store, workers=JOB_WORKERS)
            with obs.span("bench.jobs.submit"):
                record = manager.submit(spec, series, dataset.train)
            with obs.span("bench.jobs.run"):
                record = manager.run(record.job_id)
            if record.state != SUCCEEDED:
                raise RuntimeError(f"job {record.job_id} ended {record.state}: {record.error}")
            with obs.span("bench.jobs.result"):
                scores = manager.result(record.job_id)
            stored = sum(p.stat().st_size for p in Path(store).rglob("*") if p.is_file())
            return scores, stored
        finally:
            shutil.rmtree(store, ignore_errors=True)

    job()  # warm-up, discarded
    latency, measured, stored = [], [], []
    first = None
    with run.timed_rounds():
        for _ in run.rounds(MIN_ROUNDS):
            (scores, size), seconds = timed(job)
            latency.append(seconds)
            measured.append((len(series), seconds))
            stored.append(size)
            first = scores if first is None else first
            run.check(np.array_equal(scores, first), "job result changed between rounds")

    # The same chunk grid scored serially in-process: the result must be
    # identical, and within 1e-12 of one single-pass score_windows (a
    # different batch size moves TriAD scores by up to ~6e-15).
    scorer = from_triad(model)
    chunks = plan_chunks(len(series), length, stride, spec.chunk_windows)
    run.check(len(chunks) == run.scale.job_chunks, "job series is not whole chunks")
    serial, single_pass_s = timed(
        lambda: stitch(
            {c.index: score_chunk(scorer, series, c, length, stride) for c in chunks},
            chunks, length, stride, len(series),
        )
    )
    run.check(np.array_equal(first, serial), "job result differs from serial chunk scoring")
    windows, starts = sliding_windows(series, length, stride)
    single = spread_window_scores(scorer.score_windows(windows, ()), starts, length, len(series))
    run.check(
        float(np.max(np.abs(first - single))) <= 1e-12,
        "job result differs from a single pass by more than 1e-12",
    )

    ledger = run.ledger
    jobs = len(latency)
    extra = {
        "jobs.single_pass_s": single_pass_s,
        "jobs.store_bytes": float(np.mean(stored)),
    }
    if ledger.traced:
        chunks_s = ledger.total("jobs.chunks") / jobs
        extra.update(
            {
                "jobs.submit_s": ledger.total("bench.jobs.submit") / jobs,
                "jobs.run_s": ledger.total("bench.jobs.run") / jobs,
                "jobs.chunks_s": chunks_s,
                "jobs.result_s": ledger.total("bench.jobs.result") / jobs,
                "jobs.parallel_efficiency": single_pass_s / (JOB_WORKERS * chunks_s),
                "jobs.chunks_retried": ledger.counter("jobs.chunks.retried") / jobs,
                "jobs.pool_failures": ledger.counter("jobs.chunks.pool_failures") / jobs,
            }
        )
    return Outcome(setup=setup, latency=latency, rounds=measured, ops=jobs, extra=extra)


WORKLOADS = {
    "fit_detect": fit_detect,
    "table4_inference": table4_inference,
    "serve_stream": serve_stream,
    "bulk_job": bulk_job,
}


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------
def end_to_end(run: Run, outcome: Outcome) -> dict[str, dict]:
    return {
        "setup_s": summary(outcome.setup),
        "latency_ms": summary(outcome.latency, 1e3),
        "points_per_s": summary([points / seconds for points, seconds in outcome.rounds]),
        "peak_rss_mb": summary([run.rss_mb]),
    }


def per_layer(run: Run, outcome: Outcome, names: list[str]) -> dict[str, dict]:
    values = dict.fromkeys(names, 0.0)
    computed = run.ledger.layer_metrics(outcome.ops)
    computed.update(outcome.extra)
    unknown = sorted(set(computed) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    values.update(computed)
    return {name: {"value": float(value)} for name, value in values.items()}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--quick", action="store_true", help="toy sizes, a short timed phase")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.seed, QUICK if args.quick else FULL, bool(args.trace), args.seconds)
    outcome = WORKLOADS[args.workload](run)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "end_to_end": end_to_end(run, outcome),
        "environment": environment(),
    }
    if run.ledger.traced:
        result["per_layer"] = per_layer(run, outcome, [m["name"] for m in spec["per_layer"]])
        trace_file = WORK / "trace" / f"{args.workload}.jsonl"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        run.ledger.session.export_jsonl(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
