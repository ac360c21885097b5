"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``archive``   Generate a synthetic UCR-style archive summary (or write
              the series to ``--out`` as real-UCR-format .txt files).
``detect``    Train TriAD on one dataset (synthetic by index, or a real
              UCR file) and print the detection report.
``compare``   Run a set of detectors over a small archive and print the
              Table III-style leaderboard.
``experiments``  List the paper artifacts and the bench regenerating each.
``profile``   Summarize an observability JSONL export (``compare
              --metrics-out``): top timed sections, counters, traces.
``report``    Stitch ``benchmarks/results/*.txt`` into one markdown report.
``serve-replay``  Replay an archive unit through the online serving
              engine (micro-batching, degradation chain) and report
              alerts, throughput, and latency.  ``--fail-primary N``
              forces the degradation chain mid-replay.
``serve-shard``  Drive the sharded serving fabric over a fleet of
              streams, optionally SIGKILLing a worker mid-run.
``submit``    Submit a bulk-scoring job (resumable chunked execution)
              and drive it to a terminal state; re-running the same
              command resumes rather than recomputes (docs/JOBS.md).
``jobs``      List jobs in a store with state and chunk progress.
``job-result``  Print (or save) the stitched scores of a finished job.
``job-cancel``  Cancel a pending or running job cooperatively.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TriAD (ICDE 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_archive = sub.add_parser("archive", help="generate a synthetic archive")
    p_archive.add_argument("--size", type=int, default=10)
    p_archive.add_argument("--seed", type=int, default=7)
    p_archive.add_argument("--train-length", type=int, default=1600)
    p_archive.add_argument("--test-length", type=int, default=2000)
    p_archive.add_argument("--out", type=Path, default=None,
                           help="write datasets as UCR-format .txt files")

    p_detect = sub.add_parser("detect", help="run TriAD on one dataset")
    p_detect.add_argument("--dataset", type=str, default="0",
                          help="archive index, or path to a real UCR file")
    p_detect.add_argument("--epochs", type=int, default=5)
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--save", type=Path, default=None,
                          help="save the fitted detector (npz)")

    p_compare = sub.add_parser("compare", help="leaderboard over an archive")
    p_compare.add_argument("--size", type=int, default=4)
    p_compare.add_argument("--epochs", type=int, default=4)
    p_compare.add_argument("--detectors", type=str,
                           default="one-liner,lstm-ae,triad",
                           help="comma list: " + ",".join(_COMPARE_DETECTORS))
    p_compare.add_argument("--json", type=Path, default=None,
                           help="also write results to this JSON file")
    p_compare.add_argument("--mode", choices=("binary", "scores"), default="binary",
                           help="binary: thresholded predictions + paper metrics; "
                                "scores: threshold-free ROC/PR AUC (baselines only)")
    p_compare.add_argument("--retries", type=int, default=None,
                           help="isolate failing (dataset, seed) units and retry "
                                "them up to N times instead of aborting the sweep")
    p_compare.add_argument("--budget-seconds", type=float, default=None,
                           help="wall-clock budget per unit attempt (implies "
                                "fault isolation)")
    p_compare.add_argument("--checkpoint", type=Path, default=None,
                           help="directory of per-detector JSONL journals; an "
                                "interrupted sweep resumes from the last "
                                "completed unit")
    p_compare.add_argument("--retry-failed", action="store_true",
                           help="clear failures recorded in the checkpoint so "
                                "those units get a fresh run")
    p_compare.add_argument("--metrics-out", type=Path, default=None,
                           help="record observability metrics (counters, "
                                "timers, events) during the run and export "
                                "them as JSONL to this path")
    p_compare.add_argument("--trace", action="store_true",
                           help="also record nested spans (requires "
                                "--metrics-out); view with 'repro profile'")
    p_compare.add_argument("--workers", type=int, default=1,
                           help="run (dataset, seed) units on N fork "
                                "worker processes; results are identical "
                                "to the sequential sweep")

    sub.add_parser("experiments", help="list paper artifacts and benches")

    p_profile = sub.add_parser(
        "profile", help="summarize an observability JSONL export"
    )
    p_profile.add_argument("path", type=Path,
                           help="metrics.jsonl written by --metrics-out")
    p_profile.add_argument("--top", type=int, default=15,
                           help="rows per section (default 15)")

    p_report = sub.add_parser("report", help="build a markdown report from bench results")
    p_report.add_argument("--results", type=Path, default=Path("benchmarks/results"))
    p_report.add_argument("--out", type=Path, default=None,
                          help="write the report here instead of stdout")

    p_serve = sub.add_parser(
        "serve-replay",
        help="replay an archive unit through the online serving engine",
    )
    p_serve.add_argument("--dataset", type=str, default="4",
                         help="archive index, or path to a real UCR file")
    p_serve.add_argument("--epochs", type=int, default=3,
                         help="TriAD training epochs for the primary model "
                              "(0 = training-free chain: spectral residual "
                              "-> streaming discord)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--max-window", type=int, default=256,
                         help="cap on the window length the plan derives "
                              "from the training split (TriADConfig."
                              "max_window)")
    p_serve.add_argument("--streams", type=int, default=4,
                         help="replay the unit as N concurrent streams")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="micro-batch cap for cross-stream scoring")
    p_serve.add_argument("--queue-capacity", type=int, default=512,
                         help="admission-control bound on pending windows")
    p_serve.add_argument("--latency-budget-ms", type=float, default=None,
                         help="per-batch latency budget: the engine halves "
                              "its micro-batch limit when a batch exceeds it "
                              "(models fail over on errors only)")
    p_serve.add_argument("--sigma", type=float, default=4.0,
                         help="per-stream alert threshold sigma")
    p_serve.add_argument("--fail-primary", type=int, default=None, metavar="N",
                         help="chaos drill: primary model fails after N "
                              "healthy batches, forcing the degradation chain")
    p_serve.add_argument("--load", type=Path, default=None,
                         help="load the primary from a saved detector npz "
                              "instead of training")
    p_serve.add_argument("--json", type=Path, default=None,
                         help="also write the replay report as JSON")
    p_serve.add_argument("--metrics-out", type=Path, default=None,
                         help="export observability metrics recorded during "
                              "the replay as JSONL")

    p_shard = sub.add_parser(
        "serve-shard",
        help="drive the sharded serving fabric over a synthetic stream fleet",
    )
    p_shard.add_argument("--dataset", type=str, default="4",
                         help="archive index, or path to a real UCR file")
    p_shard.add_argument("--detector", type=str, default="spectral-residual",
                         help="jobs.registry detector name; the scorer "
                              "is built once and every worker forks it")
    p_shard.add_argument("--workers", type=int, default=4,
                         help="worker processes in the fixed fleet")
    p_shard.add_argument("--streams", type=int, default=64,
                         help="concurrent streams to simulate")
    p_shard.add_argument("--chunk", type=int, default=128,
                         help="points per stream per submit round")
    p_shard.add_argument("--max-window", type=int, default=128,
                         help="window-length cap for the detector plan")
    p_shard.add_argument("--kill-worker", action="store_true",
                         help="chaos drill: SIGKILL one worker mid-run and "
                              "let the router heal it")
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.add_argument("--json", type=Path, default=None,
                         help="also write the fabric report as JSON")

    p_submit = sub.add_parser(
        "submit", help="submit a resumable bulk-scoring job and run it"
    )
    p_submit.add_argument("--dataset", type=str, default="0",
                          help="archive index, or path to a real UCR file")
    p_submit.add_argument("--detector", type=str, default="spectral-residual",
                          help="a registered job detector (see docs/JOBS.md); "
                               "e.g. triad, spectral-residual, lstm-ae, usad, "
                               "random")
    p_submit.add_argument("--store", type=Path, default=Path("jobstore"),
                          help="job store directory (journals + inputs + "
                               "results); jobs resume from here after a crash")
    p_submit.add_argument("--workers", type=int, default=1,
                          help="chunk-scoring worker processes")
    p_submit.add_argument("--chunk-windows", type=int, default=256,
                          help="windows per chunk (journal/resume granularity)")
    p_submit.add_argument("--epochs", type=int, default=2,
                          help="training epochs for trainable detectors")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--retries", type=int, default=None,
                          help="retry a failing chunk up to N times before "
                               "failing the job")
    p_submit.add_argument("--budget-seconds", type=float, default=None,
                          help="wall-clock budget for the run; an over-budget "
                               "job fails cleanly and resumes from the journal")

    p_jobs = sub.add_parser("jobs", help="list jobs in a store")
    p_jobs.add_argument("--store", type=Path, default=Path("jobstore"))

    p_jresult = sub.add_parser(
        "job-result", help="print or save a finished job's stitched scores"
    )
    p_jresult.add_argument("job_id", type=str)
    p_jresult.add_argument("--store", type=Path, default=Path("jobstore"))
    p_jresult.add_argument("--out", type=Path, default=None,
                           help="save scores as .npy instead of summarizing")

    p_jcancel = sub.add_parser(
        "job-cancel", help="cancel a pending or running job"
    )
    p_jcancel.add_argument("job_id", type=str)
    p_jcancel.add_argument("--store", type=Path, default=Path("jobstore"))
    return parser


def _cmd_archive(args) -> int:
    from .data import anomaly_length_distribution, make_archive
    from .eval import render_table

    archive = make_archive(
        size=args.size,
        seed=args.seed,
        train_length=args.train_length,
        test_length=args.test_length,
    )
    rows = [
        [
            ds.name,
            ds.spec.family,
            ds.spec.anomaly_type,
            str(ds.anomaly_length),
            f"[{ds.anomaly_interval[0]}, {ds.anomaly_interval[1]})",
        ]
        for ds in archive
    ]
    print(render_table(
        ["Dataset", "Family", "Anomaly", "Length", "Interval"], rows,
        title=f"Synthetic archive (seed={args.seed})",
    ))
    dist = anomaly_length_distribution(archive)
    print("\nLength distribution: " + ", ".join(f"{k}: {v:.0%}" for k, v in dist.items()))

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for i, ds in enumerate(archive):
            start, end = ds.anomaly_interval
            train_end = len(ds.train)
            name = (
                f"{i + 1:03d}_UCR_Anomaly_{ds.spec.family}{ds.spec.anomaly_type}"
                f"_{train_end}_{train_end + start + 1}_{train_end + end}.txt"
            )
            np.savetxt(args.out / name, np.concatenate([ds.train, ds.test]))
        print(f"\nwrote {len(archive)} UCR-format files to {args.out}")
    return 0


def _load_dataset(spec: str):
    from .data import load_ucr_file, make_archive

    path = Path(spec)
    if path.exists():
        return load_ucr_file(path)
    index = int(spec)
    return make_archive(size=index + 1, seed=7, train_length=1600, test_length=2000)[index]


def _cmd_detect(args) -> int:
    from . import TriAD, TriADConfig
    from .core import save_detector
    from .metrics import affiliation_metrics, pa_k_auc, window_hits_event

    dataset = _load_dataset(args.dataset)
    print(f"dataset {dataset.name}: train={len(dataset.train)} test={len(dataset.test)}")
    detector = TriAD(TriADConfig(epochs=args.epochs, seed=args.seed, max_window=256))
    detector.fit(dataset.train)
    detection = detector.detect(dataset.test)

    event = dataset.anomaly_interval
    print(f"anomaly       : [{event[0]}, {event[1]})")
    print(f"chosen window : {detection.window} "
          f"(hit={window_hits_event(detection.window, event)})")
    print(f"search region : {detection.search_region}")
    print(f"exception     : {detection.votes.exception_applied}")
    curve = pa_k_auc(detection.predictions, dataset.labels)
    affiliation = affiliation_metrics(detection.predictions, dataset.labels)
    print(f"PA%K F1-AUC   : {curve.f1_auc:.3f}")
    print(f"affiliation F1: {affiliation.f1:.3f}")

    if args.save is not None:
        save_detector(detector, args.save)
        print(f"saved detector to {args.save}")
    return 0


_DETECTOR_FACTORIES = {
    "one-liner": lambda seed, epochs: _b().OneLinerDetector(),
    "random": lambda seed, epochs: _b().RandomScoreDetector(seed=seed),
    "lstm-ae": lambda seed, epochs: _b().LSTMAEDetector(trained=True, epochs=epochs, seed=seed),
    "lstm-ae-random": lambda seed, epochs: _b().LSTMAEDetector(trained=False, seed=seed),
    "usad": lambda seed, epochs: _b().USADDetector(epochs=epochs, seed=seed),
    "ts2vec": lambda seed, epochs: _b().TS2VecDetector(epochs=max(epochs // 2, 1), seed=seed),
    "mtgflow": lambda seed, epochs: _b().MTGFlowDetector(epochs=epochs, seed=seed),
    "dcdetector": lambda seed, epochs: _b().DCdetectorDetector(epochs=max(epochs // 2, 1), seed=seed),
    "anomaly-transformer": lambda seed, epochs: _b().AnomalyTransformerDetector(
        epochs=max(epochs // 2, 1), seed=seed
    ),
    "spectral-residual": lambda seed, epochs: _b().SpectralResidualDetector(),
}
_COMPARE_DETECTORS = (*_DETECTOR_FACTORIES, "triad")


def _b():
    from . import baselines

    return baselines


def _cmd_compare(args) -> int:
    from . import TriAD, TriADConfig
    from .data import make_archive
    from .eval import (
        METRIC_NAMES,
        SCORE_METRIC_NAMES,
        SweepCheckpoint,
        render_failure_summary,
        render_table,
        run_on_archive,
        run_scores_on_archive,
    )
    from . import obs
    from .eval.persistence import save_results
    from .runtime import RetryPolicy, RunBudget

    if args.trace and args.metrics_out is None:
        print("--trace requires --metrics-out", file=sys.stderr)
        return 2
    names = [n.strip() for n in args.detectors.split(",") if n.strip()]
    for name in names:
        if name not in _COMPARE_DETECTORS:
            print(f"unknown detector {name!r}; known: {', '.join(_COMPARE_DETECTORS)}",
                  file=sys.stderr)
            return 2
    if "triad" in names and args.mode == "scores":
        print("triad emits binary predictions; use --mode binary", file=sys.stderr)
        return 2
    session = None
    if args.metrics_out is not None:
        session = obs.install(trace=args.trace)

    archive = make_archive(size=args.size, seed=7, train_length=1600, test_length=2000)

    try:
        policy = None
        if args.retries is not None or args.budget_seconds is not None:
            budget = (
                RunBudget(max_seconds=args.budget_seconds)
                if args.budget_seconds is not None
                else None
            )
            policy = RetryPolicy(max_retries=args.retries or 0, budget=budget)
        aggregates = []
        for name in names:
            if name == "triad":
                factory = lambda s: TriAD(  # noqa: E731 - tiny adapter
                    TriADConfig(epochs=args.epochs, seed=s, max_window=256)
                )
            else:
                base = _DETECTOR_FACTORIES[name]
                factory = lambda s, base=base: base(s, args.epochs)
            runner = run_scores_on_archive if args.mode == "scores" else run_on_archive
            checkpoint = None
            if args.checkpoint is not None:
                args.checkpoint.mkdir(parents=True, exist_ok=True)
                checkpoint = SweepCheckpoint(args.checkpoint / f"{name}.{args.mode}.jsonl")
                if args.retry_failed:
                    cleared = checkpoint.clear_failures()
                    if cleared:
                        print(f"cleared {cleared} recorded failure(s) for {name}",
                              file=sys.stderr)
            aggregates.append(
                runner(name, factory, archive, seeds=(0,), policy=policy,
                       checkpoint=checkpoint, workers=args.workers)
            )

        metric_names = SCORE_METRIC_NAMES if args.mode == "scores" else METRIC_NAMES
        rows = [agg.row(metrics=metric_names) for agg in aggregates]
        print(render_table(["Model"] + list(metric_names), rows,
                           title=f"Leaderboard: {args.size} datasets ({args.mode})"))
        for agg in aggregates:
            summary = render_failure_summary(agg)
            if summary:
                print(summary)
        if args.json is not None:
            save_results(aggregates, args.json)
            print(f"\nwrote results to {args.json}")
        if session is not None:
            count = session.export_jsonl(args.metrics_out)
            print(f"wrote {count} observability record(s) to {args.metrics_out}"
                  " — summarize with: repro profile " + str(args.metrics_out))
        return 0
    finally:
        if session is not None:
            obs.uninstall()


def _cmd_experiments(_args) -> int:
    from .eval import EXPERIMENTS, render_table

    rows = [
        [e.id, e.paper_artifact, e.bench_module, e.description]
        for e in EXPERIMENTS.values()
    ]
    print(render_table(["Id", "Artifact", "Bench", "What it shows"], rows))
    return 0


def _cmd_profile(args) -> int:
    from .obs import load_records, render_profile

    try:
        records = load_records(args.path)
    except FileNotFoundError:
        print(f"no such export: {args.path}", file=sys.stderr)
        return 2
    print(render_profile(records, top=args.top))
    return 0


def _cmd_report(args) -> int:
    from .eval import build_report

    try:
        report = build_report(args.results)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(report)
        print(f"wrote report to {args.out}")
    else:
        print(report)
    return 0


def _cmd_serve_shard(args) -> int:
    """Feed ``dataset.test`` as N identical streams through the fabric."""
    import json as json_module
    import time as time_module

    from .jobs.registry import build_scorer
    from .serve import EngineConfig, ModelRegistry, ScoringEngine, ShardRouter

    dataset = _load_dataset(args.dataset)
    print(f"dataset {dataset.name}: test={len(dataset.test)} "
          f"streams={args.streams} workers={args.workers} "
          f"detector={args.detector}")
    scorer, length, stride = build_scorer(
        args.detector,
        dataset.train,
        {"max_window": args.max_window, "seed": args.seed},
    )
    config = EngineConfig(window_length=length, stride=stride)

    def make_engine() -> ScoringEngine:
        registry = ModelRegistry()
        registry.register(scorer)
        return ScoringEngine(registry, config)

    series = np.asarray(dataset.test, dtype=np.float64)
    ids = [f"{dataset.name}#{i}" for i in range(args.streams)]
    kill_round = max((len(series) + args.chunk - 1) // args.chunk, 1) // 2
    alerts = 0
    with ShardRouter(make_engine, workers=args.workers) as router:
        start_time = time_module.perf_counter()
        for round_index, start in enumerate(range(0, len(series), args.chunk)):
            if args.kill_worker and round_index == kill_round:
                victim = router.workers[0]
                pid = router.kill_worker(victim)
                print(f"chaos: SIGKILLed worker {victim} (pid {pid})")
            batch = [(sid, series[start : start + args.chunk]) for sid in ids]
            alerts += len(router.submit(batch))
        duration = time_module.perf_counter() - start_time
        report = router.report()
    points = len(series) * len(ids)
    print(f"\nsharded replay: {points} points over {len(ids)} streams, "
          f"{args.workers} workers")
    print(f"  throughput: {points / max(duration, 1e-9):,.0f} points/s "
          f"({duration:.2f}s)")
    print(f"  alerts: {alerts}   respawns: {report['respawns']}")
    for name, worker in sorted(report["workers"].items()):
        print(f"  {name}: {report['placement'][name]} streams, "
              f"{worker['windows_scored']} windows scored")
    if args.json is not None:
        payload = {
            "points": points,
            "streams": len(ids),
            "workers": args.workers,
            "duration_s": duration,
            "alerts": alerts,
            "report": report,
        }
        args.json.write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote fabric report to {args.json}")
    return 0


def _cmd_serve_replay(args) -> int:
    import json as json_module

    from . import TriAD, TriADConfig, obs
    from .core import load_detector
    from .pipeline import default_pipeline
    from .serve import EngineConfig, ScoringEngine, build_registry, replay_dataset

    dataset = _load_dataset(args.dataset)
    print(f"dataset {dataset.name}: test={len(dataset.test)} "
          f"streams={args.streams}")

    config = TriADConfig(
        epochs=args.epochs, seed=args.seed, max_window=args.max_window
    )
    detector = None
    if args.load is not None:
        if not args.load.exists():
            print(f"no saved detector at {args.load} "
                  f"(save one with `repro detect --save`)", file=sys.stderr)
            return 2
        detector = load_detector(args.load)
        print(f"loaded primary from {args.load}")
    elif args.epochs > 0:
        detector = TriAD(config).fit(dataset.train)
        print(f"trained TriAD primary ({args.epochs} epochs)")

    if detector is not None:
        plan = detector.plan
    else:
        # Same plan the detector would have trained under — one source
        # of plan truth (the config) instead of a hardcoded max_length.
        plan = default_pipeline().plan_for(dataset.train, config)
        print("training-free chain (spectral residual -> streaming discord)")

    session = obs.install() if args.metrics_out is not None else None
    try:
        registry = build_registry(
            detector,
            fail_primary_after=args.fail_primary,
            train_series=dataset.train,
        )
        engine = ScoringEngine(
            registry,
            EngineConfig(
                window_length=plan.length,
                stride=plan.stride,
                max_batch=args.max_batch,
                queue_capacity=args.queue_capacity,
                latency_budget_s=(
                    None if args.latency_budget_ms is None else args.latency_budget_ms / 1e3
                ),
                alert_sigma=args.sigma,
            ),
        )
        report = replay_dataset(dataset, engine, streams=args.streams)
        print()
        print(report.render())
        if args.json is not None:
            args.json.write_text(
                json_module.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
            )
            print(f"\nwrote replay report to {args.json}")
        if session is not None:
            count = session.export_jsonl(args.metrics_out)
            print(f"wrote {count} observability record(s) to {args.metrics_out}")
        return 0
    finally:
        if session is not None:
            obs.uninstall()


def _build_job_manager(args):
    from .jobs import JobManager
    from .runtime import RetryPolicy, RunBudget

    policy = None
    if getattr(args, "retries", None) is not None:
        policy = RetryPolicy(max_retries=args.retries)
    budget = None
    if getattr(args, "budget_seconds", None) is not None:
        budget = RunBudget(max_seconds=args.budget_seconds)
    return JobManager(
        args.store,
        workers=getattr(args, "workers", 1),
        policy=policy,
        budget=budget,
    )


def _cmd_submit(args) -> int:
    from .jobs import FAILED, JobSpec, job_detectors

    if args.detector not in job_detectors():
        print(f"unknown job detector {args.detector!r}; registered: "
              + ", ".join(job_detectors()), file=sys.stderr)
        return 2
    dataset = _load_dataset(args.dataset)
    series = np.concatenate([dataset.train, dataset.test])
    print(f"dataset {dataset.name}: {len(series)} points "
          f"(train={len(dataset.train)} test={len(dataset.test)})")

    manager = _build_job_manager(args)
    spec = JobSpec(
        detector=args.detector,
        params={"epochs": args.epochs, "seed": args.seed},
        chunk_windows=args.chunk_windows,
    )
    record = manager.submit(spec, series, train=dataset.train)
    print(f"job {record.job_id}: {record.state}, "
          f"{record.chunks_done}/{record.chunks_total} chunks "
          f"(window={record.spec.window_length}, stride={record.spec.stride})")
    record = manager.run(record.job_id)
    print(f"job {record.job_id}: {record.state}, "
          f"{record.chunks_done}/{record.chunks_total} chunks")
    if record.state == FAILED:
        print(f"error: {record.error}", file=sys.stderr)
        print("re-run the same command to resume from the journal",
              file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args) -> int:
    from .eval import render_table
    from .jobs import JobManager

    records = JobManager(args.store).list_jobs()
    if not records:
        print(f"no jobs in {args.store}")
        return 0
    rows = [
        [
            r.job_id,
            r.spec.detector,
            r.state,
            f"{r.chunks_done}/{r.chunks_total}",
            str(r.n_points),
            r.error or "",
        ]
        for r in records
    ]
    print(render_table(
        ["Job", "Detector", "State", "Chunks", "Points", "Error"], rows,
        title=f"Jobs in {args.store}",
    ))
    return 0


def _cmd_job_result(args) -> int:
    from .jobs import JobManager

    manager = JobManager(args.store)
    try:
        scores = manager.result(args.job_id)
    except (KeyError, RuntimeError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.out is not None:
        np.save(args.out, scores)
        print(f"wrote {len(scores)} scores to {args.out}")
        return 0
    top = np.argsort(scores)[::-1][:5]
    print(f"{len(scores)} scores: min={scores.min():.4f} "
          f"mean={scores.mean():.4f} max={scores.max():.4f}")
    print("top indices: " + ", ".join(
        f"{i} ({scores[i]:.4f})" for i in sorted(top)
    ))
    return 0


def _cmd_job_cancel(args) -> int:
    from .jobs import JobManager

    manager = JobManager(args.store)
    try:
        took_effect = manager.cancel(args.job_id)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    record = manager.status(args.job_id)
    if took_effect:
        print(f"job {args.job_id}: {record.state}"
              + ("" if record.state == "CANCELLED"
                 else " (cancel requested; honored between chunks)"))
    else:
        print(f"job {args.job_id} already terminal ({record.state})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "archive": _cmd_archive,
        "detect": _cmd_detect,
        "compare": _cmd_compare,
        "experiments": _cmd_experiments,
        "profile": _cmd_profile,
        "report": _cmd_report,
        "serve-replay": _cmd_serve_replay,
        "serve-shard": _cmd_serve_shard,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "job-result": _cmd_job_result,
        "job-cancel": _cmd_job_cancel,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
