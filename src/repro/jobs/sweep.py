"""Archive sweeps on the job fabric.

:func:`run_archive_job` evaluates the same (dataset, seed) units as
:func:`repro.eval.run_on_archive` — literally the same unit code, via
:func:`repro.eval.execute_unit` — but schedules them over the job
fabric's fork workers (:func:`repro.jobs.executor.parallel_map`) and
journals every completed unit into the *same*
:class:`repro.eval.persistence.SweepCheckpoint` format the sequential
runner reads.  Offline eval and bulk scoring therefore share one
execution fabric: one worker set, one journal idiom, one resume story, and a
sweep started with ``--workers 4`` can be killed and resumed by the
sequential runner (or vice versa).

Units are deterministic given (detector factory, dataset, seed), so the
aggregate is identical to the sequential runner's no matter the worker
count or completion order — outcomes are re-sorted into the canonical
(seed, dataset) order before aggregation.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .. import obs
from ..eval.runner import (
    METRIC_NAMES,
    SCORE_METRIC_NAMES,
    AggregateScores,
    DatasetScores,
    aggregate_runs,
    execute_unit,
)
from ..runtime import FailureReport, RetryPolicy
from .executor import parallel_map

__all__ = ["run_archive_job"]


def run_archive_job(
    name: str,
    factory: Callable[[int], object],
    datasets: list,
    seeds: Iterable[int] = (0,),
    mode: str = "binary",
    workers: int = 1,
    policy: RetryPolicy | None = None,
    checkpoint=None,
) -> AggregateScores:
    """Archive sweep over the job fabric's worker pool.

    Drop-in for :func:`repro.eval.run_on_archive` /
    :func:`~repro.eval.run_scores_on_archive` (pick with ``mode``):
    same units, same aggregation, same checkpoint journal — plus
    ``workers`` parallel unit execution.  With ``workers=1`` the units
    run serially in-process and the result is identical to the
    sequential runner's.

    Worker processes inherit ``factory`` and ``datasets`` by fork, so
    neither needs to be picklable.  A unit that raises inside a worker
    or whose worker dies is retried serially in the parent (under
    ``policy`` when given), so worker failures degrade to attributed :class:`FailureReport` entries,
    never a dead sweep.
    """
    seeds = list(seeds)
    metric_names = SCORE_METRIC_NAMES if mode == "scores" else METRIC_NAMES
    required = set(metric_names)

    cached_results: dict[tuple[str, int], DatasetScores] = {}
    cached_failures: dict[tuple[str, int], FailureReport] = {}
    if checkpoint is not None:
        cached_results, cached_failures = checkpoint.load()

    outcomes: dict[tuple[str, int], DatasetScores | FailureReport] = {}
    pending: list[tuple[int, int]] = []  # (dataset index, seed)
    for seed in seeds:
        for di, dataset in enumerate(datasets):
            key = (dataset.name, seed)
            if key in cached_results and required <= set(cached_results[key].metrics):
                outcomes[key] = cached_results[key]
                obs.incr("eval.checkpoint.splice_hits")
            elif key in cached_failures:
                outcomes[key] = cached_failures[key]
                obs.incr("eval.checkpoint.splice_hits")
                obs.incr("eval.checkpoint.spliced_failures")
            else:
                pending.append((di, seed))

    def unit_task(payload: tuple[int, int]):
        di, seed = payload
        return execute_unit(
            name, factory, datasets[di], seed, policy=policy, mode=mode
        )

    def on_result(position: int, outcome) -> None:
        di, seed = pending[position]
        outcomes[(datasets[di].name, seed)] = outcome
        obs.incr("jobs.sweep.units")
        if checkpoint is not None:
            if isinstance(outcome, FailureReport):
                checkpoint.append_failure(outcome)
            else:
                checkpoint.append_result(outcome)

    with obs.span(
        "jobs.sweep", detector=name, units=len(pending), workers=workers
    ):
        _, errors = parallel_map(
            unit_task, pending, workers=workers, on_result=on_result
        )
        # A unit whose *worker* died re-runs serially here so its live
        # exception goes through the retry policy (or propagates,
        # matching the sequential runner's crash-through default).
        for position in sorted(errors):
            obs.incr("jobs.sweep.pool_failures")
            on_result(position, unit_task(pending[position]))

    per_run: list[DatasetScores] = []
    failures: list[FailureReport] = []
    for seed in seeds:
        for dataset in datasets:
            outcome = outcomes.get((dataset.name, seed))
            if outcome is None:
                continue
            if isinstance(outcome, FailureReport):
                failures.append(outcome)
            else:
                per_run.append(outcome)

    return aggregate_runs(
        name,
        per_run,
        failures,
        seeds,
        metric_names,
        total_units=len(seeds) * len(datasets),
    )
