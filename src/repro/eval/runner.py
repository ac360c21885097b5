"""Archive evaluation harness.

Runs any detector exposing ``fit(train)`` / ``predict(test)`` across an
archive of datasets and multiple seeds, scores every prediction with
the full metric suite (F1-PW, F1-PA, PA%K AUCs, affiliation), and
aggregates to mean +/- std across seeds — the protocol behind the
paper's Table III.

Both runners accept an optional :class:`~repro.runtime.RetryPolicy`:
without one they crash through (:data:`~repro.runtime.CRASH_THROUGH`:
any exception aborts the sweep); with one each (dataset, seed) unit is
isolated — bounded retries with deterministic reseeding and per-attempt
budgets, exhausted units recorded as structured
:class:`~repro.runtime.FailureReport` entries, and aggregation covering
the survivors with explicit coverage accounting.  An optional
:class:`~repro.eval.persistence.SweepCheckpoint` persists every
completed unit incrementally so an interrupted sweep resumes from the
last completed (dataset, seed) pair.  ``workers`` runs the pending units
on fork workers through :func:`repro.runtime.workers.parallel_map`; the
aggregate is the same for every worker count, and a checkpoint written
under one count resumes under another.  See ``docs/RESILIENCE.md``.

The ``Detector``/``ScoringDetector`` contracts come from
:mod:`repro.pipeline.contracts` (re-exported here for compatibility) —
the same protocols the serving layer adapts via
:mod:`repro.pipeline.adapters`, so a chain entry and an archive
detector are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .. import obs
from ..data.spec import Dataset
from ..metrics import (
    affiliation_metrics,
    average_precision,
    best_f1_over_thresholds,
    f1_score,
    pa_k_auc,
    point_adjust,
    roc_auc,
)
from ..pipeline import Detector, ScoringDetector
from ..runtime import CRASH_THROUGH, FailureReport, InvalidOutputError, RetryPolicy
from ..runtime.workers import parallel_map
from ..validation import validate_dataset

__all__ = [
    "Detector",
    "ScoringDetector",
    "DatasetScores",
    "AggregateScores",
    "evaluate_predictions",
    "evaluate_scores",
    "run_on_archive",
    "run_scores_on_archive",
    "METRIC_NAMES",
    "SCORE_METRIC_NAMES",
]

SCORE_METRIC_NAMES = ("roc_auc", "pr_auc", "best_f1")

METRIC_NAMES = (
    "f1_pw",
    "f1_pa",
    "pak_precision_auc",
    "pak_recall_auc",
    "pak_f1_auc",
    "affiliation_precision",
    "affiliation_recall",
    "affiliation_f1",
)


@dataclass
class DatasetScores:
    """All metrics for one (dataset, seed) run."""

    dataset: str
    seed: int
    metrics: dict[str, float]
    warnings: list[str] = field(default_factory=list)
    attempts: int = 1


@dataclass
class AggregateScores:
    """Mean and std (across seeds) of per-metric archive averages.

    ``failures`` and ``coverage`` account for resilient sweeps: when a
    retry policy isolates failing units, the aggregates cover only the
    surviving runs and ``coverage`` reports completed / scheduled units.
    """

    detector: str
    mean: dict[str, float]
    std: dict[str, float]
    per_run: list[DatasetScores] = field(default_factory=list)
    failures: list[FailureReport] = field(default_factory=list)
    coverage: float = 1.0

    def row(self, metrics: Iterable[str] = METRIC_NAMES) -> list[str]:
        """Formatted ``mean+/-std`` cells for table rendering."""
        cells = [self.detector]
        for name in metrics:
            cells.append(f"{self.mean[name]:.3f}±{self.std[name]:.3f}")
        return cells


def evaluate_predictions(
    predictions: np.ndarray,
    labels: np.ndarray,
    warnings: list[str] | None = None,
) -> dict[str, float]:
    """Score one prediction array with every paper metric.

    Non-finite predictions are treated as "no detection" (0) rather
    than poisoning every downstream aggregate; the substitution is
    recorded in ``warnings`` when a list is supplied.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    finite = np.isfinite(predictions)
    if not finite.all():
        bad = int(np.sum(~finite))
        if warnings is not None:
            warnings.append(
                f"{bad} non-finite prediction(s) treated as 0 (no detection)"
            )
        predictions = np.where(finite, predictions, 0.0)
    predictions = (predictions > 0).astype(np.int64)
    curve = pa_k_auc(predictions, labels)
    affiliation = affiliation_metrics(predictions, labels)
    return {
        "f1_pw": f1_score(predictions, labels),
        "f1_pa": f1_score(point_adjust(predictions, labels), labels),
        "pak_precision_auc": curve.precision_auc,
        "pak_recall_auc": curve.recall_auc,
        "pak_f1_auc": curve.f1_auc,
        "affiliation_precision": affiliation.precision,
        "affiliation_recall": affiliation.recall,
        "affiliation_f1": affiliation.f1,
    }


def evaluate_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    warnings: list[str] | None = None,
) -> dict[str, float]:
    """Threshold-free metrics for one continuous score array.

    Degenerate score arrays no longer propagate NaN into aggregates:
    non-finite entries are replaced with the minimum finite score (or
    0.0 when nothing is finite, collapsing to the chance-level constant
    case), and constant scores are flagged.  Each substitution appends
    an explanation to ``warnings`` when a list is supplied.
    """
    scores = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(scores)
    if not finite.all():
        fill = float(scores[finite].min()) if finite.any() else 0.0
        bad = int(np.sum(~finite))
        if warnings is not None:
            warnings.append(
                f"{bad} non-finite score(s) replaced with {fill} "
                "(worst case: ranked below every finite score)"
            )
        scores = np.where(finite, scores, fill)
    if scores.size and float(scores.min()) == float(scores.max()):
        if warnings is not None:
            warnings.append(
                "constant scores: ranking metrics degenerate to chance level"
            )
    best_f1, _ = best_f1_over_thresholds(scores, labels)
    return {
        "roc_auc": roc_auc(scores, labels),
        "pr_auc": average_precision(scores, labels),
        "best_f1": best_f1,
    }


# ----------------------------------------------------------------------
# Sweep core shared by the binary and score runners
# ----------------------------------------------------------------------


class _Mode(NamedTuple):
    """What one runner asks of a unit: the stage that produces output,
    the detector method behind it, the output's name in error messages,
    the evaluator, and the metrics a journaled unit must carry."""

    stage: str
    method: str
    kind: str
    evaluate: Callable[..., dict[str, float]]
    metric_names: tuple[str, ...]


_BINARY = _Mode("predict", "predict", "predictions", evaluate_predictions, METRIC_NAMES)
_SCORES = _Mode("score", "score_series", "scores", evaluate_scores, SCORE_METRIC_NAMES)


class _Unit:
    """Mutable context for one (dataset, seed) attempt — tracks the
    active stage so a failure is attributed to validate/fit/predict/
    score/evaluate."""

    def __init__(self) -> None:
        self.stage = "validate"


def _check_output(out: np.ndarray, dataset: Dataset, kind: str) -> np.ndarray:
    """Reject output that is not one finite value per test point."""
    out = np.asarray(out)
    if out.ndim != 1 or len(out) != len(dataset.test):
        raise InvalidOutputError(
            f"{kind} shape {out.shape} does not match test shape "
            f"({len(dataset.test)},) on {dataset.name}"
        )
    if not np.all(np.isfinite(out.astype(np.float64))):
        raise InvalidOutputError(f"{kind} contain non-finite values on {dataset.name}")
    return out


def _run_unit(
    detector, dataset: Dataset, seed: int, unit: _Unit, budget, mode: _Mode
) -> DatasetScores:
    unit.stage = "fit"
    detector.fit(dataset.train)
    if budget is not None:
        budget.check_time()
    unit.stage = mode.stage
    out = _check_output(getattr(detector, mode.method)(dataset.test), dataset, mode.kind)
    if budget is not None:
        budget.check_time()
    unit.stage = "evaluate"
    notes: list[str] = []
    metrics = mode.evaluate(out, dataset.labels, warnings=notes)
    return DatasetScores(dataset=dataset.name, seed=seed, metrics=metrics, warnings=notes)


def _attempt_unit(
    name: str,
    factory: Callable[[int], object],
    dataset: Dataset,
    seed: int,
    policy: RetryPolicy,
    mode: _Mode,
) -> DatasetScores | FailureReport:
    """Run one unit under a retry policy; never raises retryable errors."""
    unit = _Unit()
    try:
        validate_dataset(dataset)
    except policy.retry_on as error:  # deterministic — no point retrying
        return FailureReport(
            dataset=dataset.name,
            seed=seed,
            stage="validate",
            error_type=type(error).__name__,
            message=str(error),
            attempts=1,
            detector=name,
        )
    last_error: BaseException | None = None
    for attempt in range(policy.attempts()):
        budget = policy.spawn_budget()
        unit.stage = "fit"
        try:
            detector = factory(policy.reseed(seed, attempt))
            result = _run_unit(detector, dataset, seed, unit, budget, mode)
            result.attempts = attempt + 1
            return result
        except policy.retry_on as error:
            last_error = error
    assert last_error is not None
    return FailureReport(
        dataset=dataset.name,
        seed=seed,
        stage=unit.stage,
        error_type=type(last_error).__name__,
        message=str(last_error),
        attempts=policy.attempts(),
        detector=name,
    )


def _execute_unit(
    name: str,
    factory: Callable[[int], object],
    dataset: Dataset,
    seed: int,
    policy: RetryPolicy,
    mode: _Mode,
) -> DatasetScores | FailureReport:
    """Run exactly one (dataset, seed) unit — the sweep's atom, the same
    code in the parent and in a fork worker."""
    with obs.span(
        "eval.unit", detector=name, dataset=dataset.name, seed=seed
    ) as unit_span:
        outcome = _attempt_unit(name, factory, dataset, seed, policy, mode)
        obs.incr("eval.units")
        obs.incr("eval.retries", max(outcome.attempts - 1, 0))
        if isinstance(outcome, FailureReport):
            unit_span.set(outcome="failure", stage=outcome.stage)
            obs.incr("eval.failures")
            obs.incr(f"eval.failures.stage.{outcome.stage}")
        else:
            unit_span.set(outcome="result", attempts=outcome.attempts)
    return outcome


def _aggregate(
    name: str,
    outcomes: list[DatasetScores | FailureReport],
    seeds: Sequence[int],
    metric_names: tuple[str, ...],
) -> AggregateScores:
    """Fold per-unit outcomes into :class:`AggregateScores`.

    Per-seed archive averages over surviving runs, then mean/std across
    seeds that have at least one survivor; ``coverage`` is completed /
    scheduled units.
    """
    per_run = [o for o in outcomes if isinstance(o, DatasetScores)]
    failures = [o for o in outcomes if isinstance(o, FailureReport)]
    seed_means: dict[int, dict[str, float]] = {}
    for seed in seeds:
        runs = [r for r in per_run if r.seed == seed]
        if runs:
            seed_means[seed] = {
                m: float(np.mean([r.metrics[m] for r in runs])) for m in metric_names
            }
    live_seeds = [s for s in seeds if s in seed_means]
    if live_seeds:
        mean = {
            m: float(np.mean([seed_means[s][m] for s in live_seeds]))
            for m in metric_names
        }
        std = {
            m: float(np.std([seed_means[s][m] for s in live_seeds]))
            for m in metric_names
        }
    else:
        mean = {m: float("nan") for m in metric_names}
        std = {m: float("nan") for m in metric_names}

    coverage = len(per_run) / len(outcomes) if outcomes else 1.0
    return AggregateScores(
        detector=name,
        mean=mean,
        std=std,
        per_run=per_run,
        failures=failures,
        coverage=coverage,
    )


def _sweep(
    name: str,
    factory: Callable[[int], object],
    datasets: list[Dataset],
    seeds: Iterable[int],
    mode: _Mode,
    policy: RetryPolicy | None,
    checkpoint,
    workers: int,
) -> AggregateScores:
    seeds = list(seeds)
    policy = policy or CRASH_THROUGH
    cached_results, cached_failures = (
        checkpoint.load() if checkpoint is not None else ({}, {})
    )

    # Every outcome has a slot in canonical (seed, dataset) order, so the
    # aggregate does not depend on the worker count or completion order.
    units = [(dataset, seed) for seed in seeds for dataset in datasets]
    outcomes: list[DatasetScores | FailureReport | None] = [None] * len(units)
    required = set(mode.metric_names)
    for slot, (dataset, seed) in enumerate(units):
        key = (dataset.name, seed)
        # Splice a cached unit only if it carries this sweep's metrics
        # (a journal written by the other runner mode is re-run, not
        # trusted).
        if key in cached_results and required <= set(cached_results[key].metrics):
            outcomes[slot] = cached_results[key]
        elif key in cached_failures:
            outcomes[slot] = cached_failures[key]
            obs.incr("eval.checkpoint.spliced_failures")
        else:
            continue
        obs.incr("eval.checkpoint.splice_hits")
    pending = [slot for slot, outcome in enumerate(outcomes) if outcome is None]

    def run(slot: int) -> DatasetScores | FailureReport:
        dataset, seed = units[slot]
        return _execute_unit(name, factory, dataset, seed, policy, mode)

    def record(position: int, outcome: DatasetScores | FailureReport) -> None:
        outcomes[pending[position]] = outcome
        if checkpoint is None:
            return
        if isinstance(outcome, FailureReport):
            checkpoint.append_failure(outcome)
        else:
            checkpoint.append_result(outcome)

    _, errors = parallel_map(run, pending, workers, on_result=record)
    # A unit whose worker raised or died re-runs here, so its live
    # exception meets the policy (and crashes through without one).
    for position in sorted(errors):
        record(position, run(pending[position]))
    return _aggregate(name, outcomes, seeds, mode.metric_names)


def run_scores_on_archive(
    name: str,
    factory: Callable[[int], ScoringDetector],
    datasets: list[Dataset],
    seeds: Iterable[int] = (0,),
    policy: RetryPolicy | None = None,
    checkpoint=None,
    workers: int = 1,
) -> AggregateScores:
    """Score-based analogue of :func:`run_on_archive`.

    Evaluates detectors via their continuous scores (ROC AUC, PR AUC,
    oracle best-F1) instead of thresholded predictions.  Useful for
    comparing score quality independent of threshold calibration — with
    the caveat (paper Sec. II-B) that oracle-threshold numbers flatter
    every method.

    ``policy`` / ``checkpoint`` / ``workers`` as in :func:`run_on_archive`.
    """
    return _sweep(name, factory, datasets, seeds, _SCORES, policy, checkpoint, workers)


def run_on_archive(
    name: str,
    factory: Callable[[int], Detector],
    datasets: list[Dataset],
    seeds: Iterable[int] = (0,),
    policy: RetryPolicy | None = None,
    checkpoint=None,
    workers: int = 1,
) -> AggregateScores:
    """Evaluate ``factory(seed)`` detectors over datasets and seeds.

    Parameters
    ----------
    factory:
        Builds a fresh detector for a given seed.  The paper trains a
        distinct model per dataset; we do the same (one ``fit`` per
        dataset per seed).
    policy:
        When given, each (dataset, seed) unit is isolated: retried per
        the policy (with reseeding and per-attempt budgets) and, if
        exhausted, recorded as a :class:`FailureReport` while the sweep
        continues over the survivors.  Without a policy, exceptions
        propagate (:data:`~repro.runtime.CRASH_THROUGH`).
    checkpoint:
        Optional :class:`~repro.eval.persistence.SweepCheckpoint`;
        completed units are persisted incrementally and an interrupted
        sweep re-runs only the missing ones.
    workers:
        Fork workers running the pending units; ``1`` runs them serially
        in-process.  Workers inherit ``factory`` and ``datasets`` by
        fork, so neither needs to be picklable.  The result is the same
        for every worker count.
    """
    return _sweep(name, factory, datasets, seeds, _BINARY, policy, checkpoint, workers)
