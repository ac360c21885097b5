"""Evaluation harness: archive runner, table rendering, experiment registry."""

from .experiments import EXPERIMENTS, Experiment, bench_archive, bench_config
from .persistence import SweepCheckpoint, load_results, per_type_breakdown, save_results
from .reporting import build_report, render_failure_summary, write_report
from .runner import (
    METRIC_NAMES,
    SCORE_METRIC_NAMES,
    AggregateScores,
    DatasetScores,
    evaluate_predictions,
    evaluate_scores,
    run_on_archive,
    run_scores_on_archive,
)
from .tables import render_table

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "bench_archive",
    "bench_config",
    "METRIC_NAMES",
    "SCORE_METRIC_NAMES",
    "AggregateScores",
    "DatasetScores",
    "evaluate_predictions",
    "evaluate_scores",
    "run_on_archive",
    "run_scores_on_archive",
    "render_table",
    "render_failure_summary",
    "SweepCheckpoint",
    "load_results",
    "per_type_breakdown",
    "save_results",
    "build_report",
    "write_report",
]
