"""Persist and reload evaluation results.

Two layers:

* :func:`save_results` / :func:`load_results` — whole-sweep JSON
  snapshots for diffing detector leaderboards between code versions.
* :class:`SweepCheckpoint` — an append-only JSONL journal written
  *during* a sweep, one line per completed (dataset, seed) unit (result
  or failure), so an interrupted archive run resumes from the last
  completed unit instead of starting over.  Corrupt trailing lines
  (a process killed mid-write) are tolerated and ignored.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict
from pathlib import Path

from ..runtime import FailureReport, journal
from .runner import AggregateScores, DatasetScores

__all__ = [
    "save_results",
    "load_results",
    "per_type_breakdown",
    "SweepCheckpoint",
]


def save_results(aggregates: list[AggregateScores], path: str | os.PathLike) -> None:
    """Write a list of aggregate results to a JSON file."""
    payload = [
        {
            "detector": agg.detector,
            "mean": agg.mean,
            "std": agg.std,
            "per_run": [asdict(run) for run in agg.per_run],
            "failures": [f.to_dict() for f in agg.failures],
            "coverage": agg.coverage,
        }
        for agg in aggregates
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_results(path: str | os.PathLike) -> list[AggregateScores]:
    """Reload results saved with :func:`save_results`.

    Tolerates files written before failure/coverage accounting existed.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    aggregates = []
    for entry in payload:
        aggregates.append(
            AggregateScores(
                detector=entry["detector"],
                mean=entry["mean"],
                std=entry["std"],
                per_run=[DatasetScores(**run) for run in entry["per_run"]],
                failures=[
                    FailureReport.from_dict(f) for f in entry.get("failures", [])
                ],
                coverage=entry.get("coverage", 1.0),
            )
        )
    return aggregates


class SweepCheckpoint:
    """Append-only JSONL journal of completed sweep units.

    Each line is ``{"kind": "result"|"failure", ...}`` keyed by
    (dataset, seed).  The archive runners consult :meth:`load` before
    running a unit and splice recorded outcomes in, so a killed sweep
    re-runs only the missing units; recorded failures are also skipped
    (use :meth:`clear_failures` to grant failed units a fresh run).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def load(
        self,
    ) -> tuple[dict[tuple[str, int], DatasetScores], dict[tuple[str, int], FailureReport]]:
        """Parse the journal into (results, failures) keyed by unit.

        Later entries win over earlier ones for the same unit.  Lines
        that fail to parse or reconstruct — a truncated final line from
        a process killed mid-write, or a non-dict / wrong-schema entry —
        are skipped with a warning, so a damaged journal degrades to
        re-running the affected units instead of aborting the resume.
        """
        results: dict[tuple[str, int], DatasetScores] = {}
        failures: dict[tuple[str, int], FailureReport] = {}
        for entry in journal.load(self.path).records:
            kind = entry.pop("kind", None)
            try:
                if kind == "result":
                    run = DatasetScores(**entry)
                    key = (run.dataset, run.seed)
                    results[key] = run
                    failures.pop(key, None)
                elif kind == "failure":
                    report = FailureReport.from_dict(entry)
                    key = (report.dataset, report.seed)
                    failures[key] = report
                    results.pop(key, None)
                else:
                    self._warn_skip(f"unknown kind {kind!r}")
            except (TypeError, KeyError, ValueError, AttributeError) as error:
                self._warn_skip(f"{type(error).__name__}: {error}")
        return results, failures

    def _warn_skip(self, reason: str) -> None:
        warnings.warn(
            f"skipping checkpoint entry in {self.path}: {reason}; "
            "the affected unit will re-run",
            journal.JournalWarning,
            stacklevel=3,
        )

    def append_result(self, run: DatasetScores) -> None:
        journal.append(self.path, {"kind": "result", **asdict(run)})

    def append_failure(self, failure: FailureReport) -> None:
        journal.append(self.path, {"kind": "failure", **failure.to_dict()})

    def clear_failures(self) -> int:
        """Drop failure lines so those units re-run on resume.

        The journal is replaced atomically, so a crash mid-rewrite
        leaves the previous journal intact.  Returns the number of
        failures cleared.
        """
        results, failures = self.load()
        kept = "".join(
            json.dumps({"kind": "result", **asdict(run)}) + "\n"
            for run in results.values()
        )
        journal.atomic_write(self.path, kept.encode("utf-8"))
        return len(failures)


def per_type_breakdown(
    aggregate: AggregateScores, metric: str = "pak_f1_auc"
) -> dict[str, float]:
    """Average a metric per anomaly type, inferred from dataset names.

    Synthetic archive names end in ``_<type>`` (e.g.
    ``003_harmonics_level_shift``); datasets whose type cannot be
    inferred are grouped under ``"unknown"``.
    """
    from collections import defaultdict

    known_types = {
        "noise",
        "duration",
        "seasonal",
        "trend",
        "level_shift",
        "contextual",
        "point",
    }
    buckets: dict[str, list[float]] = defaultdict(list)
    for run in aggregate.per_run:
        name = run.dataset
        matched = "unknown"
        for anomaly_type in known_types:
            if name.endswith(anomaly_type):
                matched = anomaly_type
                break
        buckets[matched].append(run.metrics[metric])
    return {key: float(sum(v) / len(v)) for key, v in sorted(buckets.items())}
