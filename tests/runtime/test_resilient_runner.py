"""Degradation-path tests for the fault-tolerant archive runner.

The acceptance contract: a sweep with K injected failures completes,
reports exactly K failures with (dataset, seed, stage) attribution, and
matches a clean sweep's metrics on the surviving datasets; a killed and
resumed sweep re-runs only the missing units and reproduces the
uninterrupted aggregates exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import OneLinerDetector
from repro.data import Dataset, make_archive
from repro.eval import (
    SweepCheckpoint,
    evaluate_scores,
    run_on_archive,
    run_scores_on_archive,
)
from repro.runtime import RetryPolicy, RunBudget

from .chaos import FakeClock, Fault, FaultPlan, InjectedFault, chaos_factory


@pytest.fixture(scope="module")
def archive():
    return make_archive(size=4, seed=3, train_length=400, test_length=500)


def one_liner_factory(seed: int) -> OneLinerDetector:
    return OneLinerDetector()


class CountingFactory:
    """Factory wrapper counting how many detectors were actually built."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, seed: int) -> OneLinerDetector:
        self.calls += 1
        return OneLinerDetector()


class TestFaultIsolation:
    @pytest.mark.parametrize(
        "stage,mode,runner",
        [
            ("fit", "raise", run_on_archive),
            ("predict", "nan", run_on_archive),
            ("predict", "shape", run_on_archive),
            ("score", "nan", run_scores_on_archive),
            ("score", "shape", run_scores_on_archive),
        ],
    )
    def test_single_fault_isolated_with_attribution(self, archive, stage, mode, runner):
        faulty = archive[1].name
        plan = FaultPlan([Fault(dataset=faulty, stage=stage, mode=mode, count=None)])
        agg = runner(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            policy=RetryPolicy(max_retries=1),
        )
        assert len(agg.failures) == 1
        failure = agg.failures[0]
        assert failure.dataset == faulty
        assert failure.seed == 0
        assert failure.stage == stage
        assert failure.attempts == 2
        assert failure.detector == "one-liner"
        assert len(agg.per_run) == len(archive) - 1
        assert agg.coverage == pytest.approx((len(archive) - 1) / len(archive))
        assert all(np.isfinite(v) for v in agg.mean.values())

    def test_k_faults_reported_exactly(self, archive):
        plan = FaultPlan(
            [
                Fault(dataset=archive[0].name, stage="fit", mode="raise", count=None),
                Fault(dataset=archive[2].name, stage="score", mode="nan", count=None),
            ]
        )
        agg = run_scores_on_archive(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            policy=RetryPolicy(max_retries=0),
        )
        assert len(agg.failures) == 2
        assert {f.dataset for f in agg.failures} == {archive[0].name, archive[2].name}
        assert {f.stage for f in agg.failures} == {"fit", "score"}
        assert agg.coverage == pytest.approx(0.5)

    def test_survivors_match_clean_sweep(self, archive):
        faulty = archive[1].name
        plan = FaultPlan([Fault(dataset=faulty, stage="fit", mode="raise", count=None)])
        chaotic = run_on_archive(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            seeds=(0, 1),
            policy=RetryPolicy(max_retries=1),
        )
        survivors = [ds for ds in archive if ds.name != faulty]
        clean = run_on_archive("one-liner", one_liner_factory, survivors, seeds=(0, 1))
        assert chaotic.mean == clean.mean
        assert chaotic.std == clean.std
        by_unit = {(r.dataset, r.seed): r.metrics for r in chaotic.per_run}
        for run in clean.per_run:
            assert by_unit[(run.dataset, run.seed)] == run.metrics

    def test_transient_fault_recovers_on_retry(self, archive):
        faulty = archive[2].name
        plan = FaultPlan([Fault(dataset=faulty, stage="fit", mode="raise", count=1)])
        agg = run_on_archive(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            policy=RetryPolicy(max_retries=1),
        )
        assert not agg.failures
        assert agg.coverage == 1.0
        recovered = next(r for r in agg.per_run if r.dataset == faulty)
        assert recovered.attempts == 2
        clean = run_on_archive("one-liner", one_liner_factory, archive)
        assert agg.mean == clean.mean

    def test_hang_fault_dies_by_step_budget(self, archive):
        faulty = archive[0].name
        clock = FakeClock()
        plan = FaultPlan(
            [Fault(dataset=faulty, stage="fit", mode="hang", count=None)], clock=clock
        )
        policy = RetryPolicy(
            max_retries=1, budget=RunBudget(max_seconds=60.0, clock=clock)
        )
        agg = run_on_archive(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            policy=policy,
        )
        assert len(agg.failures) == 1
        assert agg.failures[0].stage == "fit"
        assert agg.failures[0].error_type == "BudgetExceededError"
        assert "wall budget" in agg.failures[0].message
        assert agg.failures[0].attempts == 2
        assert agg.coverage == pytest.approx((len(archive) - 1) / len(archive))

    def test_without_policy_faults_crash_through(self, archive):
        plan = FaultPlan(
            [Fault(dataset=archive[0].name, stage="fit", mode="raise", count=None)]
        )
        with pytest.raises(InjectedFault):
            run_on_archive(
                "one-liner",
                chaos_factory(one_liner_factory, plan, archive),
                archive,
            )

    def test_invalid_dataset_attributed_to_validate_stage(self, archive):
        broken_train = archive[0].train.copy()
        broken_train[10] = np.nan
        broken = Dataset(
            name="broken_ds",
            train=broken_train,
            test=archive[0].test,
            labels=archive[0].labels,
        )
        agg = run_on_archive(
            "one-liner",
            one_liner_factory,
            [broken] + list(archive[1:]),
            policy=RetryPolicy(max_retries=2),
        )
        assert len(agg.failures) == 1
        assert agg.failures[0].stage == "validate"
        assert agg.failures[0].attempts == 1  # deterministic: no retries burned
        with pytest.raises(ValueError, match="non-finite"):
            run_on_archive("one-liner", one_liner_factory, [broken])

    def test_all_units_failing_yields_nan_aggregate(self, archive):
        plan = FaultPlan(
            [Fault(dataset=ds.name, stage="fit", mode="raise", count=None) for ds in archive]
        )
        agg = run_on_archive(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            policy=RetryPolicy(max_retries=0),
        )
        assert len(agg.failures) == len(archive)
        assert agg.coverage == 0.0
        assert all(np.isnan(v) for v in agg.mean.values())


class TestCheckpointResume:
    def test_resume_skips_every_completed_unit(self, archive, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        baseline = run_on_archive(
            "one-liner",
            one_liner_factory,
            archive,
            seeds=(0, 1),
            checkpoint=SweepCheckpoint(journal),
        )
        counting = CountingFactory()
        resumed = run_on_archive(
            "one-liner",
            counting,
            archive,
            seeds=(0, 1),
            checkpoint=SweepCheckpoint(journal),
        )
        assert counting.calls == 0
        assert resumed.mean == baseline.mean
        assert resumed.std == baseline.std
        assert len(resumed.per_run) == len(baseline.per_run)

    def test_killed_sweep_reruns_only_missing_units(self, archive, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = run_on_archive(
            "one-liner", one_liner_factory, archive, seeds=(0, 1)
        )
        # Simulate a sweep killed after 3 of 8 units: journal holds a prefix.
        full = run_on_archive(
            "one-liner",
            one_liner_factory,
            archive,
            seeds=(0, 1),
            checkpoint=SweepCheckpoint(journal),
        )
        assert full.mean == uninterrupted.mean
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        counting = CountingFactory()
        resumed = run_on_archive(
            "one-liner",
            counting,
            archive,
            seeds=(0, 1),
            checkpoint=SweepCheckpoint(journal),
        )
        assert counting.calls == len(lines) - 3
        assert resumed.mean == uninterrupted.mean
        assert resumed.std == uninterrupted.std
        assert len(resumed.per_run) == len(uninterrupted.per_run)

    def test_foreign_mode_journal_reruns_instead_of_poisoning(self, archive, tmp_path):
        """A journal written by the binary runner must not be spliced into
        a scores sweep (its metrics lack roc_auc etc.) — re-run instead."""
        journal = tmp_path / "sweep.jsonl"
        run_on_archive(
            "one-liner", one_liner_factory, archive, checkpoint=SweepCheckpoint(journal)
        )
        agg = run_scores_on_archive(
            "one-liner", one_liner_factory, archive, checkpoint=SweepCheckpoint(journal)
        )
        assert set(agg.mean) == {"roc_auc", "pr_auc", "best_f1"}
        assert all(np.isfinite(v) for v in agg.mean.values())

    def test_torn_final_line_tolerated(self, archive, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_on_archive(
            "one-liner",
            one_liner_factory,
            archive,
            checkpoint=SweepCheckpoint(journal),
        )
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "result", "dataset": "half-writ')
        counting = CountingFactory()
        resumed = run_on_archive(
            "one-liner", counting, archive, checkpoint=SweepCheckpoint(journal)
        )
        assert counting.calls == 0
        assert len(resumed.per_run) == len(archive)

    def test_failures_checkpointed_and_clearable(self, archive, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        faulty = archive[1].name
        plan = FaultPlan([Fault(dataset=faulty, stage="fit", mode="raise", count=None)])
        agg = run_on_archive(
            "one-liner",
            chaos_factory(one_liner_factory, plan, archive),
            archive,
            policy=RetryPolicy(max_retries=0),
            checkpoint=SweepCheckpoint(journal),
        )
        assert len(agg.failures) == 1
        # Resume replays the recorded failure without re-running it.
        counting = CountingFactory()
        resumed = run_on_archive(
            "one-liner",
            counting,
            archive,
            policy=RetryPolicy(max_retries=0),
            checkpoint=SweepCheckpoint(journal),
        )
        assert counting.calls == 0
        assert len(resumed.failures) == 1
        assert resumed.failures[0].dataset == faulty
        # Clearing failures grants the unit a fresh (now fault-free) run.
        cleared = SweepCheckpoint(journal).clear_failures()
        assert cleared == 1
        healed = run_on_archive(
            "one-liner",
            counting,
            archive,
            policy=RetryPolicy(max_retries=0),
            checkpoint=SweepCheckpoint(journal),
        )
        assert counting.calls == 1
        assert not healed.failures
        assert healed.coverage == 1.0


class TestScoreGuards:
    def test_all_nan_scores_yield_defined_worst_case(self, small_dataset):
        scores = np.full(len(small_dataset.test), np.nan)
        notes: list[str] = []
        metrics = evaluate_scores(scores, small_dataset.labels, warnings=notes)
        assert all(np.isfinite(v) for v in metrics.values())
        assert metrics["roc_auc"] == pytest.approx(0.5)
        assert any("non-finite" in n for n in notes)
        assert any("constant" in n for n in notes)

    def test_partial_nan_ranked_below_finite(self, small_dataset):
        rng = np.random.default_rng(0)
        scores = rng.random(len(small_dataset.test))
        scores[small_dataset.labels == 0] *= 0.1  # informative scores
        clean = evaluate_scores(scores, small_dataset.labels)
        scores[:3] = np.nan
        notes: list[str] = []
        patched = evaluate_scores(scores, small_dataset.labels, warnings=notes)
        assert all(np.isfinite(v) for v in patched.values())
        assert notes and "3 non-finite" in notes[0]
        assert abs(patched["roc_auc"] - clean["roc_auc"]) < 0.05

    def test_constant_scores_flagged(self, small_dataset):
        notes: list[str] = []
        metrics = evaluate_scores(
            np.zeros(len(small_dataset.test)), small_dataset.labels, warnings=notes
        )
        assert metrics["roc_auc"] == pytest.approx(0.5)
        assert any("constant" in n for n in notes)

    def test_clean_scores_add_no_warnings(self, small_dataset):
        notes: list[str] = []
        evaluate_scores(
            np.arange(len(small_dataset.test), dtype=float),
            small_dataset.labels,
            warnings=notes,
        )
        assert notes == []

    def test_runner_records_warnings_in_metadata(self, archive):
        class ConstantScorer:
            def fit(self, train):
                return self

            def score_series(self, test):
                return np.zeros(len(test))

        agg = run_scores_on_archive("flat", lambda s: ConstantScorer(), archive[:1])
        assert agg.per_run[0].warnings
        assert "constant" in agg.per_run[0].warnings[0]
