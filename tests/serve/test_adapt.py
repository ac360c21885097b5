"""Tests for the self-healing adaptive serving loop (``serve.adapt``).

The two drill tests at the bottom are the PR's acceptance criteria: a
level shift mid-replay must drive drift detection, a guarded background
retrain, shadow evaluation, and an auto-promotion that restores alert
precision — with zero operator input; and a NaN-poisoned retrain must
be rejected by the guardrails while the incumbent keeps serving.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.spec import Dataset
from repro.runtime import journal as runtime_journal
from repro.serve import (
    AdaptConfig,
    AdaptationDecision,
    AdaptationJournal,
    AdaptiveController,
    DriftMonitor,
    LevelShift,
    MomentShiftScorer,
    ScoreShiftMonitor,
    build_engine,
    build_registry,
    moment_trainer,
    nan_poisoned,
    replay_dataset,
    shadow_evaluate,
)
from repro.serve.registry import ModelRegistry, WindowScorer


class ArrayScorer(WindowScorer):
    """Scores every window with a fixed per-call value; optional calibration."""

    def __init__(self, name="fixed", value=0.0, calibration=None, nan=False):
        self.name = name
        self.value = value
        self.nan = nan
        self._calibration = calibration

    def score_windows(self, windows, batch):
        scores = np.full(len(windows), float(self.value))
        if self.nan:
            scores[:] = np.nan
        return scores

    def calibration_scores(self, length, stride):
        return self._calibration


class TestMomentShiftScorer:
    def test_shifted_windows_score_higher(self, rng):
        series = rng.normal(size=512) * 0.2
        scorer = MomentShiftScorer(series)
        normal = np.stack([series[i : i + 32] for i in range(0, 128, 32)])
        shifted = normal + 5.0
        assert scorer.score_windows(shifted, None).min() > (
            scorer.score_windows(normal, None).max()
        )

    def test_calibration_matches_live_scale(self, rng):
        series = rng.normal(size=512) * 0.2
        scorer = MomentShiftScorer(series)
        calibration = scorer.calibration_scores(32, 8)
        assert calibration is not None
        live = scorer.score_windows(
            np.stack([series[i : i + 32] for i in range(0, 64, 8)]), None
        )
        assert live.max() < calibration.mean() + 6 * calibration.std()

    def test_calibration_none_when_series_too_short(self, rng):
        scorer = MomentShiftScorer(rng.normal(size=16))
        assert scorer.calibration_scores(32, 8) is None


class TestShadowEvaluate:
    def make_holdout(self, rng, level=0.0, n=200):
        return rng.normal(size=n) * 0.2 + level

    def test_label_free_promotes_calm_candidate(self, rng):
        old = self.make_holdout(rng, level=0.0, n=400)
        new = self.make_holdout(rng, level=5.0, n=400)
        report = shadow_evaluate(
            incumbent=MomentShiftScorer(old),
            candidate=MomentShiftScorer(new),
            holdout=new[:200],
            window_length=32,
            stride=8,
        )
        assert report.mode == "label-free"
        assert report.promote
        assert report.candidate["alert_rate"] <= report.incumbent["alert_rate"]

    def test_label_free_rejects_noisy_candidate(self, rng):
        old = self.make_holdout(rng, level=0.0, n=400)
        new = self.make_holdout(rng, level=5.0, n=400)
        report = shadow_evaluate(
            incumbent=MomentShiftScorer(old),
            candidate=MomentShiftScorer(old),
            holdout=new[:200],
            window_length=32,
            stride=8,
        )
        assert report.mode == "label-free"
        assert not report.promote

    def test_guard_mode_on_non_finite_candidate(self, rng):
        holdout = self.make_holdout(rng)
        report = shadow_evaluate(
            incumbent=ArrayScorer(value=0.0),
            candidate=ArrayScorer(nan=True),
            holdout=holdout,
            window_length=32,
            stride=8,
        )
        assert report.mode == "guard"
        assert not report.promote
        assert "non-finite" in report.reason

    def labeled_setup(self, rng):
        holdout = self.make_holdout(rng, n=256)
        holdout[128:144] += 6.0
        labels = np.zeros(256, dtype=np.int64)
        labels[128:144] = 1
        reference = self.make_holdout(rng, n=512)
        return holdout, labels, reference

    def test_labeled_promotes_matching_candidate(self, rng):
        holdout, labels, reference = self.labeled_setup(rng)
        report = shadow_evaluate(
            incumbent=MomentShiftScorer(reference),
            candidate=MomentShiftScorer(reference),
            holdout=holdout,
            window_length=32,
            stride=8,
            labels=labels,
        )
        assert report.mode == "labeled"
        assert report.promote
        assert report.incumbent["pa_k_f1_auc"] > 0

    def test_labeled_rejects_blind_candidate(self, rng):
        holdout, labels, reference = self.labeled_setup(rng)
        report = shadow_evaluate(
            incumbent=MomentShiftScorer(reference),
            # Constant scores never cross any threshold: the candidate
            # is blind to the labelled event the incumbent catches.
            candidate=ArrayScorer(value=0.0),
            holdout=holdout,
            window_length=32,
            stride=8,
            labels=labels,
        )
        assert report.mode == "labeled"
        assert not report.promote
        assert "regresses" in report.reason

    def test_firehose_incumbent_bypasses_labeled_gate(self, rng):
        # An incumbent in a false-alarm storm earns PA%K/affiliation F1
        # from recall alone; comparing against it would be vacuous, so
        # the gate must fall back to the alert-rate criterion.
        holdout, labels, reference = self.labeled_setup(rng)
        firehose = ArrayScorer(
            value=100.0, calibration=np.zeros(64)  # alerts on everything
        )
        report = shadow_evaluate(
            incumbent=firehose,
            candidate=MomentShiftScorer(reference),
            holdout=holdout,
            window_length=32,
            stride=8,
            labels=labels,
        )
        assert report.mode == "label-free"
        assert report.promote


class TestJournal:
    def make_decision(self, action="promoted", at_index=100):
        return AdaptationDecision(
            stream_id="s", at_index=at_index, action=action, reason="because"
        )

    def test_appends_one_json_line_per_decision(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = AdaptationJournal(path)
        journal.record(self.make_decision("promoted", 100))
        journal.record(self.make_decision("rejected", 200))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        assert [e["action"] for e in entries] == ["promoted", "rejected"]
        assert journal.entries == entries
        assert runtime_journal.load(path) == (entries, [])

    def test_in_memory_without_path(self):
        journal = AdaptationJournal()
        journal.record(self.make_decision())
        assert len(journal.entries) == 1


def make_adaptive(
    trainer,
    primary=None,
    config=None,
    monitor=None,
    rng=None,
    clock=None,
    **engine_overrides,
):
    """A small engine + controller on a moment-shift primary."""
    train = rng.normal(size=512) * 0.2
    primary = primary or MomentShiftScorer(train)
    registry = ModelRegistry()
    registry.register(primary)
    monitor = monitor or ScoreShiftMonitor(
        reference_size=8, recent_size=4, threshold_sigma=3.0, cooldown=16
    )
    engine = build_engine(
        registry,
        window_length=32,
        stride=8,
        drift=DriftMonitor(score_monitor=monitor),
        max_batch=8,
        score_baseline=4096,
        **engine_overrides,
    )
    controller = AdaptiveController(engine, trainer, config=config, clock=clock)
    return controller, engine, registry, train


class TestControllerGuardrails:
    def test_requires_drift_monitor(self, rng):
        registry = ModelRegistry()
        registry.register(MomentShiftScorer(rng.normal(size=256)))
        engine = build_engine(registry, window_length=32, stride=8, monitor_drift=False)
        with pytest.raises(ValueError, match="drift monitor"):
            AdaptiveController(engine, moment_trainer())

    def test_failed_retrains_back_off_exponentially(self, rng):
        def exploding(history, seed):
            raise RuntimeError("fit blew up")

        config = AdaptConfig(
            history_points=64,
            min_history=8,
            settle_points=0,
            cooldown_points=16,
            backoff_factor=2.0,
            max_retries=0,
            budget_seconds=None,
        )
        controller, engine, _, train = make_adaptive(exploding, config=config, rng=rng)
        feed = np.concatenate([train[:128], rng.normal(size=600) * 0.2 + 5.0])
        for value in feed:
            controller.ingest("s", float(value))
        controller.drain()

        failed = [d for d in controller.decisions if d.action == "failed"]
        assert len(failed) >= 2, "expected repeated guarded failures"
        assert all("blew up" in d.reason for d in failed)
        gaps = np.diff([d.at_index for d in failed])
        # cooldown_points * backoff^k: every retry waits strictly longer.
        assert (gaps >= 32).all()
        assert (np.diff(gaps) > 0).all()
        # A failed retrain never takes down serving.
        assert engine.stats.windows_scored > 0
        assert engine.registry.describe()[0]["tripped"] is False

    def test_retrain_over_run_budget_is_never_promoted(self, rng):
        now = [0.0]

        def slow(history, seed):
            now[0] += 5.0  # every retrain takes 5s of a 1s RunBudget
            return MomentShiftScorer(history)

        config = AdaptConfig(
            history_points=64,
            min_history=8,
            settle_points=0,
            cooldown_points=16,
            max_retries=0,
            budget_seconds=1.0,
        )
        controller, engine, registry, train = make_adaptive(
            slow, config=config, rng=rng, clock=lambda: now[0]
        )
        feed = np.concatenate([train[:128], rng.normal(size=600) * 0.2 + 5.0])
        for value in feed:
            controller.ingest("s", float(value))
        controller.drain()

        assert controller.decisions, "drift never triggered a retrain"
        assert all(d.action == "failed" for d in controller.decisions)
        assert all("wall budget" in d.reason for d in controller.decisions)
        assert registry.active_version("moment-shift") == 1

    def test_settle_delays_retrain_until_history_renews(self, rng):
        promoted_at = []

        def trainer(history, seed):
            return MomentShiftScorer(history)

        config = AdaptConfig(
            history_points=64,
            min_history=8,
            settle_points=200,
            cooldown_points=16,
            budget_seconds=None,
        )
        controller, engine, _, train = make_adaptive(trainer, config=config, rng=rng)
        feed = np.concatenate([train[:128], rng.normal(size=600) * 0.2 + 5.0])
        for value in feed:
            controller.ingest("s", float(value))
        controller.drain()
        trigger_index = engine.drift.signals[0].at_index
        for decision in controller.decisions:
            assert decision.at_index >= trigger_index + 200


class TestProbationRollback:
    class TwoFaced(WindowScorer):
        """Calm during shadow evaluation, pathological once serving."""

        def __init__(self, shadow_calls):
            self.name = "two-faced"
            self.shadow_calls = shadow_calls
            self.calls = 0

        def score_windows(self, windows, batch):
            self.calls += 1
            value = 0.0 if self.calls <= self.shadow_calls else 100.0
            return np.full(len(windows), value)

        def calibration_scores(self, length, stride):
            return np.zeros(64)

    def test_pathological_promotion_is_rolled_back(self, rng):
        def trainer(history, seed):
            # Shadow evaluation scores the candidate once (one
            # score_series call batches all holdout windows).
            return self.TwoFaced(shadow_calls=1)

        config = AdaptConfig(
            history_points=64,
            min_history=8,
            settle_points=0,
            cooldown_points=16,
            probation_points=400,
            probation_alert_cap=0.1,
            budget_seconds=None,
        )
        controller, engine, registry, train = make_adaptive(
            trainer, config=config, rng=rng
        )
        feed = np.concatenate([train[:128], rng.normal(size=600) * 0.2 + 5.0])
        for value in feed:
            controller.ingest("s", float(value))
        controller.drain()

        actions = [d.action for d in controller.decisions]
        assert "promoted" in actions
        assert "rolled_back" in actions
        assert actions.index("promoted") < actions.index("rolled_back")
        # The incumbent is back in charge.
        assert registry.active_version("moment-shift") == 1
        rolled = next(d for d in controller.decisions if d.action == "rolled_back")
        assert "pathological" in rolled.reason


# ----------------------------------------------------------------------
# The acceptance drills (ISSUE: chaos drill + poisoned retrain)
# ----------------------------------------------------------------------
def make_drill(seed=7):
    """Sine feed with a labelled spike each side of a +5 level shift.

    Pre-shift spike: alerts must fire (precision baseline) without
    triggering adaptation.  Shift at 700: sustained regime change the
    loop must recover from.  Post-recovery spike at 1300: proof the
    promoted model still detects real anomalies.
    """
    rng = np.random.default_rng(seed)
    period = 40
    n_train, n_test = 800, 1600
    t = np.arange(n_train + n_test)
    base = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.1, t.size)
    train = base[:n_train]
    test = base[n_train:].copy()
    labels = np.zeros(n_test, dtype=np.int64)
    test[300:316] += 4.0
    labels[300:316] = 1
    test[1300:1316] += 4.0
    labels[1300:1316] = 1
    return Dataset(name="drill", train=train, test=test, labels=labels), train


def run_drill(trainer, train, dataset):
    primary = MomentShiftScorer(train)
    registry = build_registry(train_series=train, primary=primary)
    drift = DriftMonitor(
        score_monitor=ScoreShiftMonitor(
            reference_size=24,
            recent_size=24,
            threshold_sigma=4.0,
            cooldown=48,
            statistic="median",
        )
    )
    engine = build_engine(
        registry,
        window_length=32,
        stride=8,
        drift=drift,
        max_batch=16,
        score_baseline=4096,
    )
    controller = AdaptiveController(
        engine,
        trainer,
        config=AdaptConfig(
            history_points=256,
            min_history=128,
            holdout_fraction=0.25,
            settle_points=192,
            cooldown_points=256,
            budget_seconds=10.0,
            probation_points=256,
        ),
    )
    report = replay_dataset(
        dataset,
        engine,
        streams=1,
        controller=controller,
        chaos=LevelShift(at=700, delta=5.0),
    )
    return report, controller, engine, registry


def spike_hit(alert, window_length=32):
    return (300 < alert.index and alert.index - window_length < 316) or (
        1300 < alert.index and alert.index - window_length < 1316
    )


class TestChaosDrill:
    def test_level_shift_drill_self_heals(self):
        dataset, train = make_drill()
        report, controller, engine, registry = run_drill(
            moment_trainer(), train, dataset
        )

        # A transient labelled spike alerts but does not trigger
        # adaptation: every drift signal postdates the regime change.
        pre = [a for a in report.alerts if a.index < 700]
        assert pre and all(spike_hit(a) for a in pre)
        assert engine.drift.signals, "level shift never detected"
        assert all(s.at_index > 700 for s in engine.drift.signals)

        # Degradation: the stale incumbent storms false alarms after
        # the shift, until the loop promotes a retrained candidate.
        promotions = [d for d in controller.decisions if d.action == "promoted"]
        assert len(promotions) == 1
        promoted_at = promotions[0].at_index
        storm = [a for a in report.alerts if 700 <= a.index <= promoted_at]
        assert len(storm) >= 5 and not any(spike_hit(a) for a in storm)

        # Promotion went through the registry: v2 is serving.
        assert registry.active_version("moment-shift") == 2
        assert promotions[0].candidate == "moment-shift@v2"
        assert promotions[0].shadow is not None
        # Time to recovery (retrain + shadow + swap) fits the RunBudget.
        assert 0.0 < promotions[0].elapsed_s < controller.config.budget_seconds

        # Recovery: post-promotion precision within 10% of the
        # pre-shift baseline (both 1.0 here), with zero operator input.
        post = [a for a in report.alerts if a.index > promoted_at]
        assert post, "promoted model went silent"
        pre_precision = sum(spike_hit(a) for a in pre) / len(pre)
        post_precision = sum(spike_hit(a) for a in post) / len(post)
        assert post_precision >= pre_precision - 0.1
        # The promoted model still catches real anomalies.
        assert any(
            1300 < a.index and a.index - 32 < 1316 and a.model == "moment-shift@v2"
            for a in post
        )

    def test_nan_poisoned_retrain_is_rejected(self):
        dataset, train = make_drill()
        report, controller, engine, registry = run_drill(
            nan_poisoned(moment_trainer()), train, dataset
        )

        # The guardrails rejected every diverging candidate...
        assert controller.decisions, "drift never triggered a retrain"
        assert all(d.action == "rejected" for d in controller.decisions)
        assert all(
            d.shadow is not None and d.shadow["mode"] == "guard"
            for d in controller.decisions
        )
        # ...the incumbent keeps serving (never swapped, never tripped)...
        assert registry.active_version("moment-shift") == 1
        assert engine.registry.describe()[0]["tripped"] is False
        # ...and scoring ran to the end of the feed.
        expected = 1 + (len(dataset.test) - 32) // 8
        assert engine.stats.windows_scored == expected

    def test_drill_decisions_are_journaled(self, tmp_path):
        dataset, train = make_drill()
        primary = MomentShiftScorer(train)
        registry = build_registry(train_series=train, primary=primary)
        drift = DriftMonitor(
            score_monitor=ScoreShiftMonitor(
                reference_size=24,
                recent_size=24,
                threshold_sigma=4.0,
                cooldown=48,
                statistic="median",
            )
        )
        engine = build_engine(
            registry, window_length=32, stride=8, drift=drift, score_baseline=4096
        )
        path = tmp_path / "audit.jsonl"
        controller = AdaptiveController(
            engine,
            moment_trainer(),
            config=AdaptConfig(
                history_points=256,
                min_history=128,
                settle_points=192,
                cooldown_points=256,
            ),
            journal_path=path,
        )
        replay_dataset(
            dataset,
            engine,
            streams=1,
            controller=controller,
            chaos=LevelShift(at=700, delta=5.0),
        )
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries == controller.timeline()
        for entry in entries:
            assert entry["trigger"] is not None
            assert entry["shadow"] is not None
            assert entry["incumbent"] is not None
