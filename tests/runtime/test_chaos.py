"""Fault-injection harness tests: the chaos layer itself must be
deterministic before it can prove anything about the runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import OneLinerDetector
from repro.data import make_archive
from repro.runtime import BudgetExceededError, RunBudget

from .chaos import (
    HANG_SECONDS,
    ChaosDetector,
    FakeClock,
    Fault,
    FaultPlan,
    InjectedFault,
    chaos_factory,
    fingerprint,
    flaky,
)


@pytest.fixture(scope="module")
def archive():
    return make_archive(size=3, seed=3, train_length=400, test_length=500)


class TestFingerprint:
    def test_content_identity(self, rng):
        x = rng.normal(size=64)
        assert fingerprint(x) == fingerprint(x.copy())

    def test_distinct_content(self, rng):
        x = rng.normal(size=64)
        y = x.copy()
        y[0] += 1.0
        assert fingerprint(x) != fingerprint(y)


class TestFaultPlan:
    def test_draw_matches_dataset_stage(self):
        plan = FaultPlan([Fault(dataset="a", stage="fit", mode="raise")])
        assert plan.draw("a", 0, "fit") is not None
        assert plan.draw("b", 0, "fit") is None
        assert plan.draw("a", 0, "predict") is None

    def test_count_spent_across_seeds(self):
        """Charges are global so a transient fault stays spent when the
        retry re-attempts the unit under a reseeded detector."""
        plan = FaultPlan([Fault(dataset="a", stage="fit", mode="raise", count=1)])
        assert plan.draw("a", 0, "fit") is not None
        assert plan.draw("a", 0, "fit") is None
        assert plan.draw("a", 100003, "fit") is None  # reseeded retry: still spent

    def test_per_seed_bounded_faults_via_seed_pinning(self):
        plan = FaultPlan(
            [
                Fault(dataset="a", stage="fit", mode="raise", seed=0, count=1),
                Fault(dataset="a", stage="fit", mode="raise", seed=1, count=1),
            ]
        )
        assert plan.draw("a", 0, "fit") is not None
        assert plan.draw("a", 0, "fit") is None
        assert plan.draw("a", 1, "fit") is not None
        assert plan.draw("a", 1, "fit") is None

    def test_count_none_fires_forever(self):
        plan = FaultPlan([Fault(dataset="a", stage="fit", mode="raise", count=None)])
        for _ in range(5):
            assert plan.draw("a", 0, "fit") is not None

    def test_seed_restriction(self):
        plan = FaultPlan([Fault(dataset="a", stage="fit", mode="raise", seed=2)])
        assert plan.draw("a", 0, "fit") is None
        assert plan.draw("a", 2, "fit") is not None

    def test_reset_restores_charges(self):
        plan = FaultPlan([Fault(dataset="a", stage="fit", mode="raise", count=1)])
        plan.draw("a", 0, "fit")
        plan.reset()
        assert plan.draw("a", 0, "fit") is not None

    def test_rejects_unknown_mode_and_stage(self):
        with pytest.raises(ValueError, match="mode"):
            Fault(dataset="a", stage="fit", mode="explode")
        with pytest.raises(ValueError, match="stage"):
            Fault(dataset="a", stage="transmogrify", mode="raise")


class TestChaosDetector:
    def _wrap(self, archive, plan, seed=0):
        factory = chaos_factory(lambda s: OneLinerDetector(), plan, archive)
        return factory(seed)

    def test_clean_passthrough(self, archive):
        dataset = archive[0]
        clean = OneLinerDetector().fit(dataset.train).predict(dataset.test)
        chaotic = self._wrap(archive, FaultPlan()).fit(dataset.train).predict(dataset.test)
        assert np.array_equal(clean, chaotic)

    def test_raise_on_fit(self, archive):
        dataset = archive[1]
        plan = FaultPlan([Fault(dataset=dataset.name, stage="fit", mode="raise")])
        with pytest.raises(InjectedFault, match=dataset.name):
            self._wrap(archive, plan).fit(dataset.train)

    def test_nan_scores(self, archive):
        dataset = archive[0]
        plan = FaultPlan([Fault(dataset=dataset.name, stage="score", mode="nan")])
        detector = self._wrap(archive, plan).fit(dataset.train)
        scores = detector.score_series(dataset.test)
        assert len(scores) == len(dataset.test)
        assert np.all(np.isnan(scores))

    def test_shape_corruption(self, archive):
        dataset = archive[0]
        plan = FaultPlan([Fault(dataset=dataset.name, stage="predict", mode="shape")])
        detector = self._wrap(archive, plan).fit(dataset.train)
        assert len(detector.predict(dataset.test)) < len(dataset.test)

    def test_hang_advances_the_budget_clock(self, archive):
        dataset = archive[0]
        clock = FakeClock()
        plan = FaultPlan(
            [Fault(dataset=dataset.name, stage="fit", mode="hang")], clock=clock
        )
        budget = RunBudget(max_seconds=60.0, clock=clock)
        detector = self._wrap(archive, plan).fit(dataset.train)
        assert clock.now >= HANG_SECONDS
        with pytest.raises(BudgetExceededError, match="wall budget"):
            budget.check_time()
        # The hung call still returns; the detector is usable afterwards.
        assert len(detector.predict(dataset.test)) == len(dataset.test)

    @pytest.mark.parametrize("stage", ["predict", "score"])
    def test_hang_at_inference_returns_clean_output(self, archive, stage):
        dataset = archive[0]
        clock = FakeClock()
        plan = FaultPlan([Fault(dataset=dataset.name, stage=stage, mode="hang")], clock=clock)
        detector = self._wrap(archive, plan).fit(dataset.train)
        clean = OneLinerDetector().fit(dataset.train)
        method = "predict" if stage == "predict" else "score_series"
        out = getattr(detector, method)(dataset.test)
        assert np.array_equal(out, getattr(clean, method)(dataset.test))
        assert clock.now >= HANG_SECONDS

    def test_hang_without_budget_still_fails(self, archive):
        dataset = archive[0]
        plan = FaultPlan([Fault(dataset=dataset.name, stage="fit", mode="hang")])
        with pytest.raises(BudgetExceededError, match="no clock"):
            self._wrap(archive, plan).fit(dataset.train)

    def test_transient_fault_clears_after_count(self, archive):
        dataset = archive[0]
        plan = FaultPlan([Fault(dataset=dataset.name, stage="fit", mode="raise", count=1)])
        factory = chaos_factory(lambda s: OneLinerDetector(), plan, archive)
        with pytest.raises(InjectedFault):
            factory(0).fit(dataset.train)
        predictions = factory(0).fit(dataset.train).predict(dataset.test)
        assert len(predictions) == len(dataset.test)


class TestFlaky:
    def test_raises_on_scheduled_calls(self):
        wrapped = flaky(lambda x: x, fail_calls={1}, mode="raise")
        assert wrapped(np.ones(3)) is not None
        with pytest.raises(InjectedFault):
            wrapped(np.ones(3))
        assert np.array_equal(wrapped(np.ones(3)), np.ones(3))

    def test_nan_mode_preserves_shape(self):
        wrapped = flaky(lambda x: x * 2.0, fail_calls={0}, mode="nan")
        out = wrapped(np.ones((2, 4)))
        assert out.shape == (2, 4)
        assert np.all(np.isnan(out))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            flaky(lambda x: x, fail_calls={0}, mode="hang")
