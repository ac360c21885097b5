"""Retry/budget policy unit tests."""

from __future__ import annotations

import pytest

from repro.runtime import BudgetExceededError, RetryPolicy, RunBudget


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRunBudget:
    def test_wall_budget_exhausts(self):
        clock = FakeClock()
        budget = RunBudget(max_seconds=10.0, clock=clock)
        clock.now = 9.0
        budget.check_time()
        clock.now = 10.5
        with pytest.raises(BudgetExceededError, match="wall budget"):
            budget.check_time()

    def test_unlimited_budget_never_raises(self):
        clock = FakeClock()
        budget = RunBudget(clock=clock)
        clock.now = 1e12
        budget.check_time()

    def test_spawn_resets_deadline(self):
        clock = FakeClock()
        budget = RunBudget(max_seconds=5.0, clock=clock)
        clock.now = 4.0
        fresh = budget.spawn()
        clock.now = 8.0  # 4s after the spawn, within its own 5s allowance
        fresh.check_time()
        with pytest.raises(BudgetExceededError):
            budget.check_time()
        clock.now = 9.5
        with pytest.raises(BudgetExceededError):
            fresh.check_time()


class TestRetryPolicy:
    def test_attempts_counts_first_try(self):
        assert RetryPolicy(max_retries=0).attempts() == 1
        assert RetryPolicy(max_retries=3).attempts() == 4

    def test_negative_retries_clamp_to_single_attempt(self):
        assert RetryPolicy(max_retries=-1).attempts() == 1

    def test_reseed_identity_on_first_attempt(self):
        policy = RetryPolicy()
        assert policy.reseed(7, 0) == 7

    def test_reseed_deterministic_and_distinct(self):
        policy = RetryPolicy()
        seeds = {policy.reseed(7, attempt) for attempt in range(4)}
        assert len(seeds) == 4
        assert policy.reseed(7, 2) == policy.reseed(7, 2)

    def test_spawn_budget_is_fresh_per_attempt(self):
        clock = FakeClock()
        policy = RetryPolicy(budget=RunBudget(max_seconds=1.0, clock=clock))
        first = policy.spawn_budget()
        clock.now = 2.0
        with pytest.raises(BudgetExceededError):
            first.check_time()
        second = policy.spawn_budget()
        assert second is not first
        second.check_time()

    def test_spawn_budget_none_when_unbudgeted(self):
        assert RetryPolicy().spawn_budget() is None
