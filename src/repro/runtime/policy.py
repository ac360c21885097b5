"""Retry and budget policies for archive-scale runs.

A sweep over hundreds of (dataset, seed) units must survive any single
unit failing: a detector raising, emitting garbage, or running past its
allowance.  :class:`RetryPolicy` bounds how many times a unit is
re-attempted (with deterministic reseeding so a flaky initialization
gets a genuinely different draw) and :class:`RunBudget` bounds the wall
time one attempt may take.

Budgets are cooperative: the runner calls :meth:`RunBudget.check_time`
between stages and a :class:`BudgetExceededError` is raised once the
wall allowance is spent.  The clock is injectable so tests can exhaust
a budget without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["BudgetExceededError", "RunBudget", "RetryPolicy", "CRASH_THROUGH"]

#: Offset added to the seed per retry, so re-attempts draw fresh
#: randomness while staying deterministic (prime, to avoid colliding
#: with user seed grids).
RESEED_STRIDE = 100003


class BudgetExceededError(RuntimeError):
    """A unit of work exhausted its wall-clock budget."""


@dataclass
class RunBudget:
    """Cooperative wall-clock allowance for one attempt.

    Parameters
    ----------
    max_seconds:
        Wall-clock allowance, checked on every :meth:`check_time`.
        ``None`` disables the deadline.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    max_seconds: float | None = None
    clock: Callable[[], float] = time.monotonic
    _start: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._start = self.clock()

    def elapsed(self) -> float:
        return self.clock() - self._start

    def check_time(self) -> None:
        """Raise if the wall-clock allowance is spent."""
        if self.max_seconds is not None and self.elapsed() > self.max_seconds:
            raise BudgetExceededError(
                f"wall budget exhausted: {self.elapsed():.3f}s > {self.max_seconds}s"
            )

    def spawn(self) -> "RunBudget":
        """A fresh budget with the same limit (new deadline)."""
        return RunBudget(max_seconds=self.max_seconds, clock=self.clock)


@dataclass
class RetryPolicy:
    """Bounded retries with reseeding for one (dataset, seed) unit.

    Passing a policy to the archive runners switches them from
    crash-through (any exception aborts the whole sweep) to isolation
    mode: each unit gets ``max_retries + 1`` attempts, and a unit that
    exhausts them is recorded as a :class:`~repro.runtime.failures.FailureReport`
    instead of killing the sweep.  Retries run immediately.

    Parameters
    ----------
    max_retries:
        Additional attempts after the first (0 = isolate but never retry).
    retry_on:
        Exception types that trigger isolation/retry.  ``KeyboardInterrupt``
        and ``SystemExit`` are never caught, so an interrupted sweep dies
        promptly (and can be resumed from its checkpoint).
    budget:
        Template :class:`RunBudget` applied per attempt via :meth:`spawn_budget`.
    """

    max_retries: int = 1
    retry_on: tuple[type[BaseException], ...] = (Exception,)
    budget: RunBudget | None = None

    def attempts(self) -> int:
        """Total attempts a unit receives (at least 1, even if
        ``max_retries`` was passed negative)."""
        return max(self.max_retries, 0) + 1

    @staticmethod
    def reseed(seed: int, attempt: int) -> int:
        """Deterministic seed for attempt ``attempt`` (0 = first try)."""
        return seed + attempt * RESEED_STRIDE

    def spawn_budget(self) -> RunBudget | None:
        """A fresh per-attempt budget, or ``None`` if unbudgeted."""
        return self.budget.spawn() if self.budget is not None else None


#: One attempt, no isolation: ``except ()`` catches nothing, so every
#: exception leaves unwrapped.  What a runner means by ``policy=None``.
CRASH_THROUGH = RetryPolicy(max_retries=0, retry_on=())
