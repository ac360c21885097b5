"""Fault-tolerant evaluation runtime.

Resilience primitives for archive-scale sweeps and training runs:
retry/budget policies (:mod:`.policy`), structured failure records
(:mod:`.failures`), training divergence guards (:mod:`.guards`), a
deterministic fault-injection harness (:mod:`.chaos`) that proves every
degradation path under test, the one append-only journal
(:mod:`.journal`) and the one fork-worker primitive (:mod:`.workers`).
See ``docs/RESILIENCE.md``.
"""

from .chaos import (
    FAULT_MODES,
    ChaosDetector,
    Fault,
    FaultPlan,
    InjectedFault,
    chaos_factory,
    fingerprint,
    flaky,
)
from .failures import STAGES, FailureReport, InvalidOutputError
from .guards import DivergenceGuard
from .policy import CRASH_THROUGH, BudgetExceededError, RetryPolicy, RunBudget

__all__ = [
    "BudgetExceededError",
    "RetryPolicy",
    "RunBudget",
    "CRASH_THROUGH",
    "FailureReport",
    "InvalidOutputError",
    "STAGES",
    "DivergenceGuard",
    "InjectedFault",
    "Fault",
    "FaultPlan",
    "ChaosDetector",
    "chaos_factory",
    "fingerprint",
    "flaky",
    "FAULT_MODES",
]
