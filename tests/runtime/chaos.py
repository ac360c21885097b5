"""Deterministic fault injection for the evaluation runtime (a test harness).

Testing a fault-tolerant sweep needs faults on demand: this module
wraps any detector factory so that chosen (dataset, seed, stage) units
raise, hang (by advancing the fake clock their wall budget reads), emit
NaN/Inf scores, or return wrong-shaped output — on a fixed schedule, so
every degradation path in the runner is provable by an ordinary unit
test.

The wrapper identifies datasets by a content fingerprint of their
training split (the runner only hands detectors raw arrays), so plans
are written against human-readable dataset names.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.runtime import BudgetExceededError

__all__ = [
    "FakeClock",
    "InjectedFault",
    "Fault",
    "FaultPlan",
    "ChaosDetector",
    "chaos_factory",
    "fingerprint",
    "flaky",
    "FAULT_MODES",
]

FAULT_MODES = ("raise", "nan", "hang", "shape")

#: How far a ``hang`` fault moves the clock: longer than any budget a
#: test sets, and finite so a later attempt's budget still measures.
HANG_SECONDS = 1e9


class FakeClock:
    """A monotonic clock that moves only when advanced.

    Give the same instance to ``RunBudget(max_seconds=..., clock=...)``
    and to :class:`FaultPlan`: a ``hang`` fault then spends the budget
    without sleeping, and the runner's own ``check_time()`` catches it.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class InjectedFault(RuntimeError):
    """The exception raised by ``mode="raise"`` faults."""


def fingerprint(series: np.ndarray) -> str:
    """Content hash identifying a series regardless of object identity."""
    arr = np.ascontiguousarray(np.asarray(series, dtype=np.float64))
    digest = hashlib.sha1(arr.tobytes())
    digest.update(str(arr.shape).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Parameters
    ----------
    dataset:
        Dataset name the fault targets.
    stage:
        ``"fit"``, ``"predict"``, or ``"score"``.
    mode:
        ``"raise"``  — raise :class:`InjectedFault`;
        ``"nan"``    — return all-NaN output (``fit``: raises instead);
        ``"hang"``   — advance the plan's :class:`FakeClock` by
        :data:`HANG_SECONDS`, then carry on, so the caller's wall
        budget is spent when it next checks;
        ``"shape"``  — return output of the wrong length (``fit``:
        raises instead).
    seed:
        Restrict to one seed; ``None`` fires for every seed.
    count:
        How many matching calls the fault fires for in total (across
        retries, which reseed the detector), after which the wrapped
        detector behaves normally — ``count=1`` with a retrying policy
        exercises the "transient fault, retry succeeds" path.  ``None``
        fires forever (a deterministic hard failure).  To fault several
        seeds a bounded number of times each, schedule one seed-pinned
        fault per seed.
    """

    dataset: str
    stage: str
    mode: str
    seed: int | None = None
    count: int | None = 1

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; pick from {FAULT_MODES}")
        if self.stage not in ("fit", "predict", "score"):
            raise ValueError(f"unknown fault stage {self.stage!r}")


class FaultPlan:
    """A deterministic schedule of :class:`Fault` entries.

    ``draw`` is stateful: each call that matches a fault consumes one of
    its ``count`` firings.  Charges are global per fault — deliberately
    not keyed by seed, because retries re-attempt a unit under a
    *reseeded* detector and a transient fault must stay spent across
    that reseed.

    ``clock`` is the :class:`FakeClock` a ``hang`` fault advances.
    """

    def __init__(
        self, faults: Iterable[Fault] = (), clock: FakeClock | None = None
    ) -> None:
        self.faults = list(faults)
        self.clock = clock
        self._fired: Counter = Counter()

    def draw(self, dataset: str, seed: int, stage: str) -> Fault | None:
        """The fault firing for this call, consuming one charge, or None."""
        for index, fault in enumerate(self.faults):
            if fault.dataset != dataset or fault.stage != stage:
                continue
            if fault.seed is not None and fault.seed != seed:
                continue
            if fault.count is None or self._fired[index] < fault.count:
                self._fired[index] += 1
                return fault
        return None

    def reset(self) -> None:
        """Forget every firing (for reuse across independent sweeps)."""
        self._fired.clear()


class ChaosDetector:
    """Detector wrapper injecting faults from a :class:`FaultPlan`.

    Forwards ``fit`` / ``predict`` / ``score_series`` to the wrapped
    detector unless the plan schedules a fault for the current
    (dataset, seed, stage).  Dataset identity is resolved from the
    training series handed to ``fit`` via ``resolve_name``.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        seed: int,
        resolve_name: Callable[[np.ndarray], str],
    ) -> None:
        self._inner = inner
        self._plan = plan
        self._seed = seed
        self._resolve_name = resolve_name
        self._dataset = "<unfit>"

    def fit(self, train_series: np.ndarray) -> "ChaosDetector":
        self._dataset = self._resolve_name(train_series)
        fault = self._plan.draw(self._dataset, self._seed, "fit")
        if fault is not None:
            self._trip(fault)
        self._inner.fit(train_series)
        return self

    def predict(self, test_series: np.ndarray) -> np.ndarray:
        fault = self._plan.draw(self._dataset, self._seed, "predict")
        if fault is not None and fault.mode in ("raise", "hang"):
            self._trip(fault)
        out = np.asarray(self._inner.predict(test_series))
        return self._corrupt(out, fault)

    def score_series(self, test_series: np.ndarray) -> np.ndarray:
        fault = self._plan.draw(self._dataset, self._seed, "score")
        if fault is not None and fault.mode in ("raise", "hang"):
            self._trip(fault)
        out = np.asarray(self._inner.score_series(test_series))
        return self._corrupt(out, fault)

    def detect(self, test_series: np.ndarray):
        return self._inner.detect(test_series)

    def _trip(self, fault: Fault) -> None:
        """Fire a fault that cannot be expressed as corrupted output."""
        if fault.mode == "hang":
            if self._plan.clock is None:
                raise BudgetExceededError(
                    f"injected hang on {self._dataset} with no clock attached"
                )
            self._plan.clock.advance(HANG_SECONDS)
            return
        raise InjectedFault(
            f"injected {fault.mode} fault on {self._dataset} "
            f"(seed {self._seed}, stage {fault.stage})"
        )

    def _corrupt(self, out: np.ndarray, fault: Fault | None) -> np.ndarray:
        if fault is None or fault.mode == "hang":
            return out
        if fault.mode == "nan":
            return np.full(out.shape, np.nan)
        if fault.mode == "shape":
            return out[: max(len(out) // 2, 1)]
        raise AssertionError(f"unreachable fault mode {fault.mode!r}")


def chaos_factory(
    base_factory: Callable[[int], object],
    plan: FaultPlan,
    datasets: Sequence,
) -> Callable[[int], ChaosDetector]:
    """Wrap ``base_factory`` so its detectors inject faults from ``plan``.

    ``datasets`` (objects with ``.train`` and ``.name``) supply the
    fingerprint-to-name mapping used to target faults by dataset name.
    """
    names = {fingerprint(ds.train): ds.name for ds in datasets}

    def factory(seed: int) -> ChaosDetector:
        resolve = lambda arr: names.get(fingerprint(arr), "<unknown>")  # noqa: E731
        return ChaosDetector(base_factory(seed), plan, seed, resolve)

    return factory


def flaky(
    fn: Callable[..., np.ndarray],
    fail_calls: Iterable[int],
    mode: str = "raise",
) -> Callable[..., np.ndarray]:
    """Wrap any array-returning callable to misbehave on selected calls.

    ``fail_calls`` are 0-based call indices; ``mode`` is ``"raise"`` or
    ``"nan"``.  Used to poison inner training helpers (e.g. the
    augmentation step) when exercising the trainer's divergence guards.
    """
    if mode not in ("raise", "nan"):
        raise ValueError(f"flaky supports 'raise' and 'nan', got {mode!r}")
    schedule = frozenset(fail_calls)
    counter = {"calls": 0}

    def wrapper(*args, **kwargs):
        index = counter["calls"]
        counter["calls"] += 1
        if index in schedule:
            if mode == "raise":
                raise InjectedFault(f"injected raise on call {index}")
            out = np.asarray(fn(*args, **kwargs), dtype=np.float64)
            return np.full(out.shape, np.nan)
        return fn(*args, **kwargs)

    return wrapper
