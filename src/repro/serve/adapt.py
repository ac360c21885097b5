"""Self-healing adaptive serving: the drift -> retrain -> promote loop.

The serving stack already had every piece of an adaptive system —
:class:`~repro.serve.drift.DriftMonitor` emits retrain signals, the
:class:`~repro.serve.registry.ModelRegistry` hot-swaps versions, and
``repro.runtime`` guards risky work — but nothing connected them: a
drifted stream degraded forever until an operator intervened.  The
:class:`AdaptiveController` closes the loop:

1. **Watch** — it wraps :meth:`ScoringEngine.ingest`, keeping a bounded
   per-stream history of recent raw points, and polls the engine's
   drift monitor for ``retrain_recommended`` streams.
2. **Retrain** — on a signal (after a per-stream settle/cooldown so the
   history window has filled with the *new* regime) it fits a candidate
   scorer on recent history under ``runtime`` guardrails: a
   :class:`~repro.runtime.RunBudget` wall-clock cap, a
   :class:`~repro.runtime.RetryPolicy` with deterministic reseeding,
   and :class:`~repro.runtime.DivergenceGuard` semantics for candidates
   that emit non-finite scores.  A failed retrain never takes down
   serving — the incumbent keeps scoring throughout.
3. **Shadow-evaluate** — candidate and incumbent both score a held-out
   slice of recent history through the pipeline adapters
   (:func:`repro.pipeline.from_window_scorer`).  With labels (the
   replay harness supplies an oracle) the paper metric suite decides:
   PA%K F1-AUC and affiliation F1 must not regress beyond
   ``metric_margin``.  Without labels — live production — the gate is
   label-free: the candidate's false-alarm rate on recent (presumed
   normal) data must be below ``max_alert_rate`` and not above the
   incumbent's.
4. **Promote** — only a passing candidate is registered and promoted
   via :meth:`ModelRegistry.promote`; the controller then re-arms every
   tripped circuit breaker, resets the stream's drift references
   (:meth:`DriftMonitor.acknowledge`), and clears alert baselines so
   the engine re-calibrates on the new model's scale.
5. **Audit + rollback** — every decision (trigger, shadow scores,
   verdict) is journaled as one JSONL line.  A promoted model is on
   probation: if its alert rate goes pathological within
   ``probation_points``, the controller rolls back to the previous
   version and backs off.

See ``docs/ADAPTIVE.md`` for the lifecycle and the audit-trail format.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..metrics import affiliation_metrics, pa_k_auc
from ..pipeline import calibrate_threshold, default_pipeline, from_window_scorer
from ..runtime import BudgetExceededError, DivergenceGuard, RetryPolicy, RunBudget, journal
from .drift import DriftSignal
from .engine import ScoringEngine, StreamAlert
from .registry import WindowScorer
from .stream import RingBuffer

__all__ = [
    "AdaptConfig",
    "AdaptationDecision",
    "AdaptationJournal",
    "AdaptiveController",
    "MomentShiftScorer",
    "ShadowReport",
    "moment_trainer",
    "nan_poisoned",
    "shadow_evaluate",
    "triad_trainer",
]

# A trainer factory fits a candidate scorer on recent history under a
# deterministic seed: (history, seed) -> WindowScorer.
TrainerFactory = Callable[[np.ndarray, int], WindowScorer]


# ----------------------------------------------------------------------
# A cheap, level-sensitive scorer (retrainable in microseconds)
# ----------------------------------------------------------------------
class MomentShiftScorer(WindowScorer):
    """Scores windows by moment distance to a calibration series.

    ``|window.mean - ref.mean| / ref.std + |window.std - ref.std| /
    ref.std`` — deliberately *not* shift-invariant, unlike the z-normed
    spectral/discord scorers, so a level-shift regime change degrades it
    exactly the way drift degrades a model fitted to a stale regime.
    It doubles as the cheapest retrain target: :func:`moment_trainer`
    rebuilds one from recent history in O(n).
    """

    name = "moment-shift"

    def __init__(self, calibration_series: np.ndarray, sigma_floor: float = 1e-3) -> None:
        series = np.asarray(calibration_series, dtype=np.float64)
        if series.size < 2:
            raise ValueError("calibration_series must hold at least 2 points")
        self._series = series
        self._mean = float(series.mean())
        self._std = float(max(series.std(), sigma_floor))
        self._calibration: dict[tuple[int, int], np.ndarray] = {}

    def score_windows(self, windows: np.ndarray, batch) -> np.ndarray:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        means = windows.mean(axis=1)
        stds = windows.std(axis=1)
        return np.abs(means - self._mean) / self._std + np.abs(stds - self._std) / self._std

    def calibration_scores(self, length: int, stride: int) -> np.ndarray | None:
        if len(self._series) < length:
            return None
        key = (length, stride)
        if key not in self._calibration:
            windows, _ = default_pipeline().windows(self._series, length, stride)
            self._calibration[key] = self.score_windows(windows, ())
        return self._calibration[key]


# ----------------------------------------------------------------------
# Trainer factories
# ----------------------------------------------------------------------
def moment_trainer() -> TrainerFactory:
    """Factory fitting a :class:`MomentShiftScorer` on recent history."""

    def factory(history: np.ndarray, seed: int) -> WindowScorer:
        del seed  # deterministic; the signature is uniform across factories
        return MomentShiftScorer(history)

    return factory


def triad_trainer(config=None, window_length: int | None = None) -> TrainerFactory:
    """Factory refitting a TriAD encoder on recent history.

    ``window_length`` pins the candidate's window plan to the serving
    engine's window length (``min_window = max_window = length``) so the
    candidate scores the same windows the incumbent does; without it the
    refit would re-derive a plan from the history's estimated period and
    could emit a scorer the engine cannot batch.
    """

    def factory(history: np.ndarray, seed: int) -> WindowScorer:
        from dataclasses import replace

        from ..core.config import TriADConfig
        from ..core.detector import TriAD
        from ..pipeline.adapters import TriADWindowScorer

        base = config if config is not None else TriADConfig(
            depth=2, hidden_dim=8, epochs=2
        )
        overrides: dict = {"seed": seed}
        if window_length is not None:
            overrides["min_window"] = int(window_length)
            overrides["max_window"] = int(window_length)
        detector = TriAD(replace(base, **overrides)).fit(history)
        return TriADWindowScorer(detector)

    return factory


def nan_poisoned(factory: TrainerFactory) -> TrainerFactory:
    """Chaos wrapper: the candidate's scores are poisoned with NaN.

    Drives the diverging-retrain drill (``serve-replay --chaos
    nan-retrain``): the guardrails must reject the candidate and leave
    the incumbent serving.
    """

    def poisoned(history: np.ndarray, seed: int) -> WindowScorer:
        candidate = factory(history, seed)

        class _Poisoned(WindowScorer):
            name = candidate.name

            def score_windows(self, windows, batch):
                scores = np.asarray(
                    candidate.score_windows(windows, batch), dtype=np.float64
                )
                scores[...] = np.nan
                return scores

            def calibration_scores(self, length, stride):
                return candidate.calibration_scores(length, stride)

        return _Poisoned()

    return poisoned


# ----------------------------------------------------------------------
# Shadow evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShadowReport:
    """Candidate-vs-incumbent verdict on a held-out replay slice.

    ``mode`` is ``"labeled"`` (paper metric suite: PA%K F1-AUC +
    affiliation F1) when the holdout slice carries labeled events, else
    ``"label-free"`` (false-alarm rate on presumed-normal data).
    """

    mode: str
    promote: bool
    reason: str
    incumbent: dict = field(default_factory=dict)
    candidate: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "promote": self.promote,
            "reason": self.reason,
            "incumbent": dict(self.incumbent),
            "candidate": dict(self.candidate),
        }


def _scorer_threshold(
    scorer: WindowScorer, scores: np.ndarray, length: int, stride: int, sigma: float
) -> float:
    """Alert threshold from the scorer's own normal-data calibration,
    falling back to the holdout scores themselves when uncalibrated."""
    calibration = scorer.calibration_scores(length, stride)
    bank = calibration if calibration is not None and len(calibration) >= 2 else scores
    return calibrate_threshold(np.asarray(bank, dtype=np.float64), sigma)


def shadow_evaluate(
    incumbent: WindowScorer,
    candidate: WindowScorer,
    holdout: np.ndarray,
    window_length: int,
    stride: int,
    labels: np.ndarray | None = None,
    metric_margin: float = 0.05,
    max_alert_rate: float = 0.2,
    alert_sigma: float = 3.0,
) -> ShadowReport:
    """Score both models on ``holdout`` through the pipeline adapters.

    Labeled mode thresholds each scorer at its own calibration and
    requires the candidate's PA%K F1-AUC *and* affiliation F1 to stay
    within ``metric_margin`` of the incumbent's — but only when the
    incumbent is itself healthy on the holdout (false-alarm rate on
    normal-labelled points at most ``max_alert_rate``); an incumbent in
    a false-alarm storm is judged by the label-free gate instead.
    Label-free mode
    requires the candidate's alert rate on the (presumed normal)
    holdout to be below ``max_alert_rate`` and not above the
    incumbent's — a model fitted to the current regime should find
    recent data unremarkable.
    """
    holdout = np.asarray(holdout, dtype=np.float64)
    length = min(int(window_length), len(holdout))
    inc_scores = from_window_scorer(incumbent, length, stride).score_series(holdout)
    cand_scores = from_window_scorer(candidate, length, stride).score_series(holdout)

    if not np.all(np.isfinite(cand_scores)):
        return ShadowReport(
            mode="guard",
            promote=False,
            reason="candidate produced non-finite shadow scores (divergence)",
        )

    inc_threshold = _scorer_threshold(incumbent, inc_scores, length, stride, alert_sigma)
    cand_threshold = _scorer_threshold(candidate, cand_scores, length, stride, alert_sigma)

    # With labels, every rate below is a *false-alarm* rate over the
    # normal-labelled points — alerting on the labelled event is the
    # job, not noise.  Without labels the whole holdout is presumed
    # normal and the distinction vanishes.
    if labels is not None and len(labels) == len(holdout) and np.asarray(labels).any():
        labels = np.asarray(labels, dtype=np.int64)
        normal = labels == 0
        if not normal.any():
            normal = np.ones(len(holdout), dtype=bool)
    else:
        labels = None
        normal = np.ones(len(holdout), dtype=bool)
    inc_rate = float((inc_scores > inc_threshold)[normal].mean())
    cand_rate = float((cand_scores > cand_threshold)[normal].mean())

    # A firehose incumbent (false-alarm storm on the holdout — the very
    # state that triggered the retrain) gets nonzero PA%K / affiliation
    # F1 from recall alone, so "don't regress vs the incumbent" would
    # be vacuous; such an incumbent is judged by the alert-rate gate.
    labeled = labels is not None and inc_rate <= max_alert_rate
    if labeled:
        inc_pred = (inc_scores > inc_threshold).astype(np.int64)
        cand_pred = (cand_scores > cand_threshold).astype(np.int64)
        inc_metrics = {
            "pa_k_f1_auc": pa_k_auc(inc_pred, labels).f1_auc,
            "affiliation_f1": affiliation_metrics(inc_pred, labels).f1,
            "alert_rate": inc_rate,
        }
        cand_metrics = {
            "pa_k_f1_auc": pa_k_auc(cand_pred, labels).f1_auc,
            "affiliation_f1": affiliation_metrics(cand_pred, labels).f1,
            "alert_rate": cand_rate,
        }
        regressions = [
            name
            for name in ("pa_k_f1_auc", "affiliation_f1")
            if cand_metrics[name] < inc_metrics[name] - metric_margin
        ]
        promote = not regressions
        reason = (
            "candidate within margin on the paper metric suite"
            if promote
            else "candidate regresses " + ", ".join(regressions)
        )
        return ShadowReport(
            mode="labeled",
            promote=promote,
            reason=reason,
            incumbent=inc_metrics,
            candidate=cand_metrics,
        )

    inc_metrics = {"alert_rate": inc_rate}
    cand_metrics = {"alert_rate": cand_rate}
    if cand_rate > max_alert_rate:
        promote, reason = False, (
            f"candidate false-alarm rate {cand_rate:.2f} exceeds cap {max_alert_rate:.2f}"
        )
    elif cand_rate > inc_rate + metric_margin:
        promote, reason = False, (
            f"candidate alerts more than the incumbent on recent data "
            f"({cand_rate:.2f} > {inc_rate:.2f})"
        )
    else:
        promote, reason = True, (
            f"candidate finds recent data normal "
            f"(alert rate {cand_rate:.2f} vs incumbent {inc_rate:.2f})"
        )
    return ShadowReport(
        mode="label-free",
        promote=promote,
        reason=reason,
        incumbent=inc_metrics,
        candidate=cand_metrics,
    )


# ----------------------------------------------------------------------
# Decisions and the audit trail
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptationDecision:
    """One journaled verdict of the retrain loop.

    ``action`` is ``promoted``, ``rejected`` (shadow gate said no),
    ``failed`` (every guarded retrain attempt errored or blew its
    budget), or ``rolled_back`` (post-promotion probation tripped).
    """

    stream_id: str
    at_index: int
    action: str
    reason: str
    trigger: dict | None = None
    shadow: dict | None = None
    incumbent: str | None = None
    candidate: str | None = None
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "at_index": self.at_index,
            "action": self.action,
            "reason": self.reason,
            "trigger": self.trigger,
            "shadow": self.shadow,
            "incumbent": self.incumbent,
            "candidate": self.candidate,
            "elapsed_s": self.elapsed_s,
        }


class AdaptationJournal:
    """JSONL audit trail of every adaptation decision.

    With a ``path`` each decision is durably appended through
    :func:`repro.runtime.journal.append` the moment it is made, and
    :func:`repro.runtime.journal.load` reads the trail back; without a
    path the journal is in-memory only.  ``entries`` always holds the
    dictionaries in order.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = path
        self.entries: list[dict] = []

    def record(self, decision: AdaptationDecision) -> None:
        entry = decision.as_dict()
        self.entries.append(entry)
        if self.path is not None:
            journal.append(self.path, entry)


@dataclass(frozen=True)
class AdaptConfig:
    """Tunables for one :class:`AdaptiveController`.

    Attributes
    ----------
    history_points:
        Per-stream ring of recent raw points retraining draws from.
    min_history:
        Points a stream must have banked before a retrain is attempted.
    holdout_fraction:
        Tail fraction of the history held out for shadow evaluation
        (the candidate never trains on it).
    settle_points:
        Points to wait after a drift signal before retraining, so the
        history ring fills with the *new* regime instead of a pre/post
        mixture.
    cooldown_points:
        Minimum points between retrain attempts on one stream.
    backoff_factor:
        Multiplier applied to the cooldown after each failed/rejected
        attempt (exponential backoff against retrain storms).
    budget_seconds:
        :class:`~repro.runtime.RunBudget` wall-clock cap per retrain
        attempt; an overrunning fit counts as a failed attempt.
    max_retries:
        Extra retrain attempts per decision, deterministically reseeded
        through :meth:`~repro.runtime.RetryPolicy.reseed`.
    metric_margin / max_alert_rate / alert_sigma:
        Shadow-evaluation gate knobs (see :func:`shadow_evaluate`).
    probation_points / probation_alert_cap:
        Post-promotion watch: if more than ``probation_alert_cap`` of
        the stream's scored windows alert within ``probation_points``
        points, the promotion is rolled back.
    seed:
        Base seed handed to the trainer factory (reseeded per attempt).
    """

    history_points: int = 2048
    min_history: int = 256
    holdout_fraction: float = 0.25
    settle_points: int = 256
    cooldown_points: int = 512
    backoff_factor: float = 2.0
    budget_seconds: float | None = 60.0
    max_retries: int = 1
    metric_margin: float = 0.05
    max_alert_rate: float = 0.2
    alert_sigma: float = 3.0
    probation_points: int = 512
    probation_alert_cap: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.min_history < 8:
            raise ValueError("min_history must be >= 8")
        if self.history_points < self.min_history:
            raise ValueError("history_points must be >= min_history")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 < self.probation_alert_cap <= 1.0:
            raise ValueError("probation_alert_cap must be in (0, 1]")


@dataclass
class _Probation:
    """Watch window for one freshly promoted model."""

    stream_id: str
    version: int
    previous_version: int
    started_at: int
    points: int = 0
    alerts: int = 0


class AdaptiveController:
    """Background retraining controller closing the drift loop.

    Wrap the engine's ingestion path::

        controller = AdaptiveController(engine, trainer_factory=moment_trainer())
        for stream_id, value in feed:
            for alert in controller.ingest(stream_id, value):
                handle(alert)

    The controller is synchronous and single-threaded by design: a
    retrain runs inline on the ingesting thread (bounded by
    ``budget_seconds``), which keeps the failure semantics exact — the
    incumbent serves every batch before and after, and a candidate that
    dies can never leave the engine in a half-swapped state.

    Parameters
    ----------
    engine:
        The :class:`~repro.serve.engine.ScoringEngine` to ingest
        through.  Its registry and drift monitor are used directly.
    trainer_factory:
        ``(history, seed) -> WindowScorer`` fitting a candidate on
        recent raw points.  See :func:`moment_trainer` /
        :func:`triad_trainer`.
    label_oracle:
        Optional ``(stream_id, start, end) -> labels`` hook the replay
        harness wires from dataset labels, enabling the labeled shadow
        gate.  ``None`` (production) uses the label-free gate.
    journal_path:
        JSONL audit-trail destination (see :class:`AdaptationJournal`).
    """

    def __init__(
        self,
        engine: ScoringEngine,
        trainer_factory: TrainerFactory,
        config: AdaptConfig | None = None,
        label_oracle: Callable[[str, int, int], np.ndarray | None] | None = None,
        journal_path: str | os.PathLike | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if engine.drift is None:
            raise ValueError(
                "AdaptiveController needs an engine with a drift monitor "
                "(build_engine(..., monitor_drift=True))"
            )
        self.engine = engine
        self.registry = engine.registry
        self.config = config or AdaptConfig()
        self.trainer_factory = trainer_factory
        self.label_oracle = label_oracle
        self.journal = AdaptationJournal(journal_path)
        self.guard = DivergenceGuard()
        self.policy = RetryPolicy(max_retries=self.config.max_retries)
        self._clock = clock or time.monotonic
        # Live reference to the drift monitor's flag set (mutated in
        # place, never rebound) so the per-point check is one set test.
        self._drift_flags = engine.drift.flagged_streams
        self._history: dict[str, RingBuffer] = {}
        self._count: dict[str, int] = {}
        self._next_allowed: dict[str, int] = {}
        self._failures: dict[str, int] = {}
        self._probation: _Probation | None = None
        self.decisions: list[AdaptationDecision] = []

    # ------------------------------------------------------------------
    # Ingestion wrapper
    # ------------------------------------------------------------------
    def ingest(self, stream_id: str, value: float) -> list[StreamAlert]:
        """Feed one point through the engine and run the adapt loop."""
        count = self._count.get(stream_id, 0) + 1
        self._count[stream_id] = count
        history = self._history.get(stream_id)
        if history is None:
            history = self._history[stream_id] = RingBuffer(self.config.history_points)
        history.append(float(value))
        alerts = self.engine.ingest(stream_id, value)
        # Hot path: the controller adds one ring append and two cheap
        # membership tests per point; the heavier probation / retrain
        # machinery only runs once something is armed.
        if self._probation is not None:
            self._watch_probation(stream_id, alerts)
        if stream_id in self._drift_flags:
            self._maybe_adapt(stream_id, count, history)
        return alerts

    def drain(self) -> list[StreamAlert]:
        """Flush the engine's queue (end of stream / shutdown)."""
        return self.engine.drain()

    # ------------------------------------------------------------------
    # The retrain loop
    # ------------------------------------------------------------------
    def _primary_name(self) -> str:
        chain = self.registry.chain
        if not chain:
            raise ValueError("registry has an empty chain; nothing to adapt")
        return chain[0]

    def _maybe_adapt(self, stream_id: str, count: int, history: RingBuffer) -> None:
        drift = self.engine.drift
        if not drift.retrain_recommended(stream_id):
            return
        if count < self._next_allowed.get(stream_id, 0):
            return
        if len(history) < self.config.min_history:
            return
        trigger = drift.last_signal(stream_id)
        if trigger is not None and count < trigger.at_index + self.config.settle_points:
            return
        decision = self._adapt(stream_id, count, history.view(), trigger)
        self._record(decision)
        if decision.action == "promoted":
            self._failures.pop(stream_id, None)
            cooldown = self.config.cooldown_points
        else:
            failures = self._failures.get(stream_id, 0) + 1
            self._failures[stream_id] = failures
            cooldown = int(
                self.config.cooldown_points * self.config.backoff_factor ** failures
            )
        self._next_allowed[stream_id] = count + cooldown

    def _adapt(
        self,
        stream_id: str,
        at_index: int,
        history: np.ndarray,
        trigger: DriftSignal | None,
    ) -> AdaptationDecision:
        config = self.config
        engine_config = self.engine.config
        started = self._clock()
        incumbent_entry = self.registry.active_entry(self._primary_name())
        trigger_dict = trigger.as_dict() if trigger is not None else None

        holdout_len = max(
            int(len(history) * config.holdout_fraction),
            engine_config.window_length + engine_config.stride,
        )
        train_slice = history[:-holdout_len]
        holdout = history[-holdout_len:]

        candidate, last_error = None, "no attempt ran"
        for attempt in range(self.policy.attempts()):
            seed = self.policy.reseed(config.seed, attempt)
            budget = RunBudget(max_seconds=config.budget_seconds, clock=self._clock)
            try:
                with obs.span("serve.adapt.retrain", stream=stream_id, attempt=attempt):
                    fitted = self.trainer_factory(train_slice, seed)
                budget.check_time()
                candidate = fitted
                break
            except (KeyboardInterrupt, SystemExit):
                raise
            except BudgetExceededError as error:
                last_error = f"retrain blew its wall budget: {error}"
                obs.incr("serve.adapt.budget_overruns")
            except Exception as error:  # noqa: BLE001 - guardrail boundary
                last_error = repr(error)
                obs.incr("serve.adapt.retrain_errors")

        if candidate is None:
            obs.event("serve.adapt.failed", stream=stream_id, error=last_error)
            return AdaptationDecision(
                stream_id=stream_id,
                at_index=at_index,
                action="failed",
                reason=last_error,
                trigger=trigger_dict,
                incumbent=incumbent_entry.key(),
                elapsed_s=self._clock() - started,
            )

        labels = (
            self.label_oracle(stream_id, at_index - len(holdout), at_index)
            if self.label_oracle is not None
            else None
        )
        try:
            shadow = shadow_evaluate(
                incumbent_entry.scorer,
                candidate,
                holdout,
                window_length=engine_config.window_length,
                stride=engine_config.stride,
                labels=labels,
                metric_margin=config.metric_margin,
                max_alert_rate=config.max_alert_rate,
                alert_sigma=config.alert_sigma,
            )
        except Exception as error:  # noqa: BLE001 - a broken candidate must not serve
            shadow = ShadowReport(
                mode="guard",
                promote=False,
                reason=f"shadow evaluation raised: {error!r}",
            )
        if shadow.mode == "guard":
            # Non-finite candidate scores are divergence: consume one
            # DivergenceGuard rollback so a stream that keeps producing
            # diverging candidates eventually backs off hard.
            self.guard.assess(float("nan"))

        if not shadow.promote:
            obs.event("serve.adapt.rejected", stream=stream_id, reason=shadow.reason)
            return AdaptationDecision(
                stream_id=stream_id,
                at_index=at_index,
                action="rejected",
                reason=shadow.reason,
                trigger=trigger_dict,
                shadow=shadow.as_dict(),
                incumbent=incumbent_entry.key(),
                elapsed_s=self._clock() - started,
            )

        previous_version = self.registry.active_version(incumbent_entry.name)
        entry = self.registry.register(candidate, name=incumbent_entry.name)
        self.registry.promote(entry.name, entry.version)
        self.registry.reset_chain()
        # The model changed for every stream: clear every drift flag and
        # reference so stale pre-promotion windows cannot immediately
        # re-trigger a retrain storm, and drop alert baselines so the
        # engine re-seeds them from the new model's calibration.
        for flagged in self.engine.drift.flagged:
            self.engine.drift.acknowledge(flagged)
        self.engine.drift.model_changed()
        self.engine.reset_alert_baselines()
        self._probation = _Probation(
            stream_id=stream_id,
            version=entry.version,
            previous_version=previous_version,
            started_at=at_index,
        )
        obs.event(
            "serve.adapt.promoted",
            stream=stream_id,
            model=entry.key(),
            mode=shadow.mode,
        )
        return AdaptationDecision(
            stream_id=stream_id,
            at_index=at_index,
            action="promoted",
            reason=shadow.reason,
            trigger=trigger_dict,
            shadow=shadow.as_dict(),
            incumbent=incumbent_entry.key(),
            candidate=entry.key(),
            elapsed_s=self._clock() - started,
        )

    # ------------------------------------------------------------------
    # Post-promotion probation
    # ------------------------------------------------------------------
    def _watch_probation(self, stream_id: str, alerts: Sequence[StreamAlert]) -> None:
        probation = self._probation
        if probation is None:
            return
        if stream_id == probation.stream_id:
            probation.points += 1
        probation.alerts += sum(
            1 for alert in alerts if alert.stream_id == probation.stream_id
        )
        expected_windows = max(probation.points // self.engine.config.stride, 1)
        cap = max(int(self.config.probation_alert_cap * expected_windows), 1)
        if probation.alerts > cap and probation.points >= self.engine.config.stride:
            self._rollback(probation)
            return
        if probation.points >= self.config.probation_points:
            self._probation = None  # survived probation

    def _rollback(self, probation: _Probation) -> None:
        name = self._primary_name()
        self.registry.promote(name, probation.previous_version)
        self.engine.reset_alert_baselines()
        self.engine.drift.model_changed()
        self._probation = None
        failures = self._failures.get(probation.stream_id, 0) + 1
        self._failures[probation.stream_id] = failures
        count = self._count.get(probation.stream_id, 0)
        self._next_allowed[probation.stream_id] = count + int(
            self.config.cooldown_points * self.config.backoff_factor ** failures
        )
        obs.event(
            "serve.adapt.rolled_back",
            stream=probation.stream_id,
            version=probation.version,
        )
        self._record(
            AdaptationDecision(
                stream_id=probation.stream_id,
                at_index=count,
                action="rolled_back",
                reason=(
                    f"alert rate went pathological during probation "
                    f"({probation.alerts} alerts in {probation.points} points)"
                ),
                incumbent=f"{name}@v{probation.previous_version}",
                candidate=f"{name}@v{probation.version}",
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _record(self, decision: AdaptationDecision) -> None:
        self.decisions.append(decision)
        self.journal.record(decision)
        obs.incr(f"serve.adapt.{decision.action}")

    def timeline(self) -> list[dict]:
        """JSON-ready decision history (rendered by ``ReplayReport``)."""
        return [decision.as_dict() for decision in self.decisions]
