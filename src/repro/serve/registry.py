"""Versioned model registry with hot-swap and graceful degradation.

The registry holds *window scorers* — anything that maps a batch of raw
windows to one anomaly score per window — keyed by name and version.
Promoting a version hot-swaps what the engine scores with on the next
batch; no stream state is lost.

Degradation is a circuit-breaker chain: scorers are tried in chain
order, and an entry that keeps erroring (or keeps blowing its latency
budget, timed through :class:`repro.runtime.RunBudget`) trips and is
skipped until :meth:`ModelRegistry.reset`.  The intended production
chain mirrors the model-quality ladder::

    TriAD encoder  ->  spectral residual  ->  streaming discord

i.e. learned representations first, a training-free frequency method
second (:class:`repro.baselines.spectral_residual.
SpectralResidualWindowScorer`, the scorer the job registry builds under
the same name), and the DAMP-style :class:`~repro.discord.streaming.
StreamingDiscordDetector` as the last-resort detector that can never
refuse a stream.  Retries within one entry follow the installed
:class:`repro.runtime.RetryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..discord.streaming import BASELINE_WINDOW, StreamingDiscordDetector
from ..pipeline import TriADWindowScorer, WindowScorer
from ..runtime import RetryPolicy, RunBudget
from .stream import ReadyWindow

__all__ = [
    "WindowScorer",
    "TriADWindowScorer",
    "DiscordWindowScorer",
    "ModelEntry",
    "ModelRegistry",
    "DegradationExhaustedError",
]


class DegradationExhaustedError(RuntimeError):
    """Every scorer in the degradation chain is tripped or failed."""


# The window-scoring contract and the TriAD adapter are defined in the
# pipeline layer (repro.pipeline.contracts / repro.pipeline.adapters)
# and re-exported here so existing serve-facing imports keep working.


class DiscordWindowScorer(WindowScorer):
    """Last-resort fallback built on the streaming discord detector.

    Keeps one :class:`StreamingDiscordDetector` per stream, feeds it the
    *new* points of each window (windows overlap by ``length - stride``)
    and scores the window as the largest left-NN distance those points
    produced.  Warms up from cold after a failover: early windows score
    0 until each stream's detector has seen ``warmup`` subsequences —
    the stream keeps flowing, it just alerts conservatively at first.
    """

    name = "streaming-discord"

    def __init__(
        self,
        subsequence_length: int = 16,
        warmup: int = 8,
        max_history: int = 512,
        calibration_series: np.ndarray | None = None,
        baseline_window: int = BASELINE_WINDOW,
    ) -> None:
        self.subsequence_length = subsequence_length
        self.warmup = warmup
        self.max_history = max_history
        # Trailing left-NN distances each per-stream detector keeps for
        # its alert baseline (passed through to the detector, which
        # validates it against the subsequence length).
        self.baseline_window = baseline_window
        self._calibration_series = (
            np.asarray(calibration_series, dtype=np.float64)
            if calibration_series is not None
            else None
        )
        self._calibration_distances: np.ndarray | None = None
        self._detectors: dict[str, StreamingDiscordDetector] = {}
        self._fed: dict[str, int] = {}

    def calibration_scores(self, length: int, stride: int) -> np.ndarray | None:
        if self._calibration_series is None:
            return None
        if self._calibration_distances is None:
            probe = StreamingDiscordDetector(
                length=self.subsequence_length,
                warmup=max(self.warmup, 2),
                max_history=self.max_history,
                baseline_window=self.baseline_window,
            )
            for value in self._calibration_series:
                probe.update(float(value))
            self._calibration_distances = np.asarray(
                probe._distances, dtype=np.float64
            )
        distances = self._calibration_distances
        if len(distances) < stride:
            return None
        # A live window score is the max left-NN distance over its ~stride
        # new subsequences; aggregate the calibration stream identically
        # so the seeded baseline sits on the same scale.
        blocks = len(distances) // stride
        trimmed = distances[: blocks * stride].reshape(blocks, stride)
        return trimmed.max(axis=1)

    def _detector_for(self, stream_id: str) -> StreamingDiscordDetector:
        detector = self._detectors.get(stream_id)
        if detector is None:
            detector = StreamingDiscordDetector(
                length=self.subsequence_length,
                warmup=max(self.warmup, 2),
                max_history=self.max_history,
                baseline_window=self.baseline_window,
            )
            self._detectors[stream_id] = detector
        return detector

    def score_windows(
        self, windows: np.ndarray, batch: Sequence[ReadyWindow]
    ) -> np.ndarray:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        scores = np.zeros(len(windows))
        for i, ready in enumerate(batch):
            detector = self._detector_for(ready.stream_id)
            fed = self._fed.get(ready.stream_id, ready.start_index)
            fresh = ready.window[-(ready.end_index - fed) :] if ready.end_index > fed else ()
            before = detector._distances_seen
            for value in fresh:
                detector.update(float(value))
            recorded = detector._distances_seen - before
            if recorded:
                scores[i] = max(detector._distances[-recorded:])
            self._fed[ready.stream_id] = max(fed, ready.end_index)
        return scores


@dataclass
class ModelEntry:
    """One (name, version) scorer plus its circuit-breaker state."""

    name: str
    version: int
    scorer: WindowScorer
    latency_budget: float | None = None
    max_failures: int = 3
    failures: int = field(default=0, init=False)
    tripped: bool = field(default=False, init=False)
    last_error: str | None = field(default=None, init=False)
    calls: int = field(default=0, init=False)

    def key(self) -> str:
        return f"{self.name}@v{self.version}"


class ModelRegistry:
    """Versioned scorers, an active pointer per name, and the chain.

    Parameters
    ----------
    policy:
        :class:`repro.runtime.RetryPolicy` governing in-entry retries
        (``attempts()`` tries per batch before degrading past an entry).
        The default never retries: one error moves straight down the
        chain, which is the right call under a latency budget.
    clock:
        Monotonic time source handed to the per-call
        :class:`~repro.runtime.RunBudget`; injectable for tests.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        self.policy = policy or RetryPolicy(max_retries=0)
        self._clock = clock or time.perf_counter
        self._versions: dict[str, dict[int, ModelEntry]] = {}
        self._active: dict[str, int] = {}
        self._chain: list[str] = []

    # ------------------------------------------------------------------
    # Registration and hot-swap
    # ------------------------------------------------------------------
    def register(
        self,
        scorer: WindowScorer,
        name: str | None = None,
        version: int | None = None,
        latency_budget: float | None = None,
        max_failures: int = 3,
        chain: bool = True,
    ) -> ModelEntry:
        """Add a scorer version.  The first version of a name is promoted
        automatically; later versions wait for :meth:`promote` (hot-swap
        is an explicit act).  ``chain=True`` appends the name to the
        degradation chain if it is not already on it."""
        name = name or scorer.name
        versions = self._versions.setdefault(name, {})
        if version is None:
            version = max(versions, default=0) + 1
        if version in versions:
            raise ValueError(f"{name} v{version} is already registered")
        entry = ModelEntry(
            name=name,
            version=version,
            scorer=scorer,
            latency_budget=latency_budget,
            max_failures=max_failures,
        )
        versions[version] = entry
        if name not in self._active:
            self._active[name] = version
        if chain and name not in self._chain:
            self._chain.append(name)
        return entry

    def promote(self, name: str, version: int) -> ModelEntry:
        """Hot-swap the active version of ``name``; clears its breaker."""
        entry = self._entry(name, version)
        self._active[name] = version
        entry.tripped = False
        entry.failures = 0
        obs.event("serve.promote", model=name, version=version)
        return entry

    def reset(self, name: str) -> ModelEntry:
        """Re-arm a tripped model (e.g. after retraining)."""
        entry = self.active_entry(name)
        entry.tripped = False
        entry.failures = 0
        return entry

    def reset_chain(self) -> None:
        """Re-arm every entry on the degradation chain.  Called after a
        promotion: the freshly promoted primary is healthy again, so
        fallbacks tripped while it was degraded get a clean slate too."""
        for name in self._chain:
            self.reset(name)

    def active_version(self, name: str) -> int:
        """The currently promoted version of ``name`` (for rollback)."""
        if name not in self._active:
            raise KeyError(f"no registered model named {name!r}")
        return self._active[name]

    def _entry(self, name: str, version: int) -> ModelEntry:
        try:
            return self._versions[name][version]
        except KeyError:
            raise KeyError(f"no registered model {name} v{version}") from None

    def active_entry(self, name: str) -> ModelEntry:
        if name not in self._active:
            raise KeyError(f"no registered model named {name!r}")
        return self._versions[name][self._active[name]]

    def versions(self, name: str) -> list[int]:
        return sorted(self._versions.get(name, ()))

    # ------------------------------------------------------------------
    # The degradation chain
    # ------------------------------------------------------------------
    def set_chain(self, names: Sequence[str]) -> None:
        """Set the degradation order explicitly (all names must exist)."""
        for name in names:
            if name not in self._versions:
                raise KeyError(f"no registered model named {name!r}")
        self._chain = list(names)

    @property
    def chain(self) -> list[str]:
        return list(self._chain)

    def chain_entries(self) -> list[ModelEntry]:
        return [self.active_entry(name) for name in self._chain]

    def describe(self) -> list[dict]:
        """One status dict per chain entry (for reports and the CLI)."""
        out = []
        for position, entry in enumerate(self.chain_entries()):
            out.append(
                {
                    "position": position,
                    "model": entry.key(),
                    "tripped": entry.tripped,
                    "failures": entry.failures,
                    "calls": entry.calls,
                    "last_error": entry.last_error,
                }
            )
        return out

    # ------------------------------------------------------------------
    # Scoring with degradation
    # ------------------------------------------------------------------
    def score(
        self, windows: np.ndarray, batch: Sequence[ReadyWindow]
    ) -> tuple[np.ndarray, ModelEntry]:
        """Score a batch with the healthiest chain entry.

        Walks the chain; each non-tripped entry gets
        ``policy.attempts()`` tries.  An exception counts one failure; a
        latency-budget overrun also counts one failure *but the scores
        are still returned* (they are late, not wrong).  An entry whose
        failure streak reaches ``max_failures`` trips and is skipped
        until :meth:`reset` or :meth:`promote`.
        """
        if not self._chain:
            raise DegradationExhaustedError("registry has an empty chain")
        for position, entry in enumerate(self.chain_entries()):
            if entry.tripped:
                continue
            for _ in range(self.policy.attempts()):
                budget = (
                    RunBudget(max_seconds=entry.latency_budget, clock=self._clock)
                    if entry.latency_budget is not None
                    else None
                )
                entry.calls += 1
                try:
                    scores = np.asarray(
                        entry.scorer.score_windows(windows, batch), dtype=np.float64
                    )
                    if scores.shape != (len(windows),):
                        raise ValueError(
                            f"scorer {entry.key()} returned shape {scores.shape}, "
                            f"expected ({len(windows)},)"
                        )
                    if not np.all(np.isfinite(scores)):
                        raise ValueError(f"scorer {entry.key()} returned non-finite scores")
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:  # noqa: BLE001 - breaker boundary
                    self._record_failure(entry, error)
                    if entry.tripped:
                        break
                    continue
                overrun = False
                if budget is not None:
                    try:
                        budget.check_time()
                    except Exception as error:
                        # Late but valid: count toward the breaker, keep
                        # the scores so this batch is not wasted.
                        overrun = True
                        self._record_failure(entry, error)
                if not overrun:
                    entry.failures = 0
                if position > 0:
                    obs.incr("serve.fallback_batches")
                return scores, entry
        raise DegradationExhaustedError(
            "no healthy scorer left in chain: "
            + ", ".join(e.key() + (" [tripped]" if e.tripped else "") for e in self.chain_entries())
        )

    def _record_failure(self, entry: ModelEntry, error: BaseException) -> None:
        entry.failures += 1
        entry.last_error = repr(error)
        obs.incr(f"serve.model_errors.{entry.name}")
        if entry.failures >= entry.max_failures:
            entry.tripped = True
            obs.event("serve.model_tripped", model=entry.key(), error=repr(error))
