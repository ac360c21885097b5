"""The serving layer's fixed fallback chain of window scorers.

The registry holds *window scorers* — anything that maps a batch of raw
windows to one anomaly score per window — in the order they were
registered.  That order is the degradation chain, and it never changes:
there are no versions, no promotion and no re-arming.

Each entry sits behind a circuit breaker.  An exception, a wrong-shaped
result or a non-finite score counts one failure and moves the batch to
the next entry; ``max_failures`` failures in a row trip the entry for
good.  Latency is not a failure here: the engine's adaptive batch limit
is the one response to a latency budget.  The standard chain
(:func:`repro.serve.replay.build_registry`) mirrors the model-quality
ladder::

    TriAD encoder  ->  spectral residual  ->  streaming discord

i.e. learned representations first, a training-free frequency method
second (:class:`repro.baselines.spectral_residual.
SpectralResidualWindowScorer`, the scorer the job registry builds under
the same name), and the DAMP-style :class:`~repro.discord.streaming.
StreamingDiscordDetector` as the last-resort detector that can never
refuse a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..discord.streaming import BASELINE_WINDOW, StreamingDiscordDetector
from ..pipeline import TriADWindowScorer, WindowScorer
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
    """One scorer on the fallback chain plus its circuit-breaker state."""

    name: str
    scorer: WindowScorer
    max_failures: int = 3
    failures: int = field(default=0, init=False)
    tripped: bool = field(default=False, init=False)
    last_error: str | None = field(default=None, init=False)
    calls: int = field(default=0, init=False)


class ModelRegistry:
    """A fixed, ordered fallback chain of scorers, one per name.

    Scorers are tried in registration order.  The chain never changes
    once built, and a tripped entry stays tripped for the registry's
    lifetime.
    """

    def __init__(self) -> None:
        self.entries: list[ModelEntry] = []

    def register(self, scorer: WindowScorer, max_failures: int = 3) -> ModelEntry:
        """Append ``scorer`` to the end of the chain under its own name."""
        if scorer.name in self.chain:
            raise ValueError(f"{scorer.name} is already registered")
        entry = ModelEntry(name=scorer.name, scorer=scorer, max_failures=max_failures)
        self.entries.append(entry)
        return entry

    @property
    def chain(self) -> list[str]:
        return [entry.name for entry in self.entries]

    def describe(self) -> list[dict]:
        """One status dict per chain entry (for reports and the CLI)."""
        return [
            {
                "position": position,
                "model": entry.name,
                "tripped": entry.tripped,
                "failures": entry.failures,
                "calls": entry.calls,
                "last_error": entry.last_error,
            }
            for position, entry in enumerate(self.entries)
        ]

    def score(
        self, windows: np.ndarray, batch: Sequence[ReadyWindow]
    ) -> tuple[np.ndarray, ModelEntry]:
        """Score a batch with the first healthy chain entry.

        Each non-tripped entry gets one try per batch.  An exception, a
        wrong shape or a non-finite score counts one failure and moves
        the batch down the chain; an entry whose failure streak reaches
        ``max_failures`` trips and is skipped from then on.  A success
        clears the streak.
        """
        if not self.entries:
            raise DegradationExhaustedError("registry has an empty chain")
        for position, entry in enumerate(self.entries):
            if entry.tripped:
                continue
            entry.calls += 1
            try:
                scores = np.asarray(
                    entry.scorer.score_windows(windows, batch), dtype=np.float64
                )
                if scores.shape != (len(windows),):
                    raise ValueError(
                        f"scorer {entry.name} returned shape {scores.shape}, "
                        f"expected ({len(windows)},)"
                    )
                if not np.all(np.isfinite(scores)):
                    raise ValueError(f"scorer {entry.name} returned non-finite scores")
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:  # noqa: BLE001 - breaker boundary
                self._record_failure(entry, error)
                continue
            entry.failures = 0
            if position > 0:
                obs.incr("serve.fallback_batches")
            return scores, entry
        raise DegradationExhaustedError(
            "no healthy scorer left in chain: "
            + ", ".join(e.name + (" [tripped]" if e.tripped else "") for e in self.entries)
        )

    def _record_failure(self, entry: ModelEntry, error: BaseException) -> None:
        entry.failures += 1
        entry.last_error = repr(error)
        obs.incr(f"serve.model_errors.{entry.name}")
        if entry.failures >= entry.max_failures:
            entry.tripped = True
            obs.event("serve.model_tripped", model=entry.name, error=repr(error))
