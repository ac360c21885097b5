"""Adapters between the three canonical contracts.

One fitted model, any workload:

- :func:`from_triad` — a fitted :class:`repro.core.TriAD` as a
  :class:`~repro.pipeline.contracts.WindowScorer` for the serving
  chain (this is the scorer ``serve.registry`` re-exports as
  ``TriADWindowScorer``).
- :func:`from_baseline` — any fitted
  :class:`~repro.pipeline.contracts.ScoringDetector` (every
  ``repro.baselines`` detector) as a ``WindowScorer``, so the
  degradation chain can host baselines.
- :func:`from_window_scorer` — any ``WindowScorer`` as an offline
  ``Detector``/``ScoringDetector``, so serving-chain entries can be
  evaluated with ``run_on_archive``/``run_scores_on_archive`` under the
  paper's metric suite.

Everything is duck-typed against the contracts — this module imports
nothing from ``core``, ``baselines``, or ``serve`` at module level, so
the pipeline layer stays below all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import WindowScorer
from .feature_pipeline import FeaturePipeline, default_pipeline
from .scores import calibrate_threshold, spread_window_scores

__all__ = [
    "TriADWindowScorer",
    "BaselineWindowScorer",
    "WindowScorerDetector",
    "from_triad",
    "from_baseline",
    "from_window_scorer",
]


class TriADWindowScorer(WindowScorer):
    """Scores windows by representation-space distance to training data.

    At construction every training window is encoded once per domain;
    at serve time the whole cross-stream batch goes through one batched
    encoder forward per domain (in the row tiles of
    :meth:`repro.core.TriAD.representations`) and each window's score is
    its mean (over domains) nearest-neighbour distance to the training
    representations — the online analogue of TriAD's stage-2
    single-window selection.  Scores are row-independent in bits: a
    window scores the same in a batch of any size.

    Training windows come from the public
    :meth:`repro.core.TriAD.train_windows` accessor, which shares the
    feature pipeline's window cache with the trainer — no private-state
    reach, no re-windowing.
    """

    name = "triad-encoder"

    def __init__(self, detector, train_stride: int | None = None) -> None:
        plan = detector.plan  # raises RuntimeError if not fit — fail at build time
        self._detector = detector
        self.window_length = int(plan.length)
        stride = train_stride or plan.stride
        train_windows, _ = detector.train_windows(stride=stride)
        self._train_reps = detector.representations(train_windows, cached=True)
        self._train_norms = {
            d: (r**2).sum(axis=1) for d, r in self._train_reps.items()
        }
        self._calibration: np.ndarray | None = None

    def score_windows(self, windows, batch) -> np.ndarray:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        if windows.shape[1] != self.window_length:
            raise ValueError(
                f"expected windows of length {self.window_length}, "
                f"got {windows.shape[1]}"
            )
        reps = self._detector.representations(windows)
        scores = np.zeros(len(windows))
        for domain, r in reps.items():
            train = self._train_reps[domain]
            # Nearest-neighbour distance via the dot-product identity.  The
            # dots are one stacked (1, length) @ (length, n_train) product
            # per window: unlike one batch GEMM, its rounding does not
            # depend on the row count, so a window scores the same bits in
            # any batch.
            dots = np.matmul(r[:, None, :], train.T)[:, 0, :]
            sq = (
                (r**2).sum(axis=1)[:, None]
                + self._train_norms[domain][None, :]
                - 2.0 * dots
            )
            scores += np.sqrt(np.maximum(sq.min(axis=1), 0.0))
        return scores / max(len(reps), 1)

    def calibration_scores(self, length: int, stride: int) -> np.ndarray:
        """Leave-one-out NN distances among the training representations
        — the score distribution this model produces on normal data."""
        if self._calibration is None:
            total = None
            for domain, train in self._train_reps.items():
                norms = self._train_norms[domain]
                sq = norms[:, None] + norms[None, :] - 2.0 * (train @ train.T)
                np.fill_diagonal(sq, np.inf)
                distances = np.sqrt(np.maximum(sq.min(axis=1), 0.0))
                total = distances if total is None else total + distances
            self._calibration = total / max(len(self._train_reps), 1)
        return self._calibration


class BaselineWindowScorer(WindowScorer):
    """Serve any fitted :class:`ScoringDetector` as a window scorer.

    A window's score is the *peak* point score the wrapped detector
    assigns inside it — the statistic an alerting pipeline cares about.
    Calibration windows come from the detector's public
    ``train_series`` (when exposed) through the shared pipeline cache.
    """

    def __init__(self, detector, pipeline: FeaturePipeline | None = None) -> None:
        self._detector = detector
        self._pipeline = pipeline or default_pipeline()
        self.name = getattr(detector, "name", type(detector).__name__)
        self._calibration: dict[tuple[int, int], np.ndarray] = {}

    def score_windows(self, windows, batch) -> np.ndarray:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        scores = np.empty(len(windows))
        for i, window in enumerate(windows):
            scores[i] = float(np.max(self._detector.score_series(window)))
        return scores

    def calibration_scores(self, length: int, stride: int) -> np.ndarray | None:
        try:
            train = self._detector.train_series
        except (AttributeError, RuntimeError):  # no accessor, or not fit yet
            return None
        if train is None or len(train) < length:
            return None
        key = (length, stride)
        if key not in self._calibration:
            windows, _ = self._pipeline.windows(np.asarray(train), length, stride)
            self._calibration[key] = self.score_windows(windows, ())
        return self._calibration[key]


@dataclass
class _OfflineWindow:
    """Stand-in for :class:`repro.serve.stream.ReadyWindow` so stateful
    window scorers (per-stream detectors) work outside the engine."""

    stream_id: str
    end_index: int
    window: np.ndarray
    mean: float
    std: float

    @property
    def start_index(self) -> int:
        return self.end_index - len(self.window)


class WindowScorerDetector:
    """Evaluate any :class:`WindowScorer` offline against the archive.

    Satisfies both ``Detector`` and ``ScoringDetector``: ``score_series``
    windows the series, scores every window in one batch, and spreads
    window scores back to points; ``predict`` thresholds at
    mean + ``threshold_sigma``·std of the training-series scores (the
    same label-free calibration baselines use).  This is how a serving
    degradation-chain entry gets paper-protocol numbers.
    """

    def __init__(
        self,
        scorer: WindowScorer,
        window_length: int,
        stride: int,
        threshold_sigma: float = 3.0,
        pipeline: FeaturePipeline | None = None,
    ) -> None:
        self.scorer = scorer
        self.window_length = int(window_length)
        self.stride = int(stride)
        self.threshold_sigma = threshold_sigma
        self.name = getattr(scorer, "name", type(scorer).__name__)
        self._pipeline = pipeline or default_pipeline()
        self._train_series: np.ndarray | None = None
        self._replays = 0

    def fit(self, train_series: np.ndarray) -> "WindowScorerDetector":
        self._train_series = np.asarray(train_series, dtype=np.float64)
        return self

    def _batch(self, windows: np.ndarray, starts: np.ndarray, tag: str):
        return [
            _OfflineWindow(
                stream_id=tag,
                end_index=int(start) + len(window),
                window=window,
                mean=float(window.mean()),
                std=float(window.std()),
            )
            for window, start in zip(windows, starts)
        ]

    def score_series(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64)
        length = min(self.window_length, len(series))
        windows, starts = self._pipeline.windows(series, length, self.stride)
        # A fresh stream id per replay keeps stateful (per-stream)
        # scorers from mixing this series with a previous one.
        self._replays += 1
        batch = self._batch(windows, starts, f"{self.name}-offline-{self._replays}")
        scores = np.asarray(
            self.scorer.score_windows(windows, batch), dtype=np.float64
        )
        return spread_window_scores(scores, starts, length, len(series))

    def predict(self, test_series: np.ndarray) -> np.ndarray:
        if self._train_series is None:
            raise RuntimeError(f"{self.name} must be fit() before predict()")
        test_scores = self.score_series(np.asarray(test_series, dtype=np.float64))
        train_scores = self.score_series(self._train_series)
        threshold = calibrate_threshold(train_scores, self.threshold_sigma)
        predictions = (test_scores > threshold).astype(np.int64)
        if not predictions.any():
            predictions[int(np.argmax(test_scores))] = 1
        return predictions


def from_triad(detector, train_stride: int | None = None) -> TriADWindowScorer:
    """A fitted :class:`repro.core.TriAD` as a serving window scorer."""
    return TriADWindowScorer(detector, train_stride=train_stride)


def from_baseline(
    detector, pipeline: FeaturePipeline | None = None
) -> BaselineWindowScorer:
    """A fitted scoring detector as a serving window scorer."""
    return BaselineWindowScorer(detector, pipeline=pipeline)


def from_window_scorer(
    scorer: WindowScorer,
    window_length: int,
    stride: int,
    threshold_sigma: float = 3.0,
    pipeline: FeaturePipeline | None = None,
) -> WindowScorerDetector:
    """A serving window scorer as an offline archive detector."""
    return WindowScorerDetector(
        scorer,
        window_length=window_length,
        stride=stride,
        threshold_sigma=threshold_sigma,
        pipeline=pipeline,
    )
