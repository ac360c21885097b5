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

Everything is duck-typed against the contracts — this module imports
nothing from ``core``, ``baselines``, or ``serve`` at module level, so
the pipeline layer stays below all three.
"""

from __future__ import annotations

import numpy as np

from .contracts import WindowScorer
from .feature_pipeline import FeaturePipeline, default_pipeline

__all__ = [
    "TriADWindowScorer",
    "BaselineWindowScorer",
    "from_triad",
    "from_baseline",
]


class TriADWindowScorer(WindowScorer):
    """Scores windows by representation-space distance to training data.

    The training windows' representations come from
    :meth:`repro.core.TriAD.train_representations`, which encodes them
    once per fitted detector and stride, however many scorers are built
    on it.  At serve time the whole cross-stream batch goes through one
    batched encoder forward per domain (in the row tiles of
    :meth:`repro.core.TriAD.representations`) and each window's score is
    its mean (over domains) nearest-neighbour distance to the training
    representations — the online analogue of TriAD's stage-2
    single-window selection.  Scores are row-independent in bits: a
    window scores the same in a batch of any size.
    """

    name = "triad-encoder"

    def __init__(self, detector, train_stride: int | None = None) -> None:
        plan = detector.plan  # raises RuntimeError if not fit — fail at build time
        self._detector = detector
        self.window_length = int(plan.length)
        self._train_reps = detector.train_representations(train_stride or plan.stride)
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


def from_triad(detector, train_stride: int | None = None) -> TriADWindowScorer:
    """A fitted :class:`repro.core.TriAD` as a serving window scorer."""
    return TriADWindowScorer(detector, train_stride=train_stride)


def from_baseline(
    detector, pipeline: FeaturePipeline | None = None
) -> BaselineWindowScorer:
    """A fitted scoring detector as a serving window scorer."""
    return BaselineWindowScorer(detector, pipeline=pipeline)
