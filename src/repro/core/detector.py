"""The TriAD detector: end-to-end training and inference pipeline
(paper Fig. 4 and Sec. III-D).

Inference stages:

1. *Tri-window detection* — encode every test window in all three
   domains, cross-compare representations, and nominate the most
   deviant window per domain (up to three candidates).
2. *Single-window selection* — score each candidate by its distance to
   the closest training window; the farthest candidate wins.
3. *Discord discovery* — run MERLIN on a padded region around the
   chosen window over a range of anomaly lengths.
4. *Voting* — Eq. 8 votes plus the mean-vote threshold (with the
   Sec. IV-G discord-fail exception) yield point-wise predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..discord.distance import znorm_subsequences
from ..discord.merlin import MerlinResult, merlin
from ..pipeline import FeaturePipeline, default_pipeline
from ..signal.windows import WindowPlan
from ..validation import ensure_series
from .config import TriADConfig
from .encoder import TriDomainEncoder
from .scoring import VoteResult, score_votes
from .trainer import TrainResult, train_encoder

__all__ = ["TriAD", "TriADDetection"]


@dataclass
class TriADDetection:
    """Everything TriAD produces for one test series.

    Keeps intermediate artifacts (per-domain similarity curves, candidate
    windows, MERLIN discords, votes) so detections stay interpretable —
    the transparency the paper highlights in Sec. III-D.
    """

    predictions: np.ndarray
    window: tuple[int, int]
    candidate_windows: dict[str, tuple[int, int]]
    similarity: dict[str, np.ndarray]
    window_starts: np.ndarray
    window_length: int
    discords: MerlinResult
    search_region: tuple[int, int]
    votes: VoteResult

    @property
    def candidate_intervals(self) -> list[tuple[int, int]]:
        """Deduplicated candidate window spans (the 'up to three')."""
        unique = sorted(set(self.candidate_windows.values()))
        return unique

    def describe(self, labels: np.ndarray | None = None) -> str:
        """Human-readable report of this detection (see :mod:`repro.viz`)."""
        from ..viz import detection_report

        return detection_report(self, labels)


class TriAD:
    """Self-supervised tri-domain anomaly detector.

    Usage::

        detector = TriAD(TriADConfig(epochs=20))
        detector.fit(train_series)
        detection = detector.detect(test_series)
        detection.predictions  # point-wise 0/1 labels
    """

    def __init__(
        self,
        config: TriADConfig | None = None,
        pipeline: FeaturePipeline | None = None,
    ) -> None:
        self.config = config or TriADConfig()
        self._pipeline = pipeline if pipeline is not None else default_pipeline()
        self._result: TrainResult | None = None
        self._train_series: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, train_series: np.ndarray) -> "TriAD":
        """Train the tri-domain encoder on anomaly-free data."""
        self._train_series = ensure_series(
            train_series, "train_series", min_length=4 * self.config.min_window
        )
        self._result = train_encoder(
            self._train_series, self.config, pipeline=self._pipeline
        )
        return self

    @property
    def encoder(self) -> TriDomainEncoder:
        return self._fitted().encoder

    @property
    def plan(self) -> WindowPlan:
        return self._fitted().plan

    @property
    def pipeline(self) -> FeaturePipeline:
        """The window/feature pipeline this detector windows through."""
        return self._pipeline

    @property
    def train_losses(self) -> list[float]:
        return self._fitted().train_losses

    def train_windows(
        self, stride: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Public accessor for the training-series window set.

        Returns ``(windows, starts)`` under the fitted plan's length and
        ``stride`` (the plan stride when omitted), served through the
        shared pipeline cache — consumers like the serving registry's
        calibration no longer re-window private detector state.
        """
        plan = self.plan
        if self._train_series is None:
            raise RuntimeError("TriAD must be fit() before use")
        return self._pipeline.windows(
            self._train_series, plan.length, stride or plan.stride
        )

    def _fitted(self) -> TrainResult:
        if self._result is None:
            raise RuntimeError("TriAD must be fit() before use")
        return self._result

    # ------------------------------------------------------------------
    # Representations and similarity ranking
    # ------------------------------------------------------------------
    def representations(
        self, windows: np.ndarray, cached: bool = False
    ) -> dict[str, np.ndarray]:
        """Per-domain L2-normalized representations for given windows.

        ``cached=True`` memoizes the feature-extraction stage through
        the pipeline — use it for window sets that recur (the training
        set, a test series swept across seeds), not for one-off
        content like live serve batches.
        """
        result = self._fitted()
        if cached:
            features = self._pipeline.features(
                windows, result.plan.period, self.config.domains
            )
        else:
            features = self._pipeline.extract(
                windows, result.plan.period, self.config.domains
            )
        with nn.no_grad():
            encoded = result.encoder(features)
        return {domain: r.data for domain, r in encoded.items()}

    def window_similarity(
        self, windows: np.ndarray, cached: bool = False
    ) -> dict[str, np.ndarray]:
        """Mean pairwise cosine similarity of each window per domain.

        Low similarity marks a window as deviant within its domain —
        the signal behind Fig. 11's similarity curves.
        """
        reps = self.representations(windows, cached=cached)
        similarity: dict[str, np.ndarray] = {}
        for domain, r in reps.items():
            gram = r @ r.T
            count = len(r)
            if count < 2:
                similarity[domain] = np.zeros(count)
                continue
            np.fill_diagonal(gram, 0.0)
            similarity[domain] = gram.sum(axis=1) / (count - 1)
        return similarity

    # ------------------------------------------------------------------
    # Inference pipeline
    # ------------------------------------------------------------------
    def _similarity_profile(
        self, test_series: np.ndarray
    ) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
        """Window the series (cached) and rank every window per domain."""
        plan = self.plan
        windows, starts = self._pipeline.windows(test_series, plan.length, plan.stride)
        similarity = self.window_similarity(windows, cached=True)
        return similarity, starts, plan.length

    @staticmethod
    def _candidates_from(
        similarity: dict[str, np.ndarray], starts: np.ndarray, length: int
    ) -> dict[str, tuple[int, int]]:
        candidates: dict[str, tuple[int, int]] = {}
        for domain, scores in similarity.items():
            index = int(np.argmin(scores))
            start = int(starts[index])
            candidates[domain] = (start, start + length)
        return candidates

    @staticmethod
    def _top_picks_from(
        similarity: dict[str, np.ndarray],
        starts: np.ndarray,
        length: int,
        z: int,
    ) -> dict[str, list[tuple[int, int]]]:
        nominations: dict[str, list[tuple[int, int]]] = {}
        for domain, scores in similarity.items():
            remaining = scores.astype(np.float64).copy()
            picks: list[tuple[int, int]] = []
            for _ in range(z):
                if not np.isfinite(remaining).any():
                    break
                index = int(np.argmin(remaining))
                start = int(starts[index])
                picks.append((start, start + length))
                # Suppress neighbors of the chosen window.
                near = np.abs(starts - start) < length
                remaining[near] = np.inf
            nominations[domain] = picks
        return nominations

    def nominate_windows(
        self, test_series: np.ndarray
    ) -> tuple[dict[str, tuple[int, int]], dict[str, np.ndarray], np.ndarray, int]:
        """Stage 1: the most deviant window per domain."""
        similarity, starts, length = self._similarity_profile(test_series)
        candidates = self._candidates_from(similarity, starts, length)
        return candidates, similarity, starts, length

    def nominate_top_windows(
        self, test_series: np.ndarray, z: int | None = None
    ) -> dict[str, list[tuple[int, int]]]:
        """Generalized stage 1: the top-``z`` deviant windows per domain.

        The paper sets Z=1 because each UCR test set hides one event;
        with ``z > 1`` each domain nominates its ``z`` least-similar,
        mutually non-adjacent windows (minima closer than one window
        length to an already-picked window are suppressed), supporting
        multi-event streams.
        """
        z = z or self.config.top_z
        similarity, starts, length = self._similarity_profile(test_series)
        return self._top_picks_from(similarity, starts, length, z)

    def select_window(
        self, test_series: np.ndarray, candidates: dict[str, tuple[int, int]]
    ) -> tuple[int, int]:
        """Stage 2: pick the candidate farthest from every training window."""
        train = self._train_series
        if train is None:
            raise RuntimeError("TriAD must be fit() before use")
        length = self.plan.length
        stride = self.config.train_stride or max(length // 8, 1)
        train_windows = znorm_subsequences(train, length)[::stride]

        best_window, best_distance = None, -np.inf
        for window in sorted(set(candidates.values())):
            start, end = window
            segment = test_series[start:end]
            z = (segment - segment.mean()) / max(segment.std(), 1e-8)
            distances = np.sqrt(
                np.maximum(((train_windows - z) ** 2).sum(axis=1), 0.0)
            )
            nearest = float(distances.min())
            if nearest > best_distance:
                best_distance = nearest
                best_window = window
        assert best_window is not None
        return best_window

    def search_region(
        self, test_length: int, window: tuple[int, int]
    ) -> tuple[int, int]:
        """Padded region around the window handed to MERLIN (Sec. IV-B2)."""
        length = self.plan.length
        padding = self.config.merlin_padding
        if padding is None:
            padding = length
        lo = max(window[0] - padding, 0)
        hi = min(window[1] + padding, test_length)
        return lo, hi

    def run_discord_search(
        self, test_series: np.ndarray, region: tuple[int, int]
    ) -> MerlinResult:
        """Stage 3: MERLIN over the padded region at varying lengths."""
        lo, hi = region
        segment = test_series[lo:hi]
        min_length = self.config.merlin_min_length
        max_length = self.config.merlin_max_length
        if max_length is None:
            max_length = min(self.plan.length, (hi - lo) // 2)
        step = self.config.merlin_step
        if step is None:
            step = max((max_length - min_length) // 24, 1)
        return merlin(segment, min_length, max_length, step=step)

    def detect(self, test_series: np.ndarray) -> TriADDetection:
        """Full inference: nominate, select, discord-search, vote."""
        test_series = ensure_series(
            test_series, "test_series", min_length=self.plan.length
        )
        # One windowing + one encoder pass feeds both the per-domain
        # argmin candidates and the top-Z nomination pool (the seed code
        # re-windowed and re-encoded the series for top_z > 1).
        similarity, starts, length = self._similarity_profile(test_series)
        candidates = self._candidates_from(similarity, starts, length)
        if self.config.top_z > 1:
            extra = self._top_picks_from(similarity, starts, length, self.config.top_z)
            pool = {
                f"{domain}#{i}": window
                for domain, picks in extra.items()
                for i, window in enumerate(picks)
            }
            window = self.select_window(test_series, pool)
        else:
            window = self.select_window(test_series, candidates)
        region = self.search_region(len(test_series), window)
        discords = self.run_discord_search(test_series, region)
        # exception_fraction=0 disables the Sec. IV-G fall-back entirely
        # (the inside-mass ratio can never fall below zero).
        exception_fraction = 0.05 if self.config.exception_enabled else 0.0
        if self.config.scoring == "weighted":
            from .weighting import score_votes_weighted

            votes = score_votes_weighted(
                test_length=len(test_series),
                window=window,
                discords=discords,
                search_offset=region[0],
                exception_fraction=exception_fraction,
            )
        else:
            votes = score_votes(
                test_length=len(test_series),
                window=window,
                discords=discords,
                search_offset=region[0],
                exception_fraction=exception_fraction,
            )
        return TriADDetection(
            predictions=votes.predictions,

            window=window,
            candidate_windows=candidates,
            similarity=similarity,
            window_starts=starts,
            window_length=length,
            discords=discords,
            search_region=region,
            votes=votes,
        )

    def predict(self, test_series: np.ndarray) -> np.ndarray:
        """Point-wise binary predictions (uniform harness interface)."""
        return self.detect(test_series).predictions
