"""TS2Vec-lite baseline (Yue et al., AAAI 2022).

TS2Vec learns timestamp representations with hierarchical contrastive
learning over two augmented context views: representations of the same
timestamp under two random crops attract (temporal consistency) while
other timestamps / other instances repel.  This lite version keeps the
dilated-conv backbone and the two-view timestamp contrast on the
overlap of two random crops.

Anomaly scoring follows the representation-outlierness protocol: a test
timestamp's score is the distance of its representation from the mean
training representation.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..signal.normalize import zscore
from ..pipeline.scores import spread_window_scores
from .base import BaseDetector

__all__ = ["TS2VecDetector"]


class _Backbone(nn.Module):
    """Small dilated conv stack mapping (B, 1, L) -> (B, dim, L)."""

    def __init__(self, dim: int, depth: int, rng: np.random.Generator) -> None:
        super().__init__()
        layers: list[nn.Module] = []
        channels = 1
        for level in range(depth):
            layers.append(nn.Conv1d(channels, dim, 3, dilation=2**level, rng=rng))
            layers.append(nn.ReLU())
            channels = dim
        self.net = nn.Sequential(*layers)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.net(x)


class TS2VecDetector(BaseDetector):
    """TS2Vec-lite with overlap-based temporal contrast."""

    name = "TS2Vec"

    def __init__(
        self,
        window: int = 64,
        dim: int = 16,
        depth: int = 3,
        epochs: int = 4,
        batch_size: int = 8,
        learning_rate: float = 1e-3,
        max_windows: int = 64,
        seed: int = 0,
        threshold_sigma: float = 3.0,
    ) -> None:
        super().__init__(threshold_sigma)
        self.window = window
        self.dim = dim
        self.depth = depth
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_windows = max_windows
        self.seed = seed
        self.backbone: _Backbone | None = None
        self._train_rep_mean: np.ndarray | None = None

    def _encode(self, windows: np.ndarray) -> nn.Tensor:
        """(B, L) -> (B, L, dim) timestamp representations."""
        x = nn.Tensor(np.asarray(windows)[:, None, :])
        return self.backbone(x).transpose(0, 2, 1)

    def fit(self, train_series: np.ndarray) -> "TS2VecDetector":
        series = self._remember_train(train_series)
        rng = np.random.default_rng(self.seed)
        self.backbone = _Backbone(self.dim, self.depth, rng)
        w = min(self.window, len(series))
        windows, _ = self._windows(zscore(series), w, max(w // 2, 1))
        if len(windows) > self.max_windows:
            windows = windows[rng.choice(len(windows), self.max_windows, replace=False)]

        optimizer = nn.Adam(self.backbone.parameters(), lr=self.learning_rate)
        crop = max(w // 2, 4)
        for _ in range(self.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), self.batch_size):
                batch = windows[order[start : start + self.batch_size]]
                if len(batch) < 2:
                    continue
                # Two random crops sharing an overlap region.
                offset1 = int(rng.integers(0, w - crop + 1))
                offset2 = int(rng.integers(0, w - crop + 1))
                lo = max(offset1, offset2)
                hi = min(offset1 + crop, offset2 + crop)
                if hi - lo < 4:
                    continue
                rep1 = self._encode(batch[:, offset1 : offset1 + crop])
                rep2 = self._encode(batch[:, offset2 : offset2 + crop])
                over1 = rep1[:, lo - offset1 : hi - offset1, :]
                over2 = rep2[:, lo - offset2 : hi - offset2, :]
                # Temporal contrast: same timestamp across views attracts,
                # different timestamps repel (InfoNCE over time axis).
                sim = F.cosine_similarity(over1, over2, axis=-1)  # (B, T)
                anchor = over1  # (B, T, dim)
                b, t, d = anchor.shape
                flat1 = anchor.reshape(b * t, d)
                flat2 = over2.reshape(b * t, d)
                logits = flat1 @ flat2.transpose()  # (BT, BT)
                labels_diag = np.arange(b * t)
                log_probs = F.log_softmax(logits, axis=-1)
                loss = -(log_probs[labels_diag, labels_diag].mean())
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.backbone.parameters(), 5.0)
                optimizer.step()

        # Reference statistics for scoring.
        with nn.no_grad():
            reps = self._encode(windows).data  # (B, L, dim)
        self._train_rep_mean = reps.reshape(-1, self.dim).mean(axis=0)
        return self

    def score_series(self, series: np.ndarray) -> np.ndarray:
        if self.backbone is None or self._train_rep_mean is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        w = min(self.window, len(series))
        windows, starts = self._windows(normalized, w, max(w // 2, 1))
        with nn.no_grad():
            reps = self._encode(windows).data  # (B, L, dim)
        deviations = np.linalg.norm(reps - self._train_rep_mean, axis=-1)  # (B, L)
        return spread_window_scores(deviations, starts, w, len(series))
