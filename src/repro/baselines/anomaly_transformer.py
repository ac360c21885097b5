"""Anomaly Transformer-lite baseline (Xu et al., ICLR 2022).

The original scores anomalies by *association discrepancy*: anomalous
points attend narrowly to adjacent positions (prior association ~= a
local Gaussian kernel) while normal points attend broadly across the
series.  This lite version keeps a single attention block trained for
reconstruction and computes the same discrepancy — the KL divergence
between each position's attention row and a learned-width Gaussian
prior — combining it multiplicatively with reconstruction error, as the
original's anomaly criterion does.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..signal.normalize import zscore
from ..pipeline.scores import spread_window_scores
from .base import BaseDetector

__all__ = ["AnomalyTransformerDetector"]


class _Block(nn.Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.embed = nn.Linear(1, dim, rng=rng)
        self.attention = nn.MultiHeadSelfAttention(dim, heads, rng=rng)
        self.norm = nn.LayerNorm(dim)
        self.head = nn.Linear(dim, 1, rng=rng)

    def forward(self, windows: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        batch, length = windows.shape
        x = self.embed(windows.reshape(batch, length, 1))
        attended, weights = self.attention(x)
        hidden = self.norm(x + attended)
        return self.head(hidden).reshape(batch, length), weights


def _gaussian_prior(length: int, sigma: float) -> np.ndarray:
    """Row-normalized |i-j| Gaussian kernel — the prior association."""
    idx = np.arange(length)
    kernel = np.exp(-0.5 * ((idx[:, None] - idx[None, :]) / sigma) ** 2)
    return kernel / kernel.sum(axis=1, keepdims=True)


class AnomalyTransformerDetector(BaseDetector):
    """Attention-based detector scored by association discrepancy."""

    name = "Anomaly Transformer"

    def __init__(
        self,
        window: int = 64,
        dim: int = 16,
        heads: int = 2,
        prior_sigma: float = 3.0,
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
        self.heads = heads
        self.prior_sigma = prior_sigma
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_windows = max_windows
        self.seed = seed
        self.model: _Block | None = None

    def fit(self, train_series: np.ndarray) -> "AnomalyTransformerDetector":
        series = self._remember_train(train_series)
        rng = np.random.default_rng(self.seed)
        self.model = _Block(self.dim, self.heads, rng)
        w = min(self.window, len(series))
        windows, _ = self._windows(zscore(series), w, max(w // 2, 1))
        if len(windows) > self.max_windows:
            windows = windows[rng.choice(len(windows), self.max_windows, replace=False)]
        optimizer = nn.Adam(self.model.parameters(), lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), self.batch_size):
                batch = windows[order[start : start + self.batch_size]]
                if len(batch) == 0:
                    continue
                recon, _ = self.model(nn.Tensor(batch))
                loss = F.mse_loss(recon, batch)
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.model.parameters(), 5.0)
                optimizer.step()
        return self

    def _discrepancy(self, weights: np.ndarray, length: int) -> np.ndarray:
        """KL(prior || attention) per position, averaged over heads.

        High when a position's attention diverges from the local prior —
        the anomaly signature of the original model.
        """
        prior = _gaussian_prior(length, self.prior_sigma)  # (L, L)
        eps = 1e-12
        attention = weights.mean(axis=1)  # (B, L, L), head-averaged
        kl = (prior[None] * (np.log(prior[None] + eps) - np.log(attention + eps))).sum(
            axis=-1
        )
        return kl  # (B, L)

    def score_series(self, series: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        w = min(self.window, len(series))
        windows, starts = self._windows(normalized, w, max(w // 2, 1))
        with nn.no_grad():
            recon, weights = self.model(nn.Tensor(windows))
        errors = (recon.data - windows) ** 2
        discrepancy = self._discrepancy(weights.data, w)
        point_scores = errors * discrepancy
        return spread_window_scores(point_scores, starts, w, len(series))
