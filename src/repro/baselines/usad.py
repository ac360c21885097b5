"""USAD baseline (Audibert et al., KDD 2020).

UnSupervised Anomaly Detection: two autoencoders share an encoder.
Phase 1 trains both for reconstruction; phase 2 is adversarial — AE1
tries to fool AE2's reconstruction of its own output while AE2 learns
to tell reconstructed from real windows.  The anomaly score blends both
reconstruction errors.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..signal.normalize import zscore
from ..pipeline.scores import spread_window_scores
from .base import BaseDetector

__all__ = ["USADDetector"]


def _mlp(sizes: list[int], rng: np.random.Generator) -> nn.Sequential:
    layers: list[nn.Module] = []
    for i in range(len(sizes) - 1):
        layers.append(nn.Linear(sizes[i], sizes[i + 1], rng=rng))
        if i < len(sizes) - 2:
            layers.append(nn.ReLU())
    return nn.Sequential(*layers)


class USADDetector(BaseDetector):
    """USAD with dense encoder/decoders over flattened windows."""

    name = "USAD"

    def __init__(
        self,
        window: int = 32,
        latent: int = 8,
        epochs: int = 6,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        alpha: float = 0.5,
        max_windows: int = 256,
        seed: int = 0,
        threshold_sigma: float = 3.0,
    ) -> None:
        super().__init__(threshold_sigma)
        self.window = window
        self.latent = latent
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.alpha = alpha
        self.max_windows = max_windows
        self.seed = seed
        self.encoder: nn.Sequential | None = None
        self.decoder1: nn.Sequential | None = None
        self.decoder2: nn.Sequential | None = None

    def fit(self, train_series: np.ndarray) -> "USADDetector":
        series = self._remember_train(train_series)
        rng = np.random.default_rng(self.seed)
        w = min(self.window, len(series))
        self.encoder = _mlp([w, w // 2, self.latent], rng)
        self.decoder1 = _mlp([self.latent, w // 2, w], rng)
        self.decoder2 = _mlp([self.latent, w // 2, w], rng)

        windows, _ = self._windows(zscore(series), w, max(w // 2, 1))
        if len(windows) > self.max_windows:
            windows = windows[rng.choice(len(windows), self.max_windows, replace=False)]

        params1 = self.encoder.parameters() + self.decoder1.parameters()
        params2 = self.encoder.parameters() + self.decoder2.parameters()
        opt1 = nn.Adam(params1, lr=self.learning_rate)
        opt2 = nn.Adam(params2, lr=self.learning_rate)

        for epoch in range(1, self.epochs + 1):
            weight = 1.0 / epoch  # USAD's epoch-annealed loss weighting
            order = rng.permutation(len(windows))
            for start in range(0, len(order), self.batch_size):
                batch = nn.Tensor(windows[order[start : start + self.batch_size]])
                if batch.shape[0] == 0:
                    continue
                # AE1: reconstruct, and fool AE2 on its reconstruction.
                z = self.encoder(batch)
                w1 = self.decoder1(z)
                w2_of_w1 = self.decoder2(self.encoder(w1))
                loss1 = (
                    ((batch - w1) ** 2).mean() * weight
                    + ((batch - w2_of_w1) ** 2).mean() * (1.0 - weight)
                )
                opt1.zero_grad()
                loss1.backward()
                opt1.step()
                # AE2: reconstruct, and detect AE1's reconstruction.
                z = self.encoder(batch)
                w1 = self.decoder1(z)
                w2 = self.decoder2(z)
                w2_of_w1 = self.decoder2(self.encoder(w1.detach()))
                loss2 = (
                    ((batch - w2) ** 2).mean() * weight
                    - ((batch - w2_of_w1) ** 2).mean() * (1.0 - weight)
                )
                opt2.zero_grad()
                loss2.backward()
                opt2.step()
        return self

    def score_series(self, series: np.ndarray) -> np.ndarray:
        if self.encoder is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        w = min(self.window, len(series))
        windows, starts = self._windows(normalized, w, max(w // 2, 1))
        with nn.no_grad():
            batch = nn.Tensor(windows)
            z = self.encoder(batch)
            w1 = self.decoder1(z).data
            w2_of_w1 = self.decoder2(self.encoder(nn.Tensor(w1))).data
        err1 = (windows - w1) ** 2
        err2 = (windows - w2_of_w1) ** 2
        point_scores = self.alpha * err1 + (1.0 - self.alpha) * err2
        return spread_window_scores(point_scores, starts, w, len(series))
