"""LSTM autoencoder baseline (Kim et al., AAAI 2022; paper Sec. II-B).

The reference benchmark of the paper: an encoder LSTM compresses each
window into its final hidden state, a decoder LSTM unrolls it back, and
the per-point reconstruction error is the anomaly score.  The *random*
variant skips training entirely — the paper (and Kim et al.) show that
an untrained LSTM-AE is already a strong detector on flawed benchmarks,
which is the heart of the Table II pitfall experiment.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..signal.normalize import zscore
from ..pipeline.scores import spread_window_scores
from .base import BaseDetector

__all__ = ["LSTMAutoencoder", "LSTMAEDetector"]


class LSTMAutoencoder(nn.Module):
    """Single-layer LSTM encoder/decoder over univariate windows."""

    def __init__(self, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden = hidden
        self.encoder = nn.LSTM(1, hidden, rng=rng)
        self.decoder = nn.LSTM(hidden, hidden, rng=rng)
        self.head = nn.Linear(hidden, 1, rng=rng)

    def forward(self, windows: nn.Tensor) -> nn.Tensor:
        """Reconstruct ``(batch, length)`` windows."""
        batch, length = windows.shape
        inputs = windows.reshape(batch, length, 1)
        _, state = self.encoder(inputs)
        final_hidden, _ = state[-1]
        # Feed the code at every step of the decoder (repeat-vector style).
        repeated = nn.stack([final_hidden] * length, axis=1)
        decoded, _ = self.decoder(repeated)
        return self.head(decoded).reshape(batch, length)


class LSTMAEDetector(BaseDetector):
    """LSTM-AE scored by point-wise reconstruction error.

    Parameters
    ----------
    trained:
        ``False`` reproduces the randomly initialized benchmark variant.
    """

    def __init__(
        self,
        window: int = 32,
        hidden: int = 16,
        trained: bool = True,
        epochs: int = 3,
        batch_size: int = 16,
        learning_rate: float = 1e-2,
        max_windows: int = 128,
        seed: int = 0,
        threshold_sigma: float = 3.0,
    ) -> None:
        super().__init__(threshold_sigma)
        self.name = "LSTM-AE (Trained)" if trained else "LSTM-AE (Random)"
        self.window = window
        self.hidden = hidden
        self.trained = trained
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_windows = max_windows
        self.seed = seed
        self.model: LSTMAutoencoder | None = None

    def fit(self, train_series: np.ndarray) -> "LSTMAEDetector":
        series = self._remember_train(train_series)
        rng = np.random.default_rng(self.seed)
        self.model = LSTMAutoencoder(self.hidden, rng)
        if not self.trained:
            return self
        windows, _ = self._windows(zscore(series), self.window, max(self.window // 2, 1))
        if len(windows) > self.max_windows:
            windows = windows[rng.choice(len(windows), self.max_windows, replace=False)]
        optimizer = nn.Adam(self.model.parameters(), lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), self.batch_size):
                batch = windows[order[start : start + self.batch_size]]
                if len(batch) == 0:
                    continue
                optimizer.zero_grad()
                loss = F.mse_loss(self.model(nn.Tensor(batch)), batch)
                loss.backward()
                nn.clip_grad_norm(self.model.parameters(), 5.0)
                optimizer.step()
        return self

    def score_series(self, series: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        windows, starts = self._windows(normalized, self.window, max(self.window // 2, 1))
        with nn.no_grad():
            reconstruction = self.model(nn.Tensor(windows)).data
        point_errors = (reconstruction - windows) ** 2
        # Spread each window's per-point error back onto the series.
        return spread_window_scores(point_errors, starts, windows.shape[1], len(series))

    def reconstruction(self, series: np.ndarray) -> np.ndarray:
        """Averaged reconstruction of the series (used by the Fig. 2 bench)."""
        if self.model is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        windows, starts = self._windows(normalized, self.window, max(self.window // 2, 1))
        with nn.no_grad():
            recon = self.model(nn.Tensor(windows)).data
        return spread_window_scores(recon, starts, windows.shape[1], len(series))
