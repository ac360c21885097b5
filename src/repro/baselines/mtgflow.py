"""MTGFlow-lite baseline (Zhou et al., AAAI 2023).

MTGFlow detects anomalies with normalizing flows under the assumption
that abnormal events have sparser density than normal ones.  This lite
version keeps the density-estimation core: a RealNVP-style stack of
affine coupling layers over z-normalized windows, trained by maximum
likelihood; the anomaly score of a point is the negative log-likelihood
of the windows covering it.  (The original's dynamic inter-sensor graph
does not apply to univariate UCR series.)
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..signal.normalize import zscore
from ..pipeline.scores import spread_window_scores
from .base import BaseDetector

__all__ = ["MTGFlowDetector", "AffineCoupling"]


class AffineCoupling(nn.Module):
    """RealNVP coupling: half the dims condition scale/shift of the rest."""

    def __init__(self, dim: int, hidden: int, flip: bool, rng: np.random.Generator) -> None:
        super().__init__()
        self.dim = dim
        self.flip = flip
        self.half = dim // 2
        other = dim - self.half
        self.scale_net = nn.Sequential(
            nn.Linear(self.half, hidden, rng=rng), nn.ReLU(), nn.Linear(hidden, other, rng=rng)
        )
        self.shift_net = nn.Sequential(
            nn.Linear(self.half, hidden, rng=rng), nn.ReLU(), nn.Linear(hidden, other, rng=rng)
        )

    def _split(self, x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        if self.flip:
            return x[:, self.half :], x[:, : self.half]
        return x[:, : self.half], x[:, self.half :]

    def forward(self, x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        """Map x -> z; returns (z, log_det) with log_det of shape (batch,)."""
        cond, rest = self._split(x)
        log_scale = self.scale_net(cond).tanh()  # bounded for stability
        shift = self.shift_net(cond)
        transformed = rest * log_scale.exp() + shift
        z = (
            nn.concatenate([transformed, cond], axis=1)
            if self.flip
            else nn.concatenate([cond, transformed], axis=1)
        )
        return z, log_scale.sum(axis=1)


class MTGFlowDetector(BaseDetector):
    """Window-density detector with an affine-coupling flow."""

    name = "MTGFlow"

    def __init__(
        self,
        window: int = 32,
        couplings: int = 4,
        hidden: int = 32,
        epochs: int = 6,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        max_windows: int = 256,
        seed: int = 0,
        threshold_sigma: float = 3.0,
    ) -> None:
        super().__init__(threshold_sigma)
        self.window = window
        self.couplings = couplings
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_windows = max_windows
        self.seed = seed
        self.flow: nn.ModuleList | None = None

    def _forward_flow(self, x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        log_det = None
        z = x
        for layer in self.flow:
            z, ld = layer(z)
            log_det = ld if log_det is None else log_det + ld
        return z, log_det

    def _nll(self, windows: np.ndarray) -> nn.Tensor:
        """Negative log-likelihood per window under a standard normal base."""
        z, log_det = self._forward_flow(nn.Tensor(windows))
        log_base = -0.5 * (z * z).sum(axis=1)  # up to an additive constant
        return -(log_base + log_det)

    def fit(self, train_series: np.ndarray) -> "MTGFlowDetector":
        series = self._remember_train(train_series)
        rng = np.random.default_rng(self.seed)
        w = min(self.window, len(series))
        self.flow = nn.ModuleList(
            [AffineCoupling(w, self.hidden, flip=bool(i % 2), rng=rng) for i in range(self.couplings)]
        )
        windows, _ = self._windows(zscore(series), w, max(w // 4, 1))
        if len(windows) > self.max_windows:
            windows = windows[rng.choice(len(windows), self.max_windows, replace=False)]
        parameters = [p for layer in self.flow for p in layer.parameters()]
        optimizer = nn.Adam(parameters, lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), self.batch_size):
                batch = windows[order[start : start + self.batch_size]]
                if len(batch) == 0:
                    continue
                loss = self._nll(batch).mean()
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(parameters, 5.0)
                optimizer.step()
        return self

    def score_series(self, series: np.ndarray) -> np.ndarray:
        if self.flow is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        w = min(self.window, len(series))
        windows, starts = self._windows(normalized, w, max(w // 4, 1))
        with nn.no_grad():
            nll = self._nll(windows).data  # (B,)
        return spread_window_scores(nll, starts, w, len(series))
