"""Donut-lite baseline (Xu et al., WWW 2018).

Donut detects KPI anomalies with a variational autoencoder over sliding
windows, scoring each point by (negative) reconstruction probability.
This lite version keeps the VAE core — a Gaussian encoder with the
reparameterization trick, a Gaussian decoder, and the ELBO objective —
and scores by Monte-Carlo reconstruction error.  Included as an extra
classic deep baseline; it also exercises stochastic-gradient paths
through the numpy autodiff substrate.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..signal.normalize import zscore
from ..pipeline.scores import spread_window_scores
from .base import BaseDetector

__all__ = ["DonutDetector", "WindowVAE"]


class WindowVAE(nn.Module):
    """MLP variational autoencoder over flattened windows."""

    def __init__(
        self, window: int, latent: int, hidden: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.window = window
        self.latent = latent
        self.rng = rng
        self.encoder = nn.Sequential(
            nn.Linear(window, hidden, rng=rng), nn.ReLU()
        )
        self.mu_head = nn.Linear(hidden, latent, rng=rng)
        self.logvar_head = nn.Linear(hidden, latent, rng=rng)
        self.decoder = nn.Sequential(
            nn.Linear(latent, hidden, rng=rng), nn.ReLU(), nn.Linear(hidden, window, rng=rng)
        )

    def encode(self, x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        hidden = self.encoder(x)
        return self.mu_head(hidden), self.logvar_head(hidden)

    def reparameterize(self, mu: nn.Tensor, logvar: nn.Tensor) -> nn.Tensor:
        """z = mu + sigma * eps with eps ~ N(0, I); gradients flow
        through mu and sigma, not eps."""
        eps = nn.Tensor(self.rng.standard_normal(mu.shape))
        return mu + (logvar * 0.5).exp() * eps

    def forward(self, x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        mu, logvar = self.encode(x)
        z = self.reparameterize(mu, logvar)
        return self.decoder(z), mu, logvar

    def elbo_loss(self, x: nn.Tensor, beta: float = 1.0) -> nn.Tensor:
        """Negative ELBO: reconstruction MSE + beta * KL(q || N(0, I))."""
        reconstruction, mu, logvar = self(x)
        recon_term = ((reconstruction - x) ** 2).sum(axis=1).mean()
        kl = (-0.5 * (1.0 + logvar - mu * mu - logvar.exp()).sum(axis=1)).mean()
        return recon_term + beta * kl


class DonutDetector(BaseDetector):
    """VAE reconstruction-probability detector over sliding windows."""

    name = "Donut"

    def __init__(
        self,
        window: int = 32,
        latent: int = 4,
        hidden: int = 32,
        epochs: int = 6,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        beta: float = 0.1,
        mc_samples: int = 4,
        max_windows: int = 256,
        seed: int = 0,
        threshold_sigma: float = 3.0,
    ) -> None:
        super().__init__(threshold_sigma)
        self.window = window
        self.latent = latent
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.beta = beta
        self.mc_samples = mc_samples
        self.max_windows = max_windows
        self.seed = seed
        self.model: WindowVAE | None = None

    def fit(self, train_series: np.ndarray) -> "DonutDetector":
        series = self._remember_train(train_series)
        rng = np.random.default_rng(self.seed)
        w = min(self.window, len(series))
        self.model = WindowVAE(w, self.latent, self.hidden, rng)
        windows, _ = self._windows(zscore(series), w, max(w // 4, 1))
        if len(windows) > self.max_windows:
            windows = windows[rng.choice(len(windows), self.max_windows, replace=False)]
        optimizer = nn.Adam(self.model.parameters(), lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), self.batch_size):
                batch = windows[order[start : start + self.batch_size]]
                if len(batch) == 0:
                    continue
                loss = self.model.elbo_loss(nn.Tensor(batch), beta=self.beta)
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.model.parameters(), 5.0)
                optimizer.step()
        return self

    def score_series(self, series: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit() first")
        normalized = zscore(series)
        w = self.model.window
        windows, starts = self._windows(normalized, w, max(w // 4, 1))
        errors = np.zeros_like(windows)
        with nn.no_grad():
            for _ in range(self.mc_samples):
                reconstruction, _, _ = self.model(nn.Tensor(windows))
                errors += (reconstruction.data - windows) ** 2
        errors /= self.mc_samples
        return spread_window_scores(errors, starts, w, len(series))
