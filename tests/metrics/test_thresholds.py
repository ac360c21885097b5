"""Tests for label-free threshold calibration (quantile / POT)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import (
    fit_gpd_moments,
    pot_threshold,
    quantile_threshold,
)


class TestSimpleStrategies:
    def test_quantile(self, rng):
        scores = rng.random(10_000)
        assert quantile_threshold(scores, 0.99) == pytest.approx(0.99, abs=0.01)

    def test_quantile_validation(self, rng):
        with pytest.raises(ValueError):
            quantile_threshold(rng.random(10), 1.5)


class TestGpdFit:
    def test_exponential_excesses(self, rng):
        """Exponential data has GPD shape ~0 and scale ~ its mean."""
        excesses = rng.exponential(scale=2.0, size=50_000)
        shape, scale = fit_gpd_moments(excesses)
        assert abs(shape) < 0.05
        assert scale == pytest.approx(2.0, rel=0.1)

    def test_uniform_excesses_negative_shape(self, rng):
        """Bounded tails give negative shape (short-tailed GPD)."""
        shape, _ = fit_gpd_moments(rng.uniform(0, 1, 50_000))
        assert shape < -0.2

    def test_degenerate_falls_back_to_exponential(self):
        shape, scale = fit_gpd_moments(np.full(10, 3.0))
        assert shape == 0.0
        assert scale == pytest.approx(3.0)

    def test_too_few_raises(self):
        with pytest.raises(ValueError):
            fit_gpd_moments(np.array([1.0]))


class TestPotThreshold:
    def test_exceeds_initial_quantile(self, rng):
        scores = rng.exponential(size=5000)
        threshold = pot_threshold(scores, risk=1e-4)
        assert threshold > np.quantile(scores, 0.98)

    def test_smaller_risk_higher_threshold(self, rng):
        scores = rng.exponential(size=5000)
        t_loose = pot_threshold(scores, risk=1e-2)
        t_tight = pot_threshold(scores, risk=1e-5)
        assert t_tight > t_loose

    def test_calibrated_exceedance_rate(self, rng):
        """On held-out data from the same distribution, the exceedance
        frequency should be near the requested risk."""
        calibration = rng.exponential(size=20_000)
        held_out = rng.exponential(size=200_000)
        risk = 1e-3
        threshold = pot_threshold(calibration, risk=risk)
        observed = float((held_out > threshold).mean())
        assert observed == pytest.approx(risk, rel=0.8)

    def test_separates_anomalies_from_normal_scores(self, rng):
        normal_scores = np.abs(rng.normal(size=3000))
        threshold = pot_threshold(normal_scores, risk=1e-4)
        anomalous_scores = np.abs(rng.normal(size=50)) + 8.0
        assert np.all(anomalous_scores > threshold)
        assert float((normal_scores > threshold).mean()) < 0.01

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            pot_threshold(np.zeros(5))
        with pytest.raises(ValueError):
            pot_threshold(rng.random(100), risk=2.0)

    def test_few_excesses_falls_back(self):
        # Nearly constant scores: no real tail to fit.
        scores = np.concatenate([np.zeros(98), [1.0, 1.0]])
        threshold = pot_threshold(scores, risk=1e-3, initial_quantile=0.99)
        assert np.isfinite(threshold)


class TestHuberLoss:
    def test_quadratic_region(self):
        from repro.nn import Tensor
        from repro.nn.functional import huber_loss

        loss = huber_loss(Tensor([0.5]), np.array([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(0.125)

    def test_linear_region(self):
        from repro.nn import Tensor
        from repro.nn.functional import huber_loss

        loss = huber_loss(Tensor([3.0]), np.array([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(2.5)  # delta*(|r| - delta/2)

    def test_gradient(self, rng):
        from repro.nn import Tensor, check_gradients
        from repro.nn.functional import huber_loss

        x = Tensor(rng.normal(size=6) * 2 + 0.1, requires_grad=True)
        check_gradients(lambda a: huber_loss(a, np.zeros(6)), [x], atol=1e-4)

    def test_robust_to_outliers_vs_mse(self, rng):
        from repro.nn import Tensor
        from repro.nn.functional import huber_loss, mse_loss

        residuals = np.concatenate([rng.normal(size=50) * 0.1, [100.0]])
        huber = huber_loss(Tensor(residuals), np.zeros(51)).item()
        mse = mse_loss(Tensor(residuals), np.zeros(51)).item()
        assert huber < mse / 10
