"""Training loop tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import TriADConfig, train_encoder, trainer

from ..nn.test_optim_fused import REFERENCE


@pytest.fixture
def fast_config():
    return TriADConfig(depth=2, hidden_dim=8, epochs=3, seed=0, max_window=128)


class TestTrainEncoder:
    def test_returns_plan_and_losses(self, noisy_wave, fast_config):
        result = train_encoder(noisy_wave, fast_config)
        assert len(result.train_losses) == 3
        assert len(result.val_losses) == 3
        assert result.plan.length <= 128
        assert all(np.isfinite(l) for l in result.train_losses)

    def test_loss_decreases(self, noisy_wave):
        config = TriADConfig(depth=2, hidden_dim=8, epochs=6, seed=1, max_window=128)
        result = train_encoder(noisy_wave, config)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_reproducible_given_seed(self, noisy_wave, fast_config):
        a = train_encoder(noisy_wave, fast_config)
        b = train_encoder(noisy_wave, fast_config)
        assert a.train_losses == b.train_losses
        for (name_a, p_a), (name_b, p_b) in zip(
            a.encoder.named_parameters(), b.encoder.named_parameters()
        ):
            assert name_a == name_b
            assert np.allclose(p_a.data, p_b.data)

    def test_different_seeds_differ(self, noisy_wave, fast_config):
        a = train_encoder(noisy_wave, fast_config)
        b = train_encoder(noisy_wave, fast_config.with_overrides(seed=7))
        assert a.train_losses != b.train_losses

    def test_encoder_left_in_eval_mode(self, noisy_wave, fast_config):
        result = train_encoder(noisy_wave, fast_config)
        assert not result.encoder.training

    def test_ablated_domains_trainable(self, noisy_wave, fast_config):
        config = fast_config.with_overrides(domains=("temporal", "frequency"))
        result = train_encoder(noisy_wave, config)
        assert np.isfinite(result.train_losses[-1])

    def test_intra_only_trainable(self, noisy_wave, fast_config):
        config = fast_config.with_overrides(use_inter=False)
        result = train_encoder(noisy_wave, config)
        assert np.isfinite(result.train_losses[-1])


def _two_pass(encoder, original, augmented, size):
    return encoder(original), encoder(augmented)


class TestContrastiveForwardFusion:
    def test_fused_forward_matches_two_pass(
        self, noisy_wave, fast_config, monkeypatch
    ):
        """The concatenated [originals; augmented] pass must reproduce the
        two-pass losses: every encoder op is batch-row independent, so
        the only tolerated difference is BLAS rounding the last ulp
        differently for the doubled row count."""
        fused = train_encoder(noisy_wave, fast_config)
        monkeypatch.setattr(trainer, "_contrastive_representations", _two_pass)
        two_pass = train_encoder(noisy_wave, fast_config)
        assert np.allclose(fused.train_losses, two_pass.train_losses, rtol=1e-12)
        assert np.allclose(fused.val_losses, two_pass.val_losses, rtol=1e-12)
        for (name_a, p_a), (name_b, p_b) in zip(
            fused.encoder.named_parameters(), two_pass.encoder.named_parameters()
        ):
            assert name_a == name_b
            assert np.allclose(p_a.data, p_b.data, rtol=1e-10, atol=1e-12)


class TestReferenceStack:
    @pytest.mark.parametrize("kernel_size", [3, 48])
    def test_losses_match_reference_stack(
        self, noisy_wave, fast_config, monkeypatch, kernel_size
    ):
        """Training on the fast stack reproduces training on the slowest
        one — reference conv kernels, textbook Adam, two-pass contrastive
        forward — to 1e-9 per epoch loss.  K=48 routes the fast stack's
        convs through FFT."""
        config = fast_config.with_overrides(kernel_size=kernel_size, epochs=2)
        fast = train_encoder(noisy_wave, config)
        monkeypatch.setattr(trainer, "_contrastive_representations", _two_pass)
        monkeypatch.setattr(nn.Adam, "step", REFERENCE[nn.Adam])
        with nn.conv1d_mode("reference"):
            reference = train_encoder(noisy_wave, config)
        assert np.allclose(fast.train_losses, reference.train_losses, rtol=0, atol=1e-9)
        assert np.allclose(fast.val_losses, reference.val_losses, rtol=0, atol=1e-9)
