"""Training loop tests."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core import TriADConfig, train_encoder, trainer
from repro.pipeline import FeaturePipeline

from ..nn.test_conv_fastpath import reference_conv
from ..nn.test_optim_fused import adam_reference
from .test_float32 import LOSS_TOLERANCE


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

    def test_ablated_domains_trainable(self, noisy_wave, fast_config):
        config = fast_config.with_overrides(domains=("temporal", "frequency"))
        result = train_encoder(noisy_wave, config)
        assert np.isfinite(result.train_losses[-1])

    def test_intra_only_trainable(self, noisy_wave, fast_config):
        config = fast_config.with_overrides(use_inter=False)
        result = train_encoder(noisy_wave, config)
        assert np.isfinite(result.train_losses[-1])


class TestTrainingMemory:
    def test_peak_does_not_grow_past_the_first_step(self, noisy_wave, monkeypatch):
        """A training step holds one graph at a time: backward frees the
        graph it walks, so the next batch's forward does not build on
        top of the last one.  When the last step's graph stays alive
        the epoch peaks ~1.5x its first step on this config; with the
        release it stays at ~1.0x."""
        config = TriADConfig(depth=3, hidden_dim=16, epochs=1, seed=0, max_window=128)

        def traced_peak() -> int:
            tracemalloc.start()
            try:
                train_encoder(noisy_wave, config, pipeline=FeaturePipeline())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        epoch_peak = traced_peak()
        batches = trainer._batches
        monkeypatch.setattr(
            trainer, "_batches", lambda *args: itertools.islice(batches(*args), 1)
        )
        first_step_peak = traced_peak()
        assert epoch_peak <= 1.25 * first_step_peak


def _two_pass(encoder, original, augmented, size):
    return encoder(original), encoder(augmented)


class TestContrastiveForwardFusion:
    def test_fused_forward_matches_two_pass(
        self, noisy_wave, fast_config, monkeypatch, float64_encoder
    ):
        """The concatenated [originals; augmented] pass must reproduce the
        two-pass losses: every encoder op is batch-row independent, so
        the only tolerated difference is BLAS rounding the last ulp
        differently for the doubled row count, and the weight gradients
        summing the batch rows in one GEMM instead of two.  Checked on
        the float64 oracle, where those roundings are ~1e-16."""
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

    def test_fused_forward_matches_two_pass_in_float32(
        self, noisy_wave, fast_config, monkeypatch
    ):
        """The production float32 fused pass against the float32 two-pass
        forward, at the float32 loss bound (measured: 2.6e-8 train,
        6.0e-8 validation)."""
        fused = train_encoder(noisy_wave, fast_config)
        monkeypatch.setattr(trainer, "_contrastive_representations", _two_pass)
        two_pass = train_encoder(noisy_wave, fast_config)
        assert (fused.encoder.dtype, two_pass.encoder.dtype) == (np.float32,) * 2
        for got, want in [
            (fused.train_losses, two_pass.train_losses),
            (fused.val_losses, two_pass.val_losses),
        ]:
            np.testing.assert_allclose(got, want, rtol=0, atol=LOSS_TOLERANCE)


class TestReferenceStack:
    @pytest.mark.parametrize("kernel_size", [3, 48])
    def test_losses_match_reference_stack(
        self, noisy_wave, fast_config, monkeypatch, kernel_size, float64_encoder
    ):
        """Training on the production stack reproduces training on the
        slowest one — reference conv kernels, textbook Adam, two-pass
        contrastive forward — to 1e-9 per epoch loss, both on the float64
        oracle.  K=48 runs the fast stack's convs on 48 taps."""
        config = fast_config.with_overrides(kernel_size=kernel_size, epochs=2)
        fast = train_encoder(noisy_wave, config)
        monkeypatch.setattr(trainer, "_contrastive_representations", _two_pass)
        monkeypatch.setattr(nn.Adam, "step", adam_reference)
        with reference_conv():
            reference = train_encoder(noisy_wave, config)
        assert np.allclose(fast.train_losses, reference.train_losses, rtol=0, atol=1e-9)
        assert np.allclose(fast.val_losses, reference.val_losses, rtol=0, atol=1e-9)
