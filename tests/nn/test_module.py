"""Tests for the module system: registration, modes, state dicts."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


class Small(nn.Module):
    def __init__(self) -> None:
        super().__init__()
        self.linear = nn.Linear(3, 2, rng=np.random.default_rng(0))
        self.scale = nn.Parameter(np.ones(2))

    def forward(self, x):
        return self.linear(x) * self.scale


class TestRegistration:
    def test_parameters_discovered_recursively(self):
        model = Small()
        names = dict(model.named_parameters())
        assert set(names) == {"linear.weight", "linear.bias", "scale"}

    def test_num_parameters(self):
        model = Small()
        assert model.num_parameters() == 3 * 2 + 2 + 2

    def test_zero_grad_clears_all(self):
        model = Small()
        out = model(nn.Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_parameter_stays_trainable_inside_no_grad(self):
        with nn.no_grad():
            p = nn.Parameter(np.zeros(3))
        assert p.requires_grad


class TestStateDict:
    def test_roundtrip(self):
        a = Small()
        b = Small()
        b.linear.weight.data[...] = 0.0
        b.load_state_dict(a.state_dict())
        assert np.allclose(b.linear.weight.data, a.linear.weight.data)

    def test_missing_key_raises(self):
        model = Small()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = Small()
        state = model.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_save_load_npz(self, tmp_path):
        """Dotted parameter names survive as ``.npz`` keys."""
        a = Small()
        path = tmp_path / "model.npz"
        np.savez(path, **a.state_dict())
        b = Small()
        b.scale.data[:] = 99.0
        with np.load(path) as archive:
            b.load_state_dict(dict(archive))
        assert np.allclose(b.scale.data, a.scale.data)
        assert np.allclose(b.linear.weight.data, a.linear.weight.data)


class TestContainers:
    def test_sequential_applies_in_order(self):
        rng = np.random.default_rng(0)
        seq = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(), nn.Linear(4, 2, rng=rng))
        out = seq(nn.Tensor(np.ones((5, 3))))
        assert out.shape == (5, 2)
        assert len(seq) == 3

    def test_sequential_iteration_and_indexing(self):
        seq = nn.Sequential(nn.ReLU(), nn.Identity())
        assert isinstance(seq[1], nn.Identity)
        assert len(list(seq)) == 2

    def test_module_list_registers_parameters(self):
        rng = np.random.default_rng(0)
        modules = nn.ModuleList([nn.Linear(2, 2, rng=rng) for _ in range(3)])
        assert len(modules) == 3
        assert len(dict(modules.named_parameters())) == 6

    def test_module_list_append(self):
        modules = nn.ModuleList()
        modules.append(nn.ReLU())
        assert len(modules) == 1
        assert isinstance(modules[0], nn.ReLU)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)
