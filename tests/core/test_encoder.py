"""Tri-domain encoder tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import TriADConfig, TriDomainEncoder
from repro.core.encoder import DilatedConvEncoder, ResidualBlock


def _graph_nodes(out: nn.Tensor) -> list[nn.Tensor]:
    """Every tensor in ``out``'s autograd graph that carries a backward."""
    nodes, stack, seen = [], [out], set()
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        if tensor._backward is not None:
            nodes.append(tensor)
        stack.extend(tensor._parents)
    return nodes


@pytest.fixture
def small_config():
    return TriADConfig(depth=2, hidden_dim=8, seed=0)


class TestResidualBlock:
    def test_preserves_length(self, rng):
        block = ResidualBlock(1, 8, 3, dilation=4, rng=rng)
        out = block(nn.Tensor(rng.normal(size=(2, 1, 50))))
        assert out.shape == (2, 8, 50)

    def test_skip_identity_when_channels_match(self, rng):
        block = ResidualBlock(8, 8, 3, dilation=1, rng=rng)
        assert isinstance(block.skip, nn.Identity)

    def test_skip_projection_when_channels_differ(self, rng):
        block = ResidualBlock(1, 8, 3, dilation=1, rng=rng)
        assert isinstance(block.skip, nn.Conv1d)

    @pytest.mark.parametrize("in_channels", [1, 8], ids=["projection", "identity"])
    def test_forward_is_one_graph_node(self, rng, in_channels):
        # The fused block's memory win: one node holding the padded
        # input, hidden map and output, not a node per conv/ReLU/add.
        block = ResidualBlock(in_channels, 8, 3, dilation=2, rng=rng)
        x = nn.Tensor(rng.normal(size=(2, in_channels, 30)), requires_grad=True)
        out = block(x)
        assert _graph_nodes(out) == [out]
        expected = [x] + list(block.parameters())
        assert len(out._parents) == len(expected)
        assert {id(p) for p in out._parents} == {id(p) for p in expected}


class TestDilatedConvEncoder:
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_forward_is_one_node_per_block(self, small_config, rng, depth):
        encoder = DilatedConvEncoder(3, small_config.with_overrides(depth=depth), rng)
        out = encoder(nn.Tensor(rng.normal(size=(2, 3, 40))))
        assert len(_graph_nodes(out)) == depth

    def test_output_shape(self, small_config, rng):
        encoder = DilatedConvEncoder(3, small_config, rng)
        out = encoder(nn.Tensor(rng.normal(size=(4, 3, 64))))
        assert out.shape == (4, small_config.hidden_dim, 64)

    def test_dilations_double(self, small_config, rng):
        config = small_config.with_overrides(depth=4)
        encoder = DilatedConvEncoder(1, config, rng)
        dilations = [block.conv1.dilation for block in encoder.blocks]
        assert dilations == [1, 2, 4, 8]


class TestTriDomainEncoder:
    def test_all_domains_present(self, small_config):
        encoder = TriDomainEncoder(small_config)
        for domain in small_config.domains:
            assert hasattr(encoder, f"encoder_{domain}")

    def test_representations_unit_norm(self, small_config, rng):
        encoder = TriDomainEncoder(small_config)
        features = {
            "temporal": rng.normal(size=(3, 1, 40)),
            "frequency": rng.normal(size=(3, 3, 40)),
            "residual": rng.normal(size=(3, 1, 40)),
        }
        reps = encoder(features)
        for domain, r in reps.items():
            assert r.shape == (3, 40)
            norms = np.linalg.norm(r.data, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-8), domain

    def test_domains_produce_distinct_outputs(self, small_config, rng):
        encoder = TriDomainEncoder(small_config)
        same = rng.normal(size=(2, 1, 30))
        r_t = encoder.encode(same, "temporal")
        r_r = encoder.encode(same, "residual")
        assert not np.allclose(r_t.data, r_r.data)

    def test_ablated_domain_rejected(self):
        config = TriADConfig(depth=2, hidden_dim=8, domains=("temporal", "frequency"))
        encoder = TriDomainEncoder(config)
        with pytest.raises(KeyError):
            encoder.encode(np.zeros((1, 1, 20)), "residual")

    def test_dense_head_shared_across_domains(self, small_config):
        encoder = TriDomainEncoder(small_config)
        names = [name for name, _ in encoder.named_parameters()]
        dense_names = [n for n in names if n.startswith("dense")]
        # Exactly one shared pair of dense layers, not one per domain.
        assert len(dense_names) == 4  # 2 layers x (weight, bias)

    def test_deterministic_given_seed(self, small_config, rng):
        features = {"temporal": rng.normal(size=(2, 1, 30))}
        config = small_config.with_overrides(domains=("temporal",))
        a = TriDomainEncoder(config).encode(features["temporal"], "temporal")
        b = TriDomainEncoder(config).encode(features["temporal"], "temporal")
        assert np.allclose(a.data, b.data)

    def test_state_dict_roundtrip(self, small_config, rng):
        a = TriDomainEncoder(small_config)
        b = TriDomainEncoder(small_config.with_overrides(seed=99))
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(1, 1, 25))
        assert np.allclose(
            a.encode(x, "temporal").data, b.encode(x, "temporal").data
        )
