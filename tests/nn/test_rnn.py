"""Tests for LSTM cell and multi-layer LSTM."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor

from .gradcheck import check_gradients


@pytest.fixture
def lstm_rng():
    return np.random.default_rng(7)


class TestLSTMCell:
    def test_output_shapes(self, lstm_rng):
        cell = nn.LSTMCell(3, 5, rng=lstm_rng)
        h, c = cell.initial_state(batch=4)
        h2, c2 = cell(Tensor(lstm_rng.normal(size=(4, 3))), (h, c))
        assert h2.shape == (4, 5)
        assert c2.shape == (4, 5)

    def test_hidden_bounded_by_tanh(self, lstm_rng):
        cell = nn.LSTMCell(2, 4, rng=lstm_rng)
        h, c = cell.initial_state(batch=8)
        x = Tensor(lstm_rng.normal(size=(8, 2)) * 100)
        h2, _ = cell(x, (h, c))
        assert np.all(np.abs(h2.data) <= 1.0)

    def test_gradcheck(self, lstm_rng):
        cell = nn.LSTMCell(2, 3, rng=lstm_rng)
        x = Tensor(lstm_rng.normal(size=(2, 2)), requires_grad=True)

        def fn(inp):
            h, c = cell.initial_state(batch=2)
            h2, c2 = cell(inp, (h, c))
            return (h2 * h2).sum() + c2.sum()

        check_gradients(fn, [x])

    def test_state_carries_information(self, lstm_rng):
        """The same input after different histories gives different outputs."""
        cell = nn.LSTMCell(1, 4, rng=lstm_rng)
        x = Tensor(np.ones((1, 1)))
        state_a = cell.initial_state(1)
        state_b = cell(Tensor(np.full((1, 1), 5.0)), cell.initial_state(1))
        out_a, _ = cell(x, state_a)
        out_b, _ = cell(x, state_b)
        assert not np.allclose(out_a.data, out_b.data)


class TestLSTM:
    def test_output_shapes(self, lstm_rng):
        lstm = nn.LSTM(3, 8, num_layers=2, rng=lstm_rng)
        out, state = lstm(Tensor(lstm_rng.normal(size=(4, 10, 3))))
        assert out.shape == (4, 10, 8)
        assert len(state) == 2
        assert state[0][0].shape == (4, 8)

    def test_gradients_reach_all_weights(self, lstm_rng):
        lstm = nn.LSTM(2, 4, num_layers=2, rng=lstm_rng)
        out, _ = lstm(Tensor(lstm_rng.normal(size=(2, 5, 2))))
        (out * out).mean().backward()
        for name, param in lstm.named_parameters():
            assert param.grad is not None, name
            assert np.any(param.grad != 0), name

    def test_deterministic_given_weights(self, lstm_rng):
        lstm = nn.LSTM(1, 4, rng=lstm_rng)
        x = Tensor(np.linspace(0, 1, 6).reshape(1, 6, 1))
        out1, _ = lstm(x)
        out2, _ = lstm(x)
        assert np.allclose(out1.data, out2.data)

    def test_state_continuation(self, lstm_rng):
        """Feeding a split sequence with carried state equals one pass."""
        lstm = nn.LSTM(1, 3, rng=lstm_rng)
        x = lstm_rng.normal(size=(1, 8, 1))
        full, _ = lstm(Tensor(x))
        first, state = lstm(Tensor(x[:, :4]))
        second, _ = lstm(Tensor(x[:, 4:]), state)
        assert np.allclose(full.data[:, :4], first.data, atol=1e-10)
        assert np.allclose(full.data[:, 4:], second.data, atol=1e-10)

    def test_can_learn_to_memorize(self, lstm_rng):
        """Tiny optimization sanity check: loss decreases."""
        lstm = nn.LSTM(1, 8, rng=lstm_rng)
        head = nn.Linear(8, 1, rng=lstm_rng)
        params = lstm.parameters() + head.parameters()
        optimizer = nn.Adam(params, lr=0.02)
        x = lstm_rng.normal(size=(4, 6, 1))
        target = x[:, ::-1, :].copy()  # reverse task
        first_loss = last_loss = None
        for step in range(30):
            out, _ = lstm(Tensor(x))
            loss = nn.functional.mse_loss(head(out), target)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            if step == 0:
                first_loss = loss.item()
            last_loss = loss.item()
        assert last_loss < first_loss * 0.8
