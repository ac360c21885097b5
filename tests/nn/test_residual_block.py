"""The fused residual block against its layered oracle.

``F.residual_block`` is one autograd node for
``relu(conv2(relu(conv1(x) + b1)) + b2 + skip(x))``.  It must equal the
layered composition ``conv1d → relu → conv1d + skip → relu`` exactly —
``np.array_equal`` on the output and on the gradients of ``x`` and every
parameter — on the taps kernel and on the reference oracle, because
both routes run the same kernel pair in the same order.  Even kernel
sizes exercise asymmetric same padding; ``K=48`` runs 48 taps, far
wider than TriAD's ``K=3``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn import functional as F

from .gradcheck import check_gradients
from .test_conv_fastpath import conv_context

MODES = ["auto", "reference"]
KERNELS = [1, 2, 3, 5, 48]
DILATIONS = [1, 4, 32]
IN_CHANNELS, OUT_CHANNELS, LENGTH = 3, 4, 20


def _layered(x, w1, b1, w2, b2, dilation, skip_w=None, skip_b=None):
    hidden = F.conv1d(F.conv1d(x, w1, b1, dilation=dilation).relu(), w2, b2, dilation=dilation)
    skip = x if skip_w is None else F.conv1d(x, skip_w, skip_b)
    return (hidden + skip).relu()


def _arrays(rng, batch, kernel_size, projection, length=LENGTH):
    in_channels = IN_CHANNELS if projection else OUT_CHANNELS
    arrays = [
        rng.normal(size=(batch, in_channels, length)),
        rng.normal(size=(OUT_CHANNELS, in_channels, kernel_size)) / kernel_size,
        rng.normal(size=OUT_CHANNELS),
        rng.normal(size=(OUT_CHANNELS, OUT_CHANNELS, kernel_size)) / kernel_size,
        rng.normal(size=OUT_CHANNELS),
    ]
    if projection:
        arrays += [rng.normal(size=(OUT_CHANNELS, in_channels, 1)), rng.normal(size=OUT_CHANNELS)]
    return arrays


def _run(block, mode, arrays, dilation, x_grad):
    """Forward + backward on the taps kernel (``"auto"``) or the oracle
    (``"reference"``); returns (out, grads)."""
    with conv_context(mode):
        x = Tensor(arrays[0], requires_grad=x_grad)
        params = [Tensor(a, requires_grad=True) for a in arrays[1:]]
        w1, b1, w2, b2, *skip = params
        out = block(x, w1, b1, w2, b2, dilation, *skip)
        # A fixed non-uniform cotangent so backward bugs can't cancel.
        seed = np.sin(np.arange(out.data.size)).reshape(out.shape)
        (out * Tensor(seed)).sum().backward()
    return out.data, [x.grad] + [p.grad for p in params]


@pytest.mark.parametrize("batch, x_grad", [(1, True), (3, True), (3, False)])
@pytest.mark.parametrize("projection", [True, False], ids=["projection", "identity"])
@pytest.mark.parametrize("dilation", DILATIONS)
@pytest.mark.parametrize("kernel_size", KERNELS)
@pytest.mark.parametrize("mode", MODES)
def test_fused_block_equals_layered_oracle(
    rng, mode, kernel_size, dilation, projection, batch, x_grad
):
    arrays = _arrays(rng, batch, kernel_size, projection)
    want_out, want_grads = _run(_layered, mode, arrays, dilation, x_grad)
    got_out, got_grads = _run(F.residual_block, mode, arrays, dilation, x_grad)
    assert np.array_equal(got_out, want_out)
    for got, want in zip(got_grads, want_grads):
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("projection", [True, False], ids=["projection", "identity"])
def test_gradients_match_finite_differences(rng, projection):
    arrays = _arrays(rng, 2, 3, projection, length=9)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    seed = Tensor(np.cos(np.arange(2 * OUT_CHANNELS * 9)).reshape(2, OUT_CHANNELS, 9))

    def objective(x, w1, b1, w2, b2, *skip):
        return (F.residual_block(x, w1, b1, w2, b2, 2, *skip) * seed).sum()

    check_gradients(objective, tensors)


def test_no_grad_forward_records_no_graph(rng):
    arrays = _arrays(rng, 2, 3, True)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    x, w1, b1, w2, b2, skip_w, skip_b = tensors
    with no_grad():
        out = F.residual_block(x, w1, b1, w2, b2, 2, skip_w, skip_b)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    assert np.array_equal(out.data, _layered(*tensors[:5], 2, skip_w, skip_b).data)
