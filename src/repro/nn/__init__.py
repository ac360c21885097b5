"""Pure-numpy deep learning substrate (PyTorch stand-in; see DESIGN.md).

Provides reverse-mode autodiff tensors, the layers TriAD's
dilated-convolution encoder and the baseline models run, and the Adam
optimizer.  The numerical gradient check every op is tested against
lives under ``tests/nn`` as the test oracle.
"""

from . import functional
from .attention import MultiHeadSelfAttention
from .layers import Conv1d, Identity, LayerNorm, Linear, ReLU
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam, clip_grad_norm
from .rnn import LSTM, LSTMCell
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack

__all__ = [
    "functional",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv1d",
    "LayerNorm",
    "ReLU",
    "Identity",
    "LSTM",
    "LSTMCell",
    "MultiHeadSelfAttention",
    "Adam",
    "clip_grad_norm",
]
