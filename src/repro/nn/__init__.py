"""Pure-numpy deep learning substrate (PyTorch stand-in; see DESIGN.md).

Provides reverse-mode autodiff tensors, the layers needed by TriAD's
dilated-convolution encoders and all baseline models, optimizers, and
gradient checking utilities.
"""

from . import functional
from .activations import ELU, GELU, LeakyReLU, Softplus, elu, gelu, leaky_relu, softplus
from .functional import conv1d_mode, get_conv1d_mode, set_conv1d_mode
from .attention import MultiHeadSelfAttention
from .data import BatchIterator
from .gradcheck import check_gradients, numerical_gradient
from .gru import GRU, GRUCell
from .layers import (
    BatchNorm1d,
    Conv1d,
    Dropout,
    Identity,
    LayerNorm,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import (
    SGD,
    Adam,
    AdamW,
    Optimizer,
    RMSProp,
    clip_grad_norm,
)
from .pooling import AvgPool1d, GlobalAvgPool1d, GlobalMaxPool1d, MaxPool1d
from .rnn import LSTM, LSTMCell
from .schedulers import CosineAnnealingLR, EarlyStopping, ExponentialLR, StepLR
from .serialize import load_module, save_module
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
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "LSTM",
    "LSTMCell",
    "GRU",
    "GRUCell",
    "MultiHeadSelfAttention",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSProp",
    "clip_grad_norm",
    "conv1d_mode",
    "get_conv1d_mode",
    "set_conv1d_mode",
    "MaxPool1d",
    "AvgPool1d",
    "GlobalMaxPool1d",
    "GlobalAvgPool1d",
    "GELU",
    "LeakyReLU",
    "Softplus",
    "ELU",
    "gelu",
    "leaky_relu",
    "softplus",
    "elu",
    "StepLR",
    "ExponentialLR",
    "CosineAnnealingLR",
    "EarlyStopping",
    "BatchIterator",
    "save_module",
    "load_module",
    "check_gradients",
    "numerical_gradient",
]
