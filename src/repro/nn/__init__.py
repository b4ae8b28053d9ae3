"""A minimal numpy deep-learning substrate (autodiff, layers, optimizers).

This package stands in for PyTorch/TensorFlow, which the paper used but
which are unavailable offline.  It provides reverse-mode autodiff
(:mod:`repro.nn.tensor`), the layers the paper's models need (LSTM and
GRU cells, LSTM/BiLSTM/BiGRU sequence layers, 1-D character
convolutions, additive attention, embeddings, MLPs), losses, and
optimizers with gradient clipping.
"""

from repro.nn.attention import AdditiveAttention
from repro.nn.conv import CharConvEncoder, Conv1d
from repro.nn.functional import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    dropout,
    log_softmax,
    masked_softmax,
    sigmoid_,
    softmax,
    softmax_rows_,
    tanh_,
)
from repro.nn.layers import MLP, Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, Parameter, bump_generation, current_generation
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.rnn import (
    LSTM,
    BiGRU,
    BiLSTM,
    GRUCell,
    LSTMCell,
    pack_steps,
)
from repro.nn.serialization import load_module, save_module
from repro.nn.tensor import (
    Tensor,
    allocation_events,
    concat,
    is_grad_enabled,
    no_grad,
    stack,
)

__all__ = [
    "Tensor", "concat", "stack", "no_grad", "is_grad_enabled",
    "allocation_events",
    "Module", "Parameter", "bump_generation", "current_generation",
    "sigmoid_", "tanh_", "softmax_rows_",
    "Linear", "Embedding", "MLP", "Dropout", "LayerNorm",
    "LSTMCell", "GRUCell", "LSTM", "BiLSTM", "BiGRU", "pack_steps",
    "Conv1d", "CharConvEncoder",
    "AdditiveAttention",
    "softmax", "log_softmax", "masked_softmax",
    "cross_entropy", "binary_cross_entropy_with_logits", "dropout",
    "SGD", "Adam", "clip_grad_norm",
    "save_module", "load_module",
]
