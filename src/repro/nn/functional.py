"""Functional neural-network operations built on :class:`repro.nn.Tensor`.

These are numerically-stabilized compositions of tensor primitives:
softmax / log-softmax, the loss functions used by the paper's models
(cross entropy for the seq2seq decoder, binary cross entropy for the
mention classifiers), and masking helpers for variable-length batches.
The trailing-underscore helpers are the in-place float32 nonlinearities
of the inference kernels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "masked_softmax",
    "dropout",
    "sigmoid_",
    "tanh_",
    "softmax_rows_",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray | list[int]) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape ``(batch, classes)``; ``targets`` is a length-
    ``batch`` integer vector.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch {logits.shape[0]}")
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(len(targets)), targets]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor,
                                     targets: np.ndarray | list[float]) -> Tensor:
    """Mean binary cross entropy computed stably from raw logits.

    Uses the identity ``BCE = max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    x = logits
    relu_x = x.relu()
    abs_x = x.relu() + (-x).relu()
    softplus = (1.0 + (-abs_x).exp()).log()
    loss = relu_x - x * Tensor(targets) + softplus
    return loss.mean()


def masked_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is 0/False."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        mask = np.broadcast_to(mask, logits.shape)
    neg_inf = np.where(mask, 0.0, -1e9)
    return softmax(logits + Tensor(neg_inf), axis=axis)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * Tensor(mask)


def sigmoid_(x: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid: ``x ← 1 / (1 + exp(-x))``."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


def tanh_(x: np.ndarray) -> np.ndarray:
    """In-place hyperbolic tangent."""
    np.tanh(x, out=x)
    return x


def softmax_rows_(x: np.ndarray) -> np.ndarray:
    """In-place row-wise softmax over the last axis of 2-D ``x``.

    One ``(rows, 1)`` scratch holds the row max and then the row sum.
    """
    scratch = np.amax(x, axis=1, keepdims=True)
    x -= scratch
    np.exp(x, out=x)
    np.sum(x, axis=1, keepdims=True, out=scratch)
    x /= scratch
    return x
