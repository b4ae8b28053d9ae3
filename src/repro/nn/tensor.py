"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class used by every neural model
in the library.  A ``Tensor`` wraps a ``numpy.ndarray`` and records the
operations applied to it; calling :meth:`Tensor.backward` walks the
recorded graph in reverse topological order and accumulates gradients.

The design goals are:

* correctness first — every op has a gradient that passes numerical
  checks (see ``tests/nn/test_tensor.py``);
* enough coverage for the paper's models (LSTM/GRU/attention/conv1d/
  embeddings) without trying to be a general framework;
* gradients *with respect to embeddings* must be easily retrievable,
  because the paper's adversarial text method (Section IV-C) is defined
  as the norm of ``dL/dE(w)``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError

__all__ = ["Tensor", "concat", "stack", "no_grad", "is_grad_enabled",
           "allocation_events"]


class _GradMode(threading.local):
    """Thread-local grad-mode switch.

    The class attribute doubles as the per-thread default, so freshly
    spawned threads start with recording *enabled* (the process-global
    behaviour callers have always seen) while ``no_grad`` entered on one
    thread no longer leaks into concurrent requests on other threads.
    """

    enabled = True


_GRAD_MODE = _GradMode()

# Count of Tensor constructions since process start.  This is the
# substrate's "allocation event" metric: every Tensor wraps (and usually
# copies into) a fresh float64 ndarray, so the delta across a request is
# a direct measure of per-request allocation traffic.  The float32
# inference kernels bypass Tensor entirely, which is what the
# ``nn.tensor_allocs_per_req`` metric of the serving benchmark
# (``benchmarks/perf``) counts.
_ALLOC_EVENTS = 0


def allocation_events() -> int:
    """Return the number of Tensor constructions since process start."""
    return _ALLOC_EVENTS


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether autodiff graph recording is enabled on this thread."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


class _BackwardPass:
    """One backward pass's pending gradients and, for a pass restricted
    to some inputs, the ids of the nodes on a path to them."""

    __slots__ = ("grads", "relevant")

    def __init__(self, grads: dict[int, np.ndarray],
                 relevant: set[int] | None):
        self.grads = grads
        self.relevant = relevant


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64`` for gradient-check
        fidelity (models are small, so precision beats speed here).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "_pending_grads")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        global _ALLOC_EVENTS
        _ALLOC_EVENTS += 1
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape), requires_grad=requires_grad)

    @classmethod
    def ones(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Gradient bookkeeping
    # ------------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None,
                 inputs: Sequence["Tensor"] | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (only valid for scalar outputs, the
        usual loss case).  ``inputs``, when given, restricts the pass to
        those leaves: only nodes on a path to one of them are visited,
        only they accumulate ``.grad``, and the ops skip the gradients
        nobody reads (a Linear layer's weight gemm, for one).  Parameters
        outside ``inputs`` are left untouched, so concurrent restricted
        passes through one shared model never write to it.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        relevant = None
        if inputs is not None:
            # ``topo`` lists parents before children, so one pass marks
            # every node that some input flows into.
            relevant = {id(t) for t in inputs}
            for node in topo:
                if any(id(p) in relevant for p in node._parents):
                    relevant.add(id(node))
        grads: dict[int, np.ndarray] = {id(self): grad}
        state = _BackwardPass(grads, relevant)
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Interior node: flow into parents via the recorded closure.
            node._pending_grads = state  # type: ignore[attr-defined]
            node._backward(node_grad)
            del node._pending_grads  # type: ignore[attr-defined]
            if not node._parents:
                node._accumulate(node_grad)

    def _needs(self, parent: "Tensor") -> bool:
        """Whether the running backward pass wants ``parent``'s gradient."""
        if not parent.requires_grad:
            return False
        relevant = self._pending_grads.relevant  # type: ignore[attr-defined]
        return relevant is None or id(parent) in relevant

    def _flow(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route ``grad`` to ``parent`` during a backward pass."""
        if not self._needs(parent):
            return
        if parent._backward is None and not parent._parents:
            parent._accumulate(grad)
            return
        pending = self._pending_grads.grads  # type: ignore[attr-defined]
        key = id(parent)
        if key in pending:
            pending[key] = pending[key] + grad
        else:
            pending[key] = grad

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray, out=None) -> None:
            if out._needs(self):
                out._flow(self, _unbroadcast(grad, self.shape))
            if out._needs(other):
                out._flow(other, _unbroadcast(grad, other.shape))

        out = self._make(out_data, (self, other), lambda g: backward(g, out))
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, -grad)

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray, out=None) -> None:
            if out._needs(self):
                out._flow(self, _unbroadcast(grad * other.data, self.shape))
            if out._needs(other):
                out._flow(other, _unbroadcast(grad * self.data, other.shape))

        out = self._make(out_data, (self, other), lambda g: backward(g, out))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray, out=None) -> None:
            if out._needs(self):
                out._flow(self, _unbroadcast(grad / other.data, self.shape))
            if out._needs(other):
                out._flow(other, _unbroadcast(
                    -grad * self.data / (other.data ** 2), other.shape))

        out = self._make(out_data, (self, other), lambda g: backward(g, out))
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ShapeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad * exponent * self.data ** (exponent - 1))

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray, out=None) -> None:
            a, b = self.data, other.data
            if out._needs(self):
                if b.ndim == 1:
                    ga = grad * b if a.ndim == 1 else np.outer(grad, b)
                elif a.ndim == 1:
                    ga = grad @ b.T
                else:
                    ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                out._flow(self, ga)
            if out._needs(other):
                if a.ndim == 1:
                    gb = grad * a if b.ndim == 1 else np.outer(a, grad)
                elif b.ndim == 1:
                    gb = a.T @ grad
                else:
                    gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
                out._flow(other, gb)

        out = self._make(out_data, (self, other), lambda g: backward(g, out))
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad * out_data)

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad / self.data)

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad * (1.0 - out_data ** 2))

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad * out_data * (1.0 - out_data))

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad * mask)

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    # ------------------------------------------------------------------
    # Reductions and reshapes
    # ------------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, out=None) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            out._flow(self, np.broadcast_to(g, self.shape).copy())

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else (
            np.prod([self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, out=None) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            full = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = (self.data == full)
            # Split gradient evenly across ties for determinism.
            mask = mask / mask.sum(axis=axis, keepdims=True)
            out._flow(self, g * mask)

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad.reshape(self.shape))

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = axes or tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward(grad: np.ndarray, out=None) -> None:
            out._flow(self, grad.transpose(inverse))

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray, out=None) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            out._flow(self, full)

        out = self._make(np.array(out_data, copy=True), (self,), lambda g: backward(g, out))
        return out

    def take_rows(self, indices) -> "Tensor":
        """Embedding-style lookup: gather rows by integer index array."""
        idx = np.asarray(indices, dtype=np.intp)
        out_data = self.data[idx]

        def backward(grad: np.ndarray, out=None) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            out._flow(self, full)

        out = self._make(out_data, (self,), lambda g: backward(g, out))
        return out


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis if axis >= 0 else t.ndim + axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray, out=None) -> None:
        ax = axis if axis >= 0 else grad.ndim + axis
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[ax] = slice(start, stop)
            out._flow(tensor, grad[tuple(slicer)])

    out = tensors[0]._make(out_data, tensors, lambda g: backward(g, out))
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack() requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray, out=None) -> None:
        for i, tensor in enumerate(tensors):
            out._flow(tensor, np.take(grad, i, axis=axis))

    out = tensors[0]._make(out_data, tensors, lambda g: backward(g, out))
    return out
