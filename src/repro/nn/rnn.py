"""Recurrent cells and sequence layers (LSTM, BiLSTM and BiGRU).

Sequences are represented as Python lists of ``(batch, features)``
tensors — one entry per time step.  This keeps per-step autodiff graphs
simple and lets the attention layers index encoder states directly.

The stacked variants insert an affine transformation before each layer,
exactly as the paper specifies for both the classifier's question/column
LSTMs (Section IV-B) and the seq2seq encoder (Section V-B):
``x_i^(l+1) = L^(l+1)(h_i^(l))`` with ``L^l(x) = W_0^l x + b_0^l``.

Each cell has one body, the dtype-generic ``step_np``, and its
hand-written vector-Jacobian product ``step_vjp``.  The cell's Tensor
``forward`` is ONE autodiff node over them: ``step_np`` in float64
forward, ``step_vjp`` backward.  Inference runs ``step_np`` in float32
with no graph, and the column classifier's adversarial pass (Section
IV-C) runs both in float64 to take ``dL/dE(w)`` without a graph.  The
GRU update is ``h + z·(h̃ − h)`` on every path.

Each sequence layer has one Tensor ``forward``, a lockstep runner: B
variable-length sequences, packed into per-step ``(B, features)``
tensors with :func:`pack_steps`, advance through ONE cell call per time
step.  Finished lanes are length-masked with a hold update
``h ← h_new·m + h·(1−m)``; the backward direction iterates global time
from the end with the same ``t < len_b`` mask and stores each state at
its original index, so lane ``b``'s outputs match running that sequence
alone (exactly — masked lanes never contaminate live ones).  A single
sequence is the one-lane case with no ``lengths``.  The ``*_np``
methods run the same cells on arrays: float32 kernels for the question
LSTM and the translator's BiGRU, and a float64
``BiLSTM.forward_batch_np`` for the column encoder, equal to the Tensor
``forward`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import sigmoid_, tanh_
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, fused

__all__ = ["LSTMCell", "GRUCell", "LSTM", "BiLSTM", "BiGRU", "pack_steps"]


def pack_steps(sequences: list[list[Tensor]],
               ) -> tuple[list[Tensor], np.ndarray]:
    """Pack B per-item sequences into lockstep ``(B, features)`` steps.

    Each input sequence is a list of ``(1, features)`` tensors.  Returns
    ``(steps, lengths)`` where ``steps[t]`` stacks row ``b`` from
    sequence ``b`` (zero rows past its length) and ``lengths[b]`` is the
    true length of sequence ``b`` — the mask the layers' ``forward`` needs.
    """
    if not sequences or any(not seq for seq in sequences):
        raise ShapeError("pack_steps() requires non-empty sequences")
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    total = int(lengths.max())
    feat = sequences[0][0].shape[-1]
    pad = Tensor.zeros(1, feat)
    steps = [concat([seq[t] if t < len(seq) else pad for seq in sequences],
                    axis=0)
             for t in range(total)]
    return steps, lengths


def _step_masks(lengths: np.ndarray | None, total: int,
                batch: int) -> list[Tensor] | None:
    """Per-step hold masks ``(B, 1)``, or ``None`` when nothing to mask."""
    if lengths is None:
        return None
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,):
        raise ShapeError(
            f"lengths shape {lengths.shape} does not match batch {batch}")
    if lengths.min() == total:
        return None
    return [Tensor((lengths > t).astype(np.float64).reshape(batch, 1))
            for t in range(total)]


def _masks_np(lengths: np.ndarray | None, total: int, batch: int,
              dtype=np.float32) -> np.ndarray | None:
    """``(T, B, 1)`` hold masks, or ``None`` when nothing to mask."""
    if lengths is None:
        return None
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,):
        raise ShapeError(
            f"lengths shape {lengths.shape} does not match batch {batch}")
    if lengths.min() == total:
        return None
    return (lengths[None, :, None]
            > np.arange(total)[:, None, None]).astype(dtype)


class LSTMCell(Module):
    """A single LSTM cell with fused gates."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.gates = Linear(input_size + hidden_size, 4 * hidden_size, rng)

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        """Return zero hidden/memory states for ``batch`` sequences."""
        return Tensor.zeros(batch, self.hidden_size), Tensor.zeros(batch, self.hidden_size)

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One step as one autodiff node: :meth:`step_np` forward,
        :meth:`step_vjp` backward; returns ``(h_next, c_next)``."""
        if x.shape[-1] != self.input_size:
            raise ShapeError(f"LSTMCell expected input {self.input_size}, got {x.shape}")
        xh = np.concatenate([x.data, h.data], axis=-1)
        n, hs = self.input_size, self.hidden_size

        def vjp(grad):
            dxh, dc_prev, dz = self.step_vjp(xh, c.data, grad[:, :hs],
                                             grad[:, hs:])
            return (dxh[:, :n], dxh[:, n:], dc_prev, xh.T @ dz,
                    dz.sum(axis=0))

        hc = fused(np.concatenate(self.step_np(xh, c.data), axis=-1),
                   (x, h, c, self.gates.weight, self.gates.bias), vjp)
        return hc[:, :hs], hc[:, hs:]

    def step_np(self, xh: np.ndarray,
                c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell's step on arrays, in their dtype: ``(h_next, c_next)``.

        ``xh`` is the preassembled ``(B, input+hidden)`` array; every
        nonlinearity runs in place on the fused gate matmul's output.
        """
        hs = self.hidden_size
        z = self.gates.forward_np(xh)
        i = z[:, 0 * hs:1 * hs]
        f = z[:, 1 * hs:2 * hs]
        g = z[:, 2 * hs:3 * hs]
        o = z[:, 3 * hs:4 * hs]
        sigmoid_(i)
        sigmoid_(f)
        tanh_(g)
        sigmoid_(o)
        c_next = np.multiply(f, c)
        i *= g
        c_next += i
        h_next = np.tanh(c_next)
        h_next *= o
        return h_next, c_next

    def step_vjp(self, xh: np.ndarray, c: np.ndarray, dh: np.ndarray,
                 dc: np.ndarray):
        """Vector-Jacobian product of :meth:`step_np` at ``(xh, c)``.

        Given ``dL/dh_next`` and ``dL/dc_next``, returns ``(dL/dxh,
        dL/dc, dz)``; ``dz``, the gates' pre-activation gradient, gives
        training ``dL/dW = xh.T @ dz`` and ``dL/db = Σ dz``.  The gates
        are recomputed from ``xh``.  Runs on the float64 parameters.
        """
        hs = self.hidden_size
        z = self.gates.forward_np(xh)
        i = sigmoid_(z[:, 0 * hs:1 * hs])
        f = sigmoid_(z[:, 1 * hs:2 * hs])
        g = tanh_(z[:, 2 * hs:3 * hs])
        o = sigmoid_(z[:, 3 * hs:4 * hs])
        tanh_c = np.tanh(f * c + i * g)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(z)
        dz[:, 0 * hs:1 * hs] = dc * g * i * (1.0 - i)
        dz[:, 1 * hs:2 * hs] = dc * c * f * (1.0 - f)
        dz[:, 2 * hs:3 * hs] = dc * i * (1.0 - g * g)
        dz[:, 3 * hs:4 * hs] = dh * tanh_c * o * (1.0 - o)
        return dz @ self.gates.weight.data.T, dc * f, dz


class GRUCell(Module):
    """A single GRU cell (update/reset gates + candidate state)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.zr = Linear(input_size + hidden_size, 2 * hidden_size, rng)
        self.candidate = Linear(input_size + hidden_size, hidden_size, rng)

    def initial_state(self, batch: int) -> Tensor:
        """Return a zero hidden state for ``batch`` sequences."""
        return Tensor.zeros(batch, self.hidden_size)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step as one autodiff node: :meth:`step_np` forward,
        :meth:`step_vjp` backward; returns the next hidden state."""
        if x.shape[-1] != self.input_size:
            raise ShapeError(f"GRUCell expected input {self.input_size}, got {x.shape}")
        xh = np.concatenate([x.data, h.data], axis=-1)
        n = self.input_size

        def vjp(dh):
            dxh, dzr, u, dp = self.step_vjp(xh, dh)
            return (dxh[:, :n], dxh[:, n:], xh.T @ dzr, dzr.sum(axis=0),
                    u.T @ dp, dp.sum(axis=0))

        return fused(self.step_np(xh.copy(), h.data),
                     (x, h, self.zr.weight, self.zr.bias,
                      self.candidate.weight, self.candidate.bias), vjp)

    def step_np(self, xh: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The cell's step on arrays, in their dtype: the next hidden
        state ``h + z·(h̃ − h)``.

        ``xh`` is the preassembled ``(B, input+hidden)`` array with the
        input in columns ``[:input]`` and ``h`` copied into columns
        ``[input:]``.  The hidden columns are overwritten with ``r·h``
        for the candidate matmul, so ``xh`` is destroyed.
        """
        hs = self.hidden_size
        zr = self.zr.forward_np(xh)
        z = zr[:, :hs]
        r = zr[:, hs:]
        sigmoid_(z)
        sigmoid_(r)
        np.multiply(r, h, out=xh[:, self.input_size:])
        ht = tanh_(self.candidate.forward_np(xh))
        # h + z·(ht − h), in place in ht
        np.subtract(ht, h, out=ht)
        ht *= z
        return np.add(h, ht, out=ht)

    def step_vjp(self, xh: np.ndarray, dh: np.ndarray):
        """Vector-Jacobian product of :meth:`step_np` at ``xh``.

        ``xh`` is the step's input as :meth:`step_np` received it, the
        input and then ``h``.  Given ``dL/dh_next``, returns ``(dL/dxh,
        dzr, u, dp)``: the hidden columns of ``dL/dxh`` are the whole
        gradient of ``h``, and ``dzr``/``dp`` the pre-activation
        gradients of ``zr``/``candidate``, whose inputs are ``xh`` and
        ``u``.  The gates are recomputed from ``xh``.  Runs on the float64
        parameters.
        """
        n, hs = self.input_size, self.hidden_size
        h = xh[:, n:]
        zr = self.zr.forward_np(xh)
        z = sigmoid_(zr[:, :hs])
        r = sigmoid_(zr[:, hs:])
        u = xh.copy()
        np.multiply(r, h, out=u[:, n:])
        ht = tanh_(self.candidate.forward_np(u))
        dp = dh * z * (1.0 - ht * ht)
        du = dp @ self.candidate.weight.data.T
        dzr = np.empty_like(zr)
        dzr[:, :hs] = dh * (ht - h) * z * (1.0 - z)
        dzr[:, hs:] = du[:, n:] * h * r * (1.0 - r)
        dxh = dzr @ self.zr.weight.data.T
        dxh[:, :n] += du[:, :n]
        dxh[:, n:] += dh * (1.0 - z) + du[:, n:] * r
        return dxh, dzr, u, dp


def _check_steps(steps: list[Tensor]) -> None:
    if not steps:
        raise ShapeError("RNN received an empty sequence")


class LSTM(Module):
    """Stacked unidirectional LSTM with per-layer affine pre-transforms."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, num_layers: int = 1):
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.pre = [Linear(input_size if l == 0 else hidden_size, hidden_size, rng)
                    for l in range(num_layers)]
        self.cells = [LSTMCell(hidden_size, hidden_size, rng) for _ in range(num_layers)]

    def forward(self, steps: list[Tensor],
                lengths: np.ndarray | None = None,
                reverse: bool = False) -> list[Tensor]:
        """Lockstep run over B packed sequences (see :func:`pack_steps`);
        returns the top layer's hidden states per step.

        With ``reverse=True`` every layer consumes global time from the
        end; outputs stay at their original indices, so lane ``b``
        matches a one-lane run over its reversed sequence (its first
        live step is ``t = lengths[b] - 1``, from the zero state).
        """
        _check_steps(steps)
        batch = steps[0].shape[0]
        masks = _step_masks(lengths, len(steps), batch)
        order = range(len(steps) - 1, -1, -1) if reverse \
            else range(len(steps))
        outputs = list(steps)
        for pre, cell in zip(self.pre, self.cells):
            h, c = cell.initial_state(batch)
            layer_out: list[Tensor | None] = [None] * len(steps)
            for t in order:
                h_new, c_new = cell(pre(outputs[t]), h, c)
                if masks is not None:
                    m = masks[t]
                    h = h_new * m + h * (1.0 - m)
                    c = c_new * m + c * (1.0 - m)
                else:
                    h, c = h_new, c_new
                layer_out[t] = h
            outputs = layer_out
        return outputs

    def forward_batch_np(self, inputs: np.ndarray, lengths: np.ndarray | None,
                         reverse: bool = False) -> np.ndarray:
        """Twin of :meth:`forward` on a ``(T, B, feat)`` array, in its
        dtype; returns ``(T, B, hidden)``.

        Float32 is the inference kernel: the per-layer pre-transform runs
        as ONE ``(T·B, feat)`` matmul.  Float64 runs on the parameters
        and keeps the Tensor forward's per-step ``(B, feat)`` matmuls (one
        stacked matmul), so it equals :meth:`forward` bit for bit
        whatever BLAS kernels are loaded.  The hold is a masked copy, so
        a finished lane carries its state over exactly, as the Tensor
        blend does.
        """
        total, batch, _ = inputs.shape
        masks = _masks_np(lengths, total, batch, np.bool_)
        order = range(total - 1, -1, -1) if reverse else range(total)
        dtype = inputs.dtype
        cur = inputs
        for pre, cell in zip(self.pre, self.cells):
            hs = cell.hidden_size
            if dtype == np.float64:
                x = pre.forward_np(cur)
            else:
                x = pre.forward_np(cur.reshape(total * batch, -1)
                                   ).reshape(total, batch, hs)
            out = np.empty((total, batch, hs), dtype=dtype)
            h = np.zeros((batch, hs), dtype=dtype)
            c = np.zeros((batch, hs), dtype=dtype)
            xh = np.empty((batch, 2 * hs), dtype=dtype)
            for t in order:
                xh[:, :hs] = x[t]
                xh[:, hs:] = h
                hn, cn = cell.step_np(xh, c)
                if masks is not None:
                    np.copyto(h, hn, where=masks[t])
                    np.copyto(c, cn, where=masks[t])
                else:
                    h, c = hn, cn
                out[t] = h
            cur = out
        return cur


class BiLSTM(Module):
    """Bidirectional LSTM; output per step is ``[forward; backward]``."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, num_layers: int = 1):
        super().__init__()
        self.hidden_size = hidden_size
        self.forward_rnn = LSTM(input_size, hidden_size, rng, num_layers)
        self.backward_rnn = LSTM(input_size, hidden_size, rng, num_layers)

    def forward(self, steps: list[Tensor],
                lengths: np.ndarray | None = None) -> list[Tensor]:
        """Lockstep bidirectional run; per-step ``[forward; backward]``."""
        _check_steps(steps)
        fwd = self.forward_rnn(steps, lengths)
        bwd = self.backward_rnn(steps, lengths, reverse=True)
        return [concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]

    def forward_batch_np(self, inputs: np.ndarray,
                         lengths: np.ndarray | None) -> np.ndarray:
        """Twin of :meth:`forward` on a ``(T, B, feat)`` array (see
        :meth:`LSTM.forward_batch_np`); returns ``(T, B, 2·hidden)``."""
        return np.concatenate(
            [self.forward_rnn.forward_batch_np(inputs, lengths),
             self.backward_rnn.forward_batch_np(inputs, lengths,
                                                reverse=True)], axis=-1)


class BiGRU(Module):
    """Stacked bidirectional GRU — the paper's seq2seq encoder backbone.

    Layer ``l+1`` consumes the concatenated forward/backward states of
    layer ``l`` through an affine transform, matching Section V-B.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, num_layers: int = 1):
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.pre = [Linear(input_size if l == 0 else 2 * hidden_size, hidden_size, rng)
                    for l in range(num_layers)]
        self.fwd_cells = [GRUCell(hidden_size, hidden_size, rng) for _ in range(num_layers)]
        self.bwd_cells = [GRUCell(hidden_size, hidden_size, rng) for _ in range(num_layers)]

    def forward(self, steps: list[Tensor],
                lengths: np.ndarray | None = None) -> list[Tensor]:
        """Lockstep bidirectional run; per-step ``[forward; backward]``
        states of the top layer."""
        _check_steps(steps)
        batch = steps[0].shape[0]
        masks = _step_masks(lengths, len(steps), batch)
        total = len(steps)
        outputs = list(steps)
        for pre, fwd_cell, bwd_cell in zip(self.pre, self.fwd_cells,
                                           self.bwd_cells):
            inputs = [pre(x) for x in outputs]
            halves = []
            for cell, order in ((fwd_cell, range(total)),
                                (bwd_cell, range(total - 1, -1, -1))):
                h = cell.initial_state(batch)
                states: list[Tensor | None] = [None] * total
                for t in order:
                    h_new = cell(inputs[t], h)
                    if masks is not None:
                        m = masks[t]
                        h = h_new * m + h * (1.0 - m)
                    else:
                        h = h_new
                    states[t] = h
                halves.append(states)
            outputs = [concat([f, b], axis=-1) for f, b in zip(*halves)]
        return outputs

    def forward_batch_np(self, inputs: np.ndarray,
                         lengths: np.ndarray | None) -> np.ndarray:
        """Float32 twin of :meth:`forward`; returns ``(T, B, 2H)``.

        Matches the Tensor layout: layer ``l+1`` consumes the previous
        layer's concatenated ``[forward; backward]`` states through its
        affine pre-transform, run as one ``(T·B, feat)`` matmul.  The
        translator encodes a whole cohort of ragged questions here, so
        the hold is a masked copy rather than the arithmetic blend: a
        padded lane's states then equal its unpadded run bit for bit by
        construction, not by a rounding identity of the cell's update.
        """
        total, batch, _ = inputs.shape
        masks = _masks_np(lengths, total, batch, np.bool_)
        cur = inputs
        for pre, fwd_cell, bwd_cell in zip(self.pre, self.fwd_cells,
                                           self.bwd_cells):
            hs = fwd_cell.hidden_size
            x = pre.forward_np(cur.reshape(total * batch, -1)
                               ).reshape(total, batch, hs)
            out = np.empty((total, batch, 2 * hs), dtype=np.float32)
            xh = np.empty((batch, 2 * hs), dtype=np.float32)
            for direction, cell, order in (
                    (0, fwd_cell, range(total)),
                    (1, bwd_cell, range(total - 1, -1, -1))):
                h = np.zeros((batch, hs), dtype=np.float32)
                lo, hi = direction * hs, (direction + 1) * hs
                for t in order:
                    xh[:, :hs] = x[t]
                    xh[:, hs:] = h
                    hn = cell.step_np(xh, h)
                    if masks is not None:
                        np.copyto(h, hn, where=masks[t])
                    else:
                        h = hn
                    out[t, :, lo:hi] = h
            cur = out
        return cur
