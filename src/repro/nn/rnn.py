"""Recurrent cells and sequence layers (LSTM, BiLSTM and BiGRU).

Sequences are represented as Python lists of ``(batch, features)``
tensors — one entry per time step.  This keeps per-step autodiff graphs
simple and lets the attention layers index encoder states directly.

The stacked variants insert an affine transformation before each layer,
exactly as the paper specifies for both the classifier's question/column
LSTMs (Section IV-B) and the seq2seq encoder (Section V-B):
``x_i^(l+1) = L^(l+1)(h_i^(l))`` with ``L^l(x) = W_0^l x + b_0^l``.

Each sequence layer has one Tensor ``forward``, a lockstep runner: B
variable-length sequences, packed into per-step ``(B, features)``
tensors with :func:`pack_steps`, advance through ONE cell call per time
step.  Finished lanes are length-masked with a hold update
``h ← h_new·m + h·(1−m)``; the backward direction iterates global time
from the end with the same ``t < len_b`` mask and stores each state at
its original index, so lane ``b``'s outputs match running that sequence
alone (exactly — masked lanes never contaminate live ones).  A single
sequence is the one-lane case with no ``lengths``.  The ``*_np``
methods are the float32 kernel twins used at inference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import sigmoid_, tanh_
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat

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


def _blend_(h: np.ndarray, h_new: np.ndarray, m: np.ndarray) -> None:
    """In-place hold update ``h ← h_new·m + h·(1−m)``; destroys ``h_new``."""
    np.subtract(h_new, h, out=h_new)
    h_new *= m
    h += h_new


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
        if x.shape[-1] != self.input_size:
            raise ShapeError(f"LSTMCell expected input {self.input_size}, got {x.shape}")
        z = self.gates(concat([x, h], axis=-1))
        hs = self.hidden_size
        i = z[:, 0 * hs:1 * hs].sigmoid()
        f = z[:, 1 * hs:2 * hs].sigmoid()
        g = z[:, 2 * hs:3 * hs].tanh()
        o = z[:, 3 * hs:4 * hs].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def step_np(self, xh: np.ndarray,
                c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float32 twin of :meth:`forward`: ``(h_next, c_next)``.

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
        if x.shape[-1] != self.input_size:
            raise ShapeError(f"GRUCell expected input {self.input_size}, got {x.shape}")
        gates = self.zr(concat([x, h], axis=-1))
        hs = self.hidden_size
        z = gates[:, :hs].sigmoid()
        r = gates[:, hs:].sigmoid()
        h_tilde = self.candidate(concat([x, r * h], axis=-1)).tanh()
        return (1.0 - z) * h + z * h_tilde

    def step_np(self, xh: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Float32 twin of :meth:`forward`: the next hidden state.

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

    def forward_batch_np(self, inputs: np.ndarray,
                         lengths: np.ndarray | None,
                         reverse: bool = False) -> np.ndarray:
        """Float32 twin of :meth:`forward` on a ``(T, B, feat)`` array;
        returns ``(T, B, hidden)``.

        The per-layer pre-transform runs as ONE ``(T·B, feat)`` matmul.
        """
        total, batch, _ = inputs.shape
        masks = _masks_np(lengths, total, batch)
        order = range(total - 1, -1, -1) if reverse else range(total)
        cur = inputs
        for pre, cell in zip(self.pre, self.cells):
            hs = cell.hidden_size
            x = pre.forward_np(cur.reshape(total * batch, -1)
                               ).reshape(total, batch, hs)
            out = np.empty((total, batch, hs), dtype=np.float32)
            h = np.zeros((batch, hs), dtype=np.float32)
            c = np.zeros((batch, hs), dtype=np.float32)
            xh = np.empty((batch, 2 * hs), dtype=np.float32)
            for t in order:
                xh[:, :hs] = x[t]
                xh[:, hs:] = h
                hn, cn = cell.step_np(xh, c)
                if masks is not None:
                    _blend_(h, hn, masks[t])
                    _blend_(c, cn, masks[t])
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
        """Float32 twin of :meth:`forward`; returns ``(T, B, 2H)``."""
        fwd = self.forward_rnn.forward_batch_np(inputs, lengths)
        bwd = self.backward_rnn.forward_batch_np(inputs, lengths,
                                                 reverse=True)
        return np.concatenate([fwd, bwd], axis=-1)


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
