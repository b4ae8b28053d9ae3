"""Column Mention Binary Classifier (Section IV-B).

Given a question ``q`` and a column ``c`` (both as word sequences), the
classifier predicts whether ``c`` is mentioned in ``q``.  Architecture,
following the paper:

(i)   a **word embedder** ``emb(w) = [E_word(w), E_char(w)]`` — frozen
      semantic word vectors (our GloVe stand-in) concatenated with a
      trainable multi-width character CNN;
(ii)  an LSTM over the question and a separate BiLSTM over the column,
      each with per-layer affine pre-transforms;
(iii) a bidirectional LSTM over the column states whose input at step
      ``t`` is ``[s_t^c ; Σ_j α_tj s_j^q]`` with additive attention
      scores ``e_t = v^T tanh(W1 S^q + (W2 s_t^c + W3 d_{t-1} + b) ⊗ e_n)``,
      followed by an MLP over the zero-padded concatenation of all
      ``d_t``.

Training needs only (question, SQL) pairs: the positive label for
``(q, c)`` is "column ``c`` appears in the SQL of ``q``".

The network above the column encoder (question LSTM, attention,
attentive BiLSTM, similarity features and head) has one float64 body,
``ColumnMentionClassifier._network64``, with a hand-written reverse.
Training runs it as ONE autodiff node (``forward``), adversarial
localization without a graph (``embedding_gradients``); serving
scores with the float32 kernel ``score_columns_multi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.errors import ModelError
from repro.nn import (
    MLP,
    Adam,
    AdditiveAttention,
    BiLSTM,
    CharConvEncoder,
    LSTM,
    LSTMCell,
    Module,
    Tensor,
    binary_cross_entropy_with_logits,
    clip_grad_norm,
    concat,
    current_generation,
    no_grad,
    pack_steps,
    sigmoid_,
    stack,
)
from repro.nn.rnn import _masks_np
from repro.nn.tensor import fused
from repro.text import CHAR_VOCAB_SIZE, WordEmbeddings, char_ids

__all__ = ["ClassifierConfig", "ColumnMentionClassifier", "EncodedColumns"]


@dataclass
class ClassifierConfig:
    """Hyper-parameters of the column-mention classifier."""

    word_dim: int = 32
    char_dim: int = 12
    char_out_per_width: int = 6
    char_widths: tuple[int, ...] = (3, 4, 5)
    hidden: int = 32
    question_layers: int = 1
    attention_dim: int = 32
    mlp_hidden: int = 32
    max_column_words: int = 4
    seed: int = 0

    @property
    def char_out(self) -> int:
        return self.char_out_per_width * len(self.char_widths)

    @property
    def emb_dim(self) -> int:
        return self.word_dim + self.char_out


@dataclass
class EncodedColumns:
    """Question-independent column-side encodings of one schema.

    ``states[t]`` holds the column BiLSTM output at step ``t`` for every
    column (rows past a column's length are padding) and ``units`` the
    unit-normalized word+char embeddings the similarity features use.
    Pure numpy — an inference artifact, safe to cache across requests
    until the classifier is retrained.
    """

    tokens: list[list[str]]      # per column, truncated to max words
    lengths: np.ndarray          # (B,) true token counts
    states: list[np.ndarray]     # T × (B, 2·hidden) column-RNN outputs
    units: np.ndarray            # (B, T, emb_dim); zero rows past length

    # Lazy float32 snapshot (stacked states, units) used by the float32
    # inference path.  Class-level None; built on first use and carried
    # through subset() so warm requests never re-cast.  Lives on the
    # cached SchemaEncoding, so it is invalidated with the schema cache
    # on refit.
    _f32: tuple[np.ndarray, np.ndarray] | None = None

    def as_f32(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(states32 (T, B, 2H), units32 (B, T, emb))``."""
        if self._f32 is None:
            states32 = np.ascontiguousarray(np.stack(self.states)
                                            if self.states else
                                            np.zeros((0, len(self.tokens), 0)),
                                            dtype=np.float32)
            units32 = np.ascontiguousarray(self.units, dtype=np.float32)
            self._f32 = (states32, units32)
        return self._f32

    def subset(self, indices: list[int]) -> "EncodedColumns":
        """Row-gather a sub-batch of columns (no recomputation)."""
        idx = np.asarray(indices, dtype=np.intp)
        lengths = self.lengths[idx]
        t_max = int(lengths.max()) if len(lengths) else 0
        sub = EncodedColumns(
            tokens=[self.tokens[i] for i in indices],
            lengths=lengths,
            states=[s[idx] for s in self.states[:t_max]],
            units=self.units[idx][:, :t_max])
        if self._f32 is not None:
            states32, units32 = self._f32
            sub._f32 = (np.ascontiguousarray(states32[:t_max, idx]),
                        np.ascontiguousarray(units32[idx][:, :t_max]))
        return sub

    @staticmethod
    def concat(parts: list["EncodedColumns"]) -> "EncodedColumns":
        """Stack several encodings' rows (e.g. different schemas) into
        one zero-padded batch, in order."""
        if len(parts) == 1:
            return parts[0]
        t_max = max(len(part.states) for part in parts)
        states = []
        for t in range(t_max):
            rows = [part.states[t] if t < len(part.states)
                    else np.zeros((len(part), part.states[0].shape[1]))
                    for part in parts]
            states.append(np.concatenate(rows))
        units = np.concatenate(
            [np.pad(part.units,
                    ((0, 0), (0, t_max - part.units.shape[1]), (0, 0)))
             for part in parts])
        return EncodedColumns(
            tokens=[tokens for part in parts for tokens in part.tokens],
            lengths=np.concatenate([part.lengths for part in parts]),
            states=states, units=units)

    def __len__(self) -> int:
        return len(self.tokens)


class ColumnMentionClassifier(Module):
    """The machine-comprehension binary classifier of Section IV-B."""

    def __init__(self, embeddings: WordEmbeddings,
                 config: ClassifierConfig | None = None):
        super().__init__()
        self.config = config or ClassifierConfig()
        if embeddings.dim != self.config.word_dim:
            raise ModelError(
                f"embeddings dim {embeddings.dim} != config.word_dim "
                f"{self.config.word_dim}")
        self.embeddings = embeddings
        rng = np.random.default_rng(self.config.seed)
        cfg = self.config

        self.char_encoder = CharConvEncoder(
            CHAR_VOCAB_SIZE, cfg.char_dim, cfg.char_out_per_width, rng,
            widths=cfg.char_widths)
        self.question_rnn = LSTM(cfg.emb_dim, cfg.hidden, rng,
                                 num_layers=cfg.question_layers)
        self.column_rnn = BiLSTM(cfg.emb_dim, cfg.hidden, rng)
        # Part (iii): attentive BiLSTM over column states.
        attn_in = 2 * cfg.hidden + cfg.hidden  # [s_t^c ; context over S^q]
        self.fwd_cell = LSTMCell(attn_in, cfg.hidden, rng)
        self.bwd_cell = LSTMCell(attn_in, cfg.hidden, rng)
        # Attention query is [s_t^c ; d_{t-1}] (equivalent to W2 s + W3 d + b).
        self.attention = AdditiveAttention(
            memory_dim=cfg.hidden, query_dim=2 * cfg.hidden + cfg.hidden,
            attention_dim=cfg.attention_dim, rng=rng)
        # tanh hidden units: the head sees zero-padded features, and a
        # ReLU hidden layer can die under Adam on this input pattern.
        # Head input: attentive BiLSTM states plus, per column word, the
        # max/mean cosine similarity against question words (the
        # BiDAF-style similarity term; computed in-graph so adversarial
        # gradients flow to exactly the matching question word).
        self.head = MLP(
            [(2 * cfg.hidden + 2) * cfg.max_column_words, cfg.mlp_hidden, 1],
            rng, hidden_activation="tanh")
        self._trained = False
        # emb(w) rows per dtype, valid for one model generation (see
        # _word_rows).
        self._rows32: dict[str, np.ndarray] = {}
        self._rows64: dict[str, np.ndarray] = {}
        self._rows_gen = -1

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def _word_vectors(self, words) -> dict[str, Tensor]:
        """``emb(w) = [E_word(w); E_char(w)]`` as one ``(1, emb_dim)``
        graph node per distinct word; the char CNN runs in the graph."""
        vectors: dict[str, Tensor] = {}
        for word in words:
            if word not in vectors:
                vectors[word] = concat(
                    [Tensor(self.embeddings.vector(word).reshape(1, -1)),
                     self.char_encoder(char_ids(word)).reshape(
                         1, self.config.char_out)], axis=-1)
        return vectors

    def _word_rows(self, dtype) -> dict[str, np.ndarray]:
        """The ``emb(w)`` rows of ``dtype`` computed under the current
        model generation, keyed by word.

        ``emb(w)`` depends only on the word and the weights, so a row is
        computed once per generation.  A generation change clears both
        dicts in place (they are never rebound, so inference adds or
        rebinds no attribute); every row is a pure function of its word
        and the weights, so threads racing to fill or clear a dict store
        the same bits.  Rows are read-only: a caller that wrote into one
        would corrupt every later request.
        """
        gen = current_generation()
        if self._rows_gen != gen:
            self._rows32.clear()
            self._rows64.clear()
            self._rows_gen = gen
        return self._rows64 if dtype == np.float64 else self._rows32

    def _embed_row(self, word: str, dtype) -> np.ndarray:
        """``[E_word(w); E_char(w)]`` as a read-only ``(emb_dim,)`` row of
        ``dtype``, from :meth:`_word_rows` or, on a miss, the char CNN."""
        rows = self._word_rows(dtype)
        row = rows.get(word)
        if row is None:
            row = np.concatenate(
                [self.embeddings.vector(word).astype(dtype, copy=False),
                 self.char_encoder.forward_np(char_ids(word), dtype)])
            row.flags.writeable = False
            rows[word] = row
        return row

    def _embed_rows64(self, words) -> dict[str, np.ndarray]:
        """``emb(w)`` in float64 on the parameters, one read-only row per
        distinct word, from the float64 :meth:`_word_rows` cache: the
        column encoder's and the adversarial pass's input, equal to
        :meth:`_word_vectors` bit for bit."""
        return {word: self._embed_row(word, np.float64) for word in words}

    def forward(self, pairs: list[tuple[list[str], list[str]]]) -> Tensor:
        """Logits ``(P,)`` of P ``(question, column)`` pairs, for
        training and :meth:`predict_proba`: the embedder (one char-CNN
        node per word), the column BiLSTM and the unit vectors in the
        graph, and ONE node above them (:meth:`_network`).  Every op is
        row-wise across pairs, so the *sum* of the per-pair losses gives
        each pair exactly its own gradients."""
        if not pairs:
            raise ModelError("forward() needs at least one pair")
        if any(not question or not column for question, column in pairs):
            raise ModelError("question and column must be non-empty")
        cfg = self.config
        questions = [question for question, _column in pairs]
        columns = [column[:cfg.max_column_words] for _q, column in pairs]

        vectors = self._word_vectors(
            word for sequence in questions + columns for word in sequence)
        steps, q_lengths = pack_steps([[vectors[w] for w in q]
                                       for q in questions])
        c_steps, c_lengths = pack_steps(
            [[vectors[w] for w in column] for column in columns])
        states = self.column_rnn(c_steps, c_lengths)
        c_matrix = stack(c_steps, axis=1)                        # (P, T, emb)
        units = c_matrix / ((c_matrix * c_matrix).sum(axis=2, keepdims=True)
                            + 1e-8) ** 0.5
        return self._network(steps, q_lengths, states, c_lengths, units)

    def _network(self, steps: list[Tensor], q_lengths: np.ndarray,
                 states: list[Tensor], c_lengths: np.ndarray,
                 units: Tensor) -> Tensor:
        """The network above the column encoder as ONE autodiff node
        over the packed question steps, the column BiLSTM states and the
        ``(P, T, emb)`` unit vectors: :meth:`_network64` forward,
        :meth:`_network_reverse` and :meth:`_network_grads` backward."""
        logits, tape = self._network64(
            np.stack([step.data for step in steps]), q_lengths,
            [state.data for state in states], c_lengths, units.data)
        params = [param for module in (self.question_rnn, self.attention,
                                       self.fwd_cell, self.bwd_cell, self.head)
                  for param in module.parameters()]

        def vjp(grad):
            d_steps = self._network_reverse(tape, grad)
            d_states, d_units, d_params = self._network_grads(tape)
            return [*d_steps, *d_states, d_units, *d_params]

        return fused(logits, [*steps, *states, units, *params], vjp)

    # ------------------------------------------------------------------
    # Training / inference
    # ------------------------------------------------------------------

    def fit(self, pairs: list[tuple[list[str], list[str], int]],
            epochs: int = 5, lr: float = 2e-3, clip: float = 5.0,
            shuffle_seed: int = 0, verbose: bool = False) -> list[float]:
        """Train on ``(question_tokens, column_tokens, label)`` triples.

        Returns the per-epoch mean loss.
        """
        if not pairs:
            raise ModelError("fit() needs at least one training pair")
        optimizer = Adam(self.parameters(), lr=lr)
        rng = np.random.default_rng(shuffle_seed)
        losses = []
        order = np.arange(len(pairs))
        for epoch in range(epochs):
            rng.shuffle(order)
            total = 0.0
            for idx in order:
                question, column, label = pairs[idx]
                optimizer.zero_grad()
                loss = binary_cross_entropy_with_logits(
                    self([(question, column)]), [float(label)])
                loss.backward()
                clip_grad_norm(self.parameters(), clip)
                optimizer.step()
                total += loss.item()
            losses.append(total / len(pairs))
            if verbose:
                print(f"[column-classifier] epoch {epoch + 1}: "
                      f"loss={losses[-1]:.4f}")
        self._trained = True
        return losses

    def predict_proba(self, question: list[str], column: list[str]) -> float:
        """Probability that ``column`` is mentioned in ``question``."""
        with no_grad():
            logit = self([(question, column)]).item()
        return float(1.0 / (1.0 + np.exp(-logit)))

    # ------------------------------------------------------------------
    # Batched inference (the vectorized fast path)
    # ------------------------------------------------------------------

    def encode_columns(self, columns: list[list[str]]) -> EncodedColumns:
        """Precompute the question-independent side of every column.

        One lockstep column-BiLSTM pass over all B columns, in float64
        numpy on the parameters (:meth:`BiLSTM.forward_batch_np`, equal
        to the Tensor forward bit for bit), over header-word rows from
        the float64 word-row cache (:meth:`_embed_rows64`); the result
        is a numpy artifact reusable across every question asked against
        the same schema (see :class:`EncodedColumns`).
        """
        if not columns:
            raise ModelError("encode_columns() needs at least one column")
        cfg = self.config
        tokens = [list(column[:cfg.max_column_words]) for column in columns]
        if any(not column for column in tokens):
            raise ModelError("question and column must be non-empty")
        rows = self._embed_rows64(word for column in tokens for word in column)
        lengths = np.array([len(column) for column in tokens], dtype=np.intp)
        steps = np.zeros((int(lengths.max()), len(tokens), cfg.emb_dim))
        units = np.zeros((len(tokens), len(steps), cfg.emb_dim))
        unit_rows = {word: vec / np.sqrt((vec * vec).sum() + 1e-8)
                     for word, vec in rows.items()}
        for b, column in enumerate(tokens):
            for t, word in enumerate(column):
                steps[t, b] = rows[word]
                units[b, t] = unit_rows[word]
        states = list(self.column_rnn.forward_batch_np(steps, lengths))
        return EncodedColumns(tokens=tokens, lengths=lengths,
                              states=states, units=units)

    def score_columns(self, question: list[str],
                      columns: list[list[str]] | None = None, *,
                      encoded: EncodedColumns | None = None) -> np.ndarray:
        """Mention probabilities of many columns in one batched pass.

        A one-request :meth:`score_columns_multi`: the question side
        runs once and the attentive BiLSTM advances all columns in
        lockstep with batched attention.  Equals per-column
        :meth:`predict_proba` to float32 working precision.  Pass
        ``encoded`` to reuse a cached :meth:`encode_columns` artifact.
        """
        if not question:
            raise ModelError("question and column must be non-empty")
        if encoded is None:
            if not columns:
                raise ModelError("score_columns() needs columns or encoded=")
            encoded = self.encode_columns(columns)
        return self.score_columns_multi([(question, encoded)])[0]

    # ------------------------------------------------------------------
    # Float32 inference kernels (no Tensor constructions)
    # ------------------------------------------------------------------

    def _question_side_np(self, question: list[str],
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float32 question side of :meth:`score_columns_multi`.

        Returns ``(memory (n, hidden), memory_proj (n, attn), q_unit
        (n, emb))``.  The question's rows are copied from the float32
        :meth:`_word_rows` cache.
        """
        cfg = self.config
        n = len(question)
        emb = np.stack([self._embed_row(word, np.float32)
                        for word in question])
        memory = self.question_rnn.forward_batch_np(
            emb.reshape(n, 1, cfg.emb_dim), None).reshape(n, cfg.hidden)
        mp = self.attention.project_memory_np(memory)
        q_unit = np.multiply(emb, emb)
        norms = np.sum(q_unit, axis=1, keepdims=True)
        norms += 1e-8
        np.sqrt(norms, out=norms)
        np.divide(emb, norms, out=q_unit)
        return memory, mp, q_unit

    def _attentive_pass_np(self, states32: np.ndarray,
                           lengths: np.ndarray, attend,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Run both attentive-LSTM directions over ``(T, B, 2H)`` states.

        ``attend(query)`` computes the attention contexts, each
        request's rows over its own question memory; returns the
        ``(T, B, H)`` forward and backward outputs.
        """
        total, batch, _ = states32.shape
        hs = self.config.hidden
        masks = _masks_np(lengths, total, batch, np.bool_)
        outs = []
        for direction, cell in ((0, self.fwd_cell), (1, self.bwd_cell)):
            out = np.empty((total, batch, hs), dtype=np.float32)
            h = np.zeros((batch, hs), dtype=np.float32)
            c = np.zeros((batch, hs), dtype=np.float32)
            query = np.empty((batch, 3 * hs), dtype=np.float32)
            xh = np.empty((batch, 4 * hs), dtype=np.float32)
            order = range(total - 1, -1, -1) if direction else range(total)
            for t in order:
                s_t = states32[t]
                query[:, :2 * hs] = s_t
                query[:, 2 * hs:] = h
                contexts = attend(query)
                xh[:, :2 * hs] = s_t
                xh[:, 2 * hs:3 * hs] = contexts
                xh[:, 3 * hs:] = h
                hn, cn = cell.step_np(xh, c)
                if masks is not None:
                    np.copyto(h, hn, where=masks[t])
                    np.copyto(c, cn, where=masks[t])
                else:
                    h, c = hn, cn
                out[t] = h
            outs.append(out)
        return outs[0], outs[1]

    def _features_np(self, fwd: np.ndarray, bwd: np.ndarray,
                     sim_max: np.ndarray, sim_mean: np.ndarray,
                     lengths: np.ndarray, rows: slice,
                     features: np.ndarray) -> None:
        """Fill one request's rows of the zero-padded feature matrix."""
        cfg = self.config
        hs = cfg.hidden
        width = 2 * hs + 2
        total = sim_max.shape[1]
        for t in range(total):
            seg = features[rows, t * width:(t + 1) * width]
            seg[:, :hs] = fwd[t, rows]
            seg[:, hs:2 * hs] = bwd[t, rows]
            seg[:, 2 * hs] = sim_max[:, t]
            seg[:, 2 * hs + 1] = sim_mean[:, t]
            invalid = lengths <= t
            if invalid.any():
                seg[invalid] = 0.0

    @staticmethod
    def _sims_np(units32: np.ndarray, q_unit: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Max/mean cosine similarities: ``(B, T)`` each."""
        sims = np.matmul(units32, q_unit.T)
        return np.amax(sims, axis=2), np.mean(sims, axis=2)

    def score_columns_multi(
            self, items: list[tuple[list[str], EncodedColumns]],
            ) -> list[np.ndarray]:
        """Score several requests' columns in ONE attentive-BiLSTM pass.

        ``items`` pairs each question with the encoded columns it should
        score — usually different schemas with ragged column counts and
        word lengths.  The column states are stacked into one
        zero-padded union batch, the attentive-BiLSTM cells and the MLP
        head advance that batch, and attention runs per request so each
        request attends over its *own* question memory.

        Everything whose reduction shape depends on the request — the
        question side, attention softmax/context, similarity features —
        is computed per request with exactly the shapes a one-request
        call uses, so item ``i``'s probabilities match a stand-alone
        :meth:`score_columns` call as long as BLAS rounds a gemm row the
        same wherever it sits in the batch (true of the AVX-512 OpenBLAS
        kernels, not of the AVX2 ones; the one-output head layer avoids
        gemv, see :meth:`Linear.forward_np`).  Pinned by the kernel
        differential tests.
        """
        if not items:
            return []
        cfg = self.config
        hs = cfg.hidden
        sizes = [len(encoded) for _question, encoded in items]
        batch = int(sum(sizes))
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1])]) \
            if len(sizes) > 1 else np.zeros(1, dtype=np.intp)
        slices = [slice(int(off), int(off) + size)
                  for off, size in zip(offsets, sizes)]
        total = max(len(encoded.states) for _q, encoded in items)
        union = np.zeros((total, batch, 2 * hs), dtype=np.float32)
        units = []
        for rows, (question, encoded) in zip(slices, items):
            if not question:
                raise ModelError("question and column must be non-empty")
            states32, units32 = encoded.as_f32()
            union[:states32.shape[0], rows] = states32
            units.append(units32)
        lengths = np.concatenate(
            [encoded.lengths for _q, encoded in items])

        sides = [self._question_side_np(question)
                 for question, _encoded in items]

        def attend(query):
            contexts = np.empty((batch, hs), dtype=np.float32)
            for rows, (memory, mp, _q_unit) in zip(slices, sides):
                ctx_g, _ = self.attention.forward_batch_np(memory, mp,
                                                           query[rows])
                contexts[rows] = ctx_g
            return contexts

        fwd, bwd = self._attentive_pass_np(union, lengths, attend)
        width = 2 * hs + 2
        features = np.zeros((batch, width * cfg.max_column_words),
                            dtype=np.float32)
        for g, (rows, (_question, encoded)) in enumerate(zip(slices, items)):
            sim_max, sim_mean = self._sims_np(units[g], sides[g][2])
            self._features_np(fwd, bwd, sim_max, sim_mean, encoded.lengths,
                              rows, features)
        logits = self.head.forward_np(features)
        probs = sigmoid_(logits).reshape(batch)
        return [probs[rows].astype(np.float64) for rows in slices]

    # ------------------------------------------------------------------
    # The float64 body: training node and adversarial gradients
    # ------------------------------------------------------------------

    def embedding_gradients(
            self, pairs: list[tuple[list[str], list[str]]], *,
            encoded: EncodedColumns | None = None,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Logits of P pairs and the gradients of their summed BCE loss
        toward label 0 with respect to each question word's embeddings.

        Returns ``(logits (P,), dL/dE_word (P, n, word_dim), dL/dE_char
        (P, n, char_out))``, zero past a question's length: the training
        node's body (:meth:`_network64`, :meth:`_network_reverse`) with
        the column side constant, ``encoded`` (one row per pair, e.g.
        cached ``SchemaEncoding`` rows) or else :meth:`encode_columns`.
        The question's rows come from the float64 word-row cache
        (:meth:`_embed_rows64`), so a word's char CNN runs once per
        model generation.  No column-side or parameter gradient is
        formed; parameters are only read, and the one thing written is
        that cache, whose rows depend only on word and weights, so
        concurrent calls are safe.
        """
        if not pairs:
            raise ModelError("embedding_gradients() needs at least one pair")
        if any(not question or not column for question, column in pairs):
            raise ModelError("question and column must be non-empty")
        cfg = self.config
        count = len(pairs)
        if encoded is None:
            encoded = self.encode_columns([column for _q, column in pairs])
        elif len(encoded) != count:
            raise ModelError(f"{len(encoded)} encoded columns for "
                             f"{count} pairs")
        q_lengths = np.array([len(q) for q, _column in pairs], dtype=np.intp)
        steps = np.zeros((int(q_lengths.max()), count, cfg.emb_dim))
        rows = self._embed_rows64(word for question, _column in pairs
                                  for word in question)
        for p, (question, _column) in enumerate(pairs):
            steps[:len(question), p] = [rows[word] for word in question]
        logits, tape = self._network64(
            steps, q_lengths, encoded.states, encoded.lengths,
            encoded.units[:, :len(encoded.states)])
        # BCE toward 0 has gradient σ(x) except at a logit of exactly 0,
        # where the |x| in its stable form gives 0.
        e = np.exp(-np.abs(logits))
        d_steps = self._network_reverse(
            tape, (logits > 0) - np.sign(logits) * (e / (1.0 + e)))
        if tape.q_live is not None:
            d_steps *= tape.q_live
        grads = d_steps.transpose(1, 0, 2)
        return (logits, grads[..., :cfg.word_dim],
                grads[..., cfg.word_dim:])

    def _network64(self, steps: np.ndarray, q_lengths: np.ndarray,
                   states, c_lengths: np.ndarray, units: np.ndarray,
                   ) -> tuple[np.ndarray, SimpleNamespace]:
        """The network above the column encoder in float64 on the
        parameters: logits ``(P,)`` and the tape its reverse reads, from
        ``(n, P, emb)`` question steps (zero past each length), T ``(P,
        2·hidden)`` column states and ``(P, T, emb)`` unit vectors."""
        cfg, attention = self.config, self.attention
        hs = cfg.hidden
        n_max, count, _ = steps.shape
        total = len(states)
        tape = SimpleNamespace(
            q_lengths=q_lengths, units=units, q_layers=[], directions=[],
            q_live=_masks_np(q_lengths, n_max, count, np.bool_),
            c_live=_masks_np(c_lengths, total, count, np.bool_))

        # Question side: LSTM, attention memory, unit vectors.
        out = steps
        for pre, cell in zip(self.question_rnn.pre, self.question_rnn.cells):
            x = pre.forward_np(out)
            layer = SimpleNamespace(input=out, order=range(n_max))
            out, layer.xh, layer.c = _run_lstm64(
                cell, layer.order, count, tape.q_live, lambda t, _h: (x[t],))
            tape.q_layers.append(layer)
        memory = tape.memory = out.transpose(1, 0, 2)     # (P, n, H)
        memory_proj = attention.memory_proj.forward_np(memory)
        pad_bias = np.where(
            np.arange(n_max)[None, :] < q_lengths[:, None], 0.0, -1e9)
        q_matrix = tape.q_matrix = steps.transpose(1, 0, 2)  # (P, n, emb)
        tape.q_norms = np.sqrt((q_matrix * q_matrix).sum(axis=2, keepdims=True)
                               + 1e-8)
        tape.q_unit = q_matrix / tape.q_norms

        # Attentive BiLSTM over the column states.
        v = attention.v.data
        for cell, order in ((self.fwd_cell, range(total)),
                            (self.bwd_cell, range(total - 1, -1, -1))):
            run = SimpleNamespace(
                order=order, query=np.empty((total, count, 3 * hs)),
                weights=np.empty((total, count, n_max)),
                hidden=np.empty((total, count) + memory_proj.shape[1:]))

            def attend(t, h, run=run):
                query = run.query[t] = np.concatenate([states[t], h], axis=1)
                hidden = run.hidden[t] = np.tanh(
                    memory_proj + attention.query_proj.forward_np(query)[:, None])
                scores = hidden @ v + pad_bias
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                run.weights[t] = weights
                return states[t], np.matmul(weights[:, None], memory)[:, 0]

            run.out, run.xh, run.c = _run_lstm64(cell, order, count,
                                                 tape.c_live, attend)
            tape.directions.append(run)

        # Similarity features as row-wise product sums, so repeated
        # question words tie exactly in the max.
        sims = (tape.q_unit[:, None] * units[:, :, None]).sum(axis=3)
        tape.masked = sims + pad_bias[:, None, :]          # (P, T, n)
        tape.sim_max = tape.masked.max(axis=2)
        features = np.zeros((count, cfg.max_column_words, 2 * hs + 2))
        filled = features[:, :total]
        for i, run in enumerate(tape.directions):
            filled[..., i * hs:(i + 1) * hs] = run.out.transpose(1, 0, 2)
        filled[..., 2 * hs] = tape.sim_max
        filled[..., 2 * hs + 1] = sims.sum(axis=2) / q_lengths[:, None]
        if tape.c_live is not None:
            filled[~tape.c_live.transpose(1, 0, 2)[..., 0]] = 0.0

        # Tanh MLP head.
        x = features.reshape(count, -1)
        tape.head_inputs = [x]
        for layer in self.head.layers[:-1]:
            x = np.tanh(layer.forward_np(x))
            tape.head_inputs.append(x)
        return self.head.layers[-1].forward_np(x)[:, 0], tape

    def _network_reverse(self, tape: SimpleNamespace,
                         d_logits: np.ndarray) -> np.ndarray:
        """Reverse of :meth:`_network64` to the question steps: ``dL/d
        steps (n, P, emb)`` from ``dL/d logits (P,)``, padding rows
        included.  The gate, attention and head gradients are left on the
        tape for :meth:`_network_grads`."""
        cfg, attention = self.config, self.attention
        hs = cfg.hidden
        grad, tape.d_head = d_logits[:, None], []
        for layer, act in zip(self.head.layers[::-1],
                              [None] + tape.head_inputs[:0:-1]):
            if act is not None:
                grad = grad * (1.0 - act * act)
            tape.d_head.insert(0, grad)
            grad = grad @ layer.weight.data.T

        # Similarity features.
        c_live = tape.c_live
        count, total = tape.units.shape[:2]
        d_features = grad.reshape(count, cfg.max_column_words, -1)[:, :total]
        if c_live is not None:
            d_features = d_features * c_live.transpose(1, 0, 2)
        ties = tape.masked == tape.sim_max[:, :, None]
        tape.d_sims = (d_features[..., 2 * hs, None] * ties
                       / ties.sum(axis=2, keepdims=True)
                       + (d_features[..., 2 * hs + 1]
                          / tape.q_lengths[:, None])[..., None])
        d_unit = np.matmul(tape.d_sims.transpose(0, 2, 1), tape.units)
        q_matrix, q_norms = tape.q_matrix, tape.q_norms
        d_norms = -(d_unit * q_matrix).sum(axis=2, keepdims=True) \
            / (q_norms * q_norms)
        d_steps = (d_unit / q_norms + q_matrix * (d_norms / q_norms)
                   ).transpose(1, 0, 2)

        # Attentive BiLSTM and its attention over the question memory.
        memory, v = tape.memory, attention.v.data
        d_memory = np.zeros_like(memory)
        d_proj = tape.d_proj = np.zeros(memory.shape[:2] + (v.size,))
        w_query_h = attention.query_proj.weight.data[2 * hs:]
        for cell, run, d_out in zip(
                (self.fwd_cell, self.bwd_cell), tape.directions,
                (d_features[..., :hs], d_features[..., hs:2 * hs])):
            run.d_query = np.empty((total, count, v.size))
            run.d_scores = np.empty_like(run.weights)

            def attend_vjp(t, d_input, run=run):
                weights, hidden = run.weights[t], run.hidden[t]
                d_context = d_input[:, 2 * hs:]
                d_memory[...] += weights[:, :, None] * d_context[:, None, :]
                d_weights = np.matmul(memory, d_context[:, :, None])[..., 0]
                d_scores = run.d_scores[t] = weights * (
                    d_weights - (weights * d_weights).sum(axis=1,
                                                          keepdims=True))
                d_hidden = d_scores[:, :, None] * v * (1.0 - hidden * hidden)
                d_proj[...] += d_hidden
                run.d_query[t] = d_hidden.sum(axis=1)
                return run.d_query[t] @ w_query_h.T

            run.dz, run.d_input = _reverse_lstm64(
                cell, run, c_live, d_out.transpose(1, 0, 2), attend_vjp)
        d_memory += d_proj @ attention.memory_proj.weight.data.T

        # Question LSTM.
        d_out = d_memory.transpose(1, 0, 2)
        for pre, cell, layer in reversed(list(zip(
                self.question_rnn.pre, self.question_rnn.cells,
                tape.q_layers))):
            layer.dz, layer.d_x = _reverse_lstm64(cell, layer, tape.q_live,
                                                  d_out, lambda t, d: 0.0)
            d_out = layer.d_x @ pre.weight.data.T
        return d_steps + d_out

    def _network_grads(self, tape: SimpleNamespace,
                       ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The training half of the reverse, after
        :meth:`_network_reverse`: ``(dL/d states (T, P, 2·hidden), dL/d
        units (P, T, emb), parameter gradients)``, the last in the order
        :meth:`_network` lists the parameters."""
        hs = self.config.hidden
        layers = tape.q_layers
        grads = [g for layer in layers for g in (
            _gemm_tn(layer.input, layer.d_x), layer.d_x.sum(axis=(0, 1)))]
        grads += [g for run in layers for g in (
            _gemm_tn(run.xh, run.dz), run.dz.sum(axis=(0, 1)))]
        runs = tape.directions
        query, d_query, d_scores, hidden = (
            np.concatenate([getattr(run, name) for run in runs])
            for name in ("query", "d_query", "d_scores", "hidden"))
        grads += [_gemm_tn(tape.memory, tape.d_proj),
                  _gemm_tn(query, d_query), d_query.sum(axis=(0, 1)),
                  _gemm_tn(hidden, d_scores[..., None])[:, 0]]
        grads += [g for run in runs for g in (
            _gemm_tn(run.xh, run.dz), run.dz.sum(axis=(0, 1)))]
        for x_in, d_out in zip(tape.head_inputs, tape.d_head):
            grads += [x_in.T @ d_out, d_out.sum(axis=0)]
        w_query_s = self.attention.query_proj.weight.data[:2 * hs]
        d_states = sum(run.d_input[..., :2 * hs] + run.d_query @ w_query_s.T
                       for run in runs)
        return d_states, np.matmul(tape.d_sims, tape.q_unit), grads


def _run_lstm64(cell, order: range, count: int, live: np.ndarray | None,
                inputs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One masked LSTM direction in float64 through ``order``, step
    ``t``'s input being ``inputs(t, h)`` then ``h``: the held states,
    each step's ``xh`` and its memory state ``c``, indexed by time."""
    hs = cell.hidden_size
    h = c = np.zeros((count, hs))
    outputs, cs = np.empty((2, len(order), count, hs))
    xhs = np.empty((len(order), count, cell.input_size + hs))
    for t in order:
        np.concatenate([*inputs(t, h), h], axis=1, out=xhs[t])
        cs[t] = c
        h_new, c_new = cell.step_np(xhs[t], c)
        if live is None:
            h, c = h_new, c_new
        else:
            h = np.where(live[t], h_new, h)
            c = np.where(live[t], c_new, c)
        outputs[t] = h
    return outputs, xhs, cs


def _reverse_lstm64(cell, run: SimpleNamespace, live: np.ndarray | None,
                    d_out: np.ndarray, input_vjp,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Reverse of :func:`_run_lstm64` from ``dL/d outputs``: each step's
    gate gradients and input-part gradients, which ``input_vjp(t, d)``
    takes back through the inputs, returning its ``dL/dh`` share."""
    hs = cell.hidden_size
    dz = np.empty(run.xh.shape[:2] + (4 * hs,))
    d_parts = np.empty(run.xh.shape[:2] + (run.xh.shape[2] - hs,))
    dh = dc = np.zeros_like(d_out[0])
    for t in reversed(run.order):
        dh = dh + d_out[t]
        if live is None:     # the hold's backward: live rows go to h_new
            dh_new, dc_new, dh, dc = dh, dc, 0.0, 0.0
        else:
            dh_new, dh = np.where(live[t], dh, 0.0), np.where(live[t], 0.0, dh)
            dc_new, dc = np.where(live[t], dc, 0.0), np.where(live[t], 0.0, dc)
        dxh, dc_prev, dz[t] = cell.step_vjp(run.xh[t], run.c[t], dh_new,
                                            dc_new)
        d_parts[t] = dxh[:, :-hs]
        dc = dc + dc_prev
        dh = dh + dxh[:, -hs:] + input_vjp(t, d_parts[t])
    return dz, d_parts


def _gemm_tn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Σ_r a_rᵀ b_r`` over every leading index: ``(a_in, b_out)``."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])
