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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    no_grad,
    pack_steps,
    sigmoid_,
    stack,
)
from repro.nn.rnn import _blend_, _masks_np
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
        self._wordvec32: dict[str, np.ndarray] = {}

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

    def _capture_leaves(self, questions: list[list[str]], n_max: int,
                        ) -> tuple[list[Tensor], list[Tensor]]:
        """One word and one char leaf per question position, ``(P, dim)``
        each; the char CNN runs under ``no_grad`` once per distinct word."""
        cfg = self.config
        words = np.zeros((n_max, len(questions), cfg.word_dim))
        chars = np.zeros((n_max, len(questions), cfg.char_out))
        seen: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        with no_grad():
            for p, question in enumerate(questions):
                for i, word in enumerate(question):
                    vectors = seen.get(word)
                    if vectors is None:
                        vectors = seen[word] = (
                            self.embeddings.vector(word),
                            self.char_encoder(char_ids(word)).numpy())
                    words[i, p], chars[i, p] = vectors
        return ([Tensor(w, requires_grad=True) for w in words],
                [Tensor(c, requires_grad=True) for c in chars])

    def forward(self, pairs: list[tuple[list[str], list[str]]], *,
                encoded: EncodedColumns | None = None,
                capture: bool = False,
                ) -> tuple[Tensor, list[Tensor], list[Tensor]]:
        """Logits of P ``(question, column)`` pairs in one masked graph.

        Returns ``(logits (P,), word_leaves, char_leaves)``.  Every op is
        row-wise across pairs: padded question and column steps are
        length-masked, attention and the max feature give padding zero
        weight, and feature rows past a column's length are zero.  So
        pair ``p``'s logit depends only on its own rows, and
        backpropagating the *sum* of the per-pair losses gives each pair
        exactly its own gradients.

        Only the inputs depend on the mode.  By default (training) the
        char CNN, the column BiLSTM and the column unit vectors run in
        the graph, and the leaf lists are empty.  With ``capture=True``
        (Section IV-C) there is one word and one char leaf per question
        position, each ``(P, dim)``: row ``p`` holds ``E_word``/``E_char``
        of pair ``p``'s word there (zero past its length), so a backward
        leaves ``dL/dE(w)`` on them.  The column side is then constant:
        ``encoded`` (one row per pair, e.g. cached ``SchemaEncoding``
        rows) when given, else :meth:`encode_columns`.
        """
        if not pairs:
            raise ModelError("forward() needs at least one pair")
        if any(not question or not column for question, column in pairs):
            raise ModelError("question and column must be non-empty")
        if encoded is not None and not capture:
            raise ModelError("encoded= is the constant column side of "
                             "capture=True")
        cfg = self.config
        count = len(pairs)
        questions = [question for question, _column in pairs]
        columns = [column[:cfg.max_column_words] for _q, column in pairs]
        q_lengths = np.array([len(q) for q in questions], dtype=np.intp)
        n_max = int(q_lengths.max())

        if capture:
            word_leaves, char_leaves = self._capture_leaves(questions, n_max)
            steps = [concat([w, c], axis=-1)
                     for w, c in zip(word_leaves, char_leaves)]
            if encoded is None:
                encoded = self.encode_columns(columns)
            elif len(encoded) != count:
                raise ModelError(f"{len(encoded)} encoded columns for "
                                 f"{count} pairs")
            c_lengths = encoded.lengths
            states = [Tensor(s_t) for s_t in encoded.states]
            units = [Tensor(encoded.units[:, None, t])
                     for t in range(len(states))]
        else:
            word_leaves, char_leaves = [], []
            vectors = self._word_vectors(
                word for sequence in questions + columns for word in sequence)
            steps, _ = pack_steps([[vectors[w] for w in q] for q in questions])
            c_steps, c_lengths = pack_steps(
                [[vectors[w] for w in column] for column in columns])
            states = self.column_rnn(c_steps, c_lengths)
            units = [(x / ((x * x).sum(axis=1, keepdims=True) + 1e-8) ** 0.5
                      ).reshape(count, 1, cfg.emb_dim) for x in c_steps]

        # Question side: masked lockstep LSTM, padded memory.
        memory = stack(self.question_rnn(steps, q_lengths), axis=1)  # (P, n, H)
        memory_proj = self.attention.memory_proj(memory)
        pad_bias = Tensor(np.where(
            np.arange(n_max)[None, :] < q_lengths[:, None], 0.0, -1e9))
        q_matrix = stack(steps, axis=1)                         # (P, n, emb)
        q_norms = ((q_matrix * q_matrix).sum(axis=2, keepdims=True)
                   + 1e-8) ** 0.5
        q_unit = q_matrix / q_norms

        # Attentive BiLSTM over the column states (part iii),
        # length-masked like ``LSTM.forward``.
        total = len(states)
        masks = [None if (c_lengths > t).all() else Tensor(
                     (c_lengths > t).astype(np.float64).reshape(-1, 1))
                 for t in range(total)]

        def run_direction(cell, order):
            h, c = cell.initial_state(count)
            outputs: list[Tensor | None] = [None] * total
            for t in order:
                s_t = states[t]
                context = self.attention.forward_padded(
                    memory, memory_proj, concat([s_t, h], axis=-1), pad_bias)
                h_new, c_new = cell(concat([s_t, context], axis=-1), h, c)
                m = masks[t]
                if m is None:
                    h, c = h_new, c_new
                else:
                    h = h_new * m + h * (1.0 - m)
                    c = c_new * m + c * (1.0 - m)
                outputs[t] = h
            return outputs

        fwd = run_direction(self.fwd_cell, range(total))
        bwd = run_direction(self.bwd_cell, range(total - 1, -1, -1))

        # BiDAF-style similarity features: per column word, the max and
        # mean cosine similarity against the pair's own question words,
        # as row-wise product sums (not a gemv, whose rounding depends
        # on the row's position), so repeated question words tie exactly
        # and ``max`` splits their gradient evenly.
        lengths_col = q_lengths.astype(np.float64).reshape(count, 1)
        width = 2 * cfg.hidden + 2
        features = []
        for t in range(cfg.max_column_words):
            if t >= total:
                features.append(Tensor.zeros(count, width))
                continue
            sims = (q_unit * units[t]).sum(axis=2)
            row = concat([fwd[t], bwd[t],
                          (sims + pad_bias).max(axis=1, keepdims=True),
                          sims.sum(axis=1, keepdims=True) / lengths_col],
                         axis=-1)
            features.append(row if masks[t] is None else row * masks[t])
        logits = self.head(concat(features, axis=-1)).reshape(count)
        return logits, word_leaves, char_leaves

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
                logits, _, _ = self([(question, column)])
                loss = binary_cross_entropy_with_logits(logits,
                                                        [float(label)])
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
            logits, _, _ = self([(question, column)])
        return float(1.0 / (1.0 + np.exp(-logits.numpy()[0])))

    # ------------------------------------------------------------------
    # Batched inference (the vectorized fast path)
    # ------------------------------------------------------------------

    def encode_columns(self, columns: list[list[str]]) -> EncodedColumns:
        """Precompute the question-independent side of every column.

        One lockstep column-RNN pass over all B columns; the result is
        a numpy artifact reusable across every question asked against
        the same schema (see :class:`EncodedColumns`).
        """
        if not columns:
            raise ModelError("encode_columns() needs at least one column")
        cfg = self.config
        tokens = [list(column[:cfg.max_column_words]) for column in columns]
        if any(not column for column in tokens):
            raise ModelError("question and column must be non-empty")
        with no_grad():
            vectors = self._word_vectors(
                word for column in tokens for word in column)
            steps, lengths = pack_steps(
                [[vectors[word] for word in column] for column in tokens])
            states = [s.numpy() for s in self.column_rnn(steps, lengths)]
            units = np.zeros((len(tokens), len(steps), cfg.emb_dim))
            for b, column in enumerate(tokens):
                for t, word in enumerate(column):
                    vec = vectors[word].numpy()
                    norm = np.sqrt((vec * vec).sum() + 1e-8)
                    units[b, t] = vec.reshape(-1) / norm
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

    def _embed_word_np(self, word: str, out: np.ndarray) -> None:
        """Write ``[E_word(w); E_char(w)]`` into ``out`` (emb_dim,)."""
        cfg = self.config
        vec = self._wordvec32.get(word)
        if vec is None:
            # Frozen hash embeddings never change; cache float32 rows
            # permanently so warm requests skip the hash computation.
            vec = self.embeddings.vector(word).astype(np.float32)
            self._wordvec32[word] = vec
        out[:cfg.word_dim] = vec
        out[cfg.word_dim:] = self.char_encoder.forward_np(char_ids(word))

    def _question_side_np(self, question: list[str],
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float32 question side of :meth:`score_columns_multi`.

        Returns ``(memory (n, hidden), memory_proj (n, attn), q_unit
        (n, emb))``.
        """
        cfg = self.config
        n = len(question)
        emb = np.empty((n, cfg.emb_dim), dtype=np.float32)
        for i, word in enumerate(question):
            self._embed_word_np(word, emb[i])
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
        masks = _masks_np(lengths, total, batch)
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
                    _blend_(h, hn, masks[t])
                    _blend_(c, cn, masks[t])
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
