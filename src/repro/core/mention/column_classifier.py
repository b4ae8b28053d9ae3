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
    InferenceArena,
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
)
from repro.text import CHAR_VOCAB_SIZE, WordEmbeddings, char_ids

__all__ = ["ClassifierConfig", "ColumnMentionClassifier", "EmbeddedWord",
           "EncodedColumns"]


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
class EmbeddedWord:
    """One word's embedded representation with gradient capture points.

    ``word_leaf`` and ``char_leaf`` are graph *leaves*, so after a
    backward pass their ``.grad`` holds exactly ``dL/dE_word(w)`` and
    ``dL/dE_char(w)`` — the quantities the adversarial text method
    (Section IV-C) measures.
    """

    word: str
    word_leaf: Tensor
    char_leaf: Tensor
    combined: Tensor


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

    # Lazy float32 snapshot (stacked states, units) used by the arena
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
        # Shared zero block padding short columns to max_column_words —
        # constant, so one instance serves every forward call (gradients
        # never flow into a non-leaf zeros tensor).
        self._feature_pad = Tensor.zeros(1, 2 * cfg.hidden + 2)
        self._trained = False
        # Reused float32 buffers of the batched inference path.
        self.arena = InferenceArena()
        self._wordvec32: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------

    def embed_words(self, words: list[str],
                    capture: bool = False) -> list[EmbeddedWord]:
        """Embed a word sequence.

        With ``capture=True`` the word vector and the char-CNN output
        become graph leaves so their gradients can be read afterwards
        (inference-time adversarial analysis; training gradients into
        the char CNN are cut, so use ``capture=False`` when fitting).
        """
        out = []
        for word in words:
            word_leaf = Tensor(
                self.embeddings.vector(word).reshape(1, -1),
                requires_grad=capture)
            char_vec = self.char_encoder(char_ids(word)).reshape(
                1, self.config.char_out)
            if capture:
                char_vec = Tensor(char_vec.numpy().copy(), requires_grad=True)
            combined = concat([word_leaf, char_vec], axis=-1)
            out.append(EmbeddedWord(word, word_leaf, char_vec, combined))
        return out

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def _question_side(self, question: list[str], capture: bool = False,
                       ) -> tuple[list[EmbeddedWord], Tensor, Tensor]:
        """Column-independent work: ``(embedded, memory S^q, q_unit)``.

        The float64 question side of :meth:`forward`;
        :meth:`_question_side_np` is its float32 form for batched
        scoring.
        """
        q_embedded = self.embed_words(question, capture=capture)
        s_q = self.question_rnn([e.combined for e in q_embedded])
        memory = concat(s_q, axis=0)  # (n, hidden)
        q_matrix = concat([e.combined for e in q_embedded], axis=0)
        q_norms = ((q_matrix * q_matrix).sum(axis=1, keepdims=True)
                   + 1e-8) ** 0.5
        return q_embedded, memory, q_matrix / q_norms

    def forward(self, question: list[str], column: list[str],
                capture: bool = False,
                ) -> tuple[Tensor, list[EmbeddedWord]]:
        """Return ``(logit, embedded_question_words)``."""
        if not question or not column:
            raise ModelError("question and column must be non-empty")
        cfg = self.config
        column = column[:cfg.max_column_words]

        q_embedded, memory, q_unit = self._question_side(question,
                                                         capture=capture)
        c_embedded = self.embed_words(column)
        s_c = self.column_rnn([e.combined for e in c_embedded])

        # Attentive BiLSTM over the column (part iii).
        def run_direction(cell, states):
            h, c = cell.initial_state(1)
            outputs = []
            for s_t in states:
                query = concat([s_t, h], axis=-1).reshape(
                    s_t.shape[1] + h.shape[1])
                context, _ = self.attention(memory, query)
                z_t = concat([s_t, context.reshape(1, -1)], axis=-1)
                h, c = cell(z_t, h, c)
                outputs.append(h)
            return outputs

        fwd = run_direction(self.fwd_cell, s_c)
        bwd = list(reversed(run_direction(self.bwd_cell, list(reversed(s_c)))))
        d_states = [concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]

        # BiDAF-style similarity features: per column word, the max and
        # mean cosine similarity against all question words, computed on
        # the combined word+char embeddings *inside the graph*.
        for t, emb_t in enumerate(c_embedded):
            c_norm = ((emb_t.combined * emb_t.combined).sum(
                axis=1, keepdims=True) + 1e-8) ** 0.5
            c_unit = emb_t.combined / c_norm
            sims = q_unit @ c_unit.reshape(cfg.emb_dim)  # (n,)
            sim_features = concat(
                [sims.max(axis=0, keepdims=True),
                 sims.mean(axis=0, keepdims=True)], axis=-1).reshape(1, 2)
            d_states[t] = concat([d_states[t], sim_features], axis=-1)

        # Zero-pad to max_column_words and concatenate for the MLP head.
        while len(d_states) < cfg.max_column_words:
            d_states.append(self._feature_pad)
        features = concat(d_states, axis=-1)
        logit = self.head(features).reshape(1)
        return logit, q_embedded

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
                logit, _ = self(question, column)
                loss = binary_cross_entropy_with_logits(logit, [float(label)])
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
            logit, _ = self(question, column)
        return float(1.0 / (1.0 + np.exp(-logit.numpy()[0])))

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
            embedded = [self.embed_words(column) for column in tokens]
            steps, lengths = pack_steps(
                [[e.combined for e in col] for col in embedded])
            states = [s.numpy()
                      for s in self.column_rnn.forward_batch(steps, lengths)]
            units = np.zeros((len(tokens), len(steps), cfg.emb_dim))
            for b, col in enumerate(embedded):
                for t, emb_t in enumerate(col):
                    vec = emb_t.combined.numpy()
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
    # Float32 arena kernels (allocation-free when warm)
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
        self.char_encoder.forward_np(
            char_ids(word), out[cfg.word_dim:], self.arena, "q.char")

    def _question_side_np(self, question: list[str], tag: str,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float32 arena form of :meth:`_question_side`.

        Returns ``(memory (n, hidden), memory_proj (n, attn), q_unit
        (n, emb))`` — all arena-owned under ``tag``-scoped keys, so
        multi-request callers pass distinct tags per request.
        """
        cfg = self.config
        arena = self.arena
        n = len(question)
        emb = arena.take(f"{tag}.emb", (n, cfg.emb_dim))
        for i, word in enumerate(question):
            self._embed_word_np(word, emb[i])
        memory = self.question_rnn.forward_batch_np(
            emb.reshape(n, 1, cfg.emb_dim), None, arena,
            f"{tag}.rnn").reshape(n, cfg.hidden)
        mp = self.attention.project_memory_np(memory, arena, f"{tag}.mp")
        q_unit = arena.take(f"{tag}.unit", (n, cfg.emb_dim))
        norms = arena.take(f"{tag}.norm", (n, 1))
        np.multiply(emb, emb, out=q_unit)
        np.sum(q_unit, axis=1, keepdims=True, out=norms)
        norms += 1e-8
        np.sqrt(norms, out=norms)
        np.divide(emb, norms, out=q_unit)
        return memory, mp, q_unit

    def _attentive_pass_np(self, states32: np.ndarray,
                           lengths: np.ndarray,
                           attend, tag: str,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Run both attentive-LSTM directions over ``(T, B, 2H)`` states.

        ``attend(query, tag)`` computes the attention contexts, each
        request's rows over its own question memory; returns the
        ``(T, B, H)`` forward and backward output slabs.
        """
        cfg = self.config
        arena = self.arena
        total, batch, _ = states32.shape
        hs = cfg.hidden
        needs_mask = int(lengths.min()) < total
        masks = None
        if needs_mask:
            masks = arena.take(f"{tag}.mask", (total, batch, 1))
            masks[...] = (lengths[None, :, None]
                          > np.arange(total)[:, None, None])
        outs = []
        for direction, cell in ((0, self.fwd_cell), (1, self.bwd_cell)):
            dtag = f"{tag}.d{direction}"
            out = arena.take(f"{dtag}.out", (total, batch, hs))
            h = arena.take(f"{dtag}.h", (batch, hs))
            c = arena.take(f"{dtag}.c", (batch, hs))
            hn = arena.take(f"{dtag}.hn", (batch, hs))
            cn = arena.take(f"{dtag}.cn", (batch, hs))
            query = arena.take(f"{dtag}.q", (batch, 3 * hs))
            xh = arena.take(f"{dtag}.xh", (batch, 4 * hs))
            h[...] = 0.0
            c[...] = 0.0
            order = range(total - 1, -1, -1) if direction else range(total)
            for t in order:
                s_t = states32[t]
                query[:, :2 * hs] = s_t
                query[:, 2 * hs:] = h
                contexts = attend(query, dtag)
                xh[:, :2 * hs] = s_t
                xh[:, 2 * hs:3 * hs] = contexts
                xh[:, 3 * hs:] = h
                cell.step_np(xh, c, hn, cn, arena, f"{dtag}.cell")
                if masks is not None:
                    m = masks[t]
                    np.subtract(hn, h, out=hn)
                    hn *= m
                    h += hn
                    np.subtract(cn, c, out=cn)
                    cn *= m
                    c += cn
                else:
                    h, hn = hn, h
                    c, cn = cn, c
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

    def _sims_np(self, units32: np.ndarray, q_unit: np.ndarray, tag: str,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Max/mean cosine similarities: ``(B, T)`` each."""
        arena = self.arena
        batch, total, _ = units32.shape
        sims = arena.take(f"{tag}.sims", (batch, total, q_unit.shape[0]))
        np.matmul(units32, q_unit.T, out=sims)
        sim_max = arena.take(f"{tag}.smax", (batch, total))
        sim_mean = arena.take(f"{tag}.smean", (batch, total))
        np.amax(sims, axis=2, out=sim_max)
        np.mean(sims, axis=2, out=sim_mean)
        return sim_max, sim_mean

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
        :meth:`score_columns` call up to BLAS batch-size differences in
        the shared matmuls (empirically bit-equal on this substrate;
        pinned by the kernel differential tests).
        """
        if not items:
            return []
        cfg = self.config
        arena = self.arena
        hs = cfg.hidden
        sizes = [len(encoded) for _question, encoded in items]
        batch = int(sum(sizes))
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1])]) \
            if len(sizes) > 1 else np.zeros(1, dtype=np.intp)
        slices = [slice(int(off), int(off) + size)
                  for off, size in zip(offsets, sizes)]
        total = max(len(encoded.states) for _q, encoded in items)
        union = arena.take("m.states", (total, batch, 2 * hs))
        union[...] = 0.0
        units = []
        for rows, (question, encoded) in zip(slices, items):
            if not question:
                raise ModelError("question and column must be non-empty")
            states32, units32 = encoded.as_f32()
            union[:states32.shape[0], rows] = states32
            units.append(units32)
        lengths = np.concatenate(
            [encoded.lengths for _q, encoded in items])

        sides = [self._question_side_np(question, f"m.q{ri}")
                 for ri, (question, _encoded) in enumerate(items)]

        def attend(query, dtag):
            contexts = arena.take(f"{dtag}.gctx", (batch, hs))
            for g, (rows, (memory, mp, _q_unit)) in enumerate(
                    zip(slices, sides)):
                ctx_g, _ = self.attention.forward_batch_np(
                    memory, mp, query[rows], arena, f"{dtag}.att{g}")
                contexts[rows] = ctx_g
            return contexts

        fwd, bwd = self._attentive_pass_np(union, lengths, attend, "m.col")
        width = 2 * hs + 2
        features = arena.take("m.feats", (batch, width * cfg.max_column_words))
        features[...] = 0.0
        for g, (rows, (_question, encoded)) in enumerate(zip(slices, items)):
            sim_max, sim_mean = self._sims_np(units[g], sides[g][2], f"m.s{g}")
            self._features_np(fwd, bwd, sim_max, sim_mean, encoded.lengths,
                              rows, features)
        logits = self.head.forward_np(features, arena, "m.head")
        probs = sigmoid_(logits).reshape(batch)
        return [probs[rows].astype(np.float64) for rows in slices]

    def predict(self, question: list[str], column: list[str],
                threshold: float = 0.5) -> bool:
        """Binary mention decision."""
        return self.predict_proba(question, column) > threshold
