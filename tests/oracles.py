"""Reference implementations kept as test oracles.

Each is the straightforward version a production path replaced; the
differential tests assert the fast path returns exactly what these do.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np

from repro.core.annotate import _is_symbol
from repro.core.mention import (
    ColumnMentionClassifier,
    EncodedColumns,
    InfluenceProfile,
    MentionCandidate,
)
from repro.core.seq2seq.vocab import EOS, build_candidates
from repro.nn import (
    CharConvEncoder,
    GRUCell,
    LSTMCell,
    Tensor,
    binary_cross_entropy_with_logits,
    concat,
    no_grad,
    pack_steps,
    softmax,
    stack,
)
from repro.errors import AnnotationError, ShapeError
from repro.sqlengine import Aggregate, Condition, Operator, Query, Table
from repro.text import (
    char_ids,
    is_stop_word,
    normalized_edit_similarity,
    tokenize,
)


def _feed(digest, part: str) -> None:
    data = part.encode("utf-8")
    digest.update(str(len(data)).encode("ascii"))
    digest.update(b"\x00")
    digest.update(data)


def table_fingerprint(table: Table) -> str:
    """The field-at-a-time ``sha256`` fingerprint (one update per field)."""
    digest = hashlib.sha256()
    digest.update(b"schema")
    for column in table.columns:
        _feed(digest, column.name)
        _feed(digest, column.dtype.value)
    digest.update(b"rows")
    for row in table.rows:
        digest.update(b"row")
        for cell in row:
            _feed(digest, type(cell).__name__)
            _feed(digest, str(cell))
    return digest.hexdigest()


def numeric_ranges(table: Table) -> dict[str, tuple[float, float]]:
    """Value ranges (with margin) of the all-numeric columns."""
    ranges: dict[str, tuple[float, float]] = {}
    for column in table.columns:
        numbers = []
        for cell in table.column_values(column.name):
            try:
                numbers.append(float(str(cell)))
            except ValueError:
                numbers.clear()
                break
        if numbers:
            lo, hi = min(numbers), max(numbers)
            margin = (hi - lo) * 0.5 + 1.0
            ranges[column.name.lower()] = (lo - margin, hi + margin)
    return ranges


def find_cell_values(tokens: list[str], column: str,
                     cells: list) -> list[MentionCandidate]:
    """Exact cell matches by re-tokenizing and scanning every cell."""
    candidates = []
    seen_spans: set[tuple[int, int]] = set()
    for cell in cells:
        cell_tokens = tokenize(str(cell))
        if not cell_tokens:
            continue
        for i in range(len(tokens) - len(cell_tokens) + 1):
            span = (i, i + len(cell_tokens))
            if span in seen_spans:
                continue
            if tokens[i:span[1]] == cell_tokens:
                seen_spans.add(span)
                candidates.append(MentionCandidate(
                    column, span[0], span[1], 1.0, "exact"))
    return candidates


def _spans(tokens: list[str], max_span: int):
    for start in range(len(tokens)):
        if is_stop_word(tokens[start]):
            continue
        for end in range(start + 1, min(start + max_span, len(tokens)) + 1):
            yield start, end, " ".join(tokens[start:end])


def find_mentions(matcher, tokens: list[str],
                  column: str) -> list[MentionCandidate]:
    """All candidate mentions of ``column`` in a tokenized question,
    sorted best-first (exact > knowledge > edit > semantic, then by
    score): every rung over every span, one column at a time, with
    unbounded edit distances.  ``matcher`` supplies the thresholds,
    embeddings and knowledge base.  Its first entry is what
    ``ColumnMatcher.best`` returns for the column.
    """
    column_lower = column.lower()
    column_tokens = tokenize(column_lower)
    candidates: list[MentionCandidate] = []

    # 1. Exact token-sequence match of the column name.
    for i in range(len(tokens) - len(column_tokens) + 1):
        if tokens[i:i + len(column_tokens)] == column_tokens:
            candidates.append(MentionCandidate(
                column, i, i + len(column_tokens), 1.0, "exact"))

    # 2. Knowledge-base phrases (P_c) and describing expressions (D_c).
    knowledge = matcher.knowledge.get(column)
    for phrase in (knowledge.mention_phrases
                   + knowledge.describing_expressions):
        phrase_tokens = tokenize(phrase)
        for i in range(len(tokens) - len(phrase_tokens) + 1):
            if tokens[i:i + len(phrase_tokens)] == phrase_tokens:
                candidates.append(MentionCandidate(
                    column, i, i + len(phrase_tokens), 0.95, "knowledge"))

    # 3. Edit-distance match over spans (non-exact matching).
    for start, end, surface in _spans(tokens, matcher.max_span):
        similarity = normalized_edit_similarity(surface, column_lower)
        if similarity >= matcher.edit_threshold and similarity < 1.0:
            candidates.append(MentionCandidate(
                column, start, end, similarity, "edit"))

    # 4. Semantic (embedding) match over short spans.
    for start, end, surface in _spans(
            tokens, min(matcher.max_span, len(column_tokens) + 1)):
        similarity = matcher.embeddings.phrase_similarity(surface,
                                                          column_lower)
        if similarity >= matcher.semantic_threshold:
            candidates.append(MentionCandidate(
                column, start, end, similarity, "semantic"))

    priority = {"exact": 0, "knowledge": 1, "edit": 2, "semantic": 3}
    candidates.sort(key=lambda c: (priority[c.method], -c.score,
                                   c.start, c.end))
    return candidates


def lstm_cell_composed(cell, x: Tensor, h: Tensor,
                       c: Tensor) -> tuple[Tensor, Tensor]:
    """:class:`~repro.nn.LSTMCell` as Tensor ops, one graph node per
    gate op — the body the fused cell node replaced."""
    z = cell.gates(concat([x, h], axis=-1))
    hs = cell.hidden_size
    i = z[:, 0 * hs:1 * hs].sigmoid()
    f = z[:, 1 * hs:2 * hs].sigmoid()
    g = z[:, 2 * hs:3 * hs].tanh()
    o = z[:, 3 * hs:4 * hs].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def gru_cell_composed(cell, x: Tensor, h: Tensor) -> Tensor:
    """:class:`~repro.nn.GRUCell` as Tensor ops, with the production
    update ``h + z·(h̃ − h)``."""
    gates = cell.zr(concat([x, h], axis=-1))
    hs = cell.hidden_size
    z = gates[:, :hs].sigmoid()
    r = gates[:, hs:].sigmoid()
    h_tilde = cell.candidate(concat([x, r * h], axis=-1)).tanh()
    return h + z * (h_tilde - h)


@contextmanager
def composed_cells():
    """Run every LSTM and GRU cell call on its composed Tensor body
    (not thread-safe: it swaps the classes' ``forward``)."""
    saved = LSTMCell.forward, GRUCell.forward
    LSTMCell.forward, GRUCell.forward = lstm_cell_composed, gru_cell_composed
    try:
        yield
    finally:
        LSTMCell.forward, GRUCell.forward = saved


def conv1d_composed(conv, matrix: Tensor) -> Tensor:
    """:class:`~repro.nn.Conv1d` as Tensor ops: one slice node per
    window, the shared projection over their stack and the mean — a
    ``(out_channels,)`` vector."""
    if matrix.ndim != 2 or matrix.shape[1] != conv.in_channels:
        raise ShapeError(
            f"Conv1d expected (length, {conv.in_channels}), got {matrix.shape}")
    length = matrix.shape[0]
    if length < conv.width:
        # Zero-pad so at least one slice is available.
        pad = Tensor.zeros(conv.width - length, conv.in_channels)
        matrix = concat([matrix, pad], axis=0)
        length = conv.width
    slices = [matrix[i:i + conv.width].reshape(1, conv.width
                                                * conv.in_channels)
              for i in range(length - conv.width + 1)]
    return conv.projection(concat(slices, axis=0)).mean(axis=0)


def char_cnn_composed(encoder, char_ids: list[int]) -> Tensor:
    """:class:`~repro.nn.CharConvEncoder` as Tensor ops — the graph its
    fused node replaced."""
    if not char_ids:
        raise ShapeError("CharConvEncoder received an empty character sequence")
    matrix = encoder.char_embedding(np.asarray(char_ids, dtype=np.intp))
    return concat([conv1d_composed(conv, matrix) for conv in encoder.convs],
                  axis=-1)


def attention_padded_composed(attention, memory: Tensor, memory_proj: Tensor,
                              queries: Tensor, pad_bias: Tensor) -> Tensor:
    """B queries of :class:`~repro.nn.AdditiveAttention`, each over its
    own zero-padded memory, as Tensor ops: ``(B, md)``.

    ``memory`` is ``(B, T, md)`` and ``memory_proj`` its ``memory_proj``
    projection; ``pad_bias`` is ``(B, T)``, 0 on live positions and
    ``-1e9`` on padding, so padding gets exactly zero weight.
    """
    if memory.ndim != 3:
        raise ShapeError(
            f"padded attention memory must be 3-D, got {memory.shape}")
    b, t, attn = memory_proj.shape
    hidden = (memory_proj + attention.query_proj(queries).reshape(b, 1, attn)
              ).tanh()
    scores = (hidden.reshape(b * t, attn) @ attention.v).reshape(b, t)
    weights = softmax(scores + pad_bias, axis=-1)
    return (weights.reshape(b, 1, t) @ memory).reshape(b, memory.shape[2])


def network_composed(classifier, steps: list[Tensor], q_lengths: np.ndarray,
                     states: list[Tensor], c_lengths: np.ndarray,
                     units: Tensor) -> Tensor:
    """:meth:`ColumnMentionClassifier._network` as one masked Tensor
    graph over the P pairs — the graph its fused node replaced: the
    question LSTM, padded attention, both attentive-LSTM directions,
    the similarity features and the head."""
    cfg = classifier.config
    count = len(q_lengths)
    n_max = int(q_lengths.max())
    attention = classifier.attention
    memory = stack(classifier.question_rnn(steps, q_lengths), axis=1)
    memory_proj = attention.memory_proj(memory)
    pad_bias = Tensor(np.where(
        np.arange(n_max)[None, :] < q_lengths[:, None], 0.0, -1e9))
    q_matrix = stack(steps, axis=1)                             # (P, n, emb)
    q_unit = q_matrix / ((q_matrix * q_matrix).sum(axis=2, keepdims=True)
                         + 1e-8) ** 0.5

    total = len(states)
    masks = [None if (c_lengths > t).all() else Tensor(
                 (c_lengths > t).astype(np.float64).reshape(-1, 1))
             for t in range(total)]

    def run_direction(cell, order):
        h, c = cell.initial_state(count)
        outputs: list[Tensor | None] = [None] * total
        for t in order:
            s_t = states[t]
            context = attention_padded_composed(
                attention, memory, memory_proj, concat([s_t, h], axis=-1),
                pad_bias)
            h_new, c_new = cell(concat([s_t, context], axis=-1), h, c)
            m = masks[t]
            if m is None:
                h, c = h_new, c_new
            else:
                h = h_new * m + h * (1.0 - m)
                c = c_new * m + c * (1.0 - m)
            outputs[t] = h
        return outputs

    fwd = run_direction(classifier.fwd_cell, range(total))
    bwd = run_direction(classifier.bwd_cell, range(total - 1, -1, -1))
    lengths_col = q_lengths.astype(np.float64).reshape(count, 1)
    width = 2 * cfg.hidden + 2
    features = []
    for t in range(cfg.max_column_words):
        if t >= total:
            features.append(Tensor.zeros(count, width))
            continue
        sims = (q_unit * units[:, t:t + 1]).sum(axis=2)
        row = concat([fwd[t], bwd[t],
                      (sims + pad_bias).max(axis=1, keepdims=True),
                      sims.sum(axis=1, keepdims=True) / lengths_col],
                     axis=-1)
        features.append(row if masks[t] is None else row * masks[t])
    return classifier.head(concat(features, axis=-1)).reshape(count)


@contextmanager
def composed_classifier():
    """Run the char CNN and the column classifier's network above the
    column encoder on their composed Tensor graphs (not thread-safe: it
    swaps the classes' methods)."""
    saved = CharConvEncoder.forward, ColumnMentionClassifier._network
    CharConvEncoder.forward = char_cnn_composed
    ColumnMentionClassifier._network = network_composed
    try:
        yield
    finally:
        CharConvEncoder.forward, ColumnMentionClassifier._network = saved


def decode_per_beam(model, source: list[str], header_tokens: list[str],
                    extra_symbols, width: int | None,
                    token_vectors: dict | None = None) -> list[str]:
    """Beam search one beam at a time on the float64 training forward.

    ``model`` is an :class:`~repro.core.seq2seq.AnnotatedSeq2Seq`.  Every
    step runs its ``decoder_cell``, ``_attend`` and ``_step_distribution``
    on a single beam — the loop the lockstep float32 decoder batches.
    Expansion order and tie-breaking (``_top_k``) are the decoder's, so
    both must pick the same tokens.  It never retires a search early: it
    stops only when every expansion is EOS or after ``max_decode_len``
    steps, so it is the reference for the decoder's stop rule.
    """
    candidates = build_candidates(source, header_tokens, extra_symbols,
                                  extended=model.config.extended_grammar)
    width = width or model.config.beam_width
    embedder = model.embedder
    with no_grad():
        states = model.encode(source)
        memory = concat(states, axis=0)
        memory_proj = model.att_memory(memory)
        if token_vectors:
            candidate_matrix = concat(
                [Tensor(np.asarray(token_vectors[token], dtype=np.float64)
                        .reshape(1, -1))
                 if token in token_vectors else embedder.embed(token)
                 for token in candidates], axis=0)
        else:
            candidate_matrix = embedder.candidate_matrix(candidates)
        copy_map = model._copy_map(candidates, source)
        d0 = model._initial_state(states)
        _, context0 = model._attend(memory, memory_proj, d0)

        beams = [(0.0, [], d0, context0, None)]  # (nll, tokens, d, ctx, prev)
        finished: list[tuple[float, list[str]]] = []
        for _ in range(model.config.max_decode_len):
            expansions = []
            for nll, tokens, d, context, prev in beams:
                prev_emb = (embedder.embed(prev) if prev
                            else Tensor.zeros(1, embedder.dim))
                d_next = model.decoder_cell(
                    concat([prev_emb, context], axis=-1), d)
                att_scores, ctx_next = model._attend(memory, memory_proj,
                                                     d_next)
                probs = model._step_distribution(
                    d_next, ctx_next, att_scores, copy_map,
                    candidate_matrix).numpy()
                for ci in model._top_k(probs, width):
                    token = candidates[int(ci)]
                    new_nll = nll - float(np.log(probs[ci] + 1e-12))
                    if token == EOS:
                        finished.append((new_nll / (len(tokens) + 1),
                                         tokens))
                    else:
                        expansions.append((new_nll, tokens + [token],
                                           d_next, ctx_next, token))
            if not expansions:
                break
            expansions.sort(key=lambda b: b[0])
            beams = expansions[:width]
    if not finished:
        finished = [(nll / max(len(tokens), 1), tokens)
                    for nll, tokens, *_ in beams]
    finished.sort(key=lambda b: b[0])
    return finished[0][1]


_PAIR_NORMS = {
    "l1": lambda g: float(np.abs(g).sum()),
    "l2": lambda g: float(np.sqrt((g * g).sum())),
    "linf": lambda g: float(np.abs(g).max()),
}


def _run_lstm(lstm, steps: list) -> list:
    """One sequence through a stacked LSTM, one cell call per step."""
    outputs = steps
    for pre, cell in zip(lstm.pre, lstm.cells):
        h, c = cell.initial_state(1)
        layer_out = []
        for x in outputs:
            h, c = cell(pre(x), h, c)
            layer_out.append(h)
        outputs = layer_out
    return outputs


def _attend(attention, memory: Tensor, query: Tensor) -> Tensor:
    """Additive attention of one ``(1, q)`` query over ``(n, md)``."""
    hidden = (attention.memory_proj(memory)
              + attention.query_proj(query)).tanh()
    weights = softmax(hidden @ attention.v, axis=-1)
    return weights.reshape(1, memory.shape[0]) @ memory


def classifier_forward_per_pair(classifier, question: list[str],
                                column: list[str], capture: bool = False):
    """The column-mention classifier on one pair, written on its cells.

    Returns ``(logit (1,), word_leaves, char_leaves)``: with
    ``capture=True`` one ``(1, word_dim)`` and one ``(1, char_out)`` leaf
    per question word (empty lists otherwise), and the char CNN output
    of the question is cut from the graph as in the batched capture
    mode.  Each word is embedded where it occurs, the question LSTM, the
    column BiLSTM and the attentive BiLSTM run one sequence at a time,
    and attention scores one query at a time — the per-pair loop that
    :meth:`ColumnMentionClassifier.forward` batches over padded, masked
    pairs.  Similarity features are row-wise product sums, like the
    batched graph, so repeated question words tie in ``max`` on both.
    """
    cfg = classifier.config
    column = column[:cfg.max_column_words]

    def embed(word: str, leaf: bool):
        word_vec = Tensor(classifier.embeddings.vector(word).reshape(1, -1),
                          requires_grad=leaf)
        char_vec = classifier.char_encoder(char_ids(word)).reshape(
            1, cfg.char_out)
        if leaf:
            char_vec = Tensor(char_vec.numpy().copy(), requires_grad=True)
        return word_vec, char_vec, concat([word_vec, char_vec], axis=-1)

    q_embedded = [embed(word, capture) for word in question]
    q_steps = [combined for _w, _c, combined in q_embedded]
    memory = concat(_run_lstm(classifier.question_rnn, q_steps), axis=0)
    q_matrix = concat(q_steps, axis=0)
    q_unit = q_matrix / ((q_matrix * q_matrix).sum(axis=1, keepdims=True)
                         + 1e-8) ** 0.5

    c_steps = [embed(word, False)[2] for word in column]
    column_rnn = classifier.column_rnn
    c_fwd = _run_lstm(column_rnn.forward_rnn, c_steps)
    c_bwd = _run_lstm(column_rnn.backward_rnn, c_steps[::-1])[::-1]
    s_c = [concat([f, b], axis=-1) for f, b in zip(c_fwd, c_bwd)]

    def run_direction(cell, states):
        h, c = cell.initial_state(1)
        outputs = []
        for s_t in states:
            context = _attend(classifier.attention, memory,
                              concat([s_t, h], axis=-1))
            h, c = cell(concat([s_t, context], axis=-1), h, c)
            outputs.append(h)
        return outputs

    fwd = run_direction(classifier.fwd_cell, s_c)
    bwd = run_direction(classifier.bwd_cell, s_c[::-1])[::-1]
    width = 2 * cfg.hidden + 2
    features = []
    for t in range(cfg.max_column_words):
        if t >= len(column):
            features.append(Tensor.zeros(1, width))
            continue
        c_unit = c_steps[t] / ((c_steps[t] * c_steps[t]).sum(
            axis=1, keepdims=True) + 1e-8) ** 0.5
        sims = (q_unit * c_unit).sum(axis=1)                         # (n,)
        features.append(concat(
            [fwd[t], bwd[t], sims.max(axis=0, keepdims=True).reshape(1, 1),
             sims.mean(axis=0, keepdims=True).reshape(1, 1)], axis=-1))
    logit = classifier.head(concat(features, axis=-1)).reshape(1)
    word_leaves = [w for w, _c, _x in q_embedded] if capture else []
    char_leaves = [c for _w, c, _x in q_embedded] if capture else []
    return logit, word_leaves, char_leaves


def encode_columns_tensor(classifier, columns: list[list[str]],
                          ) -> EncodedColumns:
    """The column side of the classifier run as Tensor ops under
    ``no_grad``: the embedder and the column BiLSTM's training
    :meth:`~repro.nn.BiLSTM.forward` over the packed columns — what
    :meth:`ColumnMentionClassifier.encode_columns` computes in numpy."""
    cfg = classifier.config
    tokens = [list(column[:cfg.max_column_words]) for column in columns]
    with no_grad():
        vectors = classifier._word_vectors(
            word for column in tokens for word in column)
        steps, lengths = pack_steps(
            [[vectors[word] for word in column] for column in tokens])
        states = [s.numpy() for s in classifier.column_rnn(steps, lengths)]
    units = np.zeros((len(tokens), len(steps), cfg.emb_dim))
    for b, column in enumerate(tokens):
        for t, word in enumerate(column):
            vec = vectors[word].numpy()
            norm = np.sqrt((vec * vec).sum() + 1e-8)
            units[b, t] = vec.reshape(-1) / norm
    return EncodedColumns(tokens=tokens, lengths=lengths,
                          states=states, units=units)


def influence_per_pair(classifier, question: list[str], column: list[str],
                       alpha: float = 1.0, beta: float = 0.0,
                       norm: str = "l2") -> InfluenceProfile:
    """Section IV-C influence of one pair on the per-pair float64 forward.

    One :func:`classifier_forward_per_pair` with ``capture=True`` and one
    backward of the BCE loss toward label 0 per (question, column) pair,
    reading ``dL/dE(w)`` off the embedding leaves — the loop
    :func:`repro.core.mention.compute_influence` batches.  Writes
    ``.grad`` onto the classifier's parameters (it zeroes them first).
    """
    norm_fn = _PAIR_NORMS[norm]
    classifier.eval()
    classifier.zero_grad()
    logit, word_leaves, char_leaves = classifier_forward_per_pair(
        classifier, question, column, capture=True)
    loss = binary_cross_entropy_with_logits(logit, [0.0])
    loss.backward()

    word_norms = np.array([norm_fn(leaf.grad) for leaf in word_leaves])
    char_norms = np.array([norm_fn(leaf.grad) for leaf in char_leaves])
    combined = alpha * word_norms + beta * char_norms
    return InfluenceProfile(list(question), word_norms, char_norms, combined)


def recover_sql_flat(tokens: list[str], annotation) -> Query:
    """The flat-conjunction scan ``recover_sql`` ran on sequences with no
    ``or``/``not``/parenthesis/clause token.

    ``select [agg] col [where col op val (and col op val)*]``: a column is
    every token up to the next operator and a value every token up to
    the next ``and``.  So it accepts a trailing ``and`` and reads an
    ``and`` before an operator as part of the column; the tree grammar
    refuses both.  A one-token span that is a symbol resolves through
    the annotation; a longer span is its tokens joined, symbols and
    all, where production refuses a symbol inside a span.
    """
    def resolve_column(parts: list[str]) -> str:
        if not parts:
            raise AnnotationError("empty column reference")
        if len(parts) == 1 and (_is_symbol(parts[0], "c")
                                or _is_symbol(parts[0], "g")):
            return annotation.column_for_symbol(parts[0])
        return " ".join(parts)

    def resolve_value(parts: list[str]):
        if not parts:
            raise AnnotationError("empty value reference")
        if len(parts) == 1 and _is_symbol(parts[0], "v"):
            text = annotation.value_for_symbol(parts[0])
        else:
            text = " ".join(parts)
        try:
            number = float(text)
        except ValueError:
            return text
        return int(number) if number.is_integer() else number

    def take_until(pos: int, stops: set[str]) -> tuple[list[str], int]:
        out = []
        while pos < len(tokens) and tokens[pos] not in stops:
            out.append(tokens[pos])
            pos += 1
        return out, pos

    if not tokens or tokens[0] != "select":
        raise AnnotationError(
            f"annotated SQL must start with 'select': {tokens}")
    pos = 1
    aggregate = Aggregate.NONE
    if pos < len(tokens) and tokens[pos] in ("max", "min", "count", "sum",
                                             "avg"):
        aggregate = Aggregate.from_token(tokens[pos])
        pos += 1
    select_tokens, pos = take_until(pos, {"where"})
    select_column = resolve_column(select_tokens)

    conditions: list[Condition] = []
    if pos < len(tokens):
        pos += 1  # consume 'where'
        if pos >= len(tokens):
            raise AnnotationError("WHERE clause has no conditions")
        while pos < len(tokens):
            col_tokens, pos = take_until(pos, {"=", ">", "<"})
            if pos >= len(tokens):
                raise AnnotationError("condition missing operator")
            operator = Operator.from_token(tokens[pos])
            val_tokens, pos = take_until(pos + 1, {"and"})
            pos += 1  # consume 'and' (or step past the end)
            conditions.append(Condition(
                resolve_column(col_tokens), operator,
                resolve_value(val_tokens)))
    return Query(select_column=select_column, aggregate=aggregate,
                 conditions=conditions)
