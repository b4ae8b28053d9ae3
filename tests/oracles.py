"""Reference implementations kept as test oracles.

Each is the straightforward version a production path replaced; the
differential tests assert the fast path returns exactly what these do.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.mention import MentionCandidate
from repro.core.seq2seq.vocab import EOS, build_candidates
from repro.nn import Tensor, concat, no_grad
from repro.sqlengine import Table
from repro.text import tokenize


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


def decode_per_beam(model, source: list[str], header_tokens: list[str],
                    extra_symbols, width: int | None,
                    token_vectors: dict | None = None) -> list[str]:
    """Beam search one beam at a time on the float64 training forward.

    ``model`` is an :class:`~repro.core.seq2seq.AnnotatedSeq2Seq`.  Every
    step runs its ``decoder_cell``, ``_attend`` and ``_step_distribution``
    on a single beam — the loop the lockstep float32 decoder batches.
    Expansion order and tie-breaking (``_top_k``) are the decoder's, so
    both must pick the same tokens.
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
