"""The annotated seq2seq translator (Section V-B).

Encoder: stacked bidirectional GRU with per-layer affine transforms.
Decoder: attentive GRU (Bahdanau) with the paper's custom copy
mechanism::

    p(s_i | qᵃ, s_{1:i-1}) ∝ exp(U[d_i, β_i]) + M_i
    M_i[token] = Σ_{j : input_j = token} exp(e_ij)

i.e. the generation distribution gets extra unnormalized mass from the
attention scores of input positions holding the same token, *added
before normalization* (unlike the vanilla softmax-only formulation —
the distinction the paper emphasizes).

Output scores are tied to token embeddings: ``U[d_i, β_i]`` is projected
into embedding space and scored against each candidate token's
embedding, so the output space follows the example (symbols + input
tokens + headers) instead of a fixed vocabulary — this is what makes
zero-shot transfer to unseen domains possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ModelError
from repro.nn import (
    Adam,
    BiGRU,
    GRUCell,
    Linear,
    Module,
    Tensor,
    clip_grad_norm,
    concat,
    no_grad,
    softmax_rows_,
    tanh_,
)
from repro.text import WordEmbeddings

from repro.core.seq2seq.vocab import (
    EOS,
    TokenEmbedder,
    build_candidates,
)

__all__ = ["Seq2SeqConfig", "AnnotatedSeq2Seq", "TrainingPair"]


@dataclass
class Seq2SeqConfig:
    """Hyper-parameters of the translator.

    The paper uses hidden 400 (encoder) / 800 (decoder) with GloVe-300;
    we scale down proportionally for the numpy substrate.  The "half
    hidden size" ablation divides ``hidden`` by two.
    """

    hidden: int = 48
    encoder_layers: int = 1
    attention_dim: int = 48
    max_decode_len: int = 26
    beam_width: int = 5
    use_copy: bool = True
    grad_clip: float = 5.0
    max_symbol_index: int = 30
    seed: int = 0
    #: Include the extended-grammar structural tokens (OR/NOT, GROUP
    #: BY/HAVING, ORDER BY/LIMIT, parens) in every candidate set.  Off
    #: by default so legacy models keep a byte-identical output space.
    extended_grammar: bool = False


@dataclass
class TrainingPair:
    """One (annotated question, annotated SQL) training pair.

    ``extra_symbols`` are annotation symbols that can appear in the
    target but not in the source (implicit column mentions).
    """

    source: list[str]
    target: list[str]
    header_tokens: list[str]
    extra_symbols: tuple[str, ...] = ()


@dataclass
class _Cohort:
    """Every lane of one :meth:`~AnnotatedSeq2Seq.translate_many` call,
    encoded and ready to decode.

    Lane ``l``'s arrays are contiguous float32 views into the cohort's
    stacked arrays: ``memory[l]`` is ``(T_l, enc_dim)``,
    ``cand_rows[l]`` is the ``(C_l, dim)`` slice of ``cand`` starting at
    ``cand_offset[l]``, and ``copy_map[l]`` is stored transposed to
    ``(T_l, C_l)`` (the layout the in-place copy-mass matmul wants).
    ``n_cand``, ``eos`` and ``width`` hold each lane's candidate count,
    EOS position and beam width; ``d0`` and ``ctx0`` one row per lane.
    """

    candidates: list[list[str]]
    memory: list[np.ndarray]
    memory_proj: list[np.ndarray]
    cand_rows: list[np.ndarray]
    copy_map: list[np.ndarray]
    cand: np.ndarray
    cand_offset: np.ndarray
    n_cand: np.ndarray
    eos: np.ndarray
    width: np.ndarray
    d0: np.ndarray
    ctx0: np.ndarray


class AnnotatedSeq2Seq(Module):
    """Sequence-to-sequence translation of ``qᵃ`` into ``sᵃ``."""

    def __init__(self, embeddings: WordEmbeddings,
                 config: Seq2SeqConfig | None = None):
        super().__init__()
        self.config = config or Seq2SeqConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.embedder = TokenEmbedder(embeddings,
                                      max_symbol_index=cfg.max_symbol_index,
                                      seed=cfg.seed)
        dim = self.embedder.dim
        self.encoder = BiGRU(dim, cfg.hidden, rng,
                             num_layers=cfg.encoder_layers)
        enc_dim = 2 * cfg.hidden
        self.decoder_cell = GRUCell(dim + enc_dim, enc_dim, rng)
        self.init_proj = Linear(enc_dim, enc_dim, rng)
        # Bahdanau attention: e_ij = v^T tanh(W2 h_j + W3 d_i).
        self.att_memory = Linear(enc_dim, cfg.attention_dim, rng, bias=False)
        self.att_query = Linear(enc_dim, cfg.attention_dim, rng)
        self.att_v = Linear(cfg.attention_dim, 1, rng, bias=False)
        # Output: project [d_i, β_i] into embedding space (tied weights).
        self.out_proj = Linear(2 * enc_dim, dim, rng)
        self._fitted = False

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, tokens: list[str]) -> list[Tensor]:
        """Encoder states ``h_j``, one ``(1, 2*hidden)`` tensor per token."""
        if not tokens:
            raise ModelError("cannot encode an empty sequence")
        return self.encoder(self.embedder.embed_sequence(tokens))

    def _initial_state(self, states: list[Tensor]) -> Tensor:
        hidden = self.config.hidden
        fwd_last = states[-1][:, :hidden]
        bwd_first = states[0][:, hidden:]
        return self.init_proj(concat([fwd_last, bwd_first], axis=-1)).tanh()

    # ------------------------------------------------------------------
    # One decoder step
    # ------------------------------------------------------------------

    def _attend(self, memory: Tensor, memory_proj: Tensor,
                d: Tensor) -> tuple[Tensor, Tensor]:
        """Return (raw attention scores e_i (T,), context β_i (1, enc_dim))."""
        scores = self.att_v(
            (memory_proj + self.att_query(d)).tanh()).reshape(memory.shape[0])
        # The softmax shift is invariant here, so detaching it is exact.
        shifted = scores - scores.max(axis=0, keepdims=True).detach()
        weights = shifted.exp()
        weights = weights / weights.sum(axis=0, keepdims=True)
        context = weights.reshape(1, memory.shape[0]) @ memory
        return scores, context

    def _step_distribution(self, d: Tensor, context: Tensor,
                           attention_scores: Tensor, copy_map: np.ndarray,
                           candidate_matrix: Tensor) -> Tensor:
        """Probability over candidates: ``∝ exp(U[d,β]) + M_i``.

        Generation logits and copy scores must share ONE numerical
        shift: the normalization is only shift-invariant (and the
        detached shift only gradient-exact) when the same constant
        multiplies both mass terms.
        """
        projected = self.out_proj(concat([d, context], axis=-1))
        gen_logits = candidate_matrix @ projected.reshape(projected.shape[1])
        if self.config.use_copy:
            shift = max(float(gen_logits.numpy().max()),
                        float(attention_scores.numpy().max()))
            mass = ((gen_logits - shift).exp()
                    + Tensor(copy_map) @ (attention_scores - shift).exp())
        else:
            shift = float(gen_logits.numpy().max())
            mass = (gen_logits - shift).exp()
        return mass / mass.sum(axis=0, keepdims=True)

    @staticmethod
    def _copy_map(candidates: list[str],
                  input_tokens: list[str]) -> np.ndarray:
        """(C, T) matrix: 1 where candidate c equals input token at j."""
        index = {token: i for i, token in enumerate(candidates)}
        copy_map = np.zeros((len(candidates), len(input_tokens)))
        for j, token in enumerate(input_tokens):
            i = index.get(token)
            if i is not None:
                copy_map[i, j] = 1.0
        return copy_map

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def loss(self, pair: TrainingPair) -> Tensor:
        """Teacher-forced negative log-likelihood of one pair."""
        candidates = build_candidates(pair.source, pair.header_tokens,
                                      pair.extra_symbols,
                                      extended=self.config.extended_grammar)
        cand_index = {t: i for i, t in enumerate(candidates)}
        target = list(pair.target) + [EOS]
        for token in target:
            if token not in cand_index:
                raise ModelError(
                    f"target token {token!r} missing from candidate set")

        states = self.encode(pair.source)
        memory = concat(states, axis=0)
        memory_proj = self.att_memory(memory)
        candidate_matrix = self.embedder.candidate_matrix(candidates)
        copy_map = self._copy_map(candidates, pair.source)

        d = self._initial_state(states)
        _, context = self._attend(memory, memory_proj, d)
        nll = None
        prev_token = None
        for token in target:
            prev_emb = (self.embedder.embed(prev_token) if prev_token
                        else Tensor.zeros(1, self.embedder.dim))
            d = self.decoder_cell(concat([prev_emb, context], axis=-1), d)
            att_scores, context = self._attend(memory, memory_proj, d)
            probs = self._step_distribution(d, context, att_scores, copy_map,
                                            candidate_matrix)
            step_nll = -(probs[cand_index[token]] + 1e-12).log()
            nll = step_nll if nll is None else nll + step_nll
            prev_token = token
        return nll / len(target)

    def reachable(self, pair: TrainingPair) -> bool:
        """Whether every target token is in the pair's candidate set.

        Symbol-substitution annotation can erase literal value tokens
        from the source, making some targets unproducible — those pairs
        are skipped by :meth:`fit` (and are part of why the substitution
        ablation underperforms).
        """
        candidates = set(build_candidates(
            pair.source, pair.header_tokens, pair.extra_symbols,
            extended=self.config.extended_grammar))
        return all(t in candidates for t in list(pair.target) + [EOS])

    def fit(self, pairs: list[TrainingPair], epochs: int = 10,
            lr: float = 2e-3, shuffle_seed: int = 0,
            verbose: bool = False) -> list[float]:
        """Train with Adam + gradient clipping; returns per-epoch loss.

        Pairs with unreachable targets are skipped (counted in
        ``self.skipped_pairs``).
        """
        total_input = len(pairs)
        pairs = [p for p in pairs if self.reachable(p)]
        self.skipped_pairs = total_input - len(pairs)
        if verbose and self.skipped_pairs:
            print(f"[seq2seq] skipped {self.skipped_pairs} pairs with "
                  f"unreachable targets")
        if not pairs:
            raise ModelError("fit() needs at least one training pair")
        optimizer = Adam(self.parameters(), lr=lr)
        rng = np.random.default_rng(shuffle_seed)
        order = np.arange(len(pairs))
        losses = []
        for epoch in range(epochs):
            rng.shuffle(order)
            total = 0.0
            for idx in order:
                optimizer.zero_grad()
                loss = self.loss(pairs[idx])
                loss.backward()
                clip_grad_norm(self.parameters(), self.config.grad_clip)
                optimizer.step()
                total += loss.item()
            losses.append(total / len(pairs))
            if verbose:
                print(f"[seq2seq] epoch {epoch + 1}: loss={losses[-1]:.4f}")
        self._fitted = True
        return losses

    # ------------------------------------------------------------------
    # Inference: float32 beam search
    # ------------------------------------------------------------------

    @staticmethod
    def _top_k(rows: np.ndarray, k: int) -> np.ndarray:
        """Column indices of the ``k`` largest entries of each row, best
        first.

        A stable sort of the negated rows: ties break toward the lower
        candidate index and ``-inf`` padding sorts last, so a row padded
        to a wider cohort ranks its real candidates exactly as it would
        alone.  The decoder ranks every beam row of every lane in one
        call; the per-beam test oracle ranks one row, with the same tie
        order.
        """
        return np.argsort(-rows, axis=-1, kind="stable")[..., :k]

    def _retire_bound(self, min_live: np.ndarray) -> np.ndarray:
        """Lowest score a lane's live beams can still finish with.

        ``min_live`` is the lowest NLL among a lane's live beams.  A step
        adds ``−log(p + 1e-12) > −2e-12`` (float32 ``p ≤ 1``), so a
        hypothesis finishing at step ``s′ ≤ max_len`` has NLL at least
        ``floor`` (less a 1e-9 relative margin for float64 rounding) and
        scores ``floor/s′``: at least ``floor/max_len``, or ``floor``
        itself when it is negative.  See DESIGN.md, "Stop rule".
        """
        max_len = self.config.max_decode_len
        floor = min_live - (max_len * 2e-12 + 1e-9 * np.abs(min_live))
        return np.where(floor >= 0.0, floor / max_len, floor)

    def _attend_np(self, memory: np.ndarray, memory_proj: np.ndarray,
                   d: np.ndarray, query_proj: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Batched float32 :meth:`_attend`: ``(scores, contexts)``.

        Raw scores survive (the copy rule needs them); the softmax runs
        in place on a copy of them, the weights.
        """
        t = memory.shape[0]
        b = d.shape[0]
        attn = self.config.attention_dim
        if query_proj is None:
            query_proj = self.att_query.forward_np(d)
        hidden = tanh_(np.add(memory_proj[None, :, :],
                              query_proj[:, None, :]))
        v, _ = self.att_v.weights32()
        scores = np.matmul(hidden.reshape(b * t, attn), v).reshape(b, t)
        weights = softmax_rows_(scores.copy())
        return scores, np.matmul(weights, memory)

    def _step_distribution_np(self, attention_scores: np.ndarray,
                              cand_rows: np.ndarray, copy_map: np.ndarray,
                              projected: np.ndarray) -> np.ndarray:
        """Batched float32 :meth:`_step_distribution`: ``(B, C)``.

        Row ``b`` applies the same shared-shift copy rule (max over that
        row's generation logits and attention scores); every exponential
        and the normalization run in place; ``copy_map`` is stored
        transposed ``(T, C)`` so the copy mass is one matmul.
        """
        gen = np.matmul(projected, cand_rows.T)
        shift = np.amax(gen, axis=1, keepdims=True)
        if self.config.use_copy:
            att_max = np.amax(attention_scores, axis=1, keepdims=True)
            np.maximum(shift, att_max, out=shift)
            gen -= shift
            np.exp(gen, out=gen)
            att_exp = np.subtract(attention_scores, shift)
            np.exp(att_exp, out=att_exp)
            gen += np.matmul(att_exp, copy_map)
        else:
            gen -= shift
            np.exp(gen, out=gen)
        np.sum(gen, axis=1, keepdims=True, out=shift)
        gen /= shift
        return gen

    def _encode_cohort(self, requests: list[dict]) -> _Cohort:
        """Encode every request in ONE masked ``BiGRU.forward_batch_np``.

        The questions are padded to the longest into a ``(T_max, lanes,
        dim)`` array; the masked hold keeps each lane's states exactly
        those of its unpadded run.  The states are then laid out
        lane-major, so lane ``l``'s memory is the contiguous block
        ``[l, :T_l]``, and the attention memory projection and initial
        decoder state each run as one matmul over all lanes.  A solo
        :meth:`translate` is the one-lane case.
        """
        sources = [req["source"] for req in requests]
        if not all(sources):
            raise ModelError("cannot encode an empty sequence")
        cfg = self.config
        dim = self.embedder.dim
        hidden = cfg.hidden
        enc_dim = 2 * hidden
        attn = cfg.attention_dim
        n_lanes = len(sources)
        lengths = np.array([len(source) for source in sources],
                           dtype=np.intp)
        total = int(lengths.max())
        emb = np.zeros((total, n_lanes, dim), dtype=np.float32)
        for li, source in enumerate(sources):
            for t, token in enumerate(source):
                emb[t, li] = self.embedder.embed_np(token)
        states = self.encoder.forward_batch_np(emb, lengths)
        memory = np.ascontiguousarray(states.transpose(1, 0, 2))
        memory_proj = self.att_memory.forward_np(
            memory.reshape(n_lanes * total, enc_dim)
        ).reshape(n_lanes, total, attn)
        init_in = np.empty((n_lanes, enc_dim), dtype=np.float32)
        init_in[:, :hidden] = memory[np.arange(n_lanes), lengths - 1,
                                     :hidden]
        init_in[:, hidden:] = memory[:, 0, hidden:]
        d0 = tanh_(self.init_proj.forward_np(init_in))

        candidates = [build_candidates(
            req["source"], req["header_tokens"],
            req.get("extra_symbols", ()),
            extended=cfg.extended_grammar) for req in requests]
        n_cand = np.array([len(c) for c in candidates], dtype=np.intp)
        cand_offset = np.cumsum(n_cand) - n_cand
        cand = np.empty((int(n_cand.sum()), dim), dtype=np.float32)
        ctx0 = np.empty((n_lanes, enc_dim), dtype=np.float32)
        mem_views, mp_views, cand_views, copy_maps = [], [], [], []
        for li, (req, cands) in enumerate(zip(requests, candidates)):
            n = int(lengths[li])
            lane_memory = memory[li, :n]
            lane_proj = memory_proj[li, :n]
            vectors = req.get("token_vectors")
            rows = cand[cand_offset[li]:cand_offset[li] + len(cands)]
            for i, token in enumerate(cands):
                vector = vectors.get(token) if vectors else None
                rows[i] = (self.embedder.embed_np(token) if vector is None
                           else vector)
            copy_map = np.zeros((n, len(cands)), dtype=np.float32)
            index = {token: i for i, token in enumerate(cands)}
            for j, token in enumerate(req["source"]):
                i = index.get(token)
                if i is not None:
                    copy_map[j, i] = 1.0
            _, context0 = self._attend_np(lane_memory, lane_proj,
                                          d0[li:li + 1])
            ctx0[li] = context0[0]
            mem_views.append(lane_memory)
            mp_views.append(lane_proj)
            cand_views.append(rows)
            copy_maps.append(copy_map)
        return _Cohort(
            candidates=candidates, memory=mem_views, memory_proj=mp_views,
            cand_rows=cand_views, copy_map=copy_maps, cand=cand,
            cand_offset=cand_offset, n_cand=n_cand,
            eos=np.array([c.index(EOS) for c in candidates], dtype=np.intp),
            width=np.array([req.get("beam_width") or cfg.beam_width
                            for req in requests], dtype=np.intp),
            d0=d0, ctx0=ctx0)

    def _decode_lanes(self, cohort: _Cohort,
                      ) -> tuple[list[list[str]], list[int]]:
        """Beam-search every lane; return ``(outputs, steps)`` per lane.

        Live beams are rows, lane-major; row ``r`` is beam
        ``row_beam[r]`` (its rank) of lane ``row_lane[r]``, with its NLL
        and token history in arrays.  Per step, one fused GRU-cell call,
        one attention-query and one output projection advance every row;
        attention and the copy rule run per lane (their softmax and
        matmul reductions span that lane's own memory and candidates);
        then ONE top-k over the stacked, ``-inf``-padded score rows, one
        expansion over a ``(lanes, width, width)`` grid in the per-beam
        loop's order (beam-major, best candidate first), and one stable
        sort pick every lane's next beams, finished hypotheses and
        retirements.  Per-lane beam widths are padded to the widest and
        masked.

        A lane stops when every expansion is EOS, at ``max_decode_len``,
        or as soon as its best finished score is below
        :meth:`_retire_bound` of its live beams: no hypothesis still
        live can then beat it, and the final pick (earliest of equal
        scores) would be the same after all ``max_decode_len`` steps.
        Every kernel runs in float32 numpy — a warm decode constructs
        no Tensor.  The SQL is
        byte-identical to the full-length float64 per-beam oracle
        (pinned by the differential tests).
        """
        dim = self.embedder.dim
        enc_dim = 2 * self.config.hidden
        max_len = self.config.max_decode_len
        n_lanes = len(cohort.candidates)
        lanes = np.arange(n_lanes)
        top = int(cohort.width.max())
        in_width = np.arange(top) < cohort.width[:, None]     # (lanes, top)
        c_max = int(cohort.n_cand.max())
        n_cand = cohort.n_cand.tolist()

        row_lane = lanes
        row_beam = np.zeros(n_lanes, dtype=np.intp)
        nll = np.zeros(n_lanes)
        history = np.zeros((n_lanes, max_len), dtype=np.intp)
        prev = None
        d_rows = cohort.d0
        ctx_rows = cohort.ctx0
        best = np.full(n_lanes, np.inf)
        best_tokens = np.zeros((n_lanes, max_len), dtype=np.intp)
        best_len = np.zeros(n_lanes, dtype=np.intp)
        steps = np.zeros(n_lanes, dtype=np.intp)
        for step in range(1, max_len + 1):
            total = row_lane.shape[0]
            if total == 0:
                break
            counts = np.bincount(row_lane, minlength=n_lanes)
            steps += counts > 0
            # Decoder-cell input [prev_emb, context, d] for every row.
            xh = np.empty((total, dim + 2 * enc_dim), dtype=np.float32)
            if prev is None:
                xh[:, :dim] = 0.0
            else:
                xh[:, :dim] = cohort.cand[prev]
            xh[:, dim:dim + enc_dim] = ctx_rows
            xh[:, dim + enc_dim:] = d_rows
            d_next = self.decoder_cell.step_np(xh, d_rows)
            query_proj = self.att_query.forward_np(d_next)

            proj_in = np.empty((total, 2 * enc_dim), dtype=np.float32)
            proj_in[:, :enc_dim] = d_next
            spans = []
            stop = 0
            for li in np.flatnonzero(counts).tolist():
                rows = slice(stop, stop + int(counts[li]))
                stop = rows.stop
                att_scores, contexts = self._attend_np(
                    cohort.memory[li], cohort.memory_proj[li], d_next[rows],
                    query_proj=query_proj[rows])
                proj_in[rows, enc_dim:] = contexts
                spans.append((li, rows, att_scores))
            projected = self.out_proj.forward_np(proj_in)
            probs = np.full((total, c_max), -np.inf, dtype=np.float32)
            for li, rows, att_scores in spans:
                probs[rows, :n_cand[li]] = self._step_distribution_np(
                    att_scores, cohort.cand_rows[li], cohort.copy_map[li],
                    projected[rows])

            # Expand: every row's top candidates, with float64 NLLs.
            cand_idx = self._top_k(probs, top)                # (rows, top)
            valid = (in_width[row_lane]
                     & (cand_idx < cohort.n_cand[row_lane, None]))
            p = np.take_along_axis(probs, cand_idx, axis=1)
            new_nll = nll[:, None] - np.log(
                np.where(valid, p, 1.0).astype(np.float64) + 1e-12)
            eos = cand_idx == cohort.eos[row_lane, None]
            # Per lane, a (beam, rank) grid flattened beam-major: the order
            # the per-beam loop lists its expansions in.
            grid = np.full((2, n_lanes, top, top), np.inf)
            grid[0, row_lane, row_beam] = np.where(valid & eos,
                                                   new_nll / step, np.inf)
            grid[1, row_lane, row_beam] = np.where(valid & ~eos,
                                                   new_nll, np.inf)
            finish = grid[0].reshape(n_lanes, top * top)
            extend = grid[1].reshape(n_lanes, top * top)
            row_of = np.zeros((n_lanes, top), dtype=np.intp)
            row_of[row_lane, row_beam] = np.arange(total)

            # Finished: a lane keeps its earliest lowest score.
            first = np.argmin(finish, axis=1)
            score = finish[lanes, first]
            better = score < best
            if better.any():
                won = row_of[lanes[better], first[better] // top]
                best[better] = score[better]
                best_tokens[better] = history[won]
                best_len[better] = step - 1

            # Continuing: the stable sort keeps beam-major order on ties.
            order = np.argsort(extend, axis=1, kind="stable")[:, :top]
            kept = np.take_along_axis(extend, order, axis=1)
            keep = in_width & np.isfinite(kept)
            live = keep[:, 0]
            bound = self._retire_bound(np.where(live, kept[:, 0], 0.0))
            keep[live & (best < bound)] = False

            row_lane, row_beam = np.nonzero(keep)
            pick = order[row_lane, row_beam]
            src = row_of[row_lane, pick // top]
            token = cand_idx[src, pick % top]
            nll = kept[row_lane, row_beam]
            history = history[src]
            history[:, step - 1] = token
            prev = cohort.cand_offset[row_lane] + token
            d_rows = d_next[src]
            ctx_rows = proj_in[src, enc_dim:]

        outputs = []
        for li, cands in enumerate(cohort.candidates):
            if np.isfinite(best[li]):
                ids = best_tokens[li, :best_len[li]]
            else:
                # Nothing finished in max_decode_len steps: the best
                # length-normalised live beam.
                rows = np.flatnonzero(row_lane == li)
                normed = nll[rows] / max(max_len, 1)
                ids = history[rows[np.argmin(normed)]]
            outputs.append([cands[i] for i in ids.tolist()])
        return outputs, steps.tolist()

    def translate(self, source: list[str], header_tokens: list[str],
                  extra_symbols: tuple[str, ...] = (),
                  beam_width: int | None = None,
                  token_vectors: dict | None = None) -> list[str]:
        """Decode the most likely annotated SQL token sequence.

        A one-lane :meth:`translate_many`.  ``token_vectors`` optionally
        supplies precomputed frozen float32 embeddings for candidate
        tokens (the schema cache provides header + structural vectors).
        """
        outputs, _decode = self.translate_many([{
            "source": source, "header_tokens": header_tokens,
            "extra_symbols": extra_symbols, "beam_width": beam_width,
            "token_vectors": token_vectors}])
        return outputs[0]

    def translate_many(self, requests: list[dict],
                       ) -> tuple[list[list[str]], dict]:
        """Decode several sources in ONE cross-request lockstep batch.

        Each request is a dict with ``source`` and ``header_tokens``
        plus optional ``extra_symbols`` / ``beam_width`` /
        ``token_vectors`` — the :meth:`translate` signature in mapping
        form.  All lanes are encoded in one masked pass
        (:meth:`_encode_cohort`) and decoded by :meth:`_decode_lanes`:
        shared projections and the beam bookkeeping (top-k, expansion,
        finished and retired state) run once per step over every lane;
        attention and the copy rule, whose reductions span one lane's
        memory and candidates, run per lane.  A lane retires once its
        best finished hypothesis provably wins.  Lane ``i`` therefore
        returns the same SQL tokens as a stand-alone :meth:`translate`
        call (pinned by the differential tests).

        Returns ``(outputs, decode)``: one token list per request, and
        the facts of this decode (path, steps, beam width, candidate
        count, and the encode and beam-search wall times), which the
        translate pipeline stage copies into each lane's trace record.
        """
        if not requests:
            return [], {}
        with no_grad():
            start = perf_counter()
            cohort = self._encode_cohort(requests)
            encoded = perf_counter()
            outputs, steps = self._decode_lanes(cohort)
            timings = {"encode_s": encoded - start,
                       "beam_search_s": perf_counter() - encoded}
        widths = cohort.width.tolist()
        n_cand = cohort.n_cand.tolist()
        if len(requests) == 1:
            decode = {
                "path": "lockstep", "steps": steps[0],
                "beam_width": widths[0], "candidates": n_cand[0],
                **timings,
            }
        else:
            decode = {
                "path": "lockstep_many", "lanes": len(requests),
                "steps": steps, "beam_width": widths,
                "candidates": n_cand, **timings,
            }
        return outputs, decode
