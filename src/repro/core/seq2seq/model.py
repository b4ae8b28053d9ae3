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
    InferenceArena,
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
class _DecodeLane:
    """Per-request beam-search state inside :meth:`translate_many`.

    Every array is a float32 view into the translator's arena;
    ``copy_map`` is stored transposed to ``(T, C)`` (the layout the
    in-place copy-mass matmul wants).
    """

    candidates: list[str]
    memory: np.ndarray
    memory_proj: np.ndarray
    cand_rows: np.ndarray
    copy_map: np.ndarray
    d_mat: np.ndarray
    ctx_mat: np.ndarray
    width: int
    steps: int = 0
    done: bool = False

    def __post_init__(self):
        # (nll, tokens, prev token) per live beam; finished (nll, tokens).
        self.meta: list[tuple[float, list[str], str | None]] = [(0.0, [], None)]
        self.finished: list[tuple[float, list[str]]] = []


class AnnotatedSeq2Seq(Module):
    """Sequence-to-sequence translation of ``qᵃ`` into ``sᵃ``."""

    #: The serving/pipeline layers may pass precomputed frozen token
    #: vectors (header + structural tokens) to :meth:`translate`.
    accepts_token_vectors = True

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
        #: Reused inference buffers for the float32 arena fast path —
        #: grown on the first request of each shape class, then steady.
        self.arena = InferenceArena()
        # Optional observer called as ``timing_hook(stage, seconds)``
        # with stage ∈ {"encode", "beam_search"} on every translate()
        # call (the serving layer's latency histograms attach here).
        self.timing_hook = None
        #: Facts about the most recent :meth:`translate` decode (path,
        #: steps, beam width, candidate count) — the translate pipeline
        #: stage copies these into its trace record.
        self.last_decode: dict = {}
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
    # Inference: float32 arena beam search
    # ------------------------------------------------------------------

    @staticmethod
    def _top_k(probs: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` largest entries, best first.

        ``argpartition`` + a small sort instead of a full argsort of the
        candidate vocabulary.  Ties break toward the lower candidate
        index (partition indices are pre-sorted, the rank sort is
        stable), so the decoder and the per-beam test oracle — which
        both route through here — expand candidates in the same order.
        """
        if k >= probs.shape[0]:
            idx = np.arange(probs.shape[0])
        else:
            idx = np.sort(np.argpartition(probs, -k)[-k:])
        return idx[np.argsort(-probs[idx], kind="stable")]

    def _encode_np(self, tokens: list[str], tag: str,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float32 encode + initial state: ``(memory, memory_proj, d0)``.

        The arena form of :meth:`encode` and :meth:`_initial_state`; all
        three live in reused float32 slabs keyed by ``tag`` (one tag
        per lane, so concurrent lanes never alias).
        """
        if not tokens:
            raise ModelError("cannot encode an empty sequence")
        arena = self.arena
        dim = self.embedder.dim
        hidden = self.config.hidden
        n = len(tokens)
        emb = arena.take(f"{tag}.emb", (n, 1, dim))
        for i, token in enumerate(tokens):
            emb[i, 0] = self.embedder.embed_np(token)
        states = self.encoder.forward_batch_np(emb, None, arena, f"{tag}.enc")
        memory = states.reshape(n, 2 * hidden)
        memory_proj = arena.take(f"{tag}.mp", (n, self.config.attention_dim))
        self.att_memory.forward_np(memory, memory_proj)
        init_in = arena.take(f"{tag}.ii", (1, 2 * hidden))
        init_in[0, :hidden] = memory[n - 1, :hidden]
        init_in[0, hidden:] = memory[0, hidden:]
        d0 = arena.take(f"{tag}.d0", (1, 2 * hidden))
        self.init_proj.forward_np(init_in, d0)
        tanh_(d0)
        return memory, memory_proj, d0

    def _attend_np(self, memory: np.ndarray, memory_proj: np.ndarray,
                   d: np.ndarray, tag: str,
                   query_proj: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Batched float32 :meth:`_attend`: ``(scores, contexts)``.

        Raw scores survive in their own slab (the copy rule needs them);
        the softmax runs in a separate weights slab, in place.
        """
        arena = self.arena
        t = memory.shape[0]
        b = d.shape[0]
        attn = self.config.attention_dim
        if query_proj is None:
            query_proj = arena.take(f"{tag}.qp", (b, attn))
            self.att_query.forward_np(d, query_proj)
        hidden = arena.take(f"{tag}.h", (b, t, attn))
        np.add(memory_proj[None, :, :], query_proj[:, None, :], out=hidden)
        tanh_(hidden)
        v, _ = self.att_v.weights32()
        scores = arena.take(f"{tag}.s", (b, t))
        np.matmul(hidden.reshape(b * t, attn), v,
                  out=scores.reshape(b * t, 1))
        weights = arena.take(f"{tag}.w", (b, t))
        np.copyto(weights, scores)
        softmax_rows_(weights, arena.take(f"{tag}.r", (b, 1)))
        contexts = arena.take(f"{tag}.c", (b, memory.shape[1]))
        np.matmul(weights, memory, out=contexts)
        return scores, contexts

    def _step_distribution_np(self, attention_scores: np.ndarray,
                              lane: "_DecodeLane", projected: np.ndarray,
                              tag: str) -> np.ndarray:
        """Batched float32 :meth:`_step_distribution`: ``(B, C)``.

        Row ``b`` applies the same shared-shift copy rule (max over that
        row's generation logits and attention scores); every exponential
        and the
        normalization in place; the lane's ``copy_map`` is stored
        transposed ``(T, C)`` so the copy mass is one matmul.
        """
        arena = self.arena
        b = projected.shape[0]
        c = lane.cand_rows.shape[0]
        gen = arena.take(f"{tag}.g", (b, c))
        np.matmul(projected, lane.cand_rows.T, out=gen)
        shift = arena.take(f"{tag}.sh", (b, 1))
        np.amax(gen, axis=1, keepdims=True, out=shift)
        if self.config.use_copy:
            att_max = arena.take(f"{tag}.am", (b, 1))
            np.amax(attention_scores, axis=1, keepdims=True, out=att_max)
            np.maximum(shift, att_max, out=shift)
            gen -= shift
            np.exp(gen, out=gen)
            att_exp = arena.take(f"{tag}.ae", attention_scores.shape)
            np.subtract(attention_scores, shift, out=att_exp)
            np.exp(att_exp, out=att_exp)
            copy_mass = arena.take(f"{tag}.cm", (b, c))
            np.matmul(att_exp, lane.copy_map, out=copy_mass)
            gen += copy_mass
        else:
            gen -= shift
            np.exp(gen, out=gen)
        np.sum(gen, axis=1, keepdims=True, out=shift)
        gen /= shift
        return gen

    def _prepare_lane(self, source: list[str], header_tokens: list[str],
                      extra_symbols, width: int | None,
                      token_vectors: dict | None,
                      lane_index: int) -> "_DecodeLane":
        """Encode one request into a float32 arena decode lane."""
        candidates = build_candidates(source, header_tokens, extra_symbols,
                                      extended=self.config.extended_grammar)
        arena = self.arena
        tag = f"lane{lane_index}"
        memory, memory_proj, d0 = self._encode_np(source, tag)
        cand_rows = arena.take(f"{tag}.cand",
                               (len(candidates), self.embedder.dim))
        for i, token in enumerate(candidates):
            vector = token_vectors.get(token) if token_vectors else None
            cand_rows[i] = (self.embedder.embed_np(token) if vector is None
                            else vector)
        copy_map = arena.take(f"{tag}.copy", (len(source), len(candidates)))
        copy_map[...] = 0.0
        index = {token: i for i, token in enumerate(candidates)}
        for j, token in enumerate(source):
            i = index.get(token)
            if i is not None:
                copy_map[j, i] = 1.0
        _, context0 = self._attend_np(memory, memory_proj, d0, f"{tag}.a0")
        enc_dim = 2 * self.config.hidden
        d_mat = arena.take(f"{tag}.dmat", (1, enc_dim))
        np.copyto(d_mat, d0)
        ctx_mat = arena.take(f"{tag}.cmat", (1, enc_dim))
        np.copyto(ctx_mat, context0)
        return _DecodeLane(candidates=candidates, memory=memory,
                           memory_proj=memory_proj, cand_rows=cand_rows,
                           copy_map=copy_map, d_mat=d_mat, ctx_mat=ctx_mat,
                           width=width or self.config.beam_width)

    def _decode_lanes(self, lanes: list["_DecodeLane"],
                      ) -> tuple[list[list[str]], list[int]]:
        """Beam-search every lane; return ``(outputs, steps)`` per lane.

        One fused GRU-cell call advances the union of all live beams of
        all lanes per step; attention, the copy rule, and top-k pruning
        stay per lane.  Lanes finish independently (EOS everywhere or
        ``max_decode_len``) and drop out of the union.  Every
        intermediate lives in a reused slab — a warm decode performs no
        Tensor construction and no slab growth.  Expansion order
        (beam-major, best candidate first) and the stable sorts match the
        float64 per-beam loop of the training forward, so the SQL comes
        out byte-identical (pinned by the differential tests).
        """
        arena = self.arena
        dim = self.embedder.dim
        enc_dim = 2 * self.config.hidden
        attn = self.config.attention_dim
        for _ in range(self.config.max_decode_len):
            live = [(li, lane) for li, lane in enumerate(lanes)
                    if not lane.done]
            if not live:
                break
            total = sum(len(lane.meta) for _, lane in live)
            # Union decoder-cell input [prev_emb, context, d].
            xh = arena.take("dec.xh", (total, dim + 2 * enc_dim))
            d_union = arena.take("dec.d", (total, enc_dim))
            slices = []
            offset = 0
            for _, lane in live:
                lane.steps += 1
                rows = slice(offset, offset + len(lane.meta))
                for b, (_, _, prev) in enumerate(lane.meta):
                    if prev is None:
                        xh[offset + b, :dim] = 0.0
                    else:
                        xh[offset + b, :dim] = self.embedder.embed_np(prev)
                xh[rows, dim:dim + enc_dim] = lane.ctx_mat
                d_union[rows] = lane.d_mat
                slices.append(rows)
                offset += len(lane.meta)
            xh[:, dim + enc_dim:] = d_union
            d_next = arena.take("dec.dn", (total, enc_dim))
            self.decoder_cell.step_np(xh, d_union, d_next, arena, "dec.cell")
            query_proj = arena.take("dec.qp", (total, attn))
            self.att_query.forward_np(d_next, query_proj)

            proj_in = arena.take("dec.pi", (total, 2 * enc_dim))
            proj_in[:, :enc_dim] = d_next
            att_by_lane = []
            for (li, lane), rows in zip(live, slices):
                att_scores, contexts = self._attend_np(
                    lane.memory, lane.memory_proj, d_next[rows],
                    f"dec.a{li}", query_proj=query_proj[rows])
                att_by_lane.append(att_scores)
                proj_in[rows, enc_dim:] = contexts
            projected = arena.take("dec.pr", (total, dim))
            self.out_proj.forward_np(proj_in, projected)

            for ((li, lane), rows, att_scores) in zip(live, slices,
                                                      att_by_lane):
                probs = self._step_distribution_np(
                    att_scores, lane, projected[rows], f"dec.p{li}")
                expansions = []  # (nll, tokens, beam row, token)
                for b, (nll, tokens, _) in enumerate(lane.meta):
                    for ci in self._top_k(probs[b], lane.width):
                        token = lane.candidates[int(ci)]
                        new_nll = nll - float(
                            np.log(float(probs[b, ci]) + 1e-12))
                        if token == EOS:
                            lane.finished.append(
                                (new_nll / (len(tokens) + 1), tokens))
                        else:
                            expansions.append((new_nll, tokens + [token],
                                               b, token))
                if not expansions:
                    lane.done = True
                    continue
                expansions.sort(key=lambda e: e[0])
                kept = expansions[:lane.width]
                keep_rows = [row for _, _, row, _ in kept]
                d_keep = arena.take(f"lane{li}.dmat", (len(kept), enc_dim))
                np.take(d_next[rows], keep_rows, axis=0, out=d_keep)
                ctx_keep = arena.take(f"lane{li}.cmat", (len(kept), enc_dim))
                np.take(proj_in[rows, enc_dim:], keep_rows, axis=0,
                        out=ctx_keep)
                lane.d_mat = d_keep
                lane.ctx_mat = ctx_keep
                lane.meta = [(nll, tokens, token)
                             for nll, tokens, _, token in kept]

        outputs, steps = [], []
        for lane in lanes:
            finished = lane.finished
            if not finished:
                finished = [(nll / max(len(tokens), 1), tokens)
                            for nll, tokens, _ in lane.meta]
            finished.sort(key=lambda b: b[0])
            outputs.append(finished[0][1])
            steps.append(lane.steps)
        return outputs, steps

    def translate(self, source: list[str], header_tokens: list[str],
                  extra_symbols: tuple[str, ...] = (),
                  beam_width: int | None = None,
                  token_vectors: dict | None = None) -> list[str]:
        """Decode the most likely annotated SQL token sequence.

        A one-lane :meth:`translate_many`.  ``token_vectors`` optionally
        supplies precomputed frozen float32 embeddings for candidate
        tokens (the schema cache provides header + structural vectors).
        """
        return self.translate_many([{
            "source": source, "header_tokens": header_tokens,
            "extra_symbols": extra_symbols, "beam_width": beam_width,
            "token_vectors": token_vectors}])[0]

    def translate_many(self, requests: list[dict]) -> list[list[str]]:
        """Decode several sources in ONE cross-request lockstep batch.

        Each request is a dict with ``source`` and ``header_tokens``
        plus optional ``extra_symbols`` / ``beam_width`` /
        ``token_vectors`` — the :meth:`translate` signature in mapping
        form.  Encoding, the candidate/copy machinery, and everything
        whose reduction shape is per-request (attention softmax +
        context, generation/copy mass, top-k pruning) run per lane; only
        the row-sliced shared projections (decoder cell, attention
        query, output projection) advance the union of all lanes' live
        beams per step.  Lane ``i`` therefore returns the same SQL
        tokens as a stand-alone :meth:`translate` call (pinned by the
        differential tests).
        """
        if not requests:
            return []
        with no_grad():
            start = perf_counter()
            lanes = [self._prepare_lane(
                req["source"], req["header_tokens"],
                req.get("extra_symbols", ()), req.get("beam_width"),
                req.get("token_vectors"), li)
                for li, req in enumerate(requests)]
            if self.timing_hook is not None:
                self.timing_hook("encode", perf_counter() - start)
            start = perf_counter()
            outputs, steps = self._decode_lanes(lanes)
            if self.timing_hook is not None:
                self.timing_hook("beam_search", perf_counter() - start)
        if len(lanes) == 1:
            self.last_decode = {
                "path": "lockstep", "steps": steps[0],
                "beam_width": lanes[0].width,
                "candidates": len(lanes[0].candidates),
            }
        else:
            self.last_decode = {
                "path": "lockstep_many", "lanes": len(lanes),
                "steps": steps,
                "beam_width": [lane.width for lane in lanes],
                "candidates": [len(lane.candidates) for lane in lanes],
            }
        return outputs
