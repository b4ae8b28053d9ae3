"""Transformer encoder-decoder — the "+Transformer" ablation.

Table II's last row replaces the GRU seq2seq with a Transformer while
keeping the same annotation.  We implement a small pre-norm Transformer
(multi-head self/cross attention, sinusoidal positions) that shares the
:class:`~repro.core.seq2seq.vocab.TokenEmbedder` and the candidate
output space, but uses plain softmax generation — no copy mechanism —
matching the vanilla architecture the paper plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError, ShapeError
from repro.nn import (
    Adam,
    LayerNorm,
    Linear,
    Module,
    Tensor,
    clip_grad_norm,
    concat,
    no_grad,
)
from repro.nn.functional import masked_softmax, softmax
from repro.text import WordEmbeddings

from repro.core.seq2seq.vocab import EOS, SOS, TokenEmbedder, build_candidates

__all__ = ["TransformerConfig", "TransformerTranslator"]


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Standard sinusoidal positional encodings, shape ``(length, dim)``."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div[: (dim + 1) // 2])
    return table


@dataclass
class TransformerConfig:
    """Hyper-parameters of the Transformer ablation."""

    heads: int = 4
    layers: int = 1
    ff_hidden: int = 64
    max_decode_len: int = 26
    beam_width: int = 5
    grad_clip: float = 5.0
    max_symbol_index: int = 30
    seed: int = 0
    #: Include the extended-grammar structural tokens in candidate sets
    #: (mirrors ``Seq2SeqConfig.extended_grammar``).
    extended_grammar: bool = False


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``heads`` heads (batch-free)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.dk = dim // heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def forward(self, queries: Tensor, keys: Tensor, values: Tensor,
                mask: np.ndarray | None = None) -> Tensor:
        tq, tk = queries.shape[0], keys.shape[0]
        q = self.wq(queries).reshape(tq, self.heads, self.dk).transpose(1, 0, 2)
        k = self.wk(keys).reshape(tk, self.heads, self.dk).transpose(1, 0, 2)
        v = self.wv(values).reshape(tk, self.heads, self.dk).transpose(1, 0, 2)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(self.dk))
        if mask is not None:
            weights = masked_softmax(
                scores, np.broadcast_to(mask, (self.heads, tq, tk)), axis=-1)
        else:
            weights = softmax(scores, axis=-1)
        out = (weights @ v).transpose(1, 0, 2).reshape(tq, self.dim)
        return self.wo(out)


class _Block(Module):
    """One pre-norm transformer block (self-attn [+ cross-attn] + FFN)."""

    def __init__(self, dim: int, heads: int, ff_hidden: int,
                 rng: np.random.Generator, cross: bool):
        super().__init__()
        self.self_attn = MultiHeadAttention(dim, heads, rng)
        self.norm1 = LayerNorm(dim)
        self.cross_attn = MultiHeadAttention(dim, heads, rng) if cross else None
        self.norm2 = LayerNorm(dim) if cross else None
        self.ff1 = Linear(dim, ff_hidden, rng)
        self.ff2 = Linear(ff_hidden, dim, rng)
        self.norm3 = LayerNorm(dim)

    def forward(self, x: Tensor, memory: Tensor | None = None,
                self_mask: np.ndarray | None = None) -> Tensor:
        normed = self.norm1(x)
        x = x + self.self_attn(normed, normed, normed, mask=self_mask)
        if self.cross_attn is not None:
            if memory is None:
                raise ModelError("decoder block needs encoder memory")
            x = x + self.cross_attn(self.norm2(x), memory, memory)
        x = x + self.ff2(self.ff1(self.norm3(x)).relu())
        return x


class TransformerTranslator(Module):
    """Annotated-question → annotated-SQL Transformer."""

    def __init__(self, embeddings: WordEmbeddings,
                 config: TransformerConfig | None = None):
        super().__init__()
        self.config = config or TransformerConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.embedder = TokenEmbedder(embeddings,
                                      max_symbol_index=cfg.max_symbol_index,
                                      seed=cfg.seed)
        dim = self.embedder.dim
        self.encoder_blocks = [
            _Block(dim, cfg.heads, cfg.ff_hidden, rng, cross=False)
            for _ in range(cfg.layers)]
        self.decoder_blocks = [
            _Block(dim, cfg.heads, cfg.ff_hidden, rng, cross=True)
            for _ in range(cfg.layers)]
        self.enc_norm = LayerNorm(dim)
        self.dec_norm = LayerNorm(dim)
        self.out_proj = Linear(dim, dim, rng)
        self._fitted = False

    # ------------------------------------------------------------------

    def _embed_with_positions(self, tokens: list[str]) -> Tensor:
        matrix = concat(self.embedder.embed_sequence(tokens), axis=0)
        return matrix + Tensor(
            sinusoidal_positions(len(tokens), self.embedder.dim))

    def encode(self, tokens: list[str]) -> Tensor:
        """Encoder memory, shape ``(T, dim)``."""
        if not tokens:
            raise ModelError("cannot encode an empty sequence")
        x = self._embed_with_positions(tokens)
        for block in self.encoder_blocks:
            x = block(x)
        return self.enc_norm(x)

    def _decode_states(self, target_in: list[str], memory: Tensor) -> Tensor:
        x = self._embed_with_positions(target_in)
        n = len(target_in)
        causal = np.tril(np.ones((n, n), dtype=bool))
        for block in self.decoder_blocks:
            x = block(x, memory=memory, self_mask=causal)
        return self.dec_norm(x)

    def _logits(self, states: Tensor, candidate_matrix: Tensor) -> Tensor:
        """(T_dec, C) generation logits via tied candidate embeddings."""
        return self.out_proj(states) @ candidate_matrix.T

    # ------------------------------------------------------------------

    def loss(self, source: list[str], target: list[str],
             header_tokens: list[str],
             extra_symbols: tuple[str, ...] = ()) -> Tensor:
        """Teacher-forced mean NLL for one pair."""
        candidates = build_candidates(source, header_tokens, extra_symbols,
                                      extended=self.config.extended_grammar)
        cand_index = {t: i for i, t in enumerate(candidates)}
        full_target = list(target) + [EOS]
        for token in full_target:
            if token not in cand_index:
                raise ModelError(
                    f"target token {token!r} missing from candidate set")
        memory = self.encode(source)
        states = self._decode_states([SOS] + list(target), memory)
        logits = self._logits(states,
                              self.embedder.candidate_matrix(candidates))
        log_probs = logits - logits.max(axis=-1, keepdims=True).detach()
        log_probs = log_probs - log_probs.exp().sum(
            axis=-1, keepdims=True).log()
        picked = log_probs[np.arange(len(full_target)),
                           [cand_index[t] for t in full_target]]
        return -picked.mean()

    def reachable(self, pair) -> bool:
        """Whether every target token is in the pair's candidate set."""
        candidates = set(build_candidates(
            pair.source, pair.header_tokens, pair.extra_symbols,
            extended=self.config.extended_grammar))
        return all(t in candidates for t in list(pair.target) + [EOS])

    def fit(self, pairs, epochs: int = 10, lr: float = 1e-3,
            shuffle_seed: int = 0, verbose: bool = False) -> list[float]:
        """Train on :class:`~repro.core.seq2seq.model.TrainingPair` items.

        Pairs with unreachable targets are skipped (``skipped_pairs``).
        """
        total_input = len(pairs)
        pairs = [p for p in pairs if self.reachable(p)]
        self.skipped_pairs = total_input - len(pairs)
        if not pairs:
            raise ModelError("fit() needs training pairs")
        optimizer = Adam(self.parameters(), lr=lr)
        rng = np.random.default_rng(shuffle_seed)
        order = np.arange(len(pairs))
        losses = []
        for epoch in range(epochs):
            rng.shuffle(order)
            total = 0.0
            for idx in order:
                pair = pairs[idx]
                optimizer.zero_grad()
                loss = self.loss(pair.source, pair.target,
                                 pair.header_tokens, pair.extra_symbols)
                loss.backward()
                clip_grad_norm(self.parameters(), self.config.grad_clip)
                optimizer.step()
                total += loss.item()
            losses.append(total / len(pairs))
            if verbose:
                print(f"[transformer] epoch {epoch + 1}: "
                      f"loss={losses[-1]:.4f}")
        self._fitted = True
        return losses

    def translate(self, source: list[str], header_tokens: list[str],
                  extra_symbols: tuple[str, ...] = (),
                  beam_width: int | None = None) -> list[str]:
        """Greedy-beam decode of the annotated SQL token sequence."""
        width = beam_width or self.config.beam_width
        candidates = build_candidates(source, header_tokens, extra_symbols,
                                      extended=self.config.extended_grammar)
        with no_grad():
            memory = self.encode(source)
            candidate_matrix = self.embedder.candidate_matrix(candidates)
            beams = [(0.0, [])]
            finished = []
            for _ in range(self.config.max_decode_len):
                expansions = []
                for nll, tokens in beams:
                    states = self._decode_states([SOS] + tokens, memory)
                    logits = self._logits(
                        states, candidate_matrix).numpy()[-1]
                    probs = np.exp(logits - logits.max())
                    probs = probs / probs.sum()
                    for ci in np.argsort(probs)[::-1][:width]:
                        token = candidates[int(ci)]
                        new_nll = nll - float(np.log(probs[ci] + 1e-12))
                        if token == EOS:
                            finished.append((new_nll / (len(tokens) + 1),
                                             tokens))
                        else:
                            expansions.append((new_nll, tokens + [token]))
                if not expansions:
                    break
                expansions.sort(key=lambda b: b[0])
                beams = expansions[:width]
            if not finished:
                finished = [(nll / max(len(t), 1), t) for nll, t in beams]
        finished.sort(key=lambda b: b[0])
        return finished[0][1]

    def translate_many(self, requests: list[dict],
                       ) -> tuple[list[list[str]], dict]:
        """The translator protocol's cohort call: :meth:`translate` per
        request (``token_vectors`` are ignored; this model embeds its
        own candidates) and no decode facts."""
        return [self.translate(req["source"], req["header_tokens"],
                               req.get("extra_symbols", ()),
                               beam_width=req.get("beam_width"))
                for req in requests], {}
