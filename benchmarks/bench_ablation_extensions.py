"""Extension ablations beyond the paper's own (DESIGN.md Section 5).

* influence norm: ℓ1 vs ℓ2 (paper) vs ℓ∞ for FGM span localization;
* beam width 1 vs 5 for decoding;
* mention resolution: dependency-tree distance vs linear token distance;
* contrastive influence profiles (our extension) vs raw profiles.
"""

from __future__ import annotations

import numpy as np
import pytest

import common as C
from repro.core import evaluate
from repro.core.annotator import AnnotatorConfig
from repro.core.mention import compute_influence, locate_mention
from repro.text import tokenize


def _gold_column_mentions(example):
    return [m for m in example.mentions
            if m.kind == "column" and not m.is_implicit]


def _span_overlap_rate(classifier, examples, norm: str,
                       contrastive: bool = False) -> float:
    from repro.core.mention import contrastive_profile
    hits = total = 0
    for example in examples:
        tokens = example.question_tokens
        mentions = _gold_column_mentions(example)
        profiles = dict(zip(
            [m.column for m in mentions],
            compute_influence(classifier,
                              [(tokens, tokenize(m.column)) for m in mentions],
                              norm=norm)))
        for mention in mentions:
            profile = profiles[mention.column]
            if contrastive:
                others = [p for c, p in profiles.items()
                          if c != mention.column]
                profile = contrastive_profile(profile, others)
            start, end = locate_mention(profile)
            hits += (start < mention.end and mention.start < end)
            total += 1
    return hits / max(total, 1)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_ablation_influence_norm(benchmark, norm):
    classifier = C.full_nlidb().annotator.column_classifier
    examples = C.dataset().dev[:20]

    rate = benchmark.pedantic(
        lambda: _span_overlap_rate(classifier, examples, norm),
        rounds=1, iterations=1)

    C.print_header(f"Ablation — influence norm {norm}")
    C.print_row(f"gold-span overlap ({norm})", f"{rate:.1%}")
    assert rate >= C.scale().transfer_min_qm


def test_ablation_contrastive_influence(benchmark):
    classifier = C.full_nlidb().annotator.column_classifier
    examples = C.dataset().dev[:20]

    contrastive = benchmark.pedantic(
        lambda: _span_overlap_rate(classifier, examples, "l2",
                                   contrastive=True),
        rounds=1, iterations=1)
    raw = _span_overlap_rate(classifier, examples, "l2")

    C.print_header("Ablation — contrastive influence (extension)")
    C.print_row("raw profile overlap", f"{raw:.1%}")
    C.print_row("contrastive profile overlap", f"{contrastive:.1%}")
    assert contrastive >= C.scale().transfer_min_qm


def test_ablation_beam_width(benchmark):
    model = C.full_nlidb()
    examples = C.dataset().dev[:25]

    def decode(width):
        return [model.translate(e.question_tokens, e.table,
                                beam_width=width).query for e in examples]

    greedy = benchmark.pedantic(lambda: decode(1), rounds=1, iterations=1)
    beam = [t.query for t in C.translations("ours", "dev", limit=25)]

    greedy_result = evaluate(greedy, examples)
    beam_result = evaluate(beam, examples)
    C.print_header("Ablation — beam width (decode)")
    C.print_row("width 1 (greedy)", f"qm={greedy_result.acc_qm:.1%}")
    C.print_row("width 5 (paper)", f"qm={beam_result.acc_qm:.1%}")
    assert beam_result.acc_qm >= greedy_result.acc_qm - 0.08


def test_ablation_dependency_resolution(benchmark):
    """Dependency-tree pairing vs naive token distance (Section IV-E)."""
    annotator = C.full_nlidb().annotator
    examples = [e for e in C.dataset().dev
                if len(e.query.conditions) >= 2][:20]
    if not examples:
        pytest.skip("no multi-condition examples in the sample")

    def pair_accuracy(use_dependency: bool) -> float:
        original = annotator.config.use_dependency_resolution
        annotator.config = AnnotatorConfig(
            **{**vars(annotator.config),
               "use_dependency_resolution": use_dependency})
        hits = total = 0
        try:
            for example in examples:
                annotation = annotator.annotate(example.question_tokens,
                                                example.table)
                for cond in example.query.conditions:
                    value = annotation.value_annotation(cond.column)
                    gold = " ".join(tokenize(str(cond.value)))
                    hits += (value is not None and value.surface == gold)
                    total += 1
        finally:
            annotator.config = AnnotatorConfig(
                **{**vars(annotator.config),
                   "use_dependency_resolution": original})
        return hits / max(total, 1)

    with_tree = benchmark.pedantic(lambda: pair_accuracy(True),
                                   rounds=1, iterations=1)
    without = pair_accuracy(False)

    C.print_header("Ablation — mention resolution strategy")
    C.print_row("dependency-tree distance (paper)", f"{with_tree:.1%}")
    C.print_row("linear token distance", f"{without:.1%}")
    assert with_tree >= without - 0.10
