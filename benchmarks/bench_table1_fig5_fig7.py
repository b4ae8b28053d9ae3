"""Table I + Figures 5/7 — adversarial mention-detection case studies.

Regenerates the paper's qualitative evidence: for questions whose
column mention is semantic rather than literal ("when did" → date,
"where was" → venue, "golfer" → player, "driver won" → winning driver),
the trained classifier's gradient-norm influence profile concentrates
on the mentioning words, and the located span overlaps the gold
mention.  Profiles are printed as ASCII bars, word- vs character-level
separately (Figure 5's two series).
"""

from __future__ import annotations

import numpy as np

import common as C
from repro.core.mention import compute_influence, locate_mention
from repro.text import tokenize

# The Table I archetypes, regenerated on our domains.
_CASES = [
    ("date", "when did the denver eagles play at home ?", "games"),
    ("venue", "where was the game played on may 20 2006 ?", "games"),
    ("player", "who is the golfer that golfs for scotland ?", "golf"),
    ("winning driver", "which driver won the boston grand prix ?", "racing"),
]


def _bars(values, width: int = 24) -> list[str]:
    peak = max(float(v) for v in values) or 1.0
    return ["#" * max(1, int(width * float(v) / peak)) for v in values]


def test_table1_case_studies(benchmark):
    classifier = C.full_nlidb().annotator.column_classifier

    def run_cases():
        out = []
        for column, question, _domain in _CASES:
            tokens = tokenize(question)
            [profile] = compute_influence(classifier,
                                          [(tokens, tokenize(column))])
            span = locate_mention(profile)
            out.append((column, tokens, profile, span))
        return out

    results = benchmark.pedantic(run_cases, rounds=1, iterations=1)

    C.print_header("Table I — mention detection case studies")
    hits = 0
    for column, tokens, profile, (start, end) in results:
        located = " ".join(tokens[start:end])
        C.print_row(f"column {column!r}", f"located: {located!r}")
        decision = C.full_nlidb().annotator.column_classifier.predict_proba(
            tokens, tokenize(column))
        hits += decision > 0.5
    # The classifier should flag at least half of these semantic
    # mentions (only meaningful at standard training scale; the paper's
    # full-scale model detects all four).
    if C.strict_shape():
        assert hits >= len(_CASES) // 2


def test_fig5_fig7_influence_profiles(benchmark):
    classifier = C.full_nlidb().annotator.column_classifier
    column, question, _ = _CASES[3]  # Figure 5's "winning driver"
    tokens = tokenize(question)

    profile = benchmark.pedantic(
        lambda: compute_influence(classifier, [(tokens, tokenize(column))],
                                  alpha=1.0, beta=1.0)[0],
        rounds=1, iterations=1)

    C.print_header(f"Figure 5/7 — influence profile for column {column!r}")
    word_bars = _bars(profile.word_influence)
    char_bars = _bars(profile.char_influence)
    for token, wb, cb in zip(tokens, word_bars, char_bars):
        C.print_row(token, f"word {wb:<24} char {cb}")

    # Both series exist and are non-negative (Figure 5's two inputs).
    assert (profile.word_influence >= 0).all()
    assert (profile.char_influence >= 0).all()
    assert profile.word_influence.sum() > 0
    assert profile.char_influence.sum() > 0

    # The located span should avoid pure stop words.
    start, end = locate_mention(profile)
    from repro.text import is_stop_word
    assert not all(is_stop_word(t) for t in tokens[start:end])
