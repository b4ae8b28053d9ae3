"""Hypothesis property tests for the Section IV-C influence machinery.

``locate_mention`` and ``contrastive_profile`` are pure functions of an
:class:`InfluenceProfile`, so the properties are checked over directly
constructed profiles — arbitrary token mixes (content, stop words,
punctuation) with arbitrary finite scores, including the negative
scores a contrastive subtraction produces.  One closing test feeds a
profile from the real trained classifier through the same contract.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.mention.adversarial import (
    InfluenceProfile,
    compute_influence,
    contrastive_profile,
    locate_mention,
)
from repro.text.stopwords import is_stop_word
from repro.text.tokenizer import tokenize

_CONTENT = ("river", "salary", "film", "director", "score", "captain",
            "harbor", "votes", "album", "tonnage", "clifden", "17")
_GLUE = ("the", "of", "is", "a", "in", "what", "and", "?", ",", "'")
_VOCAB = _CONTENT + _GLUE


def _skippable(token: str) -> bool:
    """Mirror of locate_mention's rule under skip_stop_words=True."""
    return not any(ch.isalnum() for ch in token) or is_stop_word(token)


def _scores(n: int, low: float = 0.0, high: float = 10.0):
    return st.lists(
        st.floats(min_value=low, max_value=high, allow_nan=False,
                  allow_infinity=False, width=32),
        min_size=n, max_size=n,
    ).map(lambda xs: np.asarray(xs, dtype=float))


@st.composite
def profiles(draw, low: float = 0.0):
    tokens = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12))
    combined = draw(_scores(len(tokens), low=low))
    zeros = np.zeros(len(tokens))
    return InfluenceProfile(list(tokens), zeros, zeros, combined)


@st.composite
def profile_with_background(draw):
    profile = draw(profiles())
    n = len(profile.tokens)
    backgrounds = [
        InfluenceProfile(list(profile.tokens), np.zeros(n), np.zeros(n),
                         draw(_scores(n)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return profile, backgrounds


def _assert_span_contract(profile, start, end, max_length):
    n = len(profile.tokens)
    assert 0 <= start < end <= n, "span must be non-empty and in range"
    assert end - start <= max_length, "span must respect max_length"
    assert not _skippable(profile.tokens[start]), \
        "span must not start on a skippable token"
    assert not _skippable(profile.tokens[end - 1]), \
        "span must not end on a skippable token"


@given(profile=profiles(), max_length=st.integers(1, 6),
       rel=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_located_span_satisfies_contract(profile, max_length, rel):
    assume(any(not _skippable(t) for t in profile.tokens))
    start, end = locate_mention(profile, max_length=max_length,
                                rel_threshold=rel)
    _assert_span_contract(profile, start, end, max_length)


@given(profile=profiles(low=-10.0), max_length=st.integers(1, 6),
       rel=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_contract_survives_negative_scores(profile, max_length, rel):
    """Contrastive profiles go negative; the contract must not care."""
    assume(any(not _skippable(t) for t in profile.tokens))
    start, end = locate_mention(profile, max_length=max_length,
                                rel_threshold=rel)
    _assert_span_contract(profile, start, end, max_length)


@given(profile=profiles(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_blocked_positions_stay_outside_span(profile, data):
    free = [i for i, t in enumerate(profile.tokens) if not _skippable(t)]
    assume(free)
    blocked = data.draw(
        st.sets(st.integers(0, len(profile.tokens) - 1)), label="blocked")
    assume(any(i not in blocked for i in free))
    start, end = locate_mention(profile, blocked=blocked)
    assert set(range(start, end)).isdisjoint(blocked)
    _assert_span_contract(profile, start, end, max_length=4)


@given(pair=profile_with_background())
@settings(max_examples=100, deadline=None)
def test_contrastive_is_elementwise_mean_subtraction(pair):
    profile, backgrounds = pair
    out = contrastive_profile(profile, backgrounds)
    assert out.tokens == profile.tokens
    assert out.word_influence is profile.word_influence
    assert out.char_influence is profile.char_influence
    expected = profile.combined - np.mean(
        [b.combined for b in backgrounds], axis=0)
    np.testing.assert_allclose(out.combined, expected)


@given(profile=profiles())
@settings(max_examples=50, deadline=None)
def test_contrastive_empty_background_is_identity(profile):
    assert contrastive_profile(profile, []) is profile


@given(pair=profile_with_background(), max_length=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_contrastive_output_still_locatable(pair, max_length):
    profile, backgrounds = pair
    out = contrastive_profile(profile, backgrounds)
    assume(any(not _skippable(t) for t in out.tokens))
    start, end = locate_mention(out, max_length=max_length)
    _assert_span_contract(out, start, end, max_length)


def test_real_classifier_profile_satisfies_contract(nlidb, corpus):
    """The contract holds for profiles off the trained classifier too."""
    classifier = nlidb.annotator.column_classifier
    for example in corpus[:5]:
        [profile] = compute_influence(
            classifier, [(example.question_tokens,
                          tokenize(example.query.select_column))])
        if not any(not _skippable(t) for t in profile.tokens):
            continue
        start, end = locate_mention(profile)
        _assert_span_contract(profile, start, end, max_length=4)
