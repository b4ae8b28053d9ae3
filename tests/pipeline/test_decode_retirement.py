"""Retiring a lane early never changes its answer.

The lockstep decoder stops a lane as soon as its best finished
hypothesis scores below the lowest score any live beam could still
finish with (``AnnotatedSeq2Seq._retire_bound``).  The float64 per-beam
oracle in ``tests/oracles.py`` never retires: it runs every beam for all
``max_decode_len`` steps.  These tests pin that both pick the same
tokens on the session corpus, across beam widths, with a step budget
short enough that some lanes never finish, and with mixed widths in one
cohort — and that retirement really does cut steps.
"""

import numpy as np
import pytest

from tests import oracles


def decode_request(nlidb, example, width=None):
    annotation = nlidb.annotate(example.question_tokens, example.table)
    return {"source": annotation.annotated_tokens(
                append=nlidb.config.column_name_appending,
                header_encoding=nlidb.config.header_encoding),
            "header_tokens": nlidb.header_tokens(example.table),
            "extra_symbols": nlidb._symbols(annotation),
            "beam_width": width}


def oracle(nlidb, request):
    return oracles.decode_per_beam(
        nlidb.translator, request["source"], request["header_tokens"],
        request["extra_symbols"], request["beam_width"])


@pytest.fixture(scope="module")
def requests(nlidb, corpus):
    return [decode_request(nlidb, example) for example in corpus]


class TestRetirementIsExact:
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_matches_full_length_oracle(self, nlidb, requests, width):
        cohort = [dict(request, beam_width=width) for request in requests]
        decoded = nlidb.translator.translate_many(cohort)
        expected = [oracle(nlidb, request) for request in cohort]
        mismatches = [(request["source"], got, want) for request, got, want
                      in zip(cohort, decoded, expected) if got != want]
        assert not mismatches, mismatches[:3]

    def test_short_budget_matches_oracle(self, nlidb, requests,
                                         monkeypatch):
        # Six steps: some lanes finish, the rest end on the budget.
        monkeypatch.setattr(nlidb.translator.config, "max_decode_len", 6)
        cohort = requests[:24]
        decoded = nlidb.translator.translate_many(cohort)
        assert decoded == [oracle(nlidb, request) for request in cohort]

    def test_unfinished_lanes_fall_back_to_their_best_live_beam(
            self, nlidb, requests, monkeypatch):
        # Greedy with a 2-step budget: finishing would mean an answer of
        # at most one token, so lanes end without a finished hypothesis
        # and return their best length-normalised live beam (2 tokens).
        monkeypatch.setattr(nlidb.translator.config, "max_decode_len", 2)
        cohort = [dict(request, beam_width=1) for request in requests[:24]]
        decoded = nlidb.translator.translate_many(cohort)
        assert decoded == [oracle(nlidb, request) for request in cohort]
        assert any(len(got) == 2 for got in decoded)

    def test_mixed_widths_in_one_cohort_match_solo(self, nlidb, requests):
        widths = [1, 2, 3, 5, 4, 5, 1, 2]
        cohort = [dict(request, beam_width=width)
                  for request, width in zip(requests[:16], widths * 2)]
        decoded = nlidb.translator.translate_many(cohort)
        assert nlidb.translator.last_decode["beam_width"] == widths * 2
        for request, got in zip(cohort, decoded):
            solo = nlidb.translator.translate(
                request["source"], request["header_tokens"],
                request["extra_symbols"], beam_width=request["beam_width"])
            assert got == solo


class TestRetirementCutsSteps:
    def test_median_lane_stops_before_the_budget(self, nlidb, requests):
        nlidb.translator.translate_many(requests)
        steps = nlidb.translator.last_decode["steps"]
        assert len(steps) == len(requests)
        assert np.median(steps) < nlidb.translator.config.max_decode_len
