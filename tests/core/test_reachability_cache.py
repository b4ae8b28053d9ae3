"""Tests for target reachability filtering and the annotator's
per-table statistics cache."""

import numpy as np

from repro.core.annotator import Annotator
from repro.core.seq2seq.model import AnnotatedSeq2Seq, Seq2SeqConfig, TrainingPair
from repro.core.seq2seq.transformer import TransformerConfig, TransformerTranslator
from repro.sqlengine import Column, Table
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=32, seed=0)


def stats_for(annotator, table):
    encoding, _status = annotator.schema_encoding(table)
    return encoding.stats


class TestReachability:
    def make_pairs(self):
        good = TrainingPair(["which", "c1", "film", "v1"],
                            ["select", "c1", "where", "c1", "=", "v1"],
                            ["film"], ("c1", "v1"))
        # Target literal "215" appears nowhere in source/headers/symbols.
        bad = TrainingPair(["which", "c1", "v1"],
                           ["select", "c1", "where", "c1", "=", "215"],
                           ["film"], ("c1", "v1"))
        return good, bad

    def test_seq2seq_reachable(self):
        model = AnnotatedSeq2Seq(EMB, Seq2SeqConfig(hidden=8,
                                                    attention_dim=8))
        good, bad = self.make_pairs()
        assert model.reachable(good)
        assert not model.reachable(bad)

    def test_seq2seq_fit_skips_unreachable(self):
        model = AnnotatedSeq2Seq(EMB, Seq2SeqConfig(hidden=8,
                                                    attention_dim=8))
        good, bad = self.make_pairs()
        model.fit([good, bad], epochs=1, lr=1e-3)
        assert model.skipped_pairs == 1

    def test_transformer_reachable(self):
        model = TransformerTranslator(
            EMB, TransformerConfig(heads=2, layers=1, ff_hidden=16))
        good, bad = self.make_pairs()
        assert model.reachable(good)
        assert not model.reachable(bad)

    def test_transformer_fit_skips_unreachable(self):
        model = TransformerTranslator(
            EMB, TransformerConfig(heads=2, layers=1, ff_hidden=16))
        good, bad = self.make_pairs()
        model.fit([good, bad], epochs=1, lr=1e-3)
        assert model.skipped_pairs == 1


class TestStatsCache:
    def test_same_table_cached(self):
        annotator = Annotator(EMB)
        table = Table("t", [Column("a")], [("x",)])
        assert stats_for(annotator, table) is stats_for(annotator, table)

    def test_different_table_same_name_not_confused(self):
        annotator = Annotator(EMB)
        t1 = Table("t", [Column("a")], [("x",)])
        t2 = Table("t", [Column("a")], [("completely different",)])
        s1 = stats_for(annotator, t1)
        s2 = stats_for(annotator, t2)
        assert not np.allclose(s1["a"], s2["a"])

    def test_recycled_id_detected(self):
        """A new table at a recycled id must not get stale statistics.

        The cache keys on content fingerprints, so object identity (and
        hence CPython id reuse after GC) cannot alias entries; see
        tests/core/test_annotator_cache.py for the full churn test.
        """
        annotator = Annotator(EMB)
        t1 = Table("t", [Column("a")], [("x",)])
        s1 = stats_for(annotator, t1)
        del t1  # its id may now be recycled by any new object
        t2 = Table("t", [Column("a")], [("other words entirely",)])
        s2 = stats_for(annotator, t2)
        assert not np.allclose(s1["a"], s2["a"])
