"""Tests for the fingerprint-keyed schema-encoding cache."""

import numpy as np
import pytest

from repro.core import NLIDB, SchemaEncoding, build_schema_encoding
from repro.core.annotator import Annotator
from repro.core.mention import ClassifierConfig
from repro.core.seq2seq.vocab import STRUCTURAL_TOKENS, is_symbol
from repro.data import generate_wikisql_style
from repro.serving import TranslationService
from repro.sqlengine import Table, table_fingerprint
from repro.text import WordEmbeddings


@pytest.fixture()
def table(corpus):
    return corpus[0].table


class TestSchemaCache:
    def test_miss_then_hit_same_object(self, nlidb, table):
        annotator = nlidb.annotator
        annotator._schema_cache.clear()
        first, status1 = annotator.schema_encoding(table)
        second, status2 = annotator.schema_encoding(table)
        assert (status1, status2) == ("miss", "hit")
        assert first is second

    def test_recreated_equal_table_hits(self, nlidb, table):
        annotator = nlidb.annotator
        annotator._schema_cache.clear()
        _, status1 = annotator.schema_encoding(table)
        clone = Table(table.name, columns=list(table.columns),
                      rows=[tuple(row) for row in table.rows])
        assert clone is not table
        _, status2 = annotator.schema_encoding(clone)
        assert (status1, status2) == ("miss", "hit")

    def test_changed_data_misses(self, nlidb, table):
        annotator = nlidb.annotator
        annotator._schema_cache.clear()
        annotator.schema_encoding(table)
        edited = Table(table.name, columns=list(table.columns),
                       rows=[tuple(row) for row in table.rows[:-1]])
        _, status = annotator.schema_encoding(edited)
        assert status == "miss"

    def test_stats_shape(self, nlidb, table):
        annotator = nlidb.annotator
        annotator._schema_cache.clear()
        annotator.schema_encoding(table)
        annotator.schema_encoding(table)
        stats = annotator.schema_cache_stats()
        assert stats["size"] == 1
        assert stats["misses"] >= 1 and stats["hits"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0


class TestSchemaEncodingContents:
    def test_matches_nlidb_header_tokens(self, nlidb, table):
        encoding, _ = nlidb.annotator.schema_encoding(table)
        assert encoding.header_tokens == NLIDB.header_tokens(table)
        assert encoding.column_names == list(table.column_names)

    def test_columns_encoded_when_classifier_trained(self, nlidb, table):
        encoding, _ = nlidb.annotator.schema_encoding(table)
        assert encoding.columns is not None
        assert len(encoding.columns) == len(table.column_names)

    def test_token_vectors_cover_candidates_without_symbols(self, nlidb,
                                                            table):
        encoding, _ = nlidb.annotator.schema_encoding(table)
        for token in STRUCTURAL_TOKENS:
            if not is_symbol(token):
                assert token in encoding.token_vectors
        for token in encoding.header_tokens:
            assert token in encoding.token_vectors
            np.testing.assert_array_equal(
                encoding.token_vectors[token],
                nlidb.embeddings.vector(token))
        assert not any(is_symbol(t) for t in encoding.token_vectors)

    def test_encoded_subset_selects_named_columns(self, nlidb, table):
        encoding, _ = nlidb.annotator.schema_encoding(table)
        names = list(table.column_names)[:2]
        subset = encoding.encoded_subset(names)
        assert len(subset) == 2
        assert subset.tokens == [encoding.column_tokens[n] for n in names]

    def test_build_is_plain_numpy(self, nlidb, table):
        """The artifact must not pin an autodiff graph in the cache."""
        encoding = build_schema_encoding(nlidb.annotator, table)
        assert isinstance(encoding, SchemaEncoding)
        for state in encoding.columns.states:
            assert isinstance(state, np.ndarray)
        assert isinstance(encoding.columns.units, np.ndarray)


class TestInvalidation:
    def test_fit_drops_cached_encodings(self):
        dataset = generate_wikisql_style(seed=5, train_size=6, dev_size=0,
                                         test_size=0, rows_per_table=4)
        emb = WordEmbeddings(dim=16, seed=1)
        annotator = Annotator(emb,
                              classifier_config=ClassifierConfig(
                                  word_dim=16, hidden=8))
        annotator.fit(dataset.train, classifier_epochs=1, value_epochs=2)
        key = table_fingerprint(dataset.train[0].table)
        annotator.schema_encoding(dataset.train[0].table)
        assert key in annotator._schema_cache
        annotator.fit(dataset.train, classifier_epochs=1, value_epochs=2)
        assert key not in annotator._schema_cache


class TestServingVisibility:
    def test_service_stats_expose_schema_cache(self, nlidb, corpus):
        service = TranslationService(nlidb, cache_size=8)
        nlidb.annotator._schema_cache.clear()
        example = corpus[0]
        service.translate(example.question_tokens, example.table)
        service.translate(list(example.question_tokens) + ["please"],
                          example.table)
        stats = service.stats()["schema_cache"]
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert stats["hit_rate"] > 0.0
