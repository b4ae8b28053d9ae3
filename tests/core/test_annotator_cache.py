"""Regression tests for the annotator's per-table cache.

The statistics cache used to be keyed on ``id(table)``: CPython reuses
id values after garbage collection, so a brand-new table could land on
a dead entry's slot, and the dict grew without bound.  The value
statistics now live in the one per-table :class:`SchemaEncoding`,
cached in a bounded LRU keyed on the table *content fingerprint* —
these tests pin the invalidation and bounding behaviour.
"""

from repro.core.annotator import SCHEMA_CACHE_SIZE, Annotator
from repro.sqlengine import Column, DataType, Table
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=16, seed=0)


def make_table(name="films", rows=None):
    return Table(name, [Column("film"), Column("year", DataType.REAL)],
                 rows if rows is not None
                 else [("solaris", 1972), ("stalker", 1979)])


def stats_for(annotator, table):
    encoding, _status = annotator.schema_encoding(table)
    return encoding.stats


class TestStatsCache:
    def test_content_equal_recreated_table_shares_entry(self):
        annotator = Annotator(EMB)
        stats_a = stats_for(annotator, make_table())
        stats_b = stats_for(annotator, make_table(name="films_reloaded"))
        assert stats_b is stats_a  # one computation, one entry
        assert len(annotator._schema_cache) == 1

    def test_mutating_a_table_invalidates_the_entry(self):
        annotator = Annotator(EMB)
        table = make_table()
        before = stats_for(annotator, table)
        table.insert(("mirror", 1975))
        after = stats_for(annotator, table)
        assert after is not before
        assert len(annotator._schema_cache) == 2
        # Reassigning the rows or the columns drops the table's
        # remembered fingerprint as well.
        table.rows = table.rows[1:]
        fewer_rows = stats_for(annotator, table)
        assert fewer_rows is not after
        table.columns = [Column("movie"), Column("year", DataType.REAL)]
        renamed = stats_for(annotator, table)
        assert renamed is not fewer_rows and "movie" in renamed
        assert len(annotator._schema_cache) == 4

    def test_dead_object_slot_cannot_be_hit_by_a_new_table(self):
        """The id()-reuse hazard: a new table created after another was
        collected must get its own statistics, not the dead entry's."""
        annotator = Annotator(EMB)
        vals = {}
        # Churn through many short-lived tables with distinct content;
        # under id() keying some of these would collide on recycled ids.
        for i in range(32):
            table = make_table(rows=[(f"film{i}", 1900 + i)])
            stats = stats_for(annotator, table)
            vals[i] = stats["year"].tobytes()
            del table
        # Distinct content produced distinct year statistics throughout.
        assert len(set(vals.values())) == 32

    def test_cache_is_bounded(self):
        annotator = Annotator(EMB)
        for i in range(SCHEMA_CACHE_SIZE + 16):
            stats_for(annotator, make_table(rows=[(f"film{i}", i)]))
        assert len(annotator._schema_cache) == SCHEMA_CACHE_SIZE
        assert annotator._schema_cache.evictions == 16

    def test_renamed_column_invalidates(self):
        annotator = Annotator(EMB)
        table = make_table()
        stats_for(annotator, table)
        renamed = Table("films", [Column("movie"), Column("year",
                                                          DataType.REAL)],
                        list(table.rows))
        stats = stats_for(annotator, renamed)
        assert "movie" in stats
        assert len(annotator._schema_cache) == 2
