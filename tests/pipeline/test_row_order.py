"""Row order is not an input.

A table's rows are a tuple, so permuting them is a plain tuple
permutation.  It gives the table a new content fingerprint (row order is
content, so nothing cached is shared) yet must leave the session
model's SQL and annotation unchanged: the value statistics ``s_c``,
the numeric ranges and the cell indexes all summarize the rows as a
set.  The statistics are averaged in row order, so they may differ in
the last bit, and with them the value classifier's probabilities; the
thresholded annotation does not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Table, table_fingerprint


def outcome(translation) -> tuple:
    annotation = translation.annotation
    return (translation.query.to_sql() if translation.query is not None
            else translation.error,
            translation.signature(), annotation.columns, annotation.values)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_permuting_rows_keeps_sql_and_annotation(nlidb, corpus, data):
    example = corpus[data.draw(st.integers(0, len(corpus) - 1))]
    table = example.table
    order = data.draw(st.permutations(range(len(table.rows))))
    permuted = Table(table.name, table.columns,
                     [table.rows[i] for i in order])
    if permuted.rows != table.rows:
        assert table_fingerprint(permuted) != table_fingerprint(table)
    assert outcome(nlidb.translate(example.question_tokens, permuted)) \
        == outcome(nlidb.translate(example.question_tokens, table))
