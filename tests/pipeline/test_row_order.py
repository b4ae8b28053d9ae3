"""Row order is not an input.

A table's rows are a tuple, so permuting them is a plain tuple
permutation.  It gives the table a new content fingerprint (row order is
content, so nothing cached is shared) yet must leave the session
model's SQL and annotation unchanged: the value statistics ``s_c``,
the numeric ranges and the cell indexes all summarize the rows as a
set.  ``s_c`` averages the distinct cell strings in sorted order, each
weighted by its count, so it is bit-equal under any permutation, and
with it every probability the value classifier returns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Table, table_fingerprint


def outcome(translation) -> tuple:
    annotation = translation.annotation
    return (translation.query.to_sql() if translation.query is not None
            else translation.error,
            translation.signature(), annotation.columns, annotation.values)


def translate_recording(nlidb, question, table):
    """``(outcome, s_c by column, value probabilities)`` of one request;
    the probabilities are every ``predict_proba`` result, in call
    order."""
    classifier = nlidb.annotator.value_classifier
    original = classifier.predict_proba
    probabilities = []

    def recording(*args):
        probs = original(*args)
        probabilities.append(np.array(probs, copy=True))
        return probs

    classifier.predict_proba = recording
    try:
        translation = nlidb.translate(question, table)
    finally:
        del classifier.predict_proba
    stats = nlidb.annotator.schema_encoding(table)[0].stats
    return (outcome(translation), {name: stats[name] for name in stats},
            probabilities)


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
    got = translate_recording(nlidb, example.question_tokens, permuted)
    want = translate_recording(nlidb, example.question_tokens, table)
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name, stats in want[1].items():
        np.testing.assert_array_equal(got[1][name], stats, err_msg=name)
    assert len(got[2]) == len(want[2])
    for probs, reference in zip(got[2], want[2]):
        np.testing.assert_array_equal(probs, reference)
