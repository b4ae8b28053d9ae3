"""Extended-grammar annotation round-trips and vocabulary stability.

Three contracts:

* annotated-SQL targets built from extended gold queries recover back
  to the same query (per-family round-trip through
  :func:`build_annotated_sql` / :func:`recover_sql`);
* on sequences without ``or``/``not``/parentheses/clause tokens,
  :func:`recover_sql` agrees with the flat-conjunction scan it replaced
  (``tests.oracles.recover_sql_flat``) except on the four shapes the
  tree grammar refuses on purpose: a trailing ``and``, an ``and``
  inside a column span, a symbol inside a multi-token span, and a
  column span that names no column of the table;
* the legacy candidate vocabulary is byte-identical with the extended
  grammar disabled, and the extended tokens slot in directly after the
  base structural block when enabled.
"""

import random

import pytest

from repro.core import build_annotated_sql, recover_sql
from repro.core.annotate import (
    AnnotatedQuestion,
    ColumnAnnotation,
    ValueAnnotation,
)
from repro.core.seq2seq import STRUCTURAL_TOKENS, build_candidates, is_symbol
from repro.core.seq2seq.vocab import (
    EXTENDED_STRUCTURAL_TOKENS,
    structural_tokens,
)
from repro.data import generate_role_typed, generate_wikisql_style
from repro.errors import AnnotationError
from repro.sqlengine import Column, Table, execute, results_equal
from tests import oracles


def gold_annotation(example) -> AnnotatedQuestion:
    """Build the annotation a perfect mention detector would produce."""
    columns: list[ColumnAnnotation] = []
    values: list[ValueAnnotation] = []
    index_of: dict[str, int] = {}
    for mention in example.mentions:
        key = mention.column.lower()
        if key not in index_of:
            index_of[key] = len(index_of) + 1
            span = None if mention.start == mention.end \
                else (mention.start, mention.end)
            if mention.kind == "value":
                span = None  # column itself is implicit
            columns.append(ColumnAnnotation(mention.column, index_of[key],
                                            span))
        if mention.kind == "value":
            surface = " ".join(
                example.question_tokens[mention.start:mention.end])
            values.append(ValueAnnotation(mention.column, index_of[key],
                                          (mention.start, mention.end),
                                          surface))
    return AnnotatedQuestion(question_tokens=list(example.question_tokens),
                             table=example.table, columns=columns,
                             values=values)


@pytest.fixture(scope="module")
def examples():
    ds = generate_role_typed(seed=29, train_size=120, dev_size=30,
                             test_size=0)
    return ds.train + ds.dev


class TestExtendedRecovery:
    def test_round_trip_every_family(self, examples):
        seen = set()
        for example in examples:
            annotation = gold_annotation(example)
            target = build_annotated_sql(annotation, example.query)
            recovered = recover_sql(target, annotation)
            assert recovered.query_match_equal(example.query), \
                (example.question_tokens, target)
            assert results_equal(execute(recovered, example.table),
                                 execute(example.query, example.table))
            if example.query.is_extended:
                seen.add(target[0])
                seen.update(t for t in target
                            if t in EXTENDED_STRUCTURAL_TOKENS)
        # The corpus actually exercised the new grammar tokens.
        assert {"group", "by", "order", "limit"} <= seen

    def test_targets_stay_in_candidate_space(self, examples):
        """Every annotated-SQL token must be producible by the decoder:
        structural, an input symbol/word, or a header token."""
        for example in examples:
            annotation = gold_annotation(example)
            target = build_annotated_sql(annotation, example.query)
            input_tokens = annotation.annotated_tokens(
                append=True, header_encoding=True)
            header_tokens = [t for name in example.table.column_names
                            for t in name.lower().split()]
            extra = [f"c{c.index}" for c in annotation.columns]
            candidates = set(build_candidates(
                input_tokens, header_tokens, extra, extended=True))
            missing = [t for t in target if t not in candidates]
            assert not missing, (missing, example.question_tokens)


_TREE_ONLY = {"or", "not", "(", ")", "group", "having", "order", "limit"}


@pytest.fixture(scope="module")
def flat_targets(examples):
    """(annotation, target) for every marker-free gold target of the
    WikiSQL-style and role-typed corpora."""
    ds = generate_wikisql_style(seed=31, train_size=120, dev_size=30,
                                test_size=0)
    out = []
    for example in ds.train + ds.dev + examples:
        annotation = gold_annotation(example)
        target = build_annotated_sql(annotation, example.query)
        if not _TREE_ONLY.intersection(target):
            out.append((annotation, target))
    return out


def _outcome(recover, tokens, annotation):
    try:
        return recover(tokens, annotation)
    except AnnotationError:
        return None


def _mutations(target, annotation, rng, count):
    """Seeded edits: insert, drop or duplicate an ``and``, ``=``,
    ``where`` or symbol token, or replace a symbol by another.  Most
    inserted or duplicated symbols land inside a span, which both
    recoveries refuse; a replaced symbol keeps the grammar, so it is
    what exercises agreement on accepted sequences."""
    symbols = ([f"c{a.index}" for a in annotation.columns]
               + [f"v{a.index}" for a in annotation.values] + ["g1"])
    for _ in range(count):
        tokens = list(target)
        kind = rng.choice(["and", "=", "where", "symbol"])
        token = rng.choice(symbols) if kind == "symbol" else kind
        at = [i for i, t in enumerate(tokens)
              if (t in symbols if kind == "symbol" else t == kind)]
        edits = ["insert", "drop", "duplicate"] \
            + (["replace"] if kind == "symbol" else [])
        edit = rng.choice(edits) if at else "insert"
        if edit == "insert":
            tokens.insert(rng.randrange(1, len(tokens) + 1), token)
        else:
            i = rng.choice(at)
            tokens[i:i + 1] = {"drop": [], "duplicate": [tokens[i]] * 2,
                               "replace": [token]}[edit]
        yield tokens


def _holds_symbol(text) -> bool:
    words = str(text).split()
    return len(words) > 1 and any(is_symbol(word) for word in words)


def _refused_on_purpose(tokens, flat_query, table) -> bool:
    """The four shapes the flat scan accepts and the tree grammar
    refuses: a trailing ``and``, an ``and`` inside a column span, a
    symbol inside a multi-token column or value span, and a column span
    that names no column of ``table``."""
    leaves = flat_query.conditions
    columns = [flat_query.select_column] + [leaf.column for leaf in leaves]
    return tokens[-1] == "and" or any(
        "and" in leaf.column.split() for leaf in leaves) or any(
        _holds_symbol(text)
        for text in columns + [leaf.value for leaf in leaves]) or any(
        not table.has_column(column) for column in columns)


class TestFlatRecoveryDifferential:
    def test_gold_targets_recover_identically(self, flat_targets):
        assert len(flat_targets) > 100
        for annotation, target in flat_targets:
            expected = oracles.recover_sql_flat(target, annotation)
            assert recover_sql(target, annotation) == expected, target

    def test_mutated_targets_agree_or_are_refused_on_purpose(
            self, flat_targets):
        rng = random.Random(0)
        seen = {"equal": 0, "both_raise": 0, "refused": 0}
        for annotation, target in flat_targets:
            for tokens in _mutations(target, annotation, rng, 8):
                flat = _outcome(oracles.recover_sql_flat, tokens, annotation)
                tree = _outcome(recover_sql, tokens, annotation)
                if flat is None:
                    assert tree is None, tokens
                    seen["both_raise"] += 1
                elif tree is None:
                    assert _refused_on_purpose(tokens, flat,
                                               annotation.table), tokens
                    seen["refused"] += 1
                else:
                    assert tree == flat, tokens
                    seen["equal"] += 1
        assert min(seen.values()) > 50, seen

    ANNOTATION = AnnotatedQuestion(
        question_tokens=["who", "lives", "in", "cork", "?"],
        table=Table("t", [Column("name"), Column("city")],
                    [("anna", "cork")]),
        columns=[ColumnAnnotation("city", 1, None)],
        values=[ValueAnnotation("city", 1, (3, 4), "cork")])

    def test_trailing_and_is_refused(self):
        annotation = self.ANNOTATION
        tokens = ["select", "c1", "where", "c1", "=", "v1", "and"]
        assert oracles.recover_sql_flat(tokens[:-1], annotation) == \
            oracles.recover_sql_flat(tokens, annotation)
        with pytest.raises(AnnotationError):
            recover_sql(tokens, annotation)

    def test_and_inside_column_span_is_refused(self):
        annotation = self.ANNOTATION
        for tokens in (["select", "c1", "where", "and", "c1", "=", "v1"],
                       ["select", "c1", "where", "c1", "=", "v1", "and",
                        "and", "g1", "=", "v1"]):
            flat = oracles.recover_sql_flat(tokens, annotation)
            assert "and" in flat.conditions[-1].column.split()
            with pytest.raises(AnnotationError):
                recover_sql(tokens, annotation)


    @pytest.mark.parametrize("tokens", [
        ["select", "g1", "where", "c1", "=", "v1", "cork"],
        ["select", "c1", "g1"],
        ["select", "c1", "where", "c1", "v1", "=", "v1"],
    ])
    def test_symbol_inside_a_span_is_refused(self, tokens):
        # A leaked symbol is no part of a name or a value: these used to
        # recover to the value "v1 cork" and the column "c1 g1".
        with pytest.raises(AnnotationError, match="symbol inside"):
            recover_sql(tokens, self.ANNOTATION)


    @pytest.mark.parametrize("tokens", [
        ["select", "c1", "where", "zip", "=", "v1"],
        ["select", "population"],
        ["select", "name", "city", "where", "c1", "=", "v1"],
    ])
    def test_column_missing_from_table_is_refused(self, tokens):
        # A literal column span must name a column of the table, by the
        # executor's own lookup: these used to recover and then fail to
        # execute.
        assert oracles.recover_sql_flat(tokens, self.ANNOTATION) is not None
        with pytest.raises(AnnotationError, match="no column"):
            recover_sql(tokens, self.ANNOTATION)

    def test_literal_column_of_the_table_recovers(self):
        query = recover_sql(["select", " Name ", "where", "c1", "=", "v1"],
                            self.ANNOTATION)
        assert query.select_column == " Name "
        assert execute(query, self.ANNOTATION.table) == ["anna"]


class TestCandidateVocabularyStability:
    INPUT = ["which", "c1", "city", "v1", "?"]
    HEADERS = ["name", "city", "pop"]

    def test_legacy_list_byte_identical(self):
        candidates = build_candidates(self.INPUT, self.HEADERS)
        assert candidates == STRUCTURAL_TOKENS + [
            "which", "c1", "city", "v1", "?", "name", "pop"]
        assert candidates == build_candidates(self.INPUT, self.HEADERS,
                                              extended=False)

    def test_extended_tokens_slot_after_base(self):
        legacy = build_candidates(self.INPUT, self.HEADERS)
        extended = build_candidates(self.INPUT, self.HEADERS, extended=True)
        base = len(STRUCTURAL_TOKENS)
        assert extended[:base] == legacy[:base]
        assert extended[base:base + len(EXTENDED_STRUCTURAL_TOKENS)] == \
            EXTENDED_STRUCTURAL_TOKENS
        assert extended[base + len(EXTENDED_STRUCTURAL_TOKENS):] == \
            legacy[base:]

    def test_extended_flag_dedups_grammar_words_in_question(self):
        # "or" in the question is a plain copyable word in legacy mode
        # but already structural in extended mode.
        tokens = ["now", "or", "never"]
        legacy = build_candidates(tokens, [])
        extended = build_candidates(tokens, [], extended=True)
        assert legacy.count("or") == 1 and legacy.index("or") >= len(
            STRUCTURAL_TOKENS)
        assert extended.count("or") == 1 and extended.index("or") < len(
            structural_tokens(extended=True))
