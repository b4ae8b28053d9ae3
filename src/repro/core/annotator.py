"""The end-to-end annotation pipeline (Section IV).

Given a question and a table, the :class:`Annotator` produces an
:class:`~repro.core.annotate.AnnotatedQuestion` by composing:

1. context-free column matching (exact / edit / semantic / knowledge);
2. the column-mention binary classifier + adversarial localization for
   mentions that string distances cannot find;
3. exact cell matching and the value-detection classifier (statistics
   based, counterfactual-safe) for value spans;
4. dependency-tree mention resolution pairing values with columns;
5. symbol index allocation in order of first reference.

Training (`fit`) uses only (question, SQL) pairs plus metadata, as in
the paper: column labels come from SQL column usage, value spans from
locating SQL literals in the question.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caching import LRUCache
from repro.data.records import Example
from repro.errors import ModelError
from repro.pipeline import Pipeline, PipelineContext, StageTrace
from repro.sqlengine import Table, table_fingerprint
from repro.text import (
    KnowledgeBase,
    WordEmbeddings,
    parse_dependency,
    tokenize,
)

from repro.core.annotate import (
    AnnotatedQuestion,
    ColumnAnnotation,
    ValueAnnotation,
)
from repro.core.mention import (
    ClassifierConfig,
    ColumnMatcher,
    ColumnMentionClassifier,
    EncodedColumns,
    InfluenceProfile,
    ValueCandidate,
    ValueDetectionClassifier,
    candidate_spans,
    compute_influence,
    contrastive_profile,
    locate_mention,
    resolve_mentions,
)
from repro.core.schema import (
    SchemaEncoding,
    _try_float,
    build_schema_encoding,
)

__all__ = ["AnnotatorConfig", "Annotator", "ANNOTATION_MODES"]

#: Capacity of the per-annotator schema-encoding cache, the one
#: per-table artifact (value statistics, numeric ranges, cell index,
#: column-RNN states, header token vectors — see
#: :mod:`repro.core.schema`).  Keyed by table *content* fingerprint, so
#: it survives table object recreation but never outlives a data or
#: schema edit.
SCHEMA_CACHE_SIZE = 32

#: The annotation pipeline variants: the paper's full adversarial
#: pipeline, and the context-free matcher-only rung the serving layer
#: degrades to.  Variant selection lives on the ``PipelineContext``
#: (``ctx.mode``); the stage graph itself is shared.
ANNOTATION_MODES = ("full", "context_free")


@dataclass
class AnnotatorConfig:
    """Behavioural switches of the annotation pipeline."""

    column_threshold: float = 0.5
    value_threshold: float = 0.6
    max_value_span: int = 3
    max_mention_span: int = 4
    use_column_classifier: bool = True
    use_value_classifier: bool = True
    use_contrastive_influence: bool = False
    use_dependency_resolution: bool = True
    influence_alpha: float = 1.0
    influence_beta: float = 0.0
    influence_norm: str = "l2"


class Annotator:
    """Trains and runs the full mention-detection/annotation pipeline."""

    def __init__(self, embeddings: WordEmbeddings,
                 config: AnnotatorConfig | None = None,
                 classifier_config: ClassifierConfig | None = None,
                 knowledge: KnowledgeBase | None = None):
        self.embeddings = embeddings
        self.config = config or AnnotatorConfig()
        self.matcher = ColumnMatcher(embeddings, knowledge=knowledge,
                                     max_span=self.config.max_mention_span)
        self.column_classifier = ColumnMentionClassifier(
            embeddings, classifier_config
            or ClassifierConfig(word_dim=embeddings.dim))
        self.value_classifier = ValueDetectionClassifier(embeddings)
        self._schema_cache = LRUCache(maxsize=SCHEMA_CACHE_SIZE)
        self._pipeline: Pipeline | None = None  # built lazily, stateless
        self._fitted = False

    # ------------------------------------------------------------------
    # Training (weak supervision from (question, SQL) pairs)
    # ------------------------------------------------------------------

    def fit(self, examples: list[Example], classifier_epochs: int = 5,
            classifier_lr: float = 2e-3, value_epochs: int = 30,
            seed: int = 0, verbose: bool = False) -> None:
        """Train both classifiers from dataset examples."""
        if not examples:
            raise ModelError("fit() needs at least one example")
        rng = np.random.default_rng(seed)

        column_pairs = self._column_pairs(examples, rng)
        self.column_classifier.fit(column_pairs, epochs=classifier_epochs,
                                   lr=classifier_lr, verbose=verbose)

        value_rows = self._value_rows(examples, rng)
        self.value_classifier.fit(value_rows, epochs=value_epochs)
        # Cached schema encodings hold the (now stale) classifier's
        # column encoder; drop them so inference re-encodes.
        self._schema_cache.clear()
        self._fitted = True

    def _column_pairs(self, examples: list[Example],
                      rng: np.random.Generator):
        pairs = []
        for example in examples:
            q = example.question_tokens
            # An insertion-ordered dict, not a set: the pair order (and
            # so the trained model) must not depend on PYTHONHASHSEED.
            used = dict.fromkeys(
                [example.query.select_column.lower()]
                + [c.column.lower() for c in example.query.conditions])
            others = [c for c in example.table.column_names
                      if c.lower() not in used]
            for column in used:
                pairs.append((q, tokenize(column), 1))
            rng.shuffle(others)
            for column in others[:len(used)]:
                pairs.append((q, tokenize(column), 0))
        return pairs

    def _value_rows(self, examples: list[Example], rng: np.random.Generator):
        rows = []
        for example in examples:
            q = example.question_tokens
            stats = self.schema_encoding(example.table)[0].stats
            for cond in example.query.conditions:
                value_tokens = tokenize(str(cond.value))
                start = _find_subsequence(q, value_tokens)
                if start is None:
                    continue
                span_stats = self.value_classifier.span_stats(value_tokens)
                rows.append((span_stats, stats[cond.column.lower()], 1.0))
                # Negative: same span against a different column.
                other_cols = [c for c in example.table.column_names
                              if c.lower() != cond.column.lower()]
                if other_cols:
                    other = str(rng.choice(other_cols))
                    rows.append((span_stats, stats[other.lower()], 0.0))
                # Negative: a random non-value span against the column.
                negatives = [s for s in candidate_spans(
                    q, self.config.max_value_span)
                    if not (s[0] < start + len(value_tokens)
                            and start < s[1])]
                if negatives:
                    ns, ne = negatives[int(rng.integers(0, len(negatives)))]
                    rows.append((self.value_classifier.span_stats(q[ns:ne]),
                                 stats[cond.column.lower()], 0.0))
        return rows

    # ------------------------------------------------------------------
    # Schema encodings (the fingerprint-keyed fast-path artifact)
    # ------------------------------------------------------------------

    def schema_encoding(self, table: Table, key: str | None = None,
                        ) -> tuple[SchemaEncoding, str]:
        """The table's cached :class:`SchemaEncoding`, building on miss.

        ``key`` is the table's fingerprint, computed here if not given.
        Returns ``(encoding, status)`` with status ``"hit"`` or
        ``"miss"`` — derived from the cache's miss counter so a
        coalesced concurrent build still reports as a hit.
        """
        if key is None:
            key = table_fingerprint(table)
        misses_before = self._schema_cache.misses
        encoding = self._schema_cache.get_or_compute(
            key, lambda: build_schema_encoding(self, table, key))
        status = "miss" if self._schema_cache.misses > misses_before \
            else "hit"
        return encoding, status

    def context_schema(self, ctx) -> tuple[SchemaEncoding, str]:
        """:meth:`schema_encoding` of ``ctx.table``, fetched once per
        context; hashes the table only if ``ctx.table_key`` is unset."""
        fetched = ctx.artifacts.get("schema_encoding")
        if fetched is None:
            if ctx.table_key is None:
                ctx.table_key = table_fingerprint(ctx.table)
            fetched = ctx.artifacts["schema_encoding"] = \
                self.schema_encoding(ctx.table, ctx.table_key)
        return fetched

    def schema_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the schema-encoding cache."""
        cache = self._schema_cache
        return {
            "size": len(cache),
            "maxsize": cache.maxsize,
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "hit_rate": cache.hit_rate(),
        }

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------

    def annotation_pipeline(self, mode: str = "full") -> Pipeline:
        """The annotation stage graph (validated for ``mode``).

        Four explicit substages — value detection, column detection
        (classifier + adversarial localization in full mode), mention
        resolution, symbol allocation — communicating through the
        context's artifacts.  The graph itself is mode-independent
        (stages read ``ctx.mode``); the argument only validates the
        requested variant.
        """
        if mode not in ANNOTATION_MODES:
            raise ModelError(f"unknown annotation mode {mode!r}; "
                             "expected 'full' or 'context_free'")
        if self._pipeline is None:
            self._pipeline = Pipeline(
                (_ValueDetectionStage(self), _ColumnDetectionStage(self),
                 _MentionResolutionStage(self), _SymbolAllocationStage(self)),
                name="annotate")
        return self._pipeline

    def annotate(self, question: str | list[str], table: Table,
                 mode: str = "full",
                 trace: StageTrace | None = None) -> AnnotatedQuestion:
        """Produce the annotated form ``qᵃ`` of a question.

        ``mode="full"`` runs the whole pipeline.  ``mode="context_free"``
        restricts detection to the paper's context-free machinery —
        exact/edit/semantic/knowledge column matching and exact cell
        matches — skipping both trained classifiers and the adversarial
        localization.  It is cheaper and model-independent, which makes
        it the serving layer's degraded-annotation fallback.

        Pass a :class:`StageTrace` to collect per-substage records
        (wall time, outcome, the mention-resolution strategy).
        """
        pipeline = self.annotation_pipeline(mode)
        tokens = (tokenize(question) if isinstance(question, str)
                  else list(question))
        ctx = PipelineContext(question_tokens=tokens, table=table, mode=mode,
                              trace=trace if trace is not None
                              else StageTrace())
        pipeline.run(ctx)
        return ctx.artifacts["annotation"]

    def resolve_assignments(self, tokens: list[str],
                            column_spans: dict[str, tuple[int, int]],
                            value_spans: list[ValueCandidate],
                            ) -> tuple[dict[tuple[int, int], str], str]:
        """Pair value spans with columns; returns ``(assignments, strategy)``.

        The strategy is ``"dependency"`` (tree-based, the paper's
        resolution) or ``"linear"`` (token-distance fallback) — recorded
        in the stage trace.
        """
        if self.config.use_dependency_resolution:
            strategy, tree = "dependency", parse_dependency(tokens)
        else:
            strategy, tree = "linear", _LinearTree(tokens)
        return self._pair_mentions(tokens, column_spans, value_spans,
                                   tree), strategy

    def _pair_mentions(self, tokens: list[str],
                       column_spans: dict[str, tuple[int, int]],
                       value_spans: list[ValueCandidate],
                       tree) -> dict[tuple[int, int], str]:
        """Pair value spans with columns (explicitly, then implicitly)."""
        resolved = resolve_mentions(tokens, column_spans, value_spans,
                                    tree=tree)
        paired_columns = {pair.column for pair in resolved}

        # Unresolved value spans: pair with their best-scoring column
        # (the column becomes an implicit mention — challenge 3).
        assignments = {(p.value_start, p.value_end): p.column
                       for p in resolved}
        for candidate in value_spans:
            key = (candidate.start, candidate.end)
            if key in assignments:
                continue
            free = [(candidate.score_of(col), col)
                    for col in candidate.columns
                    if col not in paired_columns]
            if not free:
                continue
            _, column = max(free)
            assignments[key] = column
            paired_columns.add(column)
        return assignments

    # -- detection stages ------------------------------------------------

    def _detect_values(self, tokens: list[str], table: Table,
                       use_classifier: bool = True,
                       schema: SchemaEncoding | None = None,
                       ) -> list[ValueCandidate]:
        # ``use_classifier=False`` is the context-free mode: only exact
        # cell matches survive as value candidates.  ``schema`` is the
        # table's cached encoding (fetched here when not given).
        cfg = self.config
        if schema is None:
            schema, _status = self.schema_encoding(table)
        stats = schema.stats
        by_span: dict[tuple[int, int], dict[str, float]] = {}

        # Exact cell matches (context-free case).
        for column in table.column_names:
            for cand in self.matcher.find_cell_values(
                    tokens, column, schema.cells[column]):
                by_span.setdefault((cand.start, cand.end), {})[column] = 1.0

        # Statistics-based detection (counterfactual-safe).  Spans made
        # purely of schema vocabulary (words of column names) are never
        # value candidates — a literal column word in the question is a
        # column mention, not a value (exact cell matches above already
        # cover the rare case where a cell equals a column word).
        schema_words = set(schema.header_tokens)
        ranges = schema.numeric_ranges
        if (use_classifier and cfg.use_value_classifier
                and self.value_classifier._trained):
            text_spans: list[tuple[int, int]] = []
            for start, end in candidate_spans(tokens, cfg.max_value_span):
                window = tokens[start:end]
                if all(w in schema_words for w in window):
                    continue
                number = _try_float(" ".join(window))
                if number is not None:
                    # Bare numbers bind by value range, not embeddings
                    # (hash vectors carry no magnitude information).
                    for column in table.column_names:
                        bounds = ranges.get(column.lower())
                        if bounds and bounds[0] <= number <= bounds[1]:
                            entry = by_span.setdefault((start, end), {})
                            entry[column] = max(entry.get(column, 0.0), 0.9)
                    continue
                text_spans.append((start, end))
            # Numeric columns take numeric values; every other (span,
            # column) pair is scored in one classifier call.
            text_columns = [column for column in table.column_names
                            if column.lower() not in ranges]
            if text_spans and text_columns:
                probs = self.value_classifier.predict_proba(
                    np.stack([self.value_classifier.span_stats(
                        tokens[start:end]) for start, end in text_spans]),
                    np.stack([stats[column.lower()]
                              for column in text_columns]))
                for (start, end), row in zip(text_spans, probs):
                    for column, prob in zip(text_columns, row):
                        if prob > cfg.value_threshold:
                            entry = by_span.setdefault((start, end), {})
                            entry[column] = max(entry.get(column, 0.0),
                                                float(prob))

        # Keep a non-overlapping set, preferring longer/stronger spans.
        ordered = sorted(
            by_span.items(),
            key=lambda item: (-max(item[1].values()),
                              -(item[0][1] - item[0][0]), item[0][0]))
        chosen: list[ValueCandidate] = []
        taken: set[int] = set()
        for (start, end), columns in ordered:
            if any(i in taken for i in range(start, end)):
                continue
            taken.update(range(start, end))
            # An exact cell match (score 1.0) owns the span outright —
            # statistics-based candidates are speculative and must not
            # compete with literal database content.  Otherwise keep
            # only columns close to the best score.
            best_score = max(columns.values())
            if best_score >= 0.999:
                columns = {c: s for c, s in columns.items() if s >= 0.999}
            else:
                columns = {c: s for c, s in columns.items()
                           if s >= best_score - 0.15}
            cols = tuple(sorted(columns, key=columns.get, reverse=True))
            scores = tuple(columns[c] for c in cols)
            chosen.append(ValueCandidate(start, end, cols, scores))
        chosen.sort(key=lambda c: c.start)
        return chosen

    def column_scoring_plan(self, tokens: list[str], table: Table,
                            blocked: set[int],
                            use_classifier: bool = True,
                            ) -> tuple[dict[str, tuple[tuple[int, int], float]],
                                       list[str]]:
        """Phase one of column detection: matcher pass + classifier plan.

        Returns ``(scored, needed)``: spans the context-free matcher
        decided outright (span + confidence; matcher hits outrank
        classifier hits by the +2 offset) and the columns that still
        need a classifier score.  The matcher runs once for the whole
        table (:meth:`ColumnMatcher.best` shares the question's spans
        and span vectors across columns).  ``needed`` is what the
        column stage scores for all its lanes in one
        ``score_columns_multi`` pass.
        """
        cfg = self.config
        scored: dict[str, tuple[tuple[int, int], float]] = {}
        needed: list[str] = []
        columns = table.column_names
        for column, candidate in zip(columns,
                                     self.matcher.best(tokens, columns)):
            if candidate is not None and not any(
                    i in blocked for i in range(candidate.start, candidate.end)):
                scored[column] = ((candidate.start, candidate.end),
                                  2.0 + candidate.score)
                continue
            if not (use_classifier and cfg.use_column_classifier
                    and self.column_classifier._trained):
                continue
            needed.append(column)
        return scored, needed

    def positive_columns(self, needed: list[str], probs) -> dict[str, float]:
        """Phase two, part one: the columns the classifier scores above
        ``column_threshold``, with their probabilities (in order)."""
        threshold = self.config.column_threshold
        return {column: float(prob) for column, prob in zip(needed, probs)
                if prob > threshold}

    def influence_profiles(
            self, lanes: list[tuple[list[str], dict[str, float],
                                    SchemaEncoding | None]],
            ) -> list[dict[str, InfluenceProfile]]:
        """Adversarial localization (Section IV-C) of several requests.

        ``lanes`` holds each request's ``(tokens, positive columns,
        schema encoding)``.  Every positive (question, column) pair of
        every lane goes through ONE batched :func:`compute_influence`
        call — pairs share no activations, so each gets exactly its own
        ``dL/dE(w)``.  Column states come from the schema encodings when
        every lane has one (else they are re-encoded).  Returns each
        lane's column → profile map.
        """
        cfg = self.config
        pairs = []
        for tokens, positive, _schema in lanes:
            pairs.extend((tokens, tokenize(column)) for column in positive)
        if not pairs:
            return [{} for _lane in lanes]
        parts = [schema.encoded_subset(list(positive))
                 if schema is not None else None
                 for _tokens, positive, schema in lanes if positive]
        encoded = EncodedColumns.concat(parts) if None not in parts else None
        # Looked up in this module at call time, so wrappers installed
        # on ``repro.core.annotator.compute_influence`` see the call.
        flat = iter(compute_influence(
            self.column_classifier, pairs, alpha=cfg.influence_alpha,
            beta=cfg.influence_beta, norm=cfg.influence_norm,
            encoded=encoded))
        return [{column: next(flat) for column in positive}
                for _tokens, positive, _schema in lanes]

    def locate_columns(self, blocked: set[int],
                       scored: dict[str, tuple[tuple[int, int], float]],
                       positive: dict[str, float],
                       profiles: dict[str, InfluenceProfile],
                       ) -> dict[str, tuple[int, int]]:
        """Phase two, part two: locate each positive column's mention
        from its influence profile, then keep one column per span."""
        cfg = self.config
        scored = dict(scored)
        if cfg.use_contrastive_influence and profiles:
            profiles = {
                col: contrastive_profile(
                    prof, [p for c, p in profiles.items() if c != col])
                for col, prof in profiles.items()
            }
        for column, profile in profiles.items():
            scored[column] = (
                locate_mention(profile, max_length=cfg.max_mention_span,
                               blocked=blocked),
                positive[column])

        # A span can only mention one column: keep the most confident
        # claimant per identical span, drop the rest (they may still be
        # referenced through header symbols downstream).
        best_for_span: dict[tuple[int, int], tuple[float, str]] = {}
        for column, (span, confidence) in scored.items():
            incumbent = best_for_span.get(span)
            if incumbent is None or confidence > incumbent[0]:
                best_for_span[span] = (confidence, column)
        return {column: span
                for span, (_conf, column) in best_for_span.items()}

    # -- symbol allocation ------------------------------------------------

    def _allocate_symbols(self, tokens: list[str], table: Table,
                          column_spans: dict[str, tuple[int, int]],
                          assignments: dict[tuple[int, int], str],
                          ) -> AnnotatedQuestion:
        # Order of first reference: explicit column mention position, or
        # the paired value's position for implicit columns.
        first_pos: dict[str, int] = {}
        for column, (start, _end) in column_spans.items():
            first_pos[column] = min(first_pos.get(column, start), start)
        for (start, _end), column in assignments.items():
            first_pos[column] = min(first_pos.get(column, start), start)

        ordered = sorted(first_pos, key=lambda col: (first_pos[col], col))
        indices = {col: i + 1 for i, col in enumerate(ordered)}

        columns = [ColumnAnnotation(col, indices[col],
                                    column_spans.get(col))
                   for col in ordered]
        values = [ValueAnnotation(column, indices[column], (start, end),
                                  " ".join(tokens[start:end]))
                  for (start, end), column in sorted(assignments.items())]
        return AnnotatedQuestion(question_tokens=tokens, table=table,
                                 columns=columns, values=values)


# ----------------------------------------------------------------------
# Annotation substages (the stage-graph decomposition of ``annotate``)
# ----------------------------------------------------------------------


class _AnnotatorStage:
    """Base for substages: stateless, bound to one annotator."""

    __slots__ = ("annotator",)

    def __init__(self, annotator: Annotator):
        self.annotator = annotator


class _ValueDetectionStage(_AnnotatorStage):
    """Exact cell matching plus (full mode) the statistics classifier."""

    name = "annotate.values"

    def run(self, ctxs) -> None:
        annotator = self.annotator
        use_classifier = ctxs[0].mode == "full"
        for ctx in ctxs:
            tokens = ctx.question_tokens
            if not tokens:
                raise ModelError("cannot annotate an empty question")
            schema, _status = annotator.context_schema(ctx)
            spans = annotator._detect_values(tokens, ctx.table,
                                             use_classifier=use_classifier,
                                             schema=schema)
            ctx.artifacts["value_spans"] = spans
            ctx.note(classifier=use_classifier
                     and annotator.config.use_value_classifier,
                     spans=len(spans))


class _ColumnDetectionStage(_AnnotatorStage):
    """Context-free matching plus (full mode) classifier + adversarial
    localization of column mentions.

    Per lane: the matcher plan (:meth:`Annotator.column_scoring_plan`).
    Over all lanes at once: ONE ``score_columns_multi`` pass over every
    lane's undecided columns, each lane attending over its own
    question, and ONE :meth:`Annotator.influence_profiles` pass over
    every lane's positive (question, column) pairs.  Per lane again:
    threshold, locate, one column per span.
    """

    name = "annotate.columns"

    def run(self, ctxs) -> None:
        annotator = self.annotator
        full = ctxs[0].mode == "full"
        classify = full and annotator.config.use_column_classifier
        plans = []
        for ctx in ctxs:
            blocked = {i for candidate in ctx.artifacts["value_spans"]
                       for i in range(candidate.start, candidate.end)}
            # The cached column-RNN states are encoded only when the
            # classifier actually runs; the context-free rung must stay
            # cheap and model-independent.
            schema, cache_status = None, "off"
            if classify and annotator.column_classifier._trained:
                schema, cache_status = annotator.context_schema(ctx)
            scored, needed = annotator.column_scoring_plan(
                ctx.question_tokens, ctx.table, blocked, use_classifier=full)
            plans.append((blocked, schema, cache_status, scored, needed))

        scoring = [(ctx.question_tokens, schema.encoded_subset(needed))
                   for ctx, (_b, schema, _c, _s, needed) in zip(ctxs, plans)
                   if needed]
        probs = iter(annotator.column_classifier.score_columns_multi(scoring)
                     if scoring else ())
        positives = [annotator.positive_columns(
                         needed, next(probs) if needed else ())
                     for _b, _schema, _c, _s, needed in plans]
        profiles = annotator.influence_profiles(
            [(ctx.question_tokens, positive, plan[1])
             for ctx, plan, positive in zip(ctxs, plans, positives)])

        for ctx, plan, positive, profile in zip(ctxs, plans, positives,
                                                profiles):
            blocked, _schema, cache_status, scored, needed = plan
            spans = annotator.locate_columns(blocked, scored, positive,
                                             profile)
            ctx.artifacts["column_spans"] = spans
            ctx.note(classifier=classify, columns=len(spans),
                     schema_cache=cache_status, batch=len(needed))


class _MentionResolutionStage(_AnnotatorStage):
    """Pair value spans with columns; records which strategy resolved
    them (dependency tree vs the linear token-distance fallback)."""

    name = "annotate.resolve"

    def run(self, ctxs) -> None:
        for ctx in ctxs:
            assignments, strategy = self.annotator.resolve_assignments(
                ctx.question_tokens, ctx.artifacts["column_spans"],
                ctx.artifacts["value_spans"])
            ctx.artifacts["assignments"] = assignments
            ctx.note(strategy=strategy, pairs=len(assignments))


class _SymbolAllocationStage(_AnnotatorStage):
    """Allocate ``c_i`` / ``v_i`` indices in first-reference order."""

    name = "annotate.symbols"

    def run(self, ctxs) -> None:
        for ctx in ctxs:
            ctx.artifacts["annotation"] = self.annotator._allocate_symbols(
                ctx.question_tokens, ctx.table,
                ctx.artifacts["column_spans"], ctx.artifacts["assignments"])


class _LinearTree:
    """Token-distance fallback when dependency resolution is disabled."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens

    def span_distance(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        return min(abs(i - j) for i in range(*a) for j in range(*b))


def _find_subsequence(haystack: list[str], needle: list[str]) -> int | None:
    if not needle:
        return None
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i:i + len(needle)] == needle:
            return i
    return None
