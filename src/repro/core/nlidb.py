"""The end-to-end NLIDB: annotate → translate → recover.

:class:`NLIDB` is the library's main entry point.  It owns the
annotation pipeline (Section IV) and the annotated seq2seq translator
(Section V), trains both from (question, SQL, table) examples, and
translates new questions against *any* table — including tables and
domains never seen in training (the transfer-learnability claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

from repro.data.records import Example
from repro.errors import AnnotationError, ModelError, ReproError
from repro.pipeline import (
    OUTCOME_OK,
    WIRE_SCHEMA_VERSION,
    Deadline,
    Middleware,
    Pipeline,
    PipelineContext,
    StageTrace,
    artifact_cache_middleware,
)
from repro.sqlengine import Query, Table
from repro.text import KnowledgeBase, WordEmbeddings, tokenize

from repro.core.annotate import (
    AnnotatedQuestion,
    build_annotated_sql,
    recover_sql,
)
from repro.core.annotator import Annotator, AnnotatorConfig
from repro.core.mention import ClassifierConfig
from repro.core.seq2seq.model import (
    AnnotatedSeq2Seq,
    Seq2SeqConfig,
    TrainingPair,
)

__all__ = ["NLIDBConfig", "NLIDB", "Translation"]


@dataclass
class NLIDBConfig:
    """Top-level configuration, including the paper's ablation switches."""

    # Annotation encoding (Section V-A).
    column_name_appending: bool = True   # ablation: symbol substitution
    header_encoding: bool = True         # ablation: no table headers
    # Extended SQL grammar (OR/NOT, GROUP BY/HAVING, ORDER BY/LIMIT):
    # adds the extra structural tokens to the translator's output space.
    # Mirrored into ``seq2seq.extended_grammar`` at construction so the
    # candidate sets of every decode path agree.
    extended_grammar: bool = False
    # Translator.
    seq2seq: Seq2SeqConfig = field(default_factory=Seq2SeqConfig)
    # Annotation pipeline.
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)
    classifier: ClassifierConfig | None = None
    # Training budgets.
    classifier_epochs: int = 5
    classifier_lr: float = 2e-3
    value_epochs: int = 30
    seq2seq_epochs: int = 10
    seq2seq_lr: float = 2e-3
    seed: int = 0


@dataclass
class Translation:
    """The result of translating one question."""

    query: Query | None
    annotated_tokens: list[str]
    predicted_annotated_sql: list[str]
    annotation: AnnotatedQuestion
    error: str | None = None
    #: Per-stage :class:`~repro.pipeline.StageRecord` tuple from the run
    #: that produced this translation (excluded from outcome equality).
    trace: tuple = field(default=(), repr=False, compare=False)

    def signature(self) -> tuple:
        """A hashable summary of the translation *outcome*.

        Two translations with equal signatures produced the same
        canonical query (or the same failure), the same annotated
        question tokens, and the same predicted annotated SQL —
        regardless of which table *object* they were computed against.
        The serving layer's differential tests compare cached/batched
        results to direct ones through this view.
        """
        return (
            self.query.canonical() if self.query is not None else None,
            tuple(self.annotated_tokens),
            tuple(self.predicted_annotated_sql),
            self.error,
        )

    def result_equal(self, other: "Translation") -> bool:
        """Stable outcome equality (see :meth:`signature`)."""
        return self.signature() == other.signature()

    def to_dict(self) -> dict:
        """JSON-ready view of the translation (versioned wire schema).

        The envelope shape is documented in DESIGN.md ("Wire schema");
        ``schema_version`` is :data:`~repro.pipeline.WIRE_SCHEMA_VERSION`.
        """
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "sql": self.query.to_sql() if self.query is not None else None,
            "annotated_tokens": list(self.annotated_tokens),
            "predicted_annotated_sql": list(self.predicted_annotated_sql),
            "error": self.error,
            "trace": [record.to_dict() for record in self.trace],
        }


class NLIDB:
    """Natural language interface for databases (the paper's system)."""

    def __init__(self, embeddings: WordEmbeddings | None = None,
                 config: NLIDBConfig | None = None,
                 knowledge: KnowledgeBase | None = None,
                 translator=None):
        self.embeddings = embeddings or WordEmbeddings(dim=32)
        self.config = config or NLIDBConfig()
        if self.config.extended_grammar:
            self.config.seq2seq.extended_grammar = True
        classifier_config = (self.config.classifier
                             or ClassifierConfig(word_dim=self.embeddings.dim))
        self.annotator = Annotator(self.embeddings,
                                   config=self.config.annotator,
                                   classifier_config=classifier_config,
                                   knowledge=knowledge)
        # The translator is pluggable: the "+Transformer" ablation swaps
        # in a TransformerTranslator with the same fit/translate API.
        self.translator = translator or AnnotatedSeq2Seq(self.embeddings,
                                                         self.config.seq2seq)
        # Optional observer called as ``stage_timer(stage, seconds)``
        # with stage ∈ {"annotate", "translate", "recover"} on every
        # :meth:`translate` call — the serving layer's metrics hook.
        self.stage_timer: Callable[[str, float], None] | None = None
        self._pipeline: Pipeline | None = None  # built lazily, stateless
        self._fitted = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, examples: list[Example], verbose: bool = False,
            reuse_annotator: Annotator | None = None) -> "NLIDB":
        """Train the annotator, then the translator on annotated pairs.

        ``reuse_annotator`` lets the paper's translator-side ablations
        share one trained annotation pipeline instead of retraining it.
        """
        if not examples:
            raise ModelError("fit() needs training examples")
        cfg = self.config
        if reuse_annotator is not None:
            self.annotator = reuse_annotator
        else:
            self.annotator.fit(examples,
                               classifier_epochs=cfg.classifier_epochs,
                               classifier_lr=cfg.classifier_lr,
                               value_epochs=cfg.value_epochs, seed=cfg.seed,
                               verbose=verbose)
        pairs = []
        skipped = 0
        for example in examples:
            try:
                pairs.append(self.training_pair(example))
            except ReproError:
                skipped += 1
        if not pairs:
            raise ModelError("annotation failed on every training example")
        if verbose and skipped:
            print(f"[nlidb] skipped {skipped} unannotatable examples")
        self.translator.fit(pairs, epochs=cfg.seq2seq_epochs,
                            lr=cfg.seq2seq_lr, shuffle_seed=cfg.seed,
                            verbose=verbose)
        self._fitted = True
        return self

    def training_pair(self, example: Example) -> TrainingPair:
        """Annotate one example into a (source, target) training pair."""
        annotation = self.annotator.annotate(example.question_tokens,
                                             example.table)
        source = annotation.annotated_tokens(
            append=self.config.column_name_appending,
            header_encoding=self.config.header_encoding)
        target = build_annotated_sql(
            annotation, example.query,
            header_encoding=self.config.header_encoding)
        return TrainingPair(source=source, target=target,
                            header_tokens=self.header_tokens(example.table),
                            extra_symbols=self._symbols(annotation))

    @staticmethod
    def _symbols(annotation: AnnotatedQuestion) -> tuple[str, ...]:
        symbols = [f"c{ann.index}" for ann in annotation.columns]
        symbols.extend(f"v{ann.index}" for ann in annotation.values)
        return tuple(symbols)

    @staticmethod
    def header_tokens(table: Table) -> list[str]:
        """Tokenized column headers fed to the translator's copy space.

        Public so the serving layer's batch path can compute them once
        per table and pass them to :meth:`predict_annotated`.
        """
        tokens: list[str] = []
        for name in table.column_names:
            tokens.extend(tokenize(name))
        return tokens

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def annotate(self, question: str | list[str], table: Table,
                 mode: str = "full") -> AnnotatedQuestion:
        """Stage 1, ``q → qᵃ``: run the annotation pipeline.

        ``mode="context_free"`` restricts detection to the paper's
        context-free matchers (exact / edit / semantic / knowledge
        column mentions, exact cell values), skipping the trained
        classifiers — the serving layer's degraded-annotation rung.
        """
        return self.annotator.annotate(question, table, mode=mode)

    def predict_annotated(self, annotation: AnnotatedQuestion,
                          beam_width: int | None = None,
                          header_tokens: list[str] | None = None,
                          token_vectors: dict | None = None,
                          ) -> tuple[list[str], list[str]]:
        """Stage 2, ``qᵃ → sᵃ``: encode and beam-decode one annotation.

        Returns ``(source_tokens, predicted_annotated_sql)``.  Pass
        ``header_tokens`` to reuse a precomputed header encoding (the
        serving batch path computes it once per table per batch) and
        ``token_vectors`` to reuse the schema cache's frozen candidate
        embeddings — only forwarded when the translator advertises
        ``accepts_token_vectors`` (the Transformer ablation does not).
        """
        source = annotation.annotated_tokens(
            append=self.config.column_name_appending,
            header_encoding=self.config.header_encoding)
        if header_tokens is None:
            header_tokens = self.header_tokens(annotation.table)
        kwargs = {}
        if token_vectors is not None and getattr(
                self.translator, "accepts_token_vectors", False):
            kwargs["token_vectors"] = token_vectors
        predicted = self.translator.translate(
            source, header_tokens,
            extra_symbols=self._symbols(annotation), beam_width=beam_width,
            **kwargs)
        return source, predicted

    def recover(self, source: list[str], predicted: list[str],
                annotation: AnnotatedQuestion) -> Translation:
        """Stage 3, ``sᵃ → s``: resolve symbols into a real query.

        Never raises on model errors: a failed recovery yields a
        :class:`Translation` with ``query=None`` and the error message,
        which the metrics count as incorrect.
        """
        try:
            query = recover_sql(predicted, annotation)
        except AnnotationError as exc:
            return Translation(query=None, annotated_tokens=source,
                               predicted_annotated_sql=predicted,
                               annotation=annotation, error=str(exc))
        return Translation(query=query, annotated_tokens=source,
                           predicted_annotated_sql=predicted,
                           annotation=annotation)

    # ------------------------------------------------------------------
    # The stage graph
    # ------------------------------------------------------------------

    def pipeline(self, mode: str = "full",
                 middleware: Sequence[Middleware] = ()) -> Pipeline:
        """The annotate → translate → recover stage graph.

        The base graph is mode-independent (``mode`` travels on the
        context) and cached on the instance; ``mode`` is validated here
        so misconfigured callers fail before running anything.  Extra
        ``middleware`` wraps outermost around the built-in artifact
        cache — the serving layer adds deadline checks and fault
        injection this way.
        """
        self.annotator.annotation_pipeline(mode)  # validates the mode
        if self._pipeline is None:
            self._pipeline = Pipeline(
                (_AnnotateStage(self), _TranslateStage(self),
                 _RecoverStage(self)),
                middleware=(artifact_cache_middleware,), name="nlidb")
        if middleware:
            return self._pipeline.with_middleware(*middleware)
        return self._pipeline

    def context(self, question: str | list[str], table: Table,
                mode: str = "full", beam_width: int | None = None,
                deadline: Deadline | None = None,
                trace: StageTrace | None = None, attempt: int = 1,
                artifacts: dict | None = None,
                table_key: str | None = None) -> PipelineContext:
        """Build the per-request context :meth:`pipeline` executes over.

        Pass ``artifacts`` (e.g. a precomputed ``annotation``) to let
        the artifact-cache middleware skip the stages that would
        recompute them; pass ``trace`` to accumulate several runs into
        one request-level trace; pass ``table_key`` (the table's
        fingerprint) when known.
        """
        tokens = (tokenize(question) if isinstance(question, str)
                  else list(question))
        return PipelineContext(
            question_tokens=tokens, table=table, table_key=table_key,
            mode=mode, beam_width=beam_width, deadline=deadline,
            attempt=attempt, artifacts=dict(artifacts) if artifacts else {},
            trace=trace if trace is not None else StageTrace())

    def translate(self, question: str | list[str], table: Table,
                  beam_width: int | None = None,
                  mode: str = "full") -> Translation:
        """Translate a question into an executable SQL query.

        Runs the annotate → translate → recover :meth:`pipeline`; the
        resulting :class:`Translation` carries the run's per-stage
        trace, and an attached :attr:`stage_timer` observes each
        completed top-level stage's wall time.  ``mode`` selects the
        annotation pipeline (see :meth:`annotate`).
        """
        if not self._fitted:
            raise ModelError("translate() called before fit()")
        ctx = self.context(question, table, mode=mode,
                           beam_width=beam_width)
        try:
            self.pipeline(mode).run(ctx)
        finally:
            self._emit_timings(ctx.trace)
        translation = ctx.artifacts["translation"]
        translation.trace = tuple(ctx.trace)
        return translation

    def _emit_timings(self, records) -> None:
        # Completed top-level stages only: sub-stages carry dotted
        # names, and failed stages were never reported by the pre-graph
        # implementation either.
        if self.stage_timer is None:
            return
        for record in records:
            if record.outcome == OUTCOME_OK and "." not in record.stage:
                self.stage_timer(record.stage, record.wall_s)

    # ------------------------------------------------------------------
    # Cross-request coalescing (the serving scheduler's kernel surface)
    # ------------------------------------------------------------------

    @property
    def coalescible(self) -> bool:
        """Whether this model supports cross-request stage coalescing.

        Requires a fitted model whose translator exposes the lockstep
        ``translate_many`` batch decoder.  Wrappers that must see every
        stage individually (e.g. fault injection) override this to
        ``False``.
        """
        return (self._fitted
                and callable(getattr(self.translator, "translate_many", None)))

    def cohort_artifacts(self, requests: list[tuple[list[str], "Table",
                                                    int | None]],
                         *, keys: list[str] | None = None,
                         ) -> tuple[list[dict | None], dict]:
        """Run the coalescible stages of several full-mode requests.

        ``requests`` is a list of ``(question_tokens, table,
        beam_width)`` triples; ``keys``, when given, holds each table's
        fingerprint in the same order.  The per-request phases (value
        detection, the column matcher plan, thresholding, mention
        location, resolution, symbol allocation) run per lane exactly as
        the sequential pipeline would; the three model-bound hot stages
        are coalesced across lanes — one
        :meth:`~repro.core.mention.ColumnMentionClassifier.
        score_columns_multi` pass over every lane's undecided columns,
        one :meth:`~repro.core.annotator.Annotator.influence_profiles`
        adversarial-localization pass (one batched forward and one
        backward) over every lane's positive (question, column) pairs,
        and one :meth:`~repro.core.seq2seq.AnnotatedSeq2Seq.
        translate_many` lockstep decode over every lane's beams.

        Returns ``(lanes, stats)``: per lane either a pre-seeded
        artifacts dict (``value_spans`` … ``source``/``predicted``) the
        stage pipeline will consume via its artifact cache, or ``None``
        when that lane failed and must be recomputed sequentially so the
        ordinary error/ladder accounting applies.  ``stats`` reports the
        batch shape and the shared-kernel wall times.
        """
        annotator = self.annotator
        n = len(requests)
        lanes: list[dict | None] = [None] * n
        plans: list[tuple | None] = [None] * n
        stats = {"lanes": n, "score_batch": 0, "influence_batch": 0}

        start = perf_counter()
        # Phase A (per lane): schema encoding, values, matcher plan.
        for i, (tokens, table, _width) in enumerate(requests):
            try:
                if not tokens:
                    raise ModelError("cannot annotate an empty question")
                schema, _status = annotator.schema_encoding(
                    table, keys[i] if keys is not None else None)
                value_spans = annotator._detect_values(
                    tokens, table, use_classifier=True, schema=schema)
                blocked = {j for cand in value_spans
                           for j in range(cand.start, cand.end)}
                scored, needed = annotator.column_scoring_plan(
                    tokens, table, blocked, use_classifier=True)
                plans[i] = (value_spans, blocked, schema, scored, needed)
            except ReproError:
                plans[i] = None

        # Phase B (coalesced): one classifier pass over every lane's
        # undecided columns, each lane attending over its own question.
        scoring = [(i, plans[i][4]) for i in range(n)
                   if plans[i] is not None and plans[i][4]]
        probs_by_lane: dict[int, object] = {}
        if scoring:
            stats["score_batch"] = sum(len(needed) for _i, needed in scoring)
            items = [(requests[i][0], plans[i][2].encoded_subset(needed))
                     for i, needed in scoring]
            try:
                batched = annotator.column_classifier.score_columns_multi(
                    items)
                probs_by_lane = {i: probs for (i, _needed), probs
                                 in zip(scoring, batched)}
            except ReproError:
                for i, _needed in scoring:
                    plans[i] = None

        # Phase C1 (per lane): threshold the classifier probabilities.
        positives: dict[int, dict[str, float]] = {
            i: annotator.positive_columns(plans[i][4],
                                          probs_by_lane.get(i, ()))
            for i in range(n) if plans[i] is not None}
        # Coalesced: one batched adversarial-localization pass over every
        # lane's positive (question, column) pairs.
        localizing = [i for i, positive in positives.items() if positive]
        profiles_by_lane: dict[int, dict] = {}
        if localizing:
            stats["influence_batch"] = sum(len(positives[i])
                                           for i in localizing)
            try:
                profiles = annotator.influence_profiles(
                    [(requests[i][0], positives[i], plans[i][2])
                     for i in localizing])
                profiles_by_lane = dict(zip(localizing, profiles))
            except ReproError:
                for i in localizing:
                    plans[i] = None

        # Phase C2 (per lane): locate mentions, resolution, symbols,
        # source.
        decode_requests = []
        decode_lanes = []
        for i, (tokens, table, width) in enumerate(requests):
            if plans[i] is None:
                continue
            value_spans, blocked, schema, scored, _needed = plans[i]
            try:
                column_spans = annotator.locate_columns(
                    blocked, scored, positives[i],
                    profiles_by_lane.get(i, {}))
                assignments, _strategy = annotator.resolve_assignments(
                    tokens, column_spans, value_spans)
                annotation = annotator._allocate_symbols(
                    tokens, table, column_spans, assignments)
                source = annotation.annotated_tokens(
                    append=self.config.column_name_appending,
                    header_encoding=self.config.header_encoding)
                token_vectors = None
                if getattr(self.translator, "accepts_token_vectors", False):
                    token_vectors = schema.token_vectors32
                lanes[i] = {
                    "value_spans": value_spans,
                    "column_spans": column_spans,
                    "assignments": assignments,
                    "annotation": annotation,
                    "source": source,
                }
                decode_requests.append({
                    "source": source, "header_tokens": schema.header_tokens,
                    "extra_symbols": self._symbols(annotation),
                    "beam_width": width, "token_vectors": token_vectors,
                })
                decode_lanes.append(i)
            except ReproError:
                lanes[i] = None
        stats["annotate_s"] = perf_counter() - start

        # Phase D (coalesced): one lockstep decode over every live lane.
        start = perf_counter()
        if decode_requests:
            try:
                predictions = self.translator.translate_many(decode_requests)
                for i, predicted in zip(decode_lanes, predictions):
                    lanes[i]["predicted"] = predicted
            except ReproError:
                for i in decode_lanes:
                    lanes[i] = None
        stats["decode_s"] = perf_counter() - start
        stats["failed"] = sum(1 for lane in lanes if lane is None)
        return lanes, stats

    def inference_info(self) -> dict:
        """Occupancy of the float32 inference arenas.

        Surfaced by ``TranslationService.stats()`` / the ``serve-stats``
        CLI.
        """
        arenas = {}
        translator_arena = getattr(self.translator, "arena", None)
        if translator_arena is not None:
            arenas["seq2seq"] = translator_arena.stats()
        classifier = self.annotator.column_classifier
        if getattr(classifier, "arena", None) is not None:
            arenas["classifier"] = classifier.arena.stats()
        return {"arenas": arenas}

    def to_sql(self, question: str | list[str], table: Table) -> str:
        """Convenience: question text in, SQL text out.

        Raises :class:`AnnotationError` when recovery fails.
        """
        translation = self.translate(question, table)
        if translation.query is None:
            raise AnnotationError(
                f"could not recover SQL: {translation.error}")
        return translation.query.to_sql()


# ----------------------------------------------------------------------
# Stages (the paper's three steps as pipeline nodes)
# ----------------------------------------------------------------------


class _NLIDBStage:
    """Base for stages bound to one (stateless w.r.t. requests) NLIDB."""

    __slots__ = ("nlidb",)

    def __init__(self, nlidb: NLIDB):
        self.nlidb = nlidb


class _AnnotateStage(_NLIDBStage):
    """Step 1, ``q → qᵃ``: the annotator's sub-pipeline, composed.

    Runs the annotation sub-stages on the *same* context, so their
    dotted records (``annotate.values`` …) land in the same trace; any
    escaping error is re-labelled with this stage's top-level name,
    which is the granularity the serving ladder routes on.
    """

    name = "annotate"
    provides = ("annotation",)

    def run(self, ctx: PipelineContext) -> None:
        try:
            self.nlidb.annotator.annotation_pipeline(ctx.mode).run(ctx)
        except ReproError as exc:
            exc.stage = self.name
            raise


class _TranslateStage(_NLIDBStage):
    """Step 2, ``qᵃ → sᵃ``: encode and beam-decode the annotation."""

    name = "translate"
    provides = ("source", "predicted")

    def run(self, ctx: PipelineContext) -> None:
        # The table's encoding (normally fetched by annotation) holds the
        # question-independent header tokens and frozen candidate-token
        # vectors.
        schema, _status = self.nlidb.annotator.context_schema(ctx)
        source, predicted = self.nlidb.predict_annotated(
            ctx.artifacts["annotation"], beam_width=ctx.beam_width,
            header_tokens=schema.header_tokens,
            token_vectors=schema.token_vectors32)
        ctx.artifacts["source"] = source
        ctx.artifacts["predicted"] = predicted
        decode = getattr(self.nlidb.translator, "last_decode", None) or {}
        ctx.note(source_len=len(source), predicted_len=len(predicted),
                 schema_encoding="hit",
                 **({"decode_path": decode["path"],
                     "decode_steps": decode["steps"]} if decode else {}))


class _RecoverStage(_NLIDBStage):
    """Step 3, ``sᵃ → s``: resolve symbols into an executable query."""

    name = "recover"
    provides = ("translation",)

    def run(self, ctx: PipelineContext) -> None:
        translation = self.nlidb.recover(
            ctx.artifacts["source"], ctx.artifacts["predicted"],
            ctx.artifacts["annotation"])
        ctx.artifacts["translation"] = translation
        ctx.note(recovered=translation.error is None)
