"""The end-to-end NLIDB: annotate → translate → recover.

:class:`NLIDB` is the library's main entry point.  It owns the
annotation pipeline (Section IV) and the annotated seq2seq translator
(Section V), trains both from (question, SQL, table) examples, and
translates new questions against *any* table — including tables and
domains never seen in training (the transfer-learnability claim).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.data.records import Example
from repro.errors import AnnotationError, ModelError, ReproError
from repro.pipeline import (
    WIRE_SCHEMA_VERSION,
    Deadline,
    Guard,
    Pipeline,
    PipelineContext,
    StageTrace,
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
        # in a TransformerTranslator with the same fit/translate_many API.
        self.translator = translator or AnnotatedSeq2Seq(self.embeddings,
                                                         self.config.seq2seq)
        self._pipeline: Pipeline | None = None  # built lazily, stateless
        # Inference mutates state shared by every caller of this model
        # (the arena buffers, weight snapshots, ``last_decode``); every
        # service serving it runs its batches under this one lock.
        self.inference_lock = threading.Lock()
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
        """Tokenized column headers fed to the translator's copy space
        (the schema encoding caches them per table)."""
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
                 guards: Sequence[Guard] = ()) -> Pipeline:
        """The annotate → translate → recover stage graph.

        The graph is mode-independent (``mode`` travels on the
        contexts) and the unguarded one is cached on the instance;
        ``mode`` is validated here so misconfigured callers fail before
        running anything.  ``guards`` run before every stage, per lane —
        the serving layer adds deadline checks and fault injection this
        way.
        """
        self.annotator.annotation_pipeline(mode)  # validates the mode
        if self._pipeline is None:
            self._pipeline = Pipeline(
                (_AnnotateStage(self), _TranslateStage(self),
                 _RecoverStage(self)), name="nlidb")
        if guards:
            return Pipeline(self._pipeline.stages, guards=guards,
                            name="nlidb")
        return self._pipeline

    def context(self, question: str | list[str], table: Table,
                mode: str = "full", beam_width: int | None = None,
                deadline: Deadline | None = None,
                trace: StageTrace | None = None, attempt: int = 1,
                table_key: str | None = None) -> PipelineContext:
        """Build one request's context for :meth:`pipeline` to run.

        Pass ``trace`` to accumulate several runs into one request-level
        trace; pass ``table_key`` (the table's fingerprint) when known.
        """
        tokens = (tokenize(question) if isinstance(question, str)
                  else list(question))
        return PipelineContext(
            question_tokens=tokens, table=table, table_key=table_key,
            mode=mode, beam_width=beam_width, deadline=deadline,
            attempt=attempt,
            trace=trace if trace is not None else StageTrace())

    def translate(self, question: str | list[str], table: Table,
                  beam_width: int | None = None,
                  mode: str = "full") -> Translation:
        """Translate a question into an executable SQL query.

        Runs the annotate → translate → recover :meth:`pipeline` as a
        cohort of one; the resulting :class:`Translation` carries the
        run's per-stage trace.  ``mode`` selects the annotation pipeline
        (see :meth:`annotate`).
        """
        if not self._fitted:
            raise ModelError("translate() called before fit()")
        ctx = self.context(question, table, mode=mode,
                           beam_width=beam_width)
        self.pipeline(mode).run(ctx)
        translation = ctx.artifacts["translation"]
        translation.trace = tuple(ctx.trace)
        return translation

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

    Runs the annotation sub-stages over the *same* cohort, so their
    dotted records (``annotate.values`` …) land in each lane's trace; a
    lane's error is re-labelled with this stage's top-level name, which
    is the granularity the serving ladder routes on.
    """

    name = "annotate"

    def run(self, ctxs) -> None:
        self.nlidb.annotator.annotation_pipeline(ctxs[0].mode).run_cohort(
            ctxs)
        for ctx in ctxs:
            if ctx.failure is not None:
                ctx.failure.stage = self.name


class _TranslateStage(_NLIDBStage):
    """Step 2, ``qᵃ → sᵃ``: encode and beam-decode every lane's
    annotation in ONE ``translate_many`` call."""

    name = "translate"

    def run(self, ctxs) -> None:
        nlidb = self.nlidb
        requests = []
        for ctx in ctxs:
            # The table's encoding (normally fetched by annotation)
            # holds the question-independent header tokens and frozen
            # candidate-token vectors.
            schema, _status = nlidb.annotator.context_schema(ctx)
            annotation = ctx.artifacts["annotation"]
            requests.append({
                "source": annotation.annotated_tokens(
                    append=nlidb.config.column_name_appending,
                    header_encoding=nlidb.config.header_encoding),
                "header_tokens": schema.header_tokens,
                "extra_symbols": nlidb._symbols(annotation),
                "beam_width": ctx.beam_width,
                "token_vectors": schema.token_vectors32})
        predictions = nlidb.translator.translate_many(requests)
        decode = getattr(nlidb.translator, "last_decode", None) or {}
        for lane, (ctx, request, predicted) in enumerate(
                zip(ctxs, requests, predictions)):
            ctx.artifacts["source"] = request["source"]
            ctx.artifacts["predicted"] = predicted
            ctx.note(source_len=len(request["source"]),
                     predicted_len=len(predicted), schema_encoding="hit",
                     **_decode_facts(decode, lane))


def _decode_facts(decode: dict, lane: int) -> dict:
    """One lane's view of the translator's ``last_decode``: the path,
    the lane's own step count, and the shared call's encode and
    beam-search wall times."""
    if not decode:
        return {}
    steps = decode["steps"]
    return {"decode_path": decode["path"],
            "decode_steps": steps[lane] if isinstance(steps, list) else steps,
            "encode_s": decode["encode_s"],
            "beam_search_s": decode["beam_search_s"]}


class _RecoverStage(_NLIDBStage):
    """Step 3, ``sᵃ → s``: resolve symbols into an executable query."""

    name = "recover"

    def run(self, ctxs) -> None:
        for ctx in ctxs:
            translation = self.nlidb.recover(
                ctx.artifacts["source"], ctx.artifacts["predicted"],
                ctx.artifacts["annotation"])
            ctx.artifacts["translation"] = translation
            ctx.note(recovered=translation.error is None)
