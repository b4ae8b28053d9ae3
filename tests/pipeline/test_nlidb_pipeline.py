"""The NLIDB's annotate → translate → recover graph, end to end.

Runs on a stub translator (no training) so the stage decomposition,
trace contents, cohort runs and fault wiring are fast to assert; the trained-model equivalence is pinned by
``test_differential_refactor.py``.
"""

import pytest

from repro.core import NLIDB, NLIDBConfig
from repro.errors import ModelError
from repro.pipeline import OUTCOME_OK, StageTrace
from repro.serving import FaultInjector, FaultSpec, FaultyNLIDB, InjectedFault
from repro.sqlengine import Column, DataType, Table
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=16, seed=0)

QUESTION = "which film has director tarkovsky ?"

TOP_STAGES = ("annotate", "translate", "recover")
SUB_STAGES = ("annotate.values", "annotate.columns", "annotate.resolve",
              "annotate.symbols")


class StubTranslator:
    def __init__(self):
        self.calls = 0

        class _Config:
            beam_width = 5
        self.config = _Config()

    def translate(self, source, header_tokens, extra_symbols=(),
                  beam_width=None):
        self.calls += 1
        return ["select", "g1"]

    def translate_many(self, requests):
        return [self.translate(r["source"], r["header_tokens"],
                               r["extra_symbols"], r["beam_width"])
                for r in requests], {}


def make_table():
    return Table("films", [Column("film"), Column("director"),
                           Column("year", DataType.REAL)],
                 [("solaris", "tarkovsky", 1972),
                  ("stalker", "tarkovsky", 1979)])


@pytest.fixture
def model():
    nlidb = NLIDB(EMB, NLIDBConfig(), translator=StubTranslator())
    nlidb._fitted = True  # annotator runs matcher-only when untrained
    return nlidb


class TestStageGraph:
    def test_top_level_stage_names(self, model):
        assert model.pipeline().stage_names() == TOP_STAGES

    def test_annotation_substage_names(self, model):
        assert tuple(model.annotator.annotation_pipeline().stage_names()) \
            == SUB_STAGES

    def test_pipeline_is_cached_and_mode_independent(self, model):
        assert model.pipeline("full") is model.pipeline("context_free")

    def test_unknown_mode_rejected(self, model):
        with pytest.raises(ModelError, match="unknown annotation mode"):
            model.pipeline("bogus")
        with pytest.raises(ModelError, match="unknown annotation mode"):
            model.translate(QUESTION, make_table(), mode="bogus")
        with pytest.raises(ModelError, match="unknown annotation mode"):
            model.annotator.annotate(QUESTION, make_table(), mode="bogus")


class TestTranslateTrace:
    def test_translation_carries_full_trace(self, model):
        translation = model.translate(QUESTION, make_table())
        assert translation.query is not None
        names = [record.stage for record in translation.trace]
        # Composite ordering: each top-level stage, with the annotate
        # sub-stages nested right after their composite.
        assert names == ["annotate", *SUB_STAGES, "translate", "recover"]
        assert all(r.outcome == OUTCOME_OK for r in translation.trace)
        assert all(r.attempt == 1 and r.mode == "full"
                   for r in translation.trace)

    def test_trace_excluded_from_outcome_equality(self, model):
        first = model.translate(QUESTION, make_table())
        second = model.translate(QUESTION, make_table())
        assert first.trace is not second.trace
        assert first.result_equal(second)

    def test_recover_stage_notes_soft_failures(self, model):
        model.translator.translate = lambda *a, **k: ["bogus"]
        translation = model.translate(QUESTION, make_table())
        assert translation.query is None and translation.error
        recover = [r for r in translation.trace if r.stage == "recover"][-1]
        assert recover.outcome == OUTCOME_OK  # soft failure, no raise
        assert recover.detail["recovered"] is False

    def test_empty_question_fails_in_annotate(self, model):
        with pytest.raises(ModelError) as err:
            model.translate([], make_table())
        assert err.value.stage == "annotate"

    def test_mode_context_free_stamped_on_records(self, model):
        translation = model.translate(QUESTION, make_table(),
                                      mode="context_free")
        assert all(r.mode == "context_free" for r in translation.trace)


class TestArtifactPreSeeding:
    def test_annotator_trace_collection(self, model):
        trace = StageTrace()
        model.annotator.annotate(QUESTION, make_table(), trace=trace)
        assert trace.stage_names() == list(SUB_STAGES)


class TestMentionResolutionStrategy:
    def test_dependency_strategy_recorded(self, model):
        model.annotator.config.use_dependency_resolution = True
        translation = model.translate(QUESTION, make_table())
        resolve = [r for r in translation.trace
                   if r.stage == "annotate.resolve"][-1]
        assert resolve.detail["strategy"] == "dependency"
        assert resolve.detail["pairs"] >= 0

    def test_linear_fallback_strategy_recorded(self, model):
        model.annotator.config.use_dependency_resolution = False
        translation = model.translate(QUESTION, make_table())
        resolve = [r for r in translation.trace
                   if r.stage == "annotate.resolve"][-1]
        assert resolve.detail["strategy"] == "linear"

    def test_strategies_agree_on_this_question(self, model):
        model.annotator.config.use_dependency_resolution = True
        by_tree = model.translate(QUESTION, make_table())
        model.annotator.config.use_dependency_resolution = False
        by_distance = model.translate(QUESTION, make_table())
        assert by_tree.result_equal(by_distance)


class TestFaultWiring:
    def test_faulty_pipeline_injects_before_stages(self, model):
        injector = FaultInjector(
            [FaultSpec(stage="translate", kind="transient", count=1)])
        faulty = FaultyNLIDB(model, injector)
        pipe = faulty.pipeline()
        ctx = model.context(QUESTION, make_table())
        with pytest.raises(InjectedFault) as err:
            pipe.run(ctx)
        assert err.value.stage == "translate" and err.value.retryable
        record = ctx.trace.last("translate")
        assert record.error == "InjectedFault"
        # The plan is burnt down: a fresh context now succeeds.
        ctx = model.context(QUESTION, make_table())
        pipe.run(ctx)
        assert ctx.artifacts["translation"].query is not None
        assert injector.stats()["fired"][0]["fired"] == 1

    def test_mode_restricted_fault_spares_other_rung(self, model):
        injector = FaultInjector(
            [FaultSpec(stage="annotate", kind="permanent", mode="full")])
        faulty = FaultyNLIDB(model, injector)
        with pytest.raises(InjectedFault):
            faulty.pipeline("full").run(model.context(QUESTION, make_table()))
        ctx = model.context(QUESTION, make_table(), mode="context_free")
        faulty.pipeline("context_free").run(ctx)
        assert ctx.artifacts["translation"].query is not None
