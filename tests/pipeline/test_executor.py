"""Unit tests for the stage-graph executor itself.

Toy stages only — no models — so sequencing, trace recording, error
labelling, per-lane guards and cohort failure isolation are pinned down
in isolation.
The real annotate → translate → recover graphs are covered by
``test_nlidb_pipeline.py`` and ``test_service_traces.py``.
"""

import pytest

from repro.errors import DeadlineExceeded, ReproError, ServingError
from repro.pipeline import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    Deadline,
    FaultGuard,
    Pipeline,
    PipelineContext,
    StageRecord,
    StageTrace,
    deadline_guard,
)


class Emit:
    """Toy stage: writes ``value`` under ``key`` for every lane,
    optionally raising; ``calls`` records each call's lane count."""

    def __init__(self, name, key=None, value=None,
                 error: Exception | None = None):
        self.name = name
        self.key = key
        self.value = value
        self.error = error
        self.runs = 0
        self.calls = []

    def run(self, ctxs):
        self.runs += 1
        self.calls.append(len(ctxs))
        if self.error is not None:
            raise self.error
        for ctx in ctxs:
            if self.key is not None:
                ctx.artifacts[self.key] = self.value


def ctx_for(**kwargs):
    return PipelineContext(question_tokens=["q"], **kwargs)


class TestPipelineExecution:
    def test_stages_run_in_order_and_share_artifacts(self):
        order = []

        class Probe:
            name = "probe"

            def run(self, ctxs):
                order.extend(ctx.artifacts["a"] for ctx in ctxs)

        pipe = Pipeline((Emit("first", "a", 1), Probe()))
        ctx = pipe.run(ctx_for())
        assert order == [1]
        assert ctx.trace.stage_names() == ["first", "probe"]
        assert all(r.outcome == OUTCOME_OK for r in ctx.trace)
        assert all(r.wall_s >= 0.0 for r in ctx.trace)

    def test_attempt_and_mode_stamped_into_records(self):
        pipe = Pipeline((Emit("s", "a", 1),))
        ctx = pipe.run(ctx_for(mode="context_free", attempt=3))
        record = ctx.trace.last("s")
        assert record.mode == "context_free" and record.attempt == 3

    def test_failing_stage_is_recorded_and_labelled(self):
        boom = ServingError("boom")
        pipe = Pipeline((Emit("good", "a", 1),
                         Emit("bad", error=boom),
                         Emit("never", "b", 2)))
        ctx = ctx_for()
        with pytest.raises(ServingError) as err:
            pipe.run(ctx)
        assert err.value.stage == "bad"
        assert ctx.trace.stage_names() == ["good", "bad"]  # partial trace
        record = ctx.trace.last("bad")
        assert record.outcome == OUTCOME_ERROR
        assert record.error == "ServingError" and record.message == "boom"

    def test_pre_labelled_error_stage_is_preserved(self):
        inner = ServingError("deep failure", stage="inner.detail")
        pipe = Pipeline((Emit("outer", error=inner),))
        with pytest.raises(ServingError) as err:
            pipe.run(ctx_for())
        assert err.value.stage == "inner.detail"

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline((Emit("s", "a", 1), Emit("s", "b", 2)))

    def test_non_stage_rejected(self):
        with pytest.raises(ValueError, match="Stage protocol"):
            Pipeline((object(),))

    def test_note_attaches_detail_to_current_record(self):
        class Noisy:
            name = "noisy"

            def run(self, ctxs):
                for ctx in ctxs:
                    ctx.note(strategy="linear", pairs=2)

        ctx = Pipeline((Noisy(),)).run(ctx_for())
        assert ctx.trace.last("noisy").detail == {"strategy": "linear",
                                                  "pairs": 2}
        ctx.note(ignored=True)  # outside any stage: a no-op
        assert "ignored" not in ctx.trace.last("noisy").detail

    def test_nested_pipeline_shares_trace_and_restores_record(self):
        inner = Pipeline((Emit("outer.sub", "a", 1),))

        class Composite:
            name = "outer"

            def run(self, ctxs):
                inner.run_cohort(ctxs)
                for ctx in ctxs:
                    ctx.note(composed=True)  # lands on *outer*'s record

        ctx = Pipeline((Composite(),)).run(ctx_for())
        assert ctx.trace.stage_names() == ["outer", "outer.sub"]
        assert ctx.trace.last("outer").detail == {"composed": True}
        # The composite's wall time covers its sub-stages.
        assert ctx.trace.last("outer").wall_s \
            >= ctx.trace.last("outer.sub").wall_s


class TestMiddleware:
    """Guards: per-lane checks that run before every stage."""

    def test_onion_order_first_listed_outermost(self):
        events = []

        def guard(tag):
            def check(stage, ctx):
                events.append(f"{tag}>{stage.name}")
            return check

        pipe = Pipeline((Emit("s", "a", 1), Emit("t", "b", 2)),
                        guards=(guard("A"), guard("B")))
        pipe.run(ctx_for())
        assert events == ["A>s", "B>s", "A>t", "B>t"]

    def test_deadline_middleware_refuses_expired_budget(self):
        stage = Emit("translate", "a", 1)
        pipe = Pipeline((stage,), guards=(deadline_guard,))
        ctx = ctx_for(deadline=Deadline(0.0))
        with pytest.raises(DeadlineExceeded) as err:
            pipe.run(ctx)
        assert err.value.stage == "translate"
        assert stage.runs == 0  # refused before entry
        record = ctx.trace.last("translate")
        assert record.outcome == OUTCOME_ERROR
        assert record.error == "DeadlineExceeded"

    def test_deadline_middleware_noop_without_deadline(self):
        pipe = Pipeline((Emit("s", "a", 1),), guards=(deadline_guard,))
        ctx = pipe.run(ctx_for())
        assert ctx.trace.last("s").outcome == OUTCOME_OK

    def test_fault_middleware_passes_stage_and_mode(self):
        seen = []

        class Injector:
            def before(self, stage, mode=None):
                seen.append((stage, mode))
                if stage == "bad":
                    raise ServingError("injected", stage=stage,
                                      retryable=True)

        pipe = Pipeline((Emit("good", "a", 1), Emit("bad", "b", 2)),
                        guards=(FaultGuard(Injector()),))
        ctx = ctx_for(mode="context_free")
        with pytest.raises(ServingError):
            pipe.run(ctx)
        assert seen == [("good", "context_free"), ("bad", "context_free")]
        assert ctx.trace.last("bad").outcome == OUTCOME_ERROR


class TestCohort:
    def test_each_stage_is_called_once_over_every_lane(self):
        first, second = Emit("first", "a", 1), Emit("second", "b", 2)
        ctxs = [ctx_for() for _ in range(3)]
        Pipeline((first, second)).run_cohort(ctxs)
        assert first.calls == [3] and second.calls == [3]
        for ctx in ctxs:
            assert ctx.failure is None
            assert ctx.trace.stage_names() == ["first", "second"]
            assert ctx.artifacts == {"a": 1, "b": 2}

    def test_every_lane_records_the_cohort_wall(self):
        ctxs = [ctx_for() for _ in range(3)]
        Pipeline((Emit("s", "a", 1),)).run_cohort(ctxs)
        walls = {ctx.trace.last("s").wall_s for ctx in ctxs}
        assert len(walls) == 1 and walls.pop() >= 0.0

    def test_batch_identity_is_stamped_on_every_record(self):
        inner = Pipeline((Emit("outer.sub", "a", 1),))

        class Composite:
            name = "outer"

            def run(self, ctxs):
                inner.run_cohort(ctxs)

        ctxs = [ctx_for() for _ in range(2)]
        Pipeline((Composite(),)).run_cohort(ctxs, batch_id=7)
        for lane, ctx in enumerate(ctxs):
            for record in ctx.trace:
                assert record.detail == {"batch_id": 7, "batch_size": 2,
                                         "batch_lane": lane}

    def test_no_batch_identity_without_a_batch_id(self):
        ctxs = [ctx_for() for _ in range(2)]
        Pipeline((Emit("s", "a", 1),)).run_cohort(ctxs)
        assert all(ctx.trace.last("s").detail == {} for ctx in ctxs)

    def test_guard_fails_only_its_lane(self):
        def refuse_lane_one(stage, ctx):
            if ctx.question_tokens == ["bad"]:
                raise ServingError("refused", stage=stage.name)

        stage, after = Emit("s", "a", 1), Emit("t", "b", 2)
        ctxs = [ctx_for(), PipelineContext(question_tokens=["bad"]),
                ctx_for()]
        Pipeline((stage, after), guards=(refuse_lane_one,)).run_cohort(ctxs)
        assert stage.calls == [2] and after.calls == [2]
        assert isinstance(ctxs[1].failure, ServingError)
        assert ctxs[1].trace.stage_names() == ["s"]  # left the cohort
        assert ctxs[1].trace.last("s").outcome == OUTCOME_ERROR
        for ctx in (ctxs[0], ctxs[2]):
            assert ctx.failure is None
            assert ctx.artifacts == {"a": 1, "b": 2}

    def test_failing_cohort_call_is_rerun_lane_by_lane(self):
        class PoisonedLane:
            name = "s"

            def __init__(self):
                self.calls = []

            def run(self, ctxs):
                self.calls.append(len(ctxs))
                for ctx in ctxs:
                    if ctx.question_tokens == ["bad"]:
                        raise ReproError("poisoned lane")
                    ctx.artifacts["a"] = 1

        stage = PoisonedLane()
        ctxs = [ctx_for(), PipelineContext(question_tokens=["bad"]),
                ctx_for()]
        Pipeline((stage, Emit("t", "b", 2))).run_cohort(ctxs)
        assert stage.calls == [3, 1, 1, 1]
        assert ctxs[1].failure.stage == "s"
        assert ctxs[1].trace.last("s").error == "ReproError"
        assert [ctx.failure for ctx in (ctxs[0], ctxs[2])] == [None, None]
        assert all(ctx.artifacts == {"a": 1, "b": 2}
                   for ctx in (ctxs[0], ctxs[2]))

    def test_run_raises_the_lane_failure(self):
        boom = ServingError("boom")
        ctx = ctx_for()
        with pytest.raises(ServingError) as err:
            Pipeline((Emit("s", error=boom),)).run(ctx)
        assert err.value is boom and ctx.failure is boom


class TestStageTrace:
    def test_sequence_protocol_and_slicing(self):
        trace = StageTrace()
        assert not trace and len(trace) == 0
        trace.append(StageRecord(stage="a"))
        trace.append(StageRecord(stage="b"))
        assert trace and len(trace) == 2
        assert trace[0].stage == "a"
        assert [r.stage for r in trace[1:]] == ["b"]
        assert trace.last("missing") is None

    def test_record_to_dict_shapes(self):
        ok = StageRecord(stage="annotate", wall_s=0.5)
        payload = ok.to_dict()
        assert payload["stage"] == "annotate"
        assert payload["outcome"] == OUTCOME_OK
        assert "error" not in payload and "detail" not in payload
        bad = StageRecord(stage="x", outcome=OUTCOME_ERROR,
                          error="ReproError", message="nope",
                          detail={"k": 1})
        payload = bad.to_dict()
        assert payload["error"] == "ReproError"
        assert payload["message"] == "nope"
        assert payload["detail"] == {"k": 1}

    def test_executor_labels_errors_without_stage_attribute(self):
        # Core errors (ModelError, AnnotationError…) don't predefine
        # ``stage``; the executor must attach it dynamically.
        err = ReproError("x")
        assert getattr(err, "stage", None) is None
        pipe = Pipeline((Emit("s", error=err),))
        with pytest.raises(ReproError):
            pipe.run(ctx_for())
        assert err.stage == "s"
