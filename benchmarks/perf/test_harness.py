"""Self-tests of the serving benchmark's harness.

They use stub services and hand-built spans: no model is trained, and
the whole file runs in a few seconds::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import check
import workloads
from layers import Tracer, coverage, queue_waits, self_times
from record import SCHEMA_VERSION, read_record, write_record
from run import verdict
from stats import beyond, percentile, quartiles, spread


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("outer")
    clock.now = 1.0
    a = tracer.open("a")
    clock.now = 2.0
    grandchild = tracer.open("g")
    clock.now = 3.0
    tracer.close(grandchild)
    clock.now = 4.0
    tracer.close(a)
    clock.now = 5.0
    b = tracer.open("b")
    clock.now = 7.0
    tracer.close(b)
    clock.now = 10.0
    tracer.close(outer)

    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(10 - 3 - 2)
    assert own[a.id] == pytest.approx(3 - 1)
    assert own[grandchild.id] == pytest.approx(1)
    assert own[b.id] == pytest.approx(2)
    assert grandchild.parent == a.id and a.parent == outer.id
    assert coverage(tracer.spans, ("outer",)) == pytest.approx(0.5)


def test_cross_thread_spans_are_not_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    other: list = []

    def worker():
        span = tracer.open("elsewhere")
        time.sleep(0.02)
        tracer.close(span)
        other.append(span)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tracer.close(outer)

    (span,) = other
    assert span.parent is None and span.thread != outer.thread
    own = self_times(tracer.spans)
    # The other thread's span lies inside ``outer`` in time but is not
    # its child, so nothing is subtracted.
    assert own[outer.id] == pytest.approx(outer.duration)


def test_overlapping_children_are_counted_once():
    from layers import Span
    parent = Span(0, "p", 0.0, None, 1, None, None)
    parent.end = 10.0
    first = Span(1, "c", 2.0, 0, 1, None, None)
    first.end = 6.0
    second = Span(2, "c", 4.0, 0, 2, None, None)  # another thread
    second.end = 12.0
    own = self_times([parent, first, second])
    assert own[0] == pytest.approx(10.0 - 8.0)  # covered: 2..10


def test_queue_wait_runs_from_admission_to_first_dispatch():
    from layers import Span
    key = (("q",), 1)
    admit = Span(0, "serving.submit", 1.0, None, 1, 0, {"keys": [key]})
    admit.end = 1.1
    first = Span(1, "nlidb.cohort", 1.5, None, 2, None,
                 {"keys": [key, (("r",), 1)]})
    first.end = 2.0
    later = Span(2, "pipeline.run", 2.5, None, 2, None, {"keys": [key]})
    later.end = 3.0
    assert queue_waits([admit, first, later]) == [pytest.approx(0.5)]


def test_request_id_follows_the_request_across_threads():
    tracer = Tracer()
    key = (("q",), 7)
    admit = tracer.open("serving.submit", {"keys": [key]})
    tracer.close(admit)
    seen = []

    def worker():
        run = tracer.open("pipeline.run", {"keys": [key]})
        child = tracer.open("mention.score")
        tracer.close(child)
        tracer.close(run)
        seen.extend([run, child])

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert admit.rid is not None
    assert [span.rid for span in seen] == [admit.rid, admit.rid]


def test_wrappers_install_and_restore():
    from repro.pipeline.executor import Pipeline
    from repro.serving.service import TranslationService
    original = Pipeline.__dict__["run"]
    static = TranslationService.__dict__["_cache_hit"]
    tracer = Tracer()
    with tracer:
        assert Pipeline.__dict__["run"] is not original
        wrapped = TranslationService.__dict__["_cache_hit"]
        assert isinstance(wrapped, staticmethod) and wrapped is not static
    assert Pipeline.__dict__["run"] is original
    assert TranslationService.__dict__["_cache_hit"] is static
    assert tracer.missing == []


# ----------------------------------------------------------------------
# Percentiles and spread
# ----------------------------------------------------------------------


def test_percentiles_match_numpy_and_count_the_tail():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=997).tolist()
    for q in (0, 50, 95, 99, 100):
        assert percentile(samples, q) == pytest.approx(
            float(np.percentile(samples, q)))
    values = list(range(1, 101))
    assert beyond(values, 95) == 5
    assert beyond(values, 50) == 50
    assert beyond(values, 100) == 0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_match_statistics_quantiles():
    values = [3.1, 2.9, 3.3, 3.0, 3.8, 2.7, 3.2, 3.05, 3.15, 2.95]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_verdict_applies_bound_and_spread():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [10.2, 10.3, 10.1, 10.2, 10.25], "lower",
                   0.1)[0] == "ok"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.05], "lower",
                   0.1)[0] == "REGRESSED"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], "higher",
                   0.1)[0] == "REGRESSED"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(base, [5.0, 9.0, 6.0, 8.0, 7.0], "lower",
                   0.1)[0] == "better"


def test_verdict_with_an_absolute_bound():
    # Accuracy at seeds 1..5: exact per seed, so the spread across seeds
    # never makes a same-seed comparison unresolved.
    accuracy = [0.59, 0.61, 0.63, 0.65, 0.67]
    lower = [value - 0.005 for value in accuracy]
    assert verdict(accuracy, lower, "higher", 0.01,
                   absolute=True) == ("ok", pytest.approx(0.005))
    # A drop a relative bound of a quarter would wave through.
    dropped = [value - 0.15 for value in accuracy]
    assert verdict(accuracy, dropped, "higher", 0.01,
                   absolute=True)[0] == "REGRESSED"
    assert verdict(accuracy, dropped, "higher", 0.25)[0] == "ok"


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------


def test_open_loop_schedule_is_fixed_by_the_seed():
    first = workloads.make_inputs("interactive", seed=3, seconds=2)
    again = workloads.make_inputs("interactive", seed=3, seconds=2)
    other = workloads.make_inputs("interactive", seed=4, seconds=2)
    assert first.due == again.due
    assert [r.question for r in first.requests] == \
        [r.question for r in again.requests]
    assert first.due != other.due
    assert len(first.due) == round(workloads.RATE_QPS * 2)
    assert first.due == sorted(first.due)
    assert len({(r.question, r.table.name) for r in first.requests}) == \
        len(first.requests)


@pytest.mark.parametrize("workload", ["batch", "hot_cache"])
def test_run_length_fixes_the_request_count(workload):
    count = workloads.request_count(workload, 1.0)
    inputs = workloads.make_inputs(workload, seed=3, seconds=1.0)
    assert len(inputs.order) == count
    if workload == "batch":
        assert count % workloads.BATCH_SIZE == 0
    head = inputs.head(5)
    assert head.order == inputs.order[:5] and head.due is None


class StallingService:
    """Resolves each request on submit, after a fixed stall."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s
        self.sent = 0

    def submit(self, question, table):
        from repro.serving.results import TranslationResult
        time.sleep(self.stall_s)
        self.sent += 1
        future: Future = Future()
        future.set_result(TranslationResult(status="ok", sql="SELECT 1"))
        return future


def test_open_loop_counts_lateness_and_times_from_due():
    inputs = workloads.Inputs(
        "interactive", [workloads.Request(("q",), None, None)] * 10,
        [0] * 10, due=[i * 0.001 for i in range(10)])
    service = StallingService(stall_s=0.02)
    measured = workloads.open_loop(service, inputs)
    assert service.sent == 10
    # Each stall pushes every later send past its due time.
    assert measured.late[0] < 0.01
    assert measured.late[-1] >= 0.15
    assert all(b >= a - 1e-3 for a, b in zip(measured.late,
                                             measured.late[1:]))
    for latency, late in zip(measured.latencies, measured.late):
        assert latency >= late
    assert measured.outcomes == [("ok", "SELECT 1", None)] * 10


# ----------------------------------------------------------------------
# Error classification and the gate
# ----------------------------------------------------------------------


def _results():
    from repro.errors import ServingError
    from repro.serving.results import TranslationResult
    ok = TranslationResult(status="ok", sql="SELECT x FROM t")
    wrong = TranslationResult(status="failed", error={
        "type": "RecoveryError", "message": "no symbol"})
    degraded = TranslationResult(status="degraded", sql="SELECT y FROM t",
                                 error={"type": "ModelError"})
    failed = TranslationResult.from_failure(ServingError("boom"))
    return ok, wrong, degraded, failed


def test_error_classification():
    ok, wrong, degraded, failed = _results()
    classes = [check.classify(workloads.outcome(r))
               for r in (ok, wrong, degraded, failed, None)]
    assert classes == [check.ANSWERED, check.WRONG, check.ERROR,
                       check.ERROR, check.UNRESOLVED]


class StubReference:
    def __init__(self, sql_by_question):
        self.sql_by_question = sql_by_question

    def translate(self, question, table):
        from repro.sqlengine import parse_sql
        sql = self.sql_by_question[" ".join(question)]

        class _T:
            query = parse_sql(sql) if sql is not None else None
        return _T()


def _table():
    from repro.sqlengine import Column, DataType, Table
    return Table("films", [Column("title", DataType.TEXT),
                           Column("year", DataType.REAL)],
                 [["alpha", 1999], ["beta", 2004]])


def test_gate_scores_accuracy_and_flags_mismatches():
    from repro.sqlengine import parse_sql
    table = _table()
    gold_a = parse_sql("SELECT title FROM films WHERE year = 1999")
    gold_b = parse_sql("SELECT title FROM films WHERE year = 2004")
    requests = [workloads.Request(("a",), table, gold_a),
                workloads.Request(("b",), table, gold_b),
                workloads.Request(("c",), table, gold_b)]
    served = [("ok", gold_a.to_sql(), None),
              ("ok", gold_a.to_sql(), None),        # wrong answer
              ("failed", None, "RecoveryError")]    # wrong, not failed
    reference = StubReference({"a": gold_a.to_sql(), "b": gold_a.to_sql(),
                               "c": None})
    result = check.gate(reference, requests, [0, 1, 2], served)
    assert result["exec_correct"] == 1
    assert result["exec_accuracy"] == pytest.approx(1 / 3)
    assert result["recovery_errors"] == 1
    assert result["errors"] == 0 and result["fatal"] == []

    reference.sql_by_question["b"] = gold_b.to_sql()
    result = check.gate(reference, requests, [0, 1, 2], served)
    assert result["errors"] == 1 and len(result["mismatches"]) == 1
    assert result["fatal"]

    inconsistent = check.gate(reference, requests, [0, 0],
                              [served[0], ("ok", gold_b.to_sql(), None)])
    assert inconsistent["inconsistent"] == 1 and inconsistent["fatal"]


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def test_record_survives_write_and_read(tmp_path):
    record = {
        "env": {"schema_version": SCHEMA_VERSION, "nproc": 2, "seed": 7,
                "PYTHONHASHSEED": "0"},
        "workloads": {"batch": {"metrics": {
            "throughput_qps": {"value": 0.1 + 0.2, "unit": "1/s",
                               "samples": 640}}}},
        "samples": [1e-9, 123456.789, -0.0],
    }
    path = tmp_path / "records" / "run.json"
    write_record(path, record)
    assert read_record(path) == record
    assert not list(path.parent.glob("*.tmp"))


def test_record_with_another_schema_is_refused(tmp_path):
    path = tmp_path / "old.json"
    write_record(path, {"env": {"schema_version": SCHEMA_VERSION + 1}})
    with pytest.raises(ValueError):
        read_record(path)
