"""Outside-in layer spans for the traced benchmark pass.

The program under test carries no tracing of its own at these
boundaries, so the benchmark wraps the public entry points of each layer
(and a few private service methods: the batch executor, the only place
a micro-batch is visible, and the cache-hit steps of admission) and
records one span per call: name, start, end, parent span,
thread, request id and a few call attributes.  Spans live in memory and
are written out as JSON lines when the run ends.

A layer's self time is its spans' duration minus the part of each
interval that child spans cover.  Children are found through the parent
link, so work on another thread that merely overlaps in time is never
subtracted.

Where a module imported a function by name (``table_fingerprint``,
``compute_influence``, ...), the wrapper is installed on that module's
name, because patching the defining module would not reach it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter

from stats import percentile

__all__ = ["Span", "Tracer", "TARGETS", "UNITS", "self_times", "coverage",
           "queue_waits", "layer_metrics"]


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "rid",
                 "attrs")

    def __init__(self, id, name, start, parent, thread, rid, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.rid = rid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "rid": self.rid,
                "attrs": self.attrs}


def _question_key(question, table) -> tuple:
    """The (question tokens, table identity) pair a request travels as."""
    if isinstance(question, str):
        from repro.text import tokenize
        question = tokenize(question)
    return tuple(question), id(table)


def _request_key(item) -> tuple | None:
    question = getattr(item, "question", None)
    if question is not None:
        return _question_key(question, item.table)
    if isinstance(item, (tuple, list)) and len(item) >= 2:
        return _question_key(item[0], item[1])
    return None


# -- call attributes ----------------------------------------------------
# Each takes the wrapped call's (args, kwargs) and returns the span's
# attributes; for methods args[0] is the instance.


def _submit_attrs(args, kwargs):
    table = args[2] if len(args) > 2 else kwargs.get("table")
    key = (_question_key(args[1], table) if table is not None
           else _request_key(args[1]))
    return {"keys": [key]}


def _batch_call_attrs(args, kwargs):
    # The benchmark passes lists, so reading the items here leaves them
    # intact for the service.
    return {"keys": [_request_key(item) for item in args[1]]}


def _pipeline_attrs(args, kwargs):
    ctx = args[1]
    return {"keys": [_question_key(ctx.question_tokens, ctx.table)]}


def _cohort_attrs(args, kwargs):
    return {"keys": [_question_key(tokens, table)
                     for tokens, table, _width in args[1]]}


def _score_attrs(args, kwargs):
    encoded = kwargs.get("encoded")
    if encoded is not None:
        return {"columns": len(encoded)}
    columns = args[2] if len(args) > 2 else kwargs.get("columns") or ()
    return {"columns": len(columns)}


def _score_multi_attrs(args, kwargs):
    return {"columns": sum(len(encoded) for _q, encoded in args[1])}


def _lanes_one(args, kwargs):
    return {"lanes": 1}


def _lanes_many(args, kwargs):
    return {"lanes": len(args[1])}


#: (module, attribute path, span name, attribute function).  Order
#: matters only for readability; every target is installed at once.
TARGETS = (
    ("repro.serving.service", "TranslationService.submit",
     "serving.submit", _submit_attrs),
    ("repro.serving.service", "TranslationService.translate_batch",
     "serving.translate_batch", _batch_call_attrs),
    # The batch executor is private, but it is the only boundary where
    # the worker thread's busy time is visible; it roots worker spans.
    ("repro.serving.service", "TranslationService._process_batch",
     "serving.batch", None),
    # Admission on the caller's thread: what a cache hit costs besides
    # the fingerprint and the lookup.
    ("repro.serving.service", "as_request", "serving.normalise", None),
    ("repro.caching", "LRUCache.get", "serving.cache_lookup", None),
    ("repro.serving.service", "TranslationService._cache_hit",
     "serving.cache_hit", None),
    ("repro.serving.service", "TranslationService._finish",
     "serving.finish", None),
    ("repro.serving.metrics", "MetricsRegistry.increment",
     "serving.metrics", None),
    ("repro.serving.results", "TranslationResult.from_translation",
     "serving.envelope", None),
    ("repro.serving.service", "table_fingerprint",
     "sqlengine.fingerprint", None),
    ("repro.serving.requests", "table_fingerprint",
     "sqlengine.fingerprint", None),
    ("repro.core.annotator", "table_fingerprint",
     "sqlengine.fingerprint", None),
    ("repro.core.schema", "table_fingerprint",
     "sqlengine.fingerprint", None),
    ("repro.pipeline.executor", "Pipeline.run", "pipeline.run",
     _pipeline_attrs),
    ("repro.core.mention.matcher", "ColumnMatcher.find_cell_values",
     "values.cell_match", None),
    ("repro.core.mention.value_classifier",
     "ValueDetectionClassifier.predict_proba", "values.classifier", None),
    ("repro.core.annotator", "build_schema_encoding", "schema.build", None),
    ("repro.core.mention.matcher", "ColumnMatcher.best",
     "mention.matcher", None),
    ("repro.core.mention.column_classifier",
     "ColumnMentionClassifier.score_columns", "mention.score",
     _score_attrs),
    ("repro.core.mention.column_classifier",
     "ColumnMentionClassifier.score_columns_multi", "mention.score",
     _score_multi_attrs),
    ("repro.core.annotator", "compute_influence", "mention.influence",
     None),
    ("repro.core.seq2seq.model", "AnnotatedSeq2Seq.translate",
     "seq2seq.decode", _lanes_one),
    ("repro.core.seq2seq.model", "AnnotatedSeq2Seq.translate_many",
     "seq2seq.decode", _lanes_many),
    ("repro.core.nlidb", "NLIDB.cohort_artifacts", "nlidb.cohort",
     _cohort_attrs),
    ("repro.core.nlidb", "recover_sql", "recover", None),
)

#: Every per-layer metric of a traced run and its unit: the ones
#: :func:`layer_metrics` derives from spans, the ones read from service
#: and model counters, the harness's own validity checks, and the
#: set-up phases of the cold starts.
UNITS = {
    "serving.submit_us": "us",
    "serving.cache_hit_ratio": "ratio",
    "serving.batch_size_mean": "count",
    "serving.coalesced_ratio": "ratio",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p95_ms": "ms",
    "sqlengine.fingerprint_calls_per_req": "count",
    "sqlengine.fingerprint_ms_per_req": "ms",
    "pipeline.self_ms_per_req": "ms",
    "values.cell_match_ms_per_req": "ms",
    "values.classifier_calls_per_req": "count",
    "values.classifier_ms_per_req": "ms",
    "annotate.values_p50_ms": "ms",
    "schema.cache_hit_ratio": "ratio",
    "schema.build_ms_per_req": "ms",
    "mention.matcher_ms_per_req": "ms",
    "mention.score_ms_per_req": "ms",
    "mention.columns_per_score_call": "count",
    "mention.influence_calls_per_req": "count",
    "mention.influence_ms_per_req": "ms",
    "seq2seq.decode_ms_per_req": "ms",
    "seq2seq.lanes_per_call": "count",
    "nlidb.cohort_self_ms_per_req": "ms",
    "recover.ms_per_req": "ms",
    "nn.tensor_allocs_per_req": "count",
    "nn.arena_grows": "count",
    "loadgen.late_p95_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "setup.import_s": "s",
    "setup.load_s": "s",
    "setup.warmup_s": "s",
}

#: Spans that start a request's journey on the caller's thread.
_ADMISSION = ("serving.submit", "serving.translate_batch")
#: Spans that show a queued request reaching the model.
_DISPATCH = ("pipeline.run", "nlidb.cohort")


class Tracer:
    """Records spans from wrapped callables; install/uninstall patches.

    Parent links follow a per-thread stack of open spans, and a span
    inherits its parent's request id.  Admission spans mint one id per
    request they carry; a dispatch span on the worker thread looks the id
    up by the request's (question, table) key, so every span of a request
    shares its id.  A cohort span carries several requests, so it lists
    their ids in ``attrs["rids"]`` instead.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._rids = itertools.count()
        self._rid_by_key: dict[tuple, int] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None,
             start: float | None = None) -> Span:
        start = self.clock() if start is None else start
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = parent.rid if parent is not None else None
        if name in _ADMISSION and attrs:
            rids = [next(self._rids) for _ in attrs["keys"]]
            self._rid_by_key.update(zip(attrs["keys"], rids))
            attrs["rids"] = rids
            rid = rids[0] if len(rids) == 1 else None
        elif name in _DISPATCH and attrs and rid is None:
            rids = [self._rid_by_key.get(key) for key in attrs["keys"]]
            attrs["rids"] = rids
            rid = rids[0] if len(rids) == 1 else None
        span = Span(next(self._ids), name, start,
                    parent.id if parent is not None else None,
                    threading.get_ident(), rid, attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        self._stack().pop()
        self.spans.append(span)
        span.end = self.clock()

    def wrap(self, fn, name: str, attrs_fn=None):
        """``fn`` recording one span per call.

        The span opens before the wrapper's own bookkeeping and closes
        after it, so the cost of tracing a call is charged to that call
        and not to its caller's self time.
        """
        tracer = self
        clock = self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            span = tracer.open(name, attrs_fn(args, kwargs)
                               if attrs_fn is not None else None, start)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    # -- patching -------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, path, name, attrs_fn in targets:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self.wrap(original.__func__, name,
                                                   attrs_fn))
            else:
                wrapped = self.wrap(original, name, attrs_fn)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.to_dict()) + "\n")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = _children(spans)
    return {span.id: span.duration - _covered(
        [(c.start, c.end) for c in children.get(span.id, ())],
        span.start, span.end) for span in spans}


def coverage(spans, roots) -> float:
    """Share of the ``roots`` spans' time that their child spans cover."""
    children = _children(spans)
    busy = sum(span.duration for span in spans if span.name in roots)
    if busy <= 0:
        return 0.0
    covered = sum(_covered([(c.start, c.end)
                            for c in children.get(span.id, ())],
                           span.start, span.end)
                  for span in spans if span.name in roots)
    return covered / busy


def queue_waits(spans) -> list[float]:
    """Per request: first dispatch span start minus its admission time."""
    admitted: dict[tuple, float] = {}
    for span in spans:
        if span.name in _ADMISSION and span.attrs:
            for key in span.attrs["keys"]:
                admitted.setdefault(key, span.start)
    reached: dict[tuple, float] = {}
    for span in spans:
        if span.name in _DISPATCH and span.attrs:
            for key in span.attrs["keys"]:
                if key in admitted and span.start >= admitted[key]:
                    reached[key] = min(reached.get(key, span.start),
                                       span.start)
    return [reached[key] - admitted[key] for key in reached]


def layer_metrics(spans, requests: int) -> dict[str, float]:
    """The span-derived per-layer metrics, normalised per request."""
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for span in spans:
        count[span.name] += 1
        self_s[span.name] += own[span.id]
        inclusive[span.name] += span.duration

    requests = max(requests, 1)

    def per_req_ms(name):
        return 1e3 * self_s[name] / requests

    def per_req(n):
        return n / requests

    def outermost(name):
        return [s for s in spans if s.name == name and not (
            s.parent is not None and by_id[s.parent].name == name)]

    decodes = outermost("seq2seq.decode")
    scores = outermost("mention.score")
    waits = queue_waits(spans)
    return {
        "serving.submit_us": (1e6 * inclusive["serving.submit"]
                              / count["serving.submit"]
                              if count["serving.submit"] else 0.0),
        "serving.queue_wait_p50_ms": (1e3 * percentile(waits, 50)
                                      if waits else 0.0),
        "serving.queue_wait_p95_ms": (1e3 * percentile(waits, 95)
                                      if waits else 0.0),
        "sqlengine.fingerprint_calls_per_req":
            per_req(count["sqlengine.fingerprint"]),
        "sqlengine.fingerprint_ms_per_req":
            per_req_ms("sqlengine.fingerprint"),
        "pipeline.self_ms_per_req": per_req_ms("pipeline.run"),
        "values.cell_match_ms_per_req": per_req_ms("values.cell_match"),
        "values.classifier_calls_per_req":
            per_req(count["values.classifier"]),
        "values.classifier_ms_per_req": per_req_ms("values.classifier"),
        "schema.build_ms_per_req": per_req_ms("schema.build"),
        "mention.matcher_ms_per_req": per_req_ms("mention.matcher"),
        "mention.score_ms_per_req": per_req_ms("mention.score"),
        "mention.columns_per_score_call": (
            sum(s.attrs["columns"] for s in scores) / len(scores)
            if scores else 0.0),
        "mention.influence_calls_per_req":
            per_req(count["mention.influence"]),
        "mention.influence_ms_per_req": per_req_ms("mention.influence"),
        "seq2seq.decode_ms_per_req": per_req_ms("seq2seq.decode"),
        "seq2seq.lanes_per_call": (
            sum(s.attrs["lanes"] for s in decodes) / len(decodes)
            if decodes else 0.0),
        "nlidb.cohort_self_ms_per_req": per_req_ms("nlidb.cohort"),
        "recover.ms_per_req": per_req_ms("recover"),
    }
