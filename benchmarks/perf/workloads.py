"""The four traffic mixes the serving benchmark replays, and the client
loops that drive a service with them.

Every input comes from the workload seed and the run length; the model
never sees the seed.  A run sends a fixed number of requests, so two
programs given the same seed and length serve the same questions.
Tables are generated fresh for each seed, so none of them was seen in
training — the paper's transfer setting.

* ``interactive`` — independent users: an open loop with one arrival at
  a random time in each slot of a fixed rate, each request a distinct
  question, so the translation cache is never hit.  Latency runs from
  when a request was due, which charges a stall to every request queued
  behind it.
* ``batch`` — a caller that sends 64 distinct questions per
  ``translate_batch`` call and waits for all of them: cross-request
  coalescing is always engaged.
* ``hot_cache`` — one client repeating Zipf-distributed questions over
  256 pairs warmed before timing: only the admission path runs.
* ``wide_tables`` — one client over more 400-row tables than the
  schema-encoding cache holds, so per-table work (fingerprints, value
  statistics, schema encodings) is redone and the caches churn.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the program is imported by the child processes only
    from repro.sqlengine import Query, Table

__all__ = ["WORKLOADS", "Request", "Inputs", "Pass", "make_inputs",
           "request_count", "warm_requests", "run", "outcome", "open_loop",
           "closed_loop", "batch_loop"]

WORKLOADS = ("interactive", "batch", "hot_cache", "wide_tables")

#: Offered load of ``interactive``: about a fifth of the single-worker
#: capacity measured on a 2-core box, so latency is mostly service time.
#: At a third of capacity (20 req/s) queueing amplified any slowdown of
#: a shared machine: a slowdown that took p50 up by 78% at 12 req/s
#: took it up by 137% at 20 req/s.
RATE_QPS = 12.0
#: Requests each workload sends per second of ``--seconds``: its rate on
#: the 2-core reference box, so a run lasts about ``--seconds`` there.
#: The count is fixed before the run starts, never by a clock, so a
#: faster or slower program serves exactly the same requests and its
#: accuracy is scored on the same questions.
REQUESTS_PER_SECOND = {"interactive": RATE_QPS, "batch": 64.0,
                       "hot_cache": 13_000.0, "wide_tables": 20.0}
BATCH_SIZE = 64
HOT_PAIRS = 256
ZIPF_S = 1.1
SMALL_ROWS, SMALL_TABLES_PER_DOMAIN = 12, 2          # 22 tables
WIDE_ROWS, WIDE_TABLES_PER_DOMAIN = 400, 10          # 110 tables
#: Seconds a submitted request may stay unresolved after the schedule
#: ends before it counts as lost.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    question: tuple[str, ...]
    table: Table
    gold: Query


@dataclass
class Inputs:
    """One workload's generated traffic.

    ``order`` lists request indices in the order they are sent; the open
    loop also has ``due``, each send's offset in seconds from the start.
    """

    workload: str
    requests: list[Request]
    order: list[int]
    due: list[float] | None = None
    warm: bool = False

    def head(self, count: int) -> "Inputs":
        """The same traffic cut to its first ``count`` sends."""
        return Inputs(self.workload, self.requests, self.order[:count],
                      None if self.due is None else self.due[:count],
                      self.warm)


@dataclass
class Pass:
    """What one timed pass observed.

    ``outcomes[i]`` is the compact outcome of the ``i``-th request sent
    (``order[i]``); ``latencies`` holds one sample per client operation
    (a request, or a whole ``translate_batch`` call).
    """

    order: list[int]
    outcomes: list[tuple]
    latencies: list[float]
    wall_s: float
    late: list[float] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.outcomes)


def _distinct(examples, limit: int) -> list[Request]:
    seen: set = set()
    out: list[Request] = []
    for example in examples:
        key = (tuple(example.question_tokens), example.table.name)
        if key in seen:
            continue
        seen.add(key)
        out.append(Request(tuple(example.question_tokens), example.table,
                           example.query))
        if len(out) == limit:
            break
    if len(out) < limit:
        raise ValueError(f"generated only {len(out)} distinct requests, "
                         f"{limit} needed")
    return out


def _pool(rng, size: int, split: str, rows: int,
          tables_per_domain: int) -> list[Request]:
    from repro.data.domains import training_domains
    from repro.data.wikisql import generate_split
    # A third more than needed absorbs the generator's repeats.
    examples = generate_split(training_domains(), size + size // 3 + 16,
                              split, rng, rows_per_table=rows,
                              tables_per_domain=tables_per_domain)
    return _distinct(examples, size)


def request_count(workload: str, seconds: float) -> int:
    """How many requests ``workload`` sends in a run of ``seconds``
    (whole ``translate_batch`` calls on ``batch``)."""
    count = round(REQUESTS_PER_SECOND[workload] * seconds)
    if workload == "batch":
        return BATCH_SIZE * max(1, round(count / BATCH_SIZE))
    return max(1, count)


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """Generate one workload's traffic from its seed and run length."""
    import numpy as np
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    split = f"{workload}{seed}"
    count = request_count(workload, seconds)
    if workload == "hot_cache":
        requests = _pool(rng, HOT_PAIRS, split, SMALL_ROWS,
                         SMALL_TABLES_PER_DOMAIN)
        weights = np.arange(1, HOT_PAIRS + 1, dtype=np.float64) ** -ZIPF_S
        ranks = rng.choice(HOT_PAIRS, size=count, p=weights / weights.sum())
        # Which pair is popular is itself random, not generation order.
        popular = rng.permutation(HOT_PAIRS)
        return Inputs(workload, requests, popular[ranks].tolist(),
                      warm=True)
    # Every other workload sends each of its requests once.
    if workload == "wide_tables":
        requests = _pool(rng, count, split, WIDE_ROWS, WIDE_TABLES_PER_DOMAIN)
    else:
        requests = _pool(rng, count, split, SMALL_ROWS,
                         SMALL_TABLES_PER_DOMAIN)
    due = None
    if workload == "interactive":
        # One arrival at a uniformly random time inside each 1/rate
        # slot.  Poisson arrivals were tried first: at 20 req/s their
        # clumps made a run's tail depend on where the clumps fell (p95
        # 74-111 ms over four seeds, against 48-59 ms for these slots).
        due = ((np.arange(count) + rng.uniform(0.0, 1.0, count))
               / RATE_QPS).tolist()
    return Inputs(workload, requests, list(range(count)), due=due)


def warm_requests(count: int = 16) -> list[Request]:
    """A fixed, seed-independent set of requests that warms a service."""
    import numpy as np
    return _pool(np.random.default_rng(2 ** 31 - 1), count, "warmup",
                 SMALL_ROWS, 1)


def outcome(result) -> tuple[str, str | None, str | None]:
    """``(status, sql, error type)`` of a served envelope.

    Kept instead of the envelope itself: a hot-cache run serves hundreds
    of thousands of requests, and each envelope carries its trace.
    """
    if result is None:
        return ("unresolved", None, None)
    error = result.error.get("type") if result.error else None
    return (result.status, result.sql, error)


# ----------------------------------------------------------------------
# Client loops
# ----------------------------------------------------------------------


def _stamp(done_at: list, index: int, clock, _future) -> None:
    done_at[index] = clock()


def open_loop(service, inputs: Inputs, clock=perf_counter,
              sleep=time.sleep) -> Pass:
    """Send each request when due, whatever is still in flight."""
    count = len(inputs.due)
    done_at: list[float | None] = [None] * count
    futures = [None] * count
    late = [0.0] * count
    start = clock()
    for i, offset in enumerate(inputs.due):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        late[i] = now - due
        request = inputs.requests[inputs.order[i]]
        future = service.submit(request.question, request.table)
        future.add_done_callback(partial(_stamp, done_at, i, clock))
        futures[i] = future
    wait(futures, timeout=DRAIN_TIMEOUT_S)
    end = clock()
    outcomes = []
    for future in futures:
        if not future.done():
            outcomes.append(("unresolved", None, None))
        elif future.exception() is not None:
            outcomes.append(("exception", None,
                             type(future.exception()).__name__))
        else:
            outcomes.append(outcome(future.result()))
    latencies = [done - (start + offset)
                 for done, offset in zip(done_at, inputs.due)
                 if done is not None]
    last = max((done for done in done_at if done is not None), default=end)
    return Pass(list(inputs.order), outcomes, latencies, last - start, late)


def closed_loop(service, inputs: Inputs, clock=perf_counter) -> Pass:
    """One client: send the next request when the last one returned."""
    requests = inputs.requests
    outcomes, latencies = [], []
    start = t1 = clock()
    for index in inputs.order:
        request = requests[index]
        t0 = clock()
        result = service.translate(request.question, request.table)
        t1 = clock()
        latencies.append(t1 - t0)
        outcomes.append(outcome(result))
    return Pass(list(inputs.order), outcomes, latencies, t1 - start)


def batch_loop(service, inputs: Inputs, clock=perf_counter) -> Pass:
    """One caller sending ``BATCH_SIZE`` requests per call."""
    order = inputs.order
    calls = [[(inputs.requests[j].question, inputs.requests[j].table)
              for j in order[i:i + BATCH_SIZE]]
             for i in range(0, len(order), BATCH_SIZE)]
    outcomes, latencies = [], []
    start = t1 = clock()
    for call in calls:
        t0 = clock()
        results = service.translate_batch(call)
        t1 = clock()
        latencies.append(t1 - t0)
        outcomes.extend(outcome(result) for result in results)
    return Pass(list(order), outcomes, latencies, t1 - start)


def run(service, inputs: Inputs) -> Pass:
    """Send all of ``inputs`` the way its workload does."""
    if inputs.workload == "interactive":
        return open_loop(service, inputs)
    if inputs.workload == "batch":
        return batch_loop(service, inputs)
    return closed_loop(service, inputs)
