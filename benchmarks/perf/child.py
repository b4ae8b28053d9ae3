"""One benchmark process, started by ``run.py``.

    python child.py build --out DIR
    python child.py setup --model DIR
    python child.py serve --model DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --out FILE [--spans FILE]

``build`` trains the benchmark's model and saves it.  ``setup`` cold
starts a service — imports, checkpoint load, service construction and a
fixed warm-up — prints one ``READY <json>`` line on stdout and exits;
``run.py`` times process start to that line as one set-up sample.
``serve`` does the same cold start and then serves one workload in this
fresh interpreter: a timed untraced pass, the correctness gate and, with
``--trace 1``, a traced pass over the same requests on a second, freshly
loaded model.  ``--seconds`` sets how many requests the workload sends
(see ``workloads.REQUESTS_PER_SECOND``).  Results go to ``--out`` as
JSON.

The program itself (``repro``) is imported inside the functions, so
``run.py`` can read :data:`TRAIN` without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from time import perf_counter

import workloads
from layers import Tracer, coverage, layer_metrics
from stats import beyond, percentile

#: The model every run serves.  Fixed, so that a change to the program,
#: not to the budget, is what moves the numbers.  Training takes about a
#: minute on one core.
TRAIN = {"data_seed": 0, "train_size": 200, "test_size": 60,
         "embedding_dim": 32, "hidden": 48, "classifier_epochs": 2,
         "seq2seq_epochs": 4}

#: Requests sent under tracing at most; a hot-cache run sends ten times
#: more, and every traced request holds its spans in memory and in the
#: span dump.
TRACE_LIMIT = 20_000


def build(out: str) -> None:
    start = perf_counter()
    from repro.core import NLIDB, NLIDBConfig
    from repro.core.persistence import load_nlidb, save_nlidb
    from repro.core.seq2seq.model import Seq2SeqConfig
    from repro.data import generate_wikisql_style
    from repro.text import WordEmbeddings
    from check import exec_correct

    t = perf_counter()
    data = generate_wikisql_style(seed=TRAIN["data_seed"],
                                  train_size=TRAIN["train_size"],
                                  dev_size=0, test_size=TRAIN["test_size"])
    data_s = perf_counter() - t
    config = NLIDBConfig(
        classifier_epochs=TRAIN["classifier_epochs"],
        seq2seq_epochs=TRAIN["seq2seq_epochs"],
        seq2seq=Seq2SeqConfig(hidden=TRAIN["hidden"],
                              attention_dim=TRAIN["hidden"]))
    t = perf_counter()
    model = NLIDB(WordEmbeddings(dim=TRAIN["embedding_dim"], seed=0),
                  config).fit(data.train)
    train_s = perf_counter() - t
    t = perf_counter()
    save_nlidb(model, out)
    model = load_nlidb(out)
    save_load_s = perf_counter() - t
    correct = 0
    for example in data.test:
        translation = model.translate(example.question_tokens, example.table)
        if translation.query is not None and exec_correct(
                translation.query.to_sql(),
                workloads.Request(tuple(example.question_tokens),
                                  example.table, example.query)):
            correct += 1
    info = {"train": TRAIN, "data_s": data_s, "train_s": train_s,
            "save_load_s": save_load_s,
            "test_exec_accuracy": correct / len(data.test),
            "build_s": perf_counter() - start}
    with open(f"{out}/build.json", "w", encoding="utf-8") as handle:
        json.dump(info, handle, indent=2)


def cold_start(model_dir: str):
    """Import, load, construct and warm; returns the service and phases."""
    t0 = perf_counter()
    from repro.core.persistence import load_nlidb
    from repro.serving import TranslationService
    t1 = perf_counter()
    model = load_nlidb(model_dir)
    t2 = perf_counter()
    service = TranslationService(model)
    warm_up(service, workloads.warm_requests())
    t3 = perf_counter()
    return model, service, {"import_s": t1 - t0, "load_s": t2 - t1,
                            "warmup_s": t3 - t2}


def warm_up(service, requests) -> None:
    """Run the sequential and the coalesced path once each."""
    for request in requests[:4]:
        service.translate(request.question, request.table)
    service.translate_batch([(r.question, r.table) for r in requests[4:]])


def prewarm(service, inputs: workloads.Inputs) -> None:
    """Serve a workload's pairs once before timing, if it asks for that,
    then collect set-up garbage (the 400-row tables alone are ~10^5
    objects) so the collector does not pay for it inside the timed pass.
    """
    if inputs.warm:
        service.translate_batch([(r.question, r.table)
                                 for r in inputs.requests])
    gc.collect()


def _counters(service, model) -> dict:
    from repro.nn import allocation_events
    stats = service.stats()
    counters = stats["counters"]
    schema = stats.get("schema_cache", {})
    arenas = model.inference_info()["arenas"].values()
    return {
        "requests": counters.get("requests", 0),
        "cache_hits": counters.get("cache_hits", 0),
        "cache_misses": counters.get("cache_misses", 0),
        "coalesced_requests": counters.get("coalesced_requests", 0),
        "batches": stats["scheduler"]["batches"],
        "dispatched": stats["scheduler"]["dispatched"],
        "schema_hits": schema.get("hits", 0),
        "schema_misses": schema.get("misses", 0),
        "allocations": allocation_events(),
        "arena_grows": sum(arena["grows"] for arena in arenas),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _timing(samples, q: float) -> dict:
    return {"value": 1e3 * percentile(samples, q), "unit": "ms",
            "samples": len(samples), "beyond": beyond(samples, q)}


def serve(args) -> dict:
    _model, service, phases = cold_start(args.model)
    print("READY " + json.dumps(phases), flush=True)
    from repro.core.persistence import load_nlidb
    from check import gate

    t = perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed, args.seconds)
    inputs_s = perf_counter() - t
    prewarm(service, inputs)
    measured = workloads.run(service, inputs)
    service.close()

    check = gate(load_nlidb(args.model), inputs.requests, measured.order,
                 measured.outcomes)
    late = measured.late
    result = {
        "workload": args.workload, "phases": phases, "inputs_s": inputs_s,
        "requests": measured.requests, "ops": len(measured.latencies),
        "wall_s": measured.wall_s, "pool": len(inputs.requests),
        "e2e": {
            "latency_p50_ms": _timing(measured.latencies, 50),
            "latency_p95_ms": _timing(measured.latencies, 95),
            "throughput_qps": {"value": measured.requests / measured.wall_s,
                               "unit": "1/s", "samples": measured.requests},
            "exec_accuracy": {"value": check["exec_accuracy"],
                              "unit": "ratio", "samples": check["distinct"]},
        },
        "check": check,
        "loadgen": {"late_p95_ms": 1e3 * percentile(late, 95) if late else 0.0,
                    "late_max_ms": 1e3 * max(late) if late else 0.0},
    }
    if args.trace:
        layers, trace = traced_pass(args, inputs.head(TRACE_LIMIT), measured)
        layers["loadgen.late_p95_ms"] = result["loadgen"]["late_p95_ms"]
        if trace["sql_mismatches"] or trace["unresolved"]:
            check["fatal"].append(
                f"traced pass: {trace['sql_mismatches']} SQL differ from the "
                f"untraced pass, {trace['unresolved']} never resolved")
        result["layers"], result["trace"] = layers, trace
    return result


def traced_pass(args, inputs: workloads.Inputs,
                measured: workloads.Pass) -> tuple[dict, dict]:
    """Send ``inputs`` again, on a fresh model under the layer wrappers,
    and compare each SQL with the one ``measured`` served.

    The wrappers go in before the service is built, because the service
    binds its batch executor at construction.  Spans and counters cover
    the traced pass only, not the warm-up.
    """
    from repro.core.persistence import load_nlidb
    from repro.serving import TranslationService

    with Tracer() as tracer:
        model = load_nlidb(args.model)
        service = TranslationService(model)
        warm_up(service, workloads.warm_requests())
        prewarm(service, inputs)
        tracer.spans.clear()
        service.metrics.reset()  # histograms then hold this pass only
        before = _counters(service, model)
        traced = workloads.run(service, inputs)
        after = _counters(service, model)
        service.close()

    delta = {key: after[key] - before[key] for key in after}
    n = traced.requests
    has_batches = any(span.name == "serving.batch" for span in tracer.spans)
    roots = ("serving.batch",) if has_batches else ("serving.submit",)
    values = service.stats()["histograms"].get("annotate.values")
    layers = layer_metrics(tracer.spans, n)
    layers.update({
        "serving.cache_hit_ratio": _ratio(delta["cache_hits"],
                                          delta["requests"]),
        "serving.batch_size_mean": _ratio(delta["dispatched"],
                                          delta["batches"]),
        "serving.coalesced_ratio": _ratio(delta["coalesced_requests"],
                                          delta["cache_misses"]),
        "schema.cache_hit_ratio": _ratio(
            delta["schema_hits"], delta["schema_hits"] + delta["schema_misses"]),
        # The envelopes' stage records, as the service's histogram holds
        # them.  A coalesced lane's record is near zero: its value
        # detection ran inside the cohort.
        "annotate.values_p50_ms": 1e3 * values["p50_s"] if values else 0.0,
        "nn.tensor_allocs_per_req": _ratio(delta["allocations"], n),
        "nn.arena_grows": float(delta["arena_grows"]),
        "trace.overhead_ratio": _ratio(
            _mean(traced.latencies),
            _mean(measured.latencies[:len(traced.latencies)])),
        "trace.coverage": coverage(tracer.spans, roots),
    })
    if args.spans:
        tracer.write_jsonl(args.spans)
    trace = {
        "spans": len(tracer.spans), "requests": n,
        "sql_mismatches": sum(1 for a, b in zip(traced.outcomes,
                                                measured.outcomes)
                              if a[1] != b[1]),
        "unresolved": sum(1 for o in traced.outcomes if o[0] == "unresolved"),
        "coverage_roots": list(roots),
        "missing_targets": tracer.missing,
    }
    return layers, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_build = sub.add_parser("build")
    p_build.add_argument("--out", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--model", required=True)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--model", required=True)
    p_serve.add_argument("--workload", required=True,
                         choices=workloads.WORKLOADS)
    p_serve.add_argument("--seed", type=int, required=True)
    p_serve.add_argument("--seconds", type=float, required=True)
    p_serve.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_serve.add_argument("--out", required=True)
    p_serve.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "build":
        build(args.out)
    elif args.mode == "setup":
        _model, service, phases = cold_start(args.model)
        service.close()
        print("READY " + json.dumps(phases), flush=True)
    else:
        result = serve(args)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
