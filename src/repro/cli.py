"""Command-line interface: generate data, train, evaluate, query, serve.

The paper's related work highlights NaLIR/NaLIX as proof that research
NLIDBs can be packaged as interactive systems; this CLI plays that role
for the reproduction::

    python -m repro.cli generate --out data.jsonl --size 200
    python -m repro.cli train --data data.jsonl --model-dir model/
    python -m repro.cli evaluate --data dev.jsonl --model-dir model/
    python -m repro.cli query --model-dir model/ --data dev.jsonl \
        --question "which film has director jerzy antczak ?"
    python -m repro.cli repl --model-dir model/ --data dev.jsonl
    python -m repro.cli serve-stats --model-dir model/ --data dev.jsonl
    python -m repro.cli serve-stats --model-dir model/ --data dev.jsonl \
        --swap
    python -m repro.cli eval-robustness --out BENCH_robustness.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import NLIDB, NLIDBConfig, evaluate, evaluate_by_sketch
from repro.core.persistence import load_nlidb, save_nlidb
from repro.core.seq2seq.model import Seq2SeqConfig
from repro.data import (
    generate_heldout,
    generate_role_typed,
    generate_wikisql_style,
    load_jsonl,
    save_jsonl,
)
from repro.errors import ReproError
from repro.serving import (
    FaultInjector,
    FaultyNLIDB,
    ResiliencePolicy,
    SchedulerPolicy,
    TranslationService,
    parse_fault_spec,
)
from repro.sqlengine import execute
from repro.text import WordEmbeddings

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Transfer-learnable NLIDB (ICDE 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a WikiSQL-style dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--size", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--split", choices=["train", "dev", "test"],
                     default="train")
    gen.add_argument("--role-typed", action="store_true",
                     help="use the role-matched intent generators "
                          "(extended SQL sketch: ORDER BY/LIMIT, "
                          "GROUP BY/HAVING, OR, NOT) instead of the "
                          "legacy per-domain templates")

    train = sub.add_parser("train", help="train an NLIDB")
    train.add_argument("--data", required=True)
    train.add_argument("--model-dir", required=True)
    train.add_argument("--hidden", type=int, default=48)
    train.add_argument("--classifier-epochs", type=int, default=3)
    train.add_argument("--seq2seq-epochs", type=int, default=10)
    train.add_argument("--embedding-dim", type=int, default=32)
    train.add_argument("--extended", action="store_true",
                       help="enable the extended SQL sketch in the "
                            "translator's output grammar")
    train.add_argument("--quiet", action="store_true")

    ev = sub.add_parser("evaluate", help="score a model on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--model-dir", required=True)
    ev.add_argument("--by-sketch", action="store_true",
                    help="additionally break accuracies out per sketch "
                         "family (filter/count/.../topn/group_agg)")

    query = sub.add_parser("query", help="translate one question")
    query.add_argument("--model-dir", required=True)
    query.add_argument("--data", required=True,
                       help="jsonl file whose first record's table is queried")
    query.add_argument("--question", required=True)
    query.add_argument("--execute", action="store_true")

    repl = sub.add_parser("repl", help="interactive question loop")
    repl.add_argument("--model-dir", required=True)
    repl.add_argument("--data", required=True)

    serve = sub.add_parser(
        "serve-stats",
        help="replay a dataset through the serving layer, print metrics")
    serve.add_argument("--model-dir", required=True)
    serve.add_argument("--data", required=True)
    serve.add_argument("--limit", type=int, default=50,
                       help="number of examples replayed per pass")
    serve.add_argument("--passes", type=int, default=2,
                       help="replay count; passes beyond the first hit "
                            "the warm translation cache")
    serve.add_argument("--batched", action="store_true",
                       help="serve each pass through translate_batch()")
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--max-queued", type=int, default=None,
                       help="queue bound; submitted requests past it get "
                            "Overloaded envelopes, --batched passes wait "
                            "for room (default: unbounded)")
    serve.add_argument("--swap", action="store_true",
                       help="swap to a freshly loaded model between "
                            "the first and second pass")
    # Resilience policy knobs (see repro.serving.ResiliencePolicy).
    serve.add_argument("--deadline-s", type=float, default=None,
                       help="per-request latency budget in seconds")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retries after the first attempt for "
                            "retryable failures")
    serve.add_argument("--backoff-base-s", type=float, default=0.05)
    serve.add_argument("--no-degradation", action="store_true",
                       help="disable the context-free fallback rung")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures tripping the breaker")
    serve.add_argument("--breaker-cooldown-s", type=float, default=30.0)
    # Deterministic fault injection (repro.serving.faults), repeatable:
    # stage:kind[:count][:latency_s], e.g. --inject annotate:transient:2
    serve.add_argument("--inject", action="append", default=[],
                       metavar="STAGE:KIND[:COUNT][:LATENCY_S]",
                       help="inject seeded faults before a stage")
    serve.add_argument("--fault-seed", type=int, default=0)

    robust = sub.add_parser(
        "eval-robustness",
        help="run the adversarial attack suite + few-shot transfer "
             "benchmark, write a BENCH_robustness.json record")
    robust.add_argument("--out", default="BENCH_robustness.json")
    robust.add_argument("--seed", type=int, default=0)
    robust.add_argument("--train-size", type=int, default=120)
    robust.add_argument("--eval-size", type=int, default=40,
                        help="clean evaluation questions attacked per family")
    robust.add_argument("--hidden", type=int, default=32)
    robust.add_argument("--classifier-epochs", type=int, default=2)
    robust.add_argument("--seq2seq-epochs", type=int, default=6)
    robust.add_argument("--shots", default="5,10,25",
                        help="comma-separated K values of the transfer curve")
    robust.add_argument("--transfer-domains", type=int, default=2,
                        help="number of held-out domains evaluated")
    robust.add_argument("--per-domain", type=int, default=40,
                        help="examples generated per held-out domain")
    robust.add_argument("--skip-transfer", action="store_true",
                        help="attack suite only (no few-shot fits)")
    robust.add_argument("--quiet", action="store_true")
    return parser


def _cmd_generate(args) -> int:
    generator = generate_role_typed if args.role_typed \
        else generate_wikisql_style
    dataset = generator(
        seed=args.seed,
        train_size=args.size if args.split == "train" else 0,
        dev_size=args.size if args.split == "dev" else 0,
        test_size=args.size if args.split == "test" else 0)
    examples = getattr(dataset, args.split)
    save_jsonl(examples, args.out)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    examples = load_jsonl(args.data)
    config = NLIDBConfig(
        extended_grammar=args.extended,
        classifier_epochs=args.classifier_epochs,
        seq2seq_epochs=args.seq2seq_epochs,
        seq2seq=Seq2SeqConfig(hidden=args.hidden,
                              attention_dim=args.hidden))
    model = NLIDB(WordEmbeddings(dim=args.embedding_dim), config)
    model.fit(examples, verbose=not args.quiet)
    save_nlidb(model, args.model_dir)
    print(f"trained on {len(examples)} examples; saved to {args.model_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_nlidb(args.model_dir)
    examples = load_jsonl(args.data)
    predictions = [model.translate(e.question_tokens, e.table).query
                   for e in examples]
    result = evaluate(predictions, examples)
    print(result.as_row())
    if args.by_sketch:
        for label, breakout in evaluate_by_sketch(predictions,
                                                  examples).items():
            print(f"  {label:<12} {breakout.as_row()}")
    return 0


def _translate_and_print(model, question: str, table,
                         run_execute: bool) -> None:
    translation = model.translate(question, table)
    print(f"annotated: {' '.join(translation.annotated_tokens)}")
    if translation.query is None:
        print(f"recovery failed: {translation.error}")
        return
    print(f"SQL: {translation.query.to_sql()}")
    if run_execute:
        try:
            print(f"result: {execute(translation.query, table)}")
        except ReproError as exc:
            print(f"execution failed: {exc}")


def _cmd_query(args) -> int:
    model = load_nlidb(args.model_dir)
    examples = load_jsonl(args.data)
    if not examples:
        print("dataset is empty", file=sys.stderr)
        return 1
    _translate_and_print(model, args.question, examples[0].table,
                         args.execute)
    return 0


def _cmd_repl(args) -> int:
    model = load_nlidb(args.model_dir)
    examples = load_jsonl(args.data)
    if not examples:
        print("dataset is empty", file=sys.stderr)
        return 1
    table = examples[0].table
    print(f"querying table {table.name!r} with columns "
          f"{table.column_names}; empty line exits")
    while True:
        try:
            line = input("nlidb> ").strip()
        except EOFError:
            break
        if not line:
            break
        _translate_and_print(model, line, table, run_execute=True)
    return 0


def _cmd_serve_stats(args) -> int:
    model = load_nlidb(args.model_dir)
    examples = load_jsonl(args.data)[:args.limit]
    if not examples:
        print("dataset is empty", file=sys.stderr)
        return 1
    injector = None
    if args.inject:
        specs = [parse_fault_spec(text) for text in args.inject]
        injector = FaultInjector(specs, seed=args.fault_seed)
        model = FaultyNLIDB(model, injector)
    policy = ResiliencePolicy(
        deadline_s=args.deadline_s,
        max_retries=args.max_retries,
        backoff_base_s=args.backoff_base_s,
        degradation=not args.no_degradation,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s)
    service = TranslationService(
        model, cache_size=args.cache_size, policy=policy,
        scheduler_policy=SchedulerPolicy(max_queued=args.max_queued))
    outcomes = {"ok": 0, "degraded": 0, "failed": 0}
    for index in range(max(args.passes, 1)):
        if args.swap and index == 1:
            # Model rollover between passes: reload the same weights
            # and switch to them (the translation cache starts empty).
            service.swap(load_nlidb(args.model_dir))
        if args.batched:
            results = service.translate_batch(
                [(e.question_tokens, e.table) for e in examples])
        else:
            results = [service.translate(e.question_tokens, e.table)
                       for e in examples]
        for result in results:
            outcomes[result.status] += 1
    service.close()
    report = service.stats()
    report["outcomes"] = outcomes
    # One per-stage trace, as a worked example of the pipeline records
    # behind every histogram above.
    report["trace_sample"] = results[-1].to_dict()["trace"]
    if injector is not None:
        report["faults"] = injector.stats()
    print(json.dumps(report, indent=2, sort_keys=True))
    # Human-readable micro-batching footer (stderr keeps stdout pure
    # JSON), from MicroBatchScheduler.stats().
    sched = report["scheduler"]
    print(f"[scheduler] batches={sched['batches']} "
          f"coalesced_batches={sched['coalesced_batches']} "
          f"dispatched={sched['dispatched']} "
          f"max_batch={sched['max_batch']}", file=sys.stderr)
    return 0


def _cmd_eval_robustness(args) -> int:
    from repro.eval import (
        ModelRung,
        admit_suite,
        build_report,
        few_shot_curve,
        generate_suite,
        standard_attacks,
    )

    def config() -> NLIDBConfig:
        return NLIDBConfig(
            classifier_epochs=args.classifier_epochs,
            seq2seq_epochs=args.seq2seq_epochs,
            seq2seq=Seq2SeqConfig(hidden=args.hidden,
                                  attention_dim=args.hidden),
            seed=args.seed)

    dataset = generate_wikisql_style(seed=args.seed,
                                     train_size=args.train_size,
                                     dev_size=args.eval_size, test_size=0)
    model = NLIDB(WordEmbeddings(dim=32, seed=args.seed), config())
    model.fit(dataset.train, verbose=not args.quiet)

    attacks = standard_attacks(model.annotator.column_classifier)
    suite = generate_suite(dataset.dev, attacks, seed=args.seed)
    admission = admit_suite(suite)
    rungs = [
        ModelRung("full_adversarial", model, mode="full"),
        ModelRung("matcher_only", model, mode="context_free",
                  transfer_eligible=False),
    ]
    transfer = None
    if not args.skip_transfer:
        held = generate_heldout(seed=args.seed + 1,
                                per_domain=args.per_domain)
        held = dict(sorted(held.items())[:args.transfer_domains])
        shots = tuple(int(k) for k in args.shots.split(",") if k.strip())

        def factory() -> NLIDB:
            return NLIDB(WordEmbeddings(dim=32, seed=args.seed), config())

        transfer = {"full_adversarial": few_shot_curve(
            factory, dataset.train, held, shots=shots, seed=args.seed)}
    report = build_report(rungs, dataset.dev, admission, suite,
                          transfer=transfer, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not args.quiet:
        for name, config_report in report["configs"].items():
            clean = config_report["clean"]["acc_qm"]
            print(f"{name}: clean Acc_qm={clean:.1%}")
            for attack, row in config_report["attacks"].items():
                print(f"  {attack:<16} Acc_qm={row['acc_qm']:.1%} "
                      f"delta={row['delta_qm']:+.1%} (n={row['n']})")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "query": _cmd_query,
    "repl": _cmd_repl,
    "serve-stats": _cmd_serve_stats,
    "eval-robustness": _cmd_eval_robustness,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
