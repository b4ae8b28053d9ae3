"""Adversarial robustness + few-shot transfer benchmark.

Runs the :mod:`repro.eval` harness over the headline model and writes
one ``BENCH_robustness.json`` record at the repo root — a *tracked
metric* artifact (uploaded by CI next to ``BENCH_accuracy.json``),
not a pass/fail gate:

* attack suite — clean accuracy and per-attack accuracy/robustness
  deltas for two ladder rungs: ``full_adversarial`` (the paper's
  pipeline) and ``matcher_only`` (the serving layer's degraded
  context-free rung), over the five standard attack families
  (paraphrase, value swap, distractor column, influence drop, and
  character-level typo);
* few-shot transfer — K ∈ {0, 5, 10, 25}-shot accuracy curves on two
  held-out domains, full rung only (degraded rungs are excluded from
  transfer by contract).

The attack suite is fully seeded; model training additionally depends
on hash iteration order, so ``make bench-robustness`` pins
``PYTHONHASHSEED=0`` — under it the record reproduces byte-for-byte at
a given scale.
"""

from __future__ import annotations

import json
from pathlib import Path

import common as C
from repro.eval import (
    ModelRung,
    admit_suite,
    build_report,
    curves_to_dict,
    few_shot_curve,
    generate_suite,
    standard_attacks,
)

SEED = 11
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_robustness.json"

#: Accumulated across the module's tests; rewritten after each one so a
#: partial run still leaves a valid JSON artifact.
RECORD: dict = {"scale": None, "seed": SEED}


def _write_record() -> None:
    RECORD["scale"] = "standard" if C.strict_shape() else "smoke"
    RESULT_PATH.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")


def test_attack_suite_robustness(benchmark):
    model = C.full_nlidb()
    examples = C.dataset().dev[:C.scale().robustness_eval_limit]
    attacks = standard_attacks(model.annotator.column_classifier)
    suite = generate_suite(examples, attacks, seed=SEED)
    admission = admit_suite(suite)
    rungs = [
        ModelRung("full_adversarial", model, mode="full"),
        ModelRung("matcher_only", model, mode="context_free",
                  transfer_eligible=False),
    ]

    report = benchmark.pedantic(
        lambda: build_report(rungs, examples, admission, suite, seed=SEED),
        rounds=1, iterations=1)
    RECORD["suite"] = report["suite"]
    RECORD["configs"] = report["configs"]
    _write_record()

    C.print_header("Robustness — clean vs attacked accuracy per rung")
    for name, config in report["configs"].items():
        C.print_row(f"{name} clean",
                    f"Acc_qm={config['clean']['acc_qm']:.1%} "
                    f"(n={config['clean']['n']})")
        for attack, row in sorted(config["attacks"].items()):
            C.print_row(f"  {attack}",
                        f"Acc_qm={row['acc_qm']:.1%} "
                        f"delta={row['delta_qm']:+.1%} (n={row['n']})")
    C.print_row("suite admitted/generated",
                f"{report['suite']['admitted']}/{report['suite']['generated']}"
                f" (rejected {report['suite']['rejected']})")

    # Structural floors only — the accuracies themselves are tracked
    # metrics, not gates.
    assert len(report["configs"]) >= 2
    for config in report["configs"].values():
        assert len(config["attacks"]) >= 4
        assert all(row["n"] >= 1 for row in config["attacks"].values())
    assert report["suite"]["admitted"] >= 1
    counts = report["suite"]["per_attack"]
    assert all(row["generated"] == row["admitted"] + row["rejected"]
               for row in counts.values())


def test_few_shot_transfer(benchmark):
    held = C.heldout_data()
    shots = C.scale().transfer_shots

    curves = benchmark.pedantic(
        lambda: few_shot_curve(C.transfer_model_factory, C.dataset().train,
                               held, shots=shots, seed=SEED),
        rounds=1, iterations=1)
    RECORD["transfer"] = {"full_adversarial": curves_to_dict(curves)}
    _write_record()

    C.print_header("Few-shot transfer — held-out domains (full rung)")
    for name, points in curves.items():
        row = "  ".join(f"K={p.shots}: {p.acc_qm:.1%}" for p in points)
        C.print_row(name, row)

    assert len(curves) >= 2
    for points in curves.values():
        assert [p.shots for p in points] == sorted(set(shots))
        # One fixed evaluation slice per domain, disjoint from supports.
        assert len({p.n_eval for p in points}) == 1
        assert points[0].n_eval >= 1
