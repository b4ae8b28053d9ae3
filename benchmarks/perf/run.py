"""The serving benchmark: build one model, replay a workload, check it.

Run from the repository root::

    PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 python benchmarks/perf/run.py \\
        [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]] \\
        [--record PATH]
    python benchmarks/perf/run.py compare --base A.json ... --new B.json ...

The first run in a checkout trains the benchmark's model (about a
minute) and keeps the checkpoint under ``.bench_build/perf/``, keyed by
the source tree, so later runs and edited sources never share a stale
model.  Each workload then runs in fresh interpreters (see
``child.py``): several cold starts give the set-up time, and one of
them goes on to serve the workload.  ``--seconds`` fixes how many
requests it sends: about ``--seconds`` worth on the reference box.

Every metric is printed by name with its unit and sample count, a JSON
record is written (by default under ``.bench_build/perf/records/``), and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics.  The seed shapes only the workload inputs; the model is always
the one trained on data seed 0.  The run exits non-zero when the
correctness gate finds a SQL mismatch or a request that never resolved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "perf"

from child import TRAIN  # noqa: E402  (HERE is sys.path[0])
from layers import UNITS  # noqa: E402
from record import (  # noqa: E402
    env_block, missing_pins, read_record, write_record)
from stats import quartiles, spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 15.0
#: Cold starts per workload; the median is ``setup_s``.
SETUP_SAMPLES = 5
#: Wall limits: a workload (set-up, timed pass, gate, traced pass) and
#: the one-time model build.
WORKLOAD_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0

#: The end-to-end metrics of the result line (BENCHMARK.json's
#: ``end_to_end``).  ``latency_p95_ms`` is printed and recorded too, but
#: its run-to-run spread on a shared 2-core box is too wide to bound.
E2E = ("setup_s", "latency_p50_ms", "throughput_qps", "exec_accuracy")
SETUP_PHASES = ("import_s", "load_s", "warmup_s")


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], stdout=subprocess.PIPE) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, env=_child_env(), stdout=stdout)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _await_ready(proc: subprocess.Popen, deadline: float) -> dict:
    """Block until the child's ``READY`` line; returns its phases."""
    data = b""
    while not data.endswith(b"\n"):
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise BenchError("timed out waiting for a cold start")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            raise BenchError("a benchmark process exited during set-up "
                             f"(code {proc.wait()})")
        data += chunk
    line = data.decode().strip()
    if not line.startswith("READY "):
        raise BenchError(f"unexpected output from set-up: {line!r}")
    return json.loads(line[len("READY "):])


def _cold_start(model_dir: Path, deadline: float) -> tuple[float, dict]:
    start = perf_counter()
    proc = _spawn(["setup", "--model", str(model_dir)])
    try:
        phases = _await_ready(proc, deadline)
        elapsed = perf_counter() - start
        if proc.wait(timeout=max(deadline - monotonic(), 1.0)) != 0:
            raise BenchError("set-up process failed")
        return elapsed, phases
    finally:
        _stop(proc)


def _source_key() -> str:
    """Digest of everything the checkpoint depends on."""
    digest = hashlib.sha256()
    digest.update(json.dumps(TRAIN, sort_keys=True).encode())
    digest.update(os.environ.get("PYTHONHASHSEED", "").encode())
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_model() -> tuple[Path, dict]:
    """The trained checkpoint for this source tree, built if missing."""
    final = BUILD_DIR / f"model-{_source_key()}"
    if not (final / "build.json").is_file():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="model-build-", dir=BUILD_DIR))
        print(f"building the benchmark model in {final.name} "
              "(first run in this tree)", file=sys.stderr, flush=True)
        proc = _spawn(["build", "--out", str(tmp)], stdout=sys.stderr)
        try:
            code = proc.wait(timeout=BUILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _stop(proc)
        if code != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise BenchError("model build timed out" if code is None
                             else f"model build failed (code {code})")
        os.replace(tmp, final)
    return final, json.loads((final / "build.json").read_text())


def run_workload(model_dir: Path, workload: str, seed: int, seconds: float,
                 trace: int, spans_path: Path | None) -> dict:
    """Cold starts plus one serving child; returns the workload's block."""
    deadline = monotonic() + WORKLOAD_LIMIT_S
    samples = [_cold_start(model_dir, deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        out = Path(tmp) / "result.json"
        args = ["serve", "--model", str(model_dir), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds),
                "--trace", str(trace), "--out", str(out)]
        if spans_path is not None:
            args += ["--spans", str(spans_path)]
        start = perf_counter()
        proc = _spawn(args)
        try:
            phases = _await_ready(proc, deadline)
            samples.append((perf_counter() - start, phases))
            code = proc.wait(timeout=max(deadline - monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: timed out") from exc
        finally:
            _stop(proc)
        if code != 0 or not out.is_file():
            raise BenchError(f"{workload}: serving process failed "
                             f"(code {code})")
        child = json.loads(out.read_text())
    return _workload_block(child, samples, trace)


def _workload_block(child: dict, samples, trace: int) -> dict:
    setup = [elapsed for elapsed, _phases in samples]
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s",
                           "samples": len(setup)}}
    metrics.update(child["e2e"])
    check = child["check"]
    block = {
        "correct": not check["fatal"],
        "attempted": check["attempted"],
        "failed": check["errors"],
        "metrics": metrics,
        "setup_samples_s": setup,
        "check": check,
        "requests": child["requests"],
        "ops": child["ops"],
        "wall_s": child["wall_s"],
        "pool": child["pool"],
        "inputs_s": child["inputs_s"],
        "loadgen": child["loadgen"],
    }
    if trace:
        values = dict(child["layers"])
        for phase in SETUP_PHASES:
            values[f"setup.{phase}"] = statistics.median(
                phases[phase] for _elapsed, phases in samples)
        block["layers"] = {name: {"value": values[name], "unit": unit}
                           for name, unit in UNITS.items()}
        block["trace"] = child["trace"]
    return block


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _print_metrics(workload: str, block: dict) -> None:
    rows = dict(block["metrics"])
    rows.update(block.get("layers", {}))
    for name, metric in rows.items():
        detail = ""
        if "samples" in metric:
            detail = f"n={metric['samples']}"
            if "beyond" in metric:
                detail += f", {metric['beyond']} beyond"
        print(f"{workload:<12} {name:<36} {metric['value']:>14.6g} "
              f"{metric['unit']:<6} {detail}")
    check = block["check"]
    print(f"{workload:<12} check: {check['attempted']} requests, "
          f"{check['distinct']} distinct, {check['exec_correct']} exec-correct,"
          f" {check['recovery_errors']} recovery errors, "
          f"{check['errors']} errors, "
          f"{check['differential_checked']} differential"
          + ("; FAILED: " + "; ".join(check["fatal"]) if check["fatal"]
             else ""))


def _result_line(blocks: dict, trace: int) -> dict:
    metrics = {}
    for workload, block in blocks.items():
        chosen = block["layers"] if trace else {
            name: block["metrics"][name] for name in E2E}
        prefix = "" if len(blocks) == 1 else f"{workload}."
        for name, metric in chosen.items():
            metrics[prefix + name] = {"value": metric["value"],
                                      "unit": metric["unit"]}
    return {
        "correct": all(block["correct"] for block in blocks.values()),
        "attempted": sum(block["attempted"] for block in blocks.values()),
        "failed": sum(block["failed"] for block in blocks.values()),
        "metrics": metrics,
    }


def measure(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Serving benchmark (see README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat to run several; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length on the reference box; fixes how "
                             "many requests each workload sends")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--record", type=Path,
                        help="where to write the JSON record")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    missing = missing_pins()
    if missing:
        print(f"error: {' and '.join(missing)} must be set (for example "
              "PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1); unpinned runs are "
              "not comparable", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = args.workload or list(WORKLOADS)
    stem = f"{'+'.join(workloads)}-seed{args.seed}-trace{args.trace}"
    record_path = args.record or BUILD_DIR / "records" / f"{stem}.json"

    try:
        model_dir, build = ensure_model()
        blocks = {}
        for workload in workloads:
            spans = (record_path.with_name(
                f"{record_path.stem}.{workload}.spans.jsonl")
                if args.trace else None)
            if spans is not None:
                spans.parent.mkdir(parents=True, exist_ok=True)
            blocks[workload] = run_workload(model_dir, workload, args.seed,
                                            args.seconds, args.trace, spans)
            _print_metrics(workload, blocks[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "env": env_block(ROOT, args.seed),
        "args": {"workloads": workloads, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace},
        "build": build,
        "workloads": blocks,
    }
    write_record(record_path, record)
    print(f"record: {record_path}", file=sys.stderr)
    result = _result_line(blocks, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


#: Metrics that are exact at a seed, with the bound ``compare`` applies
#: to them in the metric's own unit instead of BENCHMARK.json's share of
#: the median.  Two sets run at the same seeds can be held to a
#: hundredth of accuracy; the relative bound in BENCHMARK.json must also
#: cover the spread of accuracy across seeds.
ABSOLUTE_BOUNDS = {"exec_accuracy": 0.01}


def _bounds() -> dict:
    """``BENCHMARK.json``'s end-to-end metrics by name."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing: nothing to bound against")
    spec = json.loads(path.read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def _collect(paths) -> dict:
    """(workload, metric) -> list of values over the records."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = read_record(path)
        for workload, block in record["workloads"].items():
            rows = dict(block["metrics"])
            rows.update(block.get("layers", {}))
            for name, metric in rows.items():
                values.setdefault((workload, name), []).append(
                    metric["value"])
    return values


def verdict(base: list[float], new: list[float], better: str,
            bound: float, absolute: bool = False) -> tuple[str, float]:
    """Judge ``new`` against ``base`` under a regression bound.

    ``bound`` is a share of the base median, or with ``absolute`` an
    amount in the metric's own unit.  Returns ``(verdict, change)``
    where ``change`` is the move of the median in the *worse* direction,
    measured the same way.  A side whose quartile spread exceeds a
    relative bound makes the comparison ``unresolved`` unless every new
    run beats every base run.  An ``absolute`` metric is exact at a
    seed, so the quartiles of a set are the spread of its seeds'
    inputs, not noise, and never make it unresolved; its two sets must
    be run at the same seeds.
    """
    _, base_median, _ = quartiles(base)
    _, new_median, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_median - base_median)
    if not absolute:
        change = change / abs(base_median) if base_median else 0.0
        if max(spread(base), spread(new)) > bound:
            beats = (max(new) < min(base) if better == "lower"
                     else min(new) > max(base))
            return ("better" if beats else "unresolved"), change
    if change > bound:
        return "REGRESSED", change
    return "ok", change


def compare(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two sets of benchmark records against the "
                    "bounds in BENCHMARK.json (read only).")
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        bounds = _bounds()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base, new = _collect(args.base), _collect(args.new)
    regressed = False
    print(f"{'workload':<12} {'metric':<36} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'worse by':>9} {'bound':>6} verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        spec = bounds.get(name)
        if spec is None:
            tail = f"{'':>9} {'':>6} (no bound)"
        else:
            absolute = name in ABSOLUTE_BOUNDS
            bound = ABSOLUTE_BOUNDS.get(name, spec["bound"])
            outcome, change = verdict(base[key], new[key], spec["better"],
                                      bound, absolute)
            regressed |= outcome == "REGRESSED"
            tail = (f"{change:>+9.4f} {bound:>6.2f}" if absolute
                    else f"{change:>+9.1%} {bound:>6.0%}") + f" {outcome}"
        print(f"{workload:<12} {name:<36} "
              f"{bm:>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(82)
              + f"{nm:>12.5g} [{n1:.5g}, {n3:.5g}]".ljust(33) + tail)
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    return measure(argv)


if __name__ == "__main__":
    sys.exit(main())
