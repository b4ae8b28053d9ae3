# Developer entry points.  `make check` is the one-command gate: the
# tier-1 test suite, the fault-matrix resilience suite, and the serving
# harness smoke that CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test test-faults test-pipeline test-eval lint bench-perf-smoke \
	bench-robustness bench-accuracy bench-smoke bench

# Tier-1: the full unit/integration/property suite.
test:
	$(PYTHON) -m pytest -x -q

# Fault matrix: every resilience policy against injected failures
# (stage x transient/permanent x breaker open/closed).  Included in
# `test` too; kept addressable so CI and `check` can gate on it
# explicitly.
test-faults:
	$(PYTHON) -m pytest tests/serving/test_faults.py \
		tests/serving/test_resilience.py -q

# Stage-graph executor suite: the pipeline package, the NLIDB stage
# decomposition, per-rung trace coverage, and the pre/post-refactor
# SQL differential.
test-pipeline:
	$(PYTHON) -m pytest tests/pipeline -q

# Robustness harness suite: attack generators + determinism contract,
# executor-backed validity gate, few-shot transfer mechanics, report
# assembly, and the hypothesis properties for the Section IV-C
# influence span locator.
test-eval:
	$(PYTHON) -m pytest tests/eval -q

# Style gate (requires ruff; CI installs it).
lint:
	ruff check src tests benchmarks

# Serving harness smoke: the `batch` and `interactive` workloads of
# benchmarks/perf for about two seconds each.  Timings are not gated;
# the run must pass its correctness gate, i.e. its last line reports
# "correct": true.
bench-perf-smoke:
	mkdir -p .bench_build
	PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 $(PYTHON) benchmarks/perf/run.py \
		--workload batch --workload interactive --seconds 2 \
		| tee .bench_build/perf-smoke.log
	tail -n 1 .bench_build/perf-smoke.log | grep -q '"correct": true'

# Adversarial robustness + few-shot transfer benchmark: clean vs
# attacked accuracy per ladder rung and K-shot curves on held-out
# domains.  Writes the BENCH_robustness.json tracked-metric record at
# the repo root.  PYTHONHASHSEED is pinned because model *training*
# (unlike the seeded attack suite) is sensitive to hash iteration
# order; with it fixed the record reproduces byte-for-byte.
bench-robustness:
	REPRO_BENCH_SCALE=smoke PYTHONHASHSEED=0 \
		$(PYTHON) -m pytest benchmarks/bench_robustness.py -q

# Extended-grammar accuracy benchmark: trains the headline model with
# the extended output grammar on the role-typed corpus and reports
# overall plus per-sketch-family accuracy (filter/count/aggregate/
# range/topn/group_agg/negation/disjunction) and the legacy-subset
# parity section.  Writes the BENCH_accuracy.json tracked-metric
# record at the repo root.  PYTHONHASHSEED pinned for the same reason
# as bench-robustness: training is hash-iteration-order sensitive.
bench-accuracy:
	REPRO_BENCH_SCALE=smoke PYTHONHASHSEED=0 \
		$(PYTHON) -m pytest benchmarks/bench_accuracy.py -q

# CI-friendly alias: the smoke benchmarks — the fastest end-to-end
# exercise of the serving path and the robustness harness.
bench-smoke: bench-perf-smoke bench-robustness bench-accuracy

# Full paper-table benchmark suite (slow; standard scale by default).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

check: test test-pipeline test-faults test-eval bench-perf-smoke
