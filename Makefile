# Developer entry points.  `make check` is the one-command gate: the
# tier-1 test suite, the fault-matrix resilience suite, and the serving
# harness smoke that CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test test-faults test-pipeline test-eval test-decode-seeds \
	golden-sql lint bench-perf-smoke \
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

# Model differentials under five hash seeds.  Tier-1 runs once under an
# unpinned PYTHONHASHSEED; this reruns the decoder's lockstep-vs-oracle,
# cohort-vs-solo and early-retirement tests, the column classifier's
# batched forward and batched influence against their per-pair oracles,
# and the kernels' parity (float32 and float64 twins, the fused cell
# nodes against the composed Tensor cells, the fused char-CNN and
# classifier-network nodes against their composed graphs, the LSTM
# cell's hand-written backward) and padded-lane bit-equality tests
# under hash seeds 0-4, each run with fresh Hypothesis examples.
DECODE_TESTS = tests/pipeline/test_batched_inference.py \
	tests/pipeline/test_coalesced_kernels.py \
	tests/pipeline/test_decode_retirement.py \
	tests/core/test_influence_batched.py \
	tests/core/test_classifier_forward.py \
	tests/nn/test_kernels.py

test-decode-seeds:
	for seed in 0 1 2 3 4; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest $(DECODE_TESTS) -q \
			|| exit 1; \
	done

# Golden SQL answer key: what the tier-1 session model answers on the
# 54-pair serving corpus (SQL or recovery error), checked on every
# serving path by tests/pipeline/test_golden_sql.py.  Regenerate it only
# when a change is meant to move the SQL, and say why in CHANGES.md.
golden-sql:
	$(PYTHON) -m tests.golden

# Robustness harness suite: attack generators + determinism contract,
# executor-backed validity gate, few-shot transfer mechanics, report
# assembly, and the hypothesis properties for the Section IV-C
# influence span locator.
test-eval:
	$(PYTHON) -m pytest tests/eval -q

# Style gate (requires ruff; CI installs it).
lint:
	ruff check src tests benchmarks

# Serving harness smoke: the `batch`, `interactive` and `hot_cache`
# workloads of benchmarks/perf for about two seconds each (`hot_cache`
# takes the cache-hit path).  Timings are not gated;
# the run must pass its correctness gate, i.e. its last line reports
# "correct": true.
bench-perf-smoke:
	mkdir -p .bench_build
	PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 $(PYTHON) benchmarks/perf/run.py \
		--workload batch --workload interactive --workload hot_cache \
		--seconds 2 \
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
