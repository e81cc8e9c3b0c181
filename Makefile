# Test and benchmark entry points.
#
#   make test-fast    tier-1: everything except the opt-in sweeps (~15s)
#   make test-matrix  the exhaustive scenario-matrix sweeps (+ slow cells)
#                     (REPRO_MATRIX_PARALLEL=N shards every matrix sweep's
#                     cells over N worker processes; results are
#                     byte-identical to serial runs)
#   make test-all     both of the above
#   make bench        full hot-path benchmark suite -> BENCH_hotpath.json
#                     (exits non-zero if a speedup gate regresses; the
#                     tracked JSON is only rewritten when gate verdicts or
#                     the benchmark roster change — fresh samples go to the
#                     untracked BENCH_hotpath.latest.json)
#   make bench-smoke  quick end-to-end check of the benchmark harness
#   make bench-gate   check the gate verdicts in the committed
#                     BENCH_hotpath.json without running benchmarks
#                     (lists skipped gates; fails on a measured miss)
#   make test-corpus  replay the committed fuzz reproducers in
#                     tests/corpus (a subset of test-fast, for local use)
#   make test-recovery the recovery lane: partition catch-up,
#                     crash-recovery, retry/backoff (a subset of test-fast)
#   make test-workload the workload-engine lane: open-loop determinism,
#                     txpool backpressure, SLO metrics, Prometheus
#                     fallback (a subset of test-fast)
#   make test-impairments the lossy-medium lane: wire impairment model,
#                     reliable-delivery sublayer, loss-budget liveness,
#                     impaired-run determinism (a subset of test-fast —
#                     see docs/impairments.md)
#   make fuzz         a short local fuzz campaign (SEED=n ITERATIONS=n to
#                     override; see docs/fuzzing.md)
#   make lint         ruff over src/tests/examples (critical rules plus
#                     bugbear and a curated modernisation subset — see
#                     ruff.toml)
#   make analyze      detlint: the determinism & registry-coherence
#                     static analyzer over src/repro (AST-only, < 10s;
#                     PR-blocking in CI — see docs/analysis.md)
#
# The default pytest run (pytest.ini addopts) equals test-fast; the matrix
# sweeps are the opt-in CI job every scale/perf PR should also run.

PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m pytest
PYTHON := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test-fast test-matrix test-all test-corpus test-recovery test-workload test-impairments fuzz bench bench-smoke bench-gate lint analyze

test-fast:
	$(PYTEST) -x -q

test-corpus:
	$(PYTEST) -q tests/corpus

test-recovery:
	$(PYTEST) -q -m recovery

test-workload:
	$(PYTEST) -q tests/workload

test-impairments:
	$(PYTEST) -q tests/net/test_impairment.py tests/property/test_property_impairment.py \
		tests/fuzz/test_planted_mutants.py::test_retransmission_giveup_mutant_is_found_and_shrunk

SEED ?= 0
ITERATIONS ?= 20
fuzz:
	$(PYTHON) -m repro.cli fuzz --seed $(SEED) --iterations $(ITERATIONS)

lint:
	python -m ruff check src tests examples

analyze:
	$(PYTHON) -m repro.analysis src/repro

test-matrix:
	$(PYTEST) -q -m "matrix or slow" tests/testkit

test-all: test-fast test-matrix

bench:
	$(PYTHON) -m repro.perf

bench-smoke:
	$(PYTEST) -q -m bench tests/perf

bench-gate:
	$(PYTHON) -m repro.perf --gate-check
