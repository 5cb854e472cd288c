PYTHON ?= python

.PHONY: install test test-fast test-verbose test-serve test-mutation test-mutation-slow test-policy test-ir test-ir-slow bench bench-aa paper examples results clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-verbose:
	$(PYTHON) -m pytest tests/ -v

# Query-serving layer: coalescing differential suite, admission /
# cancellation races, the JSON/TCP frontend protocol, the row regime's
# multi-level descent a served batch takes, and repeated runs of one
# compiled program.  The cache provider is disabled so parallel CI legs
# never share stale state.
test-serve:
	$(PYTHON) -m pytest -p no:cacheprovider -q tests/serve tests/traversal/test_row_descent.py tests/backend/test_run_twice.py

# Incremental-tree mutation suites: tree-level refit invariants, the
# builder every partial rebuild runs (bitwise against the recursive
# build), the topology caches snapshots share across subtree rebuilds,
# plus the mutation -> cache-coherence differential matrix (fast portion
# only; the executor x engine matrix is marked slow and runs in CI under
# REPRO_EXECUTOR=process).
MUTATION_TESTS = tests/trees/test_incremental.py tests/trees/test_build_equivalence.py tests/trees/test_refit_by_change.py tests/traversal/test_row_descent.py tests/backend/test_mutation_cache.py

test-mutation:
	$(PYTHON) -m pytest $(MUTATION_TESTS) -m "not slow"

test-mutation-slow:
	$(PYTHON) -m pytest $(MUTATION_TESTS)

# Self-tuning execution policy: key extraction, persistent store
# versioning/corruption handling, mode semantics, online refinement,
# the policy-routing differential battery and cross-process
# persistence (plus the hardened measured-tuning core).
test-policy:
	$(PYTHON) -m pytest -p no:cacheprovider -q tests/policy tests/util/test_tune.py

# IR optimiser suites (passes, verifier, goldens, round-trip, fuzzer);
# every program's IR is verified after every pass.
test-ir:
	$(PYTHON) -m pytest tests/ir tests/dsl/test_roundtrip.py -m "not slow"

# Same plus the slow 2048-case fuzz sweep.
test-ir-slow:
	$(PYTHON) -m pytest tests/ir tests/dsl/test_roundtrip.py

# Performance: the benchmark spine (BENCHMARK.json; docs/performance.md,
# "Measured"); `bench-aa` runs it twice and compares the spread to the bounds.
bench:
	$(PYTHON) benchmarks/spine/run.py

bench-aa:
	$(PYTHON) benchmarks/spine/run.py --aa

# Paper artefacts (EXPERIMENTS.md): rewrites benchmarks/results/{*.txt,BENCH_ir.json}.
paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f; done

results:
	@for f in benchmarks/results/*.txt; do echo; cat $$f; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
