# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

PY ?= python
JOBS ?= 4
export PYTHONPATH := src

.PHONY: test lint statecheck mypy check-plan check-report check-telemetry \
	check bench bench-parallel

test:
	$(PY) -m pytest -x -q

lint:
	$(PY) -m repro.analysis.lint src/repro

# The same analyzer with the state-contract gate added: declared
# checkpoint state covers every mutable attribute, schema-fingerprint
# freshness, canonical serialization, append-only ledgers, worker purity.
statecheck:
	$(PY) -m repro.analysis.lint --state src/repro

mypy:
	mypy src/repro/analysis src/repro/obs src/repro/resilience

check-plan:
	@for wl in ysb lrb nyt; do \
		$(PY) -m repro.cli check-plan --workload $$wl --queries 4 || exit 1; \
	done

check-report:
	@for wl in ysb lrb nyt; do \
		$(PY) -m repro.cli report --workload $$wl --scheduler Klink \
			--queries 4 --duration 15 --format json --check-schema \
			> /dev/null || exit 1; \
	done
	$(PY) -m repro.cli report --workload ysb --scheduler Default \
		--queries 4 --duration 15 --format json --check-schema > /dev/null

# Telemetry gate: two seeded runs must be byte-identical (trace and
# BENCH json), the trace must pass schema + Chrome-trace validation,
# and the fresh snapshot must not regress against the checked-in
# baseline (benchmarks/results/BENCH_ysb.json).
check-telemetry:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	run="$(PY) -m repro.cli run --workload ysb --scheduler Klink \
		--queries 4 --duration 30 --cores 8 --seed 1 --no-cache"; \
	$$run --trace $$dir/a.jsonl --bench-json $$dir/bench_a.json > /dev/null; \
	$$run --trace $$dir/b.jsonl --bench-json $$dir/bench_b.json > /dev/null; \
	cmp $$dir/a.jsonl $$dir/b.jsonl; \
	cmp $$dir/bench_a.json $$dir/bench_b.json; \
	$(PY) -m repro.cli report --trace $$dir/a.jsonl --check-schema \
		--chrome $$dir/flame.json > /dev/null; \
	$(PY) -m repro.cli compare benchmarks/results/BENCH_ysb.json \
		$$dir/bench_a.json

check: lint statecheck check-plan check-report check-telemetry test

# Figure suite, serial vs. fanned out over $(JOBS) worker processes.
# Both share the persistent cache in .bench_cache/ (REPRO_BENCH_NO_CACHE=1
# disables it), so a warm re-run replays results without simulating.
bench:
	$(PY) -m pytest benchmarks -q --benchmark-only

bench-parallel:
	REPRO_BENCH_JOBS=$(JOBS) $(PY) -m pytest benchmarks -q --benchmark-only
