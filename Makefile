.PHONY: all build test qcheck-seeds bench lint lint-deep determinism bench-runs bench-smoke work-counts verify clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Scratch directory for smoke/lint artifacts so they can never end up
# as untracked clutter (or worse, commits) in the repo root.
SMOKE_DIR := smoke

$(SMOKE_DIR):
	mkdir -p $(SMOKE_DIR)

# The QCheck suites at QCHECK_SEED 1 to 20.  Every property draws its
# cases from test/fuzz.ml's random state: QCHECK_SEED when set, 27
# otherwise, so `dune runtest` sees the same cases on every run and a
# property that holds for one seed only shows here.  A failing suite's
# output is printed with the seed.
QCHECK_SUITES = test_failure test_health test_lp test_lp_props test_net \
  test_online test_scenario_gen test_te_props test_traffic test_util

qcheck-seeds: | $(SMOKE_DIR)
	dune build $(QCHECK_SUITES:%=test/%.exe)
	@for s in $$(seq 1 20); do \
	  for t in $(QCHECK_SUITES); do \
	    (cd _build/default/test && QCHECK_SEED=$$s ./$$t.exe --compact) \
	      > $(SMOKE_DIR)/qcheck-$$t.txt 2>&1 || { \
	      echo "qcheck-seeds: $$t fails at QCHECK_SEED=$$s"; \
	      cat $(SMOKE_DIR)/qcheck-$$t.txt; exit 1; }; \
	  done; \
	  echo "qcheck-seeds: QCHECK_SEED=$$s passed"; \
	done

# flexile-lint, fast syntactic stage: AST-level determinism/
# concurrency/hygiene invariants (DESIGN.md section 9).  Writes the
# machine-readable v3 summary to smoke/lint-summary.json (uploaded as
# a CI artifact on failure) and exits non-zero on any unsuppressed
# finding.  Runs pre-build by design: it parses sources directly.
lint: | $(SMOKE_DIR)
	dune build tools/lint/lint_main.exe
	dune exec --no-build tools/lint/lint_main.exe -- \
	  --json $(SMOKE_DIR)/lint-summary.json lib bin bench test

# flexile-lint, deep typedtree stage (DESIGN.md section 14): needs the
# .cmt/.cmti artifacts of @check (a plain build writes none for the
# executables, whose references u1 counts), then adds interprocedural
# taint (i1), shard-capture race (i2), noalloc-kernel (i3),
# unused-export (u1) and single-value-knob (u2) analysis on top of the
# syntactic rules, with stale suppressions made fatal — this is the
# authoritative lint verdict CI enforces.
lint-deep: | $(SMOKE_DIR)
	dune build @check tools/lint/lint_main.exe
	dune exec --no-build tools/lint/lint_main.exe -- \
	  --deep --strict-suppressions \
	  --json $(SMOKE_DIR)/lint-summary.json lib bin bench test

# Determinism smoke (DESIGN.md sections 10, 13 and 15): each row of
# the table below runs one `flexile` command twice, as run A and run B
# (a run tag and, where the command takes one, a --jobs value each),
# and compares the artifacts both runs wrote byte for byte.  A % in
# the command or in an artifact name stands for the run's tag.
#   - monitor: a short seeded failure stream replayed at --jobs 1 and
#     2; the Prometheus page and the JSONL snapshot series, health.*
#     families included.
#   - explain: the attribution report, the regime-conditioned
#     attainment table and the Prometheus page at --jobs 1 and 4.
#   - doctor: the report over the seeded near-singular fixture, run
#     twice on the calling domain, live (which also exercises the
#     threshold-trip auto-dump) and replayed from that dump via
#     --from-dump.
# Both doctor answers must also carry a passing LP duality certificate
# ("certified":true).
FLEXILE = dune exec --no-build bin/flexile_cli.exe --
MONITOR = $(FLEXILE) monitor IBM --seed 7 --draws 48 --scenarios 24 \
  --max-pairs 40 --iterations 1 --snapshot-every 12
EXPLAIN = $(FLEXILE) explain IBM --two-class --scenarios srlg,partial,drift \
  --max-pairs 60 --iterations 1
DOCTOR = FLEXILE_HEALTH_DUMP=$(SMOKE_DIR) $(FLEXILE) doctor --fixture near-singular
REPLAY = $(FLEXILE) doctor --from-dump $(SMOKE_DIR)/health-dump-near-singular-fixture.json

# $(call same,TAG-A [JOBS-A],TAG-B [JOBS-B],COMMAND,ARTIFACTS)
run_as = $(subst %,$(word 1,$(1)),$(2))$(if $(word 2,$(1)), --jobs $(word 2,$(1)))
same = $(call run_as,$(1),$(3)) && $(call run_as,$(2),$(3)) && \
  $(foreach f,$(4),cmp $(SMOKE_DIR)/$(subst %,$(word 1,$(1)),$(f)) \
    $(SMOKE_DIR)/$(subst %,$(word 1,$(2)),$(f)) &&) true

determinism: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	$(call same,a 1,b 2,$(MONITOR) --prom $(SMOKE_DIR)/monitor-%.prom \
	  --jsonl $(SMOKE_DIR)/monitor-%.jsonl,monitor-%.prom monitor-%.jsonl)
	grep -q '^flexile_health_samples_total [1-9]' $(SMOKE_DIR)/monitor-a.prom
	$(call same,a 1,b 4,$(EXPLAIN) --out $(SMOKE_DIR)/explain-%.json \
	  --regimes $(SMOKE_DIR)/explain-%-regimes.json \
	  --prom $(SMOKE_DIR)/explain-%.prom,explain-%.json explain-%-regimes.json explain-%.prom)
	grep -q '^flexile_health_samples_total [1-9]' $(SMOKE_DIR)/explain-a.prom
	$(call same,a,b,$(DOCTOR) --out $(SMOKE_DIR)/doctor-%.json,doctor-%.json)
	$(call same,c,d,$(REPLAY) --out $(SMOKE_DIR)/doctor-%.json,doctor-%.json)
	grep -q '"certified":true' $(SMOKE_DIR)/doctor-a.json
	grep -q '"certified":true' $(SMOKE_DIR)/doctor-c.json

# End-to-end benchmark smoke: each BENCHMARK.json workload once, traced,
# with no timed phase, failing unless its last line reports every
# output check passed (reference penalties, the CWIX plan digest, the
# online allocations' guarantees) and its work counts equal the
# committed bench/work_counts.json (tools/work_counts.py).  Logs land
# in smoke/bench-<workload>.txt.
BENCH_WORKLOADS = $(shell python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

bench-runs: | $(SMOKE_DIR)
	dune build flexbench/main.exe
	@for w in $(BENCH_WORKLOADS); do \
	  echo "bench-smoke: $$w"; \
	  dune exec --no-build --display=quiet -- flexbench/main.exe --workload $$w \
	    --seed 1 --seconds 0 --trace 1 > $(SMOKE_DIR)/bench-$$w.txt || exit 1; \
	  last=$$(tail -n 1 $(SMOKE_DIR)/bench-$$w.txt); \
	  case "$$last" in *'"correct": true'*'"failed": 0,'*) ;; \
	    *) echo "bench-smoke: $$w failed its checks"; \
	       grep 'CHECK FAILED' $(SMOKE_DIR)/bench-$$w.txt; exit 1;; esac; \
	done

bench-smoke: bench-runs
	python3 tools/work_counts.py check $(SMOKE_DIR)

# Re-record the committed work counts after a change that alters them
# on purpose (name the re-record in CHANGES.md).
work-counts: bench-runs
	python3 tools/work_counts.py record $(SMOKE_DIR)

# Tier-1 verification: full build, both lint stages (syntactic
# pre-build signal, then the deep typedtree stage over the fresh cmts),
# the test suite, its QCheck properties at 20 more seeds, the determinism smoke (monitor, explain, doctor), the
# benchmark smoke (reference penalties, the CWIX plan digest and the
# exact work counts), and a smoke run of the micro-benchmarks
# (exercises the parallel sweep at jobs 1 and 4).
verify:
	$(MAKE) lint
	dune build
	$(MAKE) lint-deep
	dune runtest
	$(MAKE) qcheck-seeds
	$(MAKE) determinism
	$(MAKE) bench-smoke
	dune exec bench/main.exe -- --micro

clean:
	dune clean
	rm -rf $(SMOKE_DIR)
