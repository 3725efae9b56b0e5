.PHONY: all build test bench lint lint-deep monitor-smoke explain-smoke doctor-smoke bench-smoke verify baseline clean

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

# flexile-lint, fast syntactic stage: AST-level determinism/
# concurrency/hygiene invariants (DESIGN.md section 9).  Writes the
# machine-readable v2 summary to smoke/lint-summary.json (uploaded as
# a CI artifact on failure) and exits non-zero on any unsuppressed
# finding.  Runs pre-build by design: it parses sources directly.
lint: | $(SMOKE_DIR)
	dune build tools/lint/lint_main.exe
	dune exec --no-build tools/lint/lint_main.exe -- \
	  --json $(SMOKE_DIR)/lint-summary.json lib bin bench test

# flexile-lint, deep typedtree stage (DESIGN.md section 14): needs the
# .cmt artifacts a full build leaves behind, then adds interprocedural
# taint (i1), shard-capture race (i2) and noalloc-kernel (i3) analysis
# on top of the syntactic rules, with stale suppressions made fatal —
# this is the authoritative lint verdict CI enforces.
lint-deep: | $(SMOKE_DIR)
	dune build
	dune exec --no-build tools/lint/lint_main.exe -- \
	  --deep --strict-suppressions \
	  --json $(SMOKE_DIR)/lint-summary.json lib bin bench test

# SLO monitor smoke (DESIGN.md section 10): replay a short seeded
# failure stream twice and assert the Prometheus page and the JSONL
# snapshot series are byte-identical — the deterministic-export
# contract the monitor's artifacts rely on.
monitor-smoke: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	dune exec --no-build bin/flexile_cli.exe -- monitor IBM --seed 7 \
	  --draws 48 --scenarios 24 --max-pairs 40 --iterations 1 --jobs 2 \
	  --snapshot-every 12 --prom $(SMOKE_DIR)/monitor-a.prom \
	  --jsonl $(SMOKE_DIR)/monitor-a.jsonl
	dune exec --no-build bin/flexile_cli.exe -- monitor IBM --seed 7 \
	  --draws 48 --scenarios 24 --max-pairs 40 --iterations 1 --jobs 2 \
	  --snapshot-every 12 --prom $(SMOKE_DIR)/monitor-b.prom \
	  --jsonl $(SMOKE_DIR)/monitor-b.jsonl
	cmp $(SMOKE_DIR)/monitor-a.prom $(SMOKE_DIR)/monitor-b.prom
	cmp $(SMOKE_DIR)/monitor-a.jsonl $(SMOKE_DIR)/monitor-b.jsonl

# Miss-attribution smoke (DESIGN.md section 13): the explain report and
# the regime-conditioned attainment table must be byte-identical across
# job counts (per-scenario solver state); the Prometheus page must be
# byte-identical across repeated runs at a fixed job count (trace
# counters such as warm-start iteration totals legitimately differ
# across job counts, so the page is only repeat-stable).
explain-smoke: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	dune exec --no-build bin/flexile_cli.exe -- explain IBM --two-class \
	  --scenarios srlg,partial,drift --max-pairs 60 --iterations 1 --jobs 1 \
	  --out $(SMOKE_DIR)/explain-a.json \
	  --regimes $(SMOKE_DIR)/explain-a-regimes.json
	dune exec --no-build bin/flexile_cli.exe -- explain IBM --two-class \
	  --scenarios srlg,partial,drift --max-pairs 60 --iterations 1 --jobs 4 \
	  --out $(SMOKE_DIR)/explain-b.json \
	  --regimes $(SMOKE_DIR)/explain-b-regimes.json \
	  --prom $(SMOKE_DIR)/explain-b.prom
	dune exec --no-build bin/flexile_cli.exe -- explain IBM --two-class \
	  --scenarios srlg,partial,drift --max-pairs 60 --iterations 1 --jobs 4 \
	  --prom $(SMOKE_DIR)/explain-c.prom
	cmp $(SMOKE_DIR)/explain-a.json $(SMOKE_DIR)/explain-b.json
	cmp $(SMOKE_DIR)/explain-a-regimes.json $(SMOKE_DIR)/explain-b-regimes.json
	cmp $(SMOKE_DIR)/explain-b.prom $(SMOKE_DIR)/explain-c.prom

# Solver-health doctor smoke (DESIGN.md section 15): the doctor report
# over the seeded near-singular fixture must be byte-identical across
# job counts (the replay is single-domain and carries no wall-clock
# values), both live — which also exercises the threshold-trip
# auto-dump — and replayed from that dump via --from-dump.
doctor-smoke: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	FLEXILE_HEALTH_DUMP=$(SMOKE_DIR) dune exec --no-build bin/flexile_cli.exe -- \
	  doctor --fixture near-singular --jobs 1 --out $(SMOKE_DIR)/doctor-a.json
	FLEXILE_HEALTH_DUMP=$(SMOKE_DIR) dune exec --no-build bin/flexile_cli.exe -- \
	  doctor --fixture near-singular --jobs 4 --out $(SMOKE_DIR)/doctor-b.json
	cmp $(SMOKE_DIR)/doctor-a.json $(SMOKE_DIR)/doctor-b.json
	dune exec --no-build bin/flexile_cli.exe -- doctor \
	  --from-dump $(SMOKE_DIR)/health-dump-near-singular-fixture.json \
	  --jobs 1 --out $(SMOKE_DIR)/doctor-c.json
	dune exec --no-build bin/flexile_cli.exe -- doctor \
	  --from-dump $(SMOKE_DIR)/health-dump-near-singular-fixture.json \
	  --jobs 4 --out $(SMOKE_DIR)/doctor-d.json
	cmp $(SMOKE_DIR)/doctor-c.json $(SMOKE_DIR)/doctor-d.json

# End-to-end benchmark smoke: each BENCHMARK.json workload once, with
# no timed phase, failing unless its last line reports every output
# check passed (reference penalties, the CWIX plan digest, the online
# allocations' guarantees).  Logs land in smoke/bench-<workload>.txt.
BENCH_WORKLOADS = $(shell python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

bench-smoke: | $(SMOKE_DIR)
	dune build flexbench/main.exe
	@for w in $(BENCH_WORKLOADS); do \
	  echo "bench-smoke: $$w"; \
	  dune exec --no-build --display=quiet -- flexbench/main.exe --workload $$w \
	    --seed 1 --seconds 0 --trace 0 > $(SMOKE_DIR)/bench-$$w.txt || exit 1; \
	  last=$$(tail -n 1 $(SMOKE_DIR)/bench-$$w.txt); \
	  case "$$last" in *'"correct": true'*'"failed": 0,'*) ;; \
	    *) echo "bench-smoke: $$w failed its checks"; \
	       grep 'CHECK FAILED' $(SMOKE_DIR)/bench-$$w.txt; exit 1;; esac; \
	done

# Relative headroom for the benchmark regression gate.  50% absorbs
# ordinary same-machine jitter; CI overrides this upward because the
# committed baseline was recorded on a different machine.
BENCH_TOLERANCE ?= 50

# Tier-1 verification: full build, both lint stages (syntactic
# pre-build signal, then the deep typedtree stage over the fresh cmts),
# the test suite, the monitor/explain/doctor determinism smokes, a
# smoke run of the micro-benchmarks (exercises the parallel sweep at
# jobs 1 and 4), and the regression gate against the committed
# baseline.
verify:
	$(MAKE) lint
	dune build
	$(MAKE) lint-deep
	dune runtest
	$(MAKE) monitor-smoke
	$(MAKE) explain-smoke
	$(MAKE) doctor-smoke
	dune exec bench/main.exe -- --micro
	dune exec bench/main.exe -- --gate --repeat 3 --jobs 2 \
	  --check BENCH_PR8.json --tolerance $(BENCH_TOLERANCE)

# Re-record the committed gate baseline (run on an idle machine).
baseline:
	dune exec bench/main.exe -- --gate --repeat 5 --jobs 2 \
	  --baseline BENCH_PR8.json

clean:
	dune clean
	rm -rf $(SMOKE_DIR)
