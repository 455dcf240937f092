GO ?= go

# Bench trajectory settings: the JSON the harness emits and the committed
# baseline bench-check compares against (latest BENCH_*.json by default).
# The run covers the full matrix GOMAXPROCS in {1, 4, NumCPU} (duplicates
# collapse on small hosts) x parallelism in {1, 4}, measures the
# internal/benchkit kernels per GOMAXPROCS value, and commits the
# multi-core scaling floors bench-check gates on hosts with >= 4 CPUs.
BENCH_JSON ?= BENCH_$(shell date +%F).json
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCH_ARGS ?= -scale eval -seed 1 -only table2,table3 -parallelism 1,4 -gomaxprocs 1,4,0 -scaling-floors table2=1.5,table3=1.5 -telemetry=false

# Native Go fuzzing budget per target; `make check` runs a short smoke pass,
# raise FUZZTIME for a longer campaign (e.g. make fuzz FUZZTIME=60s).
FUZZTIME ?= 5s

# Coverage floor for the observability layer (internal/telemetry/... and
# internal/ops): the flight recorder and the ops surface are the tools an
# operator reaches for mid-incident, so their test coverage is gated.
COVER_FLOOR ?= 85

.PHONY: build test vet lint lint-sarif lint-audit race fmt-check check fuzz bench bench-alloc bench-json bench-check cover e2e perfbench-test

# Pre-PR gate: everything `make check` runs must pass before a PR ships
# (see ROADMAP.md "Engineering gates").
check: build vet fmt-check lint test bench-alloc race fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Daemon end-to-end suite, run by name for a focused signal: deterministic
# journal replay across parallelism levels, 100+-tenant scale, the
# fault-injected soak, and the aegisd/aegisctl HTTP smoke tests. All of it
# also runs inside `make test` / `make race`.
e2e:
	$(GO) test -count=1 -v -run 'TestScenario|TestSheds|TestFaultSoak|TestDaemonConcurrentLifecycle' ./internal/daemon/...
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestCtlClientSmoke' ./cmd/aegisd/ ./cmd/aegisctl/

vet:
	$(GO) vet ./...

# Vet and unit-test the repository benchmark's own metric code. perfbench/
# is a separate Go module (it imports this one through a replace), so the
# root `go test ./...` does not reach it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race instrumentation slows the end-to-end experiment suites well past
# Go's default 10-minute per-package timeout; give them headroom.
race:
	$(GO) test -race -timeout 30m ./...

# Project-specific static analysis (exit 0 clean / 1 findings / 2 load
# error). Rules and the //aegis:allow suppression contract are documented
# in DESIGN.md "Mechanically enforced invariants". Per-package results are
# cached as lint-result artifacts in lint.aegis-artifact/ (gitignored), so
# a warm run re-analyzes only packages whose import-closure file contents
# changed.
lint:
	$(GO) run ./cmd/aegis-lint -cache ./...

# Same lint run rendered as SARIF 2.1.0 for GitHub code-scanning upload.
# The file is written even when findings exist; the lint exit status is
# preserved so the target still fails a dirty tree.
lint-sarif:
	@$(GO) run ./cmd/aegis-lint -sarif ./... > aegis-lint.sarif; \
	status=$$?; echo "lint-sarif: wrote aegis-lint.sarif"; exit $$status

# Machine-readable inventory of every //aegis:allow suppression: rule,
# position, reason, and whether it still suppresses or prunes anything.
lint-audit:
	$(GO) run ./cmd/aegis-lint -audit ./...

# gofmt over the same file walk the linter uses, so intentionally broken
# fixtures under testdata/ are skipped by both.
fmt-check:
	$(GO) run ./cmd/aegis-lint -gofmt

# Coverage-guided fuzzing of the DP mechanisms and the faulted tick loop.
fuzz:
	$(GO) test ./internal/obfuscator/ -run='^$$' -fuzz=FuzzMechanismDraw -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faultinject/proptest/ -run='^$$' -fuzz=FuzzTickUnderFaults -fuzztime $(FUZZTIME)

bench: bench-json
	$(GO) test -bench=. -benchmem -run=^$$ .

# Allocation gates: assert the steady-state hot paths (RDPMC, World.Step,
# obfuscator tick, stats scratch kernels) stay at 0 allocs/op. The gates
# are excluded under -race (instrumentation allocates), so `make race`
# still covers the same code for data races.
bench-alloc:
	$(GO) test -run 'TestZeroAlloc' -count=1 -v .

# Coverage gate on the observability layer: fails when total statement
# coverage across internal/telemetry/... + internal/ops drops below
# COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=cover.out ./internal/telemetry/... ./internal/ops/
	@$(GO) tool cover -func=cover.out | tail -1
	@pct=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "cover: observability coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; \
	fi

# Run the GOMAXPROCS x parallelism trajectory matrix and record
# wall-clock/throughput plus per-kernel ns/op and allocs/op.
bench-json:
	$(GO) run ./cmd/aegis-bench $(BENCH_ARGS) -bench-json $(BENCH_JSON)

# Re-run the matrix and fail on >20% per-experiment or per-kernel
# regressions, allocs/op increases, or (on hosts with >= 4 CPUs)
# trajectory speedups below the baseline's committed scaling floors.
bench-check:
	@if [ -z "$(BASELINE)" ]; then echo "bench-check: no BENCH_*.json baseline found"; exit 1; fi
	$(GO) run ./cmd/aegis-bench $(BENCH_ARGS) -bench-check $(BASELINE)
