GO ?= go

.PHONY: all ci vet lint build test short race race-stress bench bench-json fuzz

# The default target runs the full local gate: lint (go vet + divlint),
# build, and the plain test suite.
all: lint build test

# ci is what .github/workflows/ci.yml runs: lint, build, and the race-enabled
# test suite — the race detector is the correctness backstop for the
# internal/runner worker pool.
ci: lint build race

vet:
	$(GO) vet ./...

# lint runs go vet plus the project's own analyzers (determinism,
# specstring, conservation, sinkerr, the flow-sensitive isolation and
# lineaddr checks, and the call-graph hotalloc check). Concurrency is
# checked dynamically, by race and race-stress.
# The tree must stay at zero findings; suppress a justified exception with
# //lint:allow <analyzer> -- <reason>; `divlint -audit` reports stale ones.
lint: vet
	$(GO) run ./cmd/divlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# short skips the simulation-heavy tests (cross-worker equivalence sweep,
# full matrix smoke) for a fast edit-compile loop.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# race-stress repeats the concurrent-layer tests under the race detector at
# two scheduler widths, then repeats the lease tests, whose multi-process
# case re-executes the test binary as contending processes on one store.
# CI runs the same matrix.
race-stress:
	GOMAXPROCS=2 $(GO) test -race -count=3 ./internal/runner/... ./internal/store/... ./internal/sweep/... ./internal/obs/...
	GOMAXPROCS=8 $(GO) test -race -count=3 ./internal/runner/... ./internal/store/... ./internal/sweep/... ./internal/obs/...
	$(GO) test -race -count=20 -run Lease ./internal/store/

# bench runs every benchmark at a steady-state budget with allocation
# reporting; -benchtime 1x hid both warmup effects and the alloc columns.
bench:
	$(GO) test -bench . -benchtime 2s -benchmem -run '^$$' .

# bench-json emits the machine-readable trajectory (see BENCH_*.json and
# EXPERIMENTS.md "Performance methodology"). LABEL names the measurement;
# BENCH_OUT is the artifact path.
LABEL ?= dev
BENCH_OUT ?= bench.json
bench-json:
	$(GO) run ./cmd/benchjson -label $(LABEL) -o $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -validate $(BENCH_OUT)

# fuzz smoke-tests the spec-string grammar (no panics, normalized names are
# fixed points) and the decoders of bytes read from the store (no panics,
# whatever decodes re-encodes to the same bytes). Each target gets a short
# budget; CI runs the same. The store decoders' seeds are real records of a
# few KB, and minimizing each newly interesting input of that size would
# otherwise take the whole budget, so minimization is capped.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzByName -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSpecNormalize -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzResultCodec -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzStoreDecode -fuzztime 10s -fuzzminimizetime 1s
