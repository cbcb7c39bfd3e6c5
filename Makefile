# oblivhm — reproduction of "Oblivious Algorithms for Multicores and
# Network of Processors" (IPDPS 2010).  Stdlib-only.  Go toolchain >= 1.23;
# go.mod stays at go 1.22 so perfbench builds: the engine's iter.Pull
# strands sit behind a go1.23 build constraint, and the go 1.22 perfbench
# module would refuse a newer go line in the module it replaces onto.

GO ?= go

.PHONY: all test bench bench-smoke tables examples vet oblivcheck trace-check lint cover race failure-sweep fuzz soak profile sweep sweep-smoke clean

all: vet test

test:
	$(GO) test ./...

# gofmt -l exits 0 even when it lists files, so check its output explicitly
# instead of relying on the && short-circuit.
vet:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# Build the repo's vettool and run the oblivcheck suite (obliviousness,
# determinism, hint hygiene, data-obliviousness) over every package.  See
# DESIGN.md §8.
oblivcheck:
	$(GO) build -o bin/oblivcheck ./cmd/oblivcheck
	$(GO) vet -vettool=$(CURDIR)/bin/oblivcheck ./...

# Trace-equality gate, the dynamic half of the data-obliviousness
# enforcement (DESIGN.md §8): every kernel in an //oblivcheck:dataoblivious
# package must produce an identical memory-access trace on two different
# random inputs of the same shape, the value-dependent kernels (sort,
# listrank) must not, and an injected secret-dependent branch must be
# caught.  Run under the race detector.
trace-check:
	$(GO) test -race -run 'TestTrace' -count=1 ./internal/harness ./internal/hm

# One-shot static-check entry point: formatting + go vet + oblivcheck, plus
# staticcheck when it is installed (CI pins and installs it; local trees
# without the binary still get the full in-repo suite).
lint: vet oblivcheck
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (CI runs it)"; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over the E-series and round-loop benches: a cheap
# crash gate, not a timing run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'E[0-9]' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'RoundLoop' -benchtime 1x .

# Regenerate the paper's Table I / Table II / ablation measurements
# (EXPERIMENTS.md records a captured run).
tables:
	$(GO) run ./cmd/tables

tables-quick:
	$(GO) run ./cmd/tables -quick

# Run a declared experiment grid through the sweep engine and evaluate its
# hypotheses (exit 1 on any failing verdict).  Override SPEC for other
# grids, e.g. SPEC=specs/chaos_stability.json.
SPEC ?= specs/sb_vs_flat.json
sweep:
	$(GO) run ./cmd/sweep -spec $(SPEC) -hypothesis

# CI gate: a tiny spec end to end with -hypothesis, then the same grid at
# workers=1 vs workers=4 — the JSONL streams must be byte-identical (the
# determinism contract extended to the sweep layer).
sweep-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/sweep -spec specs/smoke.json -hypothesis -quiet -workers 4 -out bin/smoke_w4.jsonl
	$(GO) run ./cmd/sweep -spec specs/smoke.json -hypothesis -quiet -workers 1 -out bin/smoke_w1.jsonl
	cmp bin/smoke_w1.jsonl bin/smoke_w4.jsonl

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/apsp
	$(GO) run ./examples/signal
	$(GO) run ./examples/netgraph
	$(GO) run ./examples/solver

cover:
	$(GO) test -cover ./internal/...

# Race-check the engine, the golden-metrics layer and the sweep runner
# (the packages with real concurrency: strand goroutines, the native
# executor, and the sweep worker pool incl. the rebased cmd/tables).
race:
	$(GO) test -race ./internal/core/... ./internal/harness/... ./internal/sweep ./cmd/tables

# Failure-injection gate: the seeded kill/straggler/cache-fault suite and
# the 16-seed failure sweep over the golden matrix under the race detector,
# then the checked-in survivability spec end to end through the hypothesis
# harness (exit 1 unless SB provably survives one core loss within 2x).
failure-sweep:
	$(GO) test -race -run 'Failure|Watchdog|Recovery|Fault|Survivab' ./internal/core ./internal/harness ./internal/hm ./internal/sweep
	$(GO) run ./cmd/sweep -spec specs/survivability.json -hypothesis -quiet

# Chaos soak: randomized algo × machine × n sweep under seeded fault
# injection with runtime invariants and the race detector, plus interleaved
# chaos-off determinism probes and failure-plan outcome probes (disable the
# latter with `go run ./cmd/soak -failures=false`).  SOAKTIME=10m for
# longer runs.
SOAKTIME ?= 60s
soak:
	$(GO) run -race ./cmd/soak -duration=$(SOAKTIME) -failures

# Short native fuzz runs: the SPMS sorter and the prefix scan against
# their sequential specifications, and the sweep-spec parser against its
# typed-error contract.  FUZZTIME=1m fuzz for longer runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzSPMSSort -fuzztime=$(FUZZTIME) ./internal/spms
	$(GO) test -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/scan
	$(GO) test -fuzz=FuzzSweepSpec -fuzztime=$(FUZZTIME) ./internal/sweep

# Flame-graph starting point for perf work: profile a representative
# simulated run.  Override PROFILE_ARGS for other workloads, e.g.
# PROFILE_ARGS="-algo mm -machine mc3 -n 16384 -repeat 5".
PROFILE_ARGS ?= -algo sort -machine hm4 -n 8192 -repeat 10
profile:
	$(GO) run ./cmd/hmsim $(PROFILE_ARGS) -cpuprofile cpu.out -memprofile mem.out
	@echo "inspect with: $(GO) tool pprof -top cpu.out   (or -http=:8080)"

clean:
	rm -f test_output.txt bench_output.txt cpu.out mem.out
	rm -rf bin
