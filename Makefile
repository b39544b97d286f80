GO ?= go

# bench-gate: max allowed slowdown (percent) before the gate fails.
GATE_THRESHOLD ?= 2

.PHONY: build test race vet lint perfbench-check bench-smoke bench-gate bench-par serve-demo serve-smoke convert-smoke decomp-smoke fuzz-smoke fmt fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race check over every package; -short skips only the lint suite and the
# exhaustive small-graph solve.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# symlint: the repository's own go/analysis-style suite (internal/lint)
# enforcing determinism, trace-pairing and parallel-runtime invariants.
# Zero findings required; see DESIGN.md § Static analysis.
lint:
	$(GO) run ./cmd/symlint ./...

# perfbench/ is the repo benchmark (BENCHMARK.json): its own module,
# compiled against this tree through a replace directive, so `go test
# ./...` never builds it. Vet and test it here so a signature change in
# internal/ cannot break the benchmark unnoticed.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Quick end-to-end benchmark smoke: one iteration of the paper-figure
# benchmarks plus the frontier-engine, MPX, and binary-I/O micro-benchmarks,
# archived as JSON for cross-PR regression comparison.
SMOKE_BENCHES = ^(BenchmarkFig2Decomp|BenchmarkTable1|BenchmarkDecompMPX|BenchmarkFrontierHybridBFS|BenchmarkLoadBinary|BenchmarkDecodeAdjacency)
bench-smoke:
	$(GO) test -run='^$$' -bench='$(SMOKE_BENCHES)' -benchtime=1x . \
		| $(GO) run scripts/bench2json.go -o BENCH_pr1.json

# Regression gate: re-run the smoke benchmarks (3 repeats, best-of-N per
# name) and fail if any is more than GATE_THRESHOLD percent slower than
# the archived BENCH_pr1.json baseline. Improvements always pass.
bench-gate:
	$(GO) test -run='^$$' -bench='$(SMOKE_BENCHES)' -benchtime=1x -count=3 . \
		| $(GO) run scripts/bench2json.go -compare BENCH_pr1.json -threshold $(GATE_THRESHOLD)

# Runtime micro-benchmarks: pooled dispatch vs the seed spawn-per-call
# implementation, scan/filter allocation behavior, CSR construction.
bench-par:
	$(GO) test -run='^$$' -bench='ForSpawn|RangeSkewed|RangeBackToBack|ExclusiveSum32|FilterCompact' -benchtime=100x ./internal/par/
	$(GO) test -run='^$$' -bench='BuilderFromEdges|PartitionByLabel' -benchtime=10x ./internal/graph/

# Live-telemetry demo: a figure run with the HTTP server up for manual
# inspection — curl localhost:9090/metrics, /trace, /debug/pprof/ while
# it runs (use -repeats to stretch the run).
serve-demo:
	$(GO) run ./cmd/benchall -exp fig3 -repeats 3 -serve :9090

# End-to-end daemon check: boot `symbreak -serve` with a small corpus,
# drive it with symload for a few seconds, verify the serve metrics moved
# on /metrics, and shut down gracefully. See docs/OPS.md.
serve-smoke:
	bash scripts/serve_smoke.sh

# Binary-format round-trip check: generate a graph, convert text <-> .scsr
# (raw, compressed, and out-of-core), validate every artifact, and verify
# the solver digest is identical across all load paths. See docs/OPS.md.
convert-smoke:
	bash scripts/convert_smoke.sh

# Decomposition CLI check: every technique runs on a small instance, and an
# unknown technique or an out-of-range -parts/-k/-beta exits with a
# one-line error instead of a panic.
decomp-smoke:
	bash scripts/decomp_smoke.sh

# Fuzz smoke: ten seconds each of FuzzSolve (every solver cell on decoded
# graphs, one digest at 1, 2 and 7 workers), FuzzSolveRequest (POST /solve
# bodies through an in-process service) and the four graph parser
# fuzzers. A failing input lands in the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSolve$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSolveRequest$$' -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgeList$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzTextBinaryRoundTrip$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadMETIS$$' -fuzztime=10s ./internal/graph

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

# fmt-check: the CI-facing mode of fmt — list unformatted files and fail
# instead of rewriting them. It also reads perfbench/, its own module,
# which `go list ./...` does not reach; fmt leaves that directory alone.
fmt-check:
	@unformatted=$$(gofmt -l $$($(GO) list -f '{{.Dir}}' ./...) perfbench); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
