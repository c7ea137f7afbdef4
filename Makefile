.PHONY: build test lint vet-ratchet verify bench bench-json serve chaos

# Build-info stamping: esthera/internal/telemetry.Version defaults to
# "dev"; builds through make stamp it from git so `esthera-serve
# -version`, the listen banner and /healthz report the exact commit.
VERSION ?= $(shell git describe --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X esthera/internal/telemetry.Version=$(VERSION)"

build:
	go build $(LDFLAGS) ./...

test:
	go test ./...

# Run the esthera-vet static-analysis suite (determinism, barrier
# safety, float ordering, checkpoint wire-format compatibility, and the
# compiler-diagnostic contracts: noalloc, bce ratchet, draw order, lock
# order) over the whole module. Exits non-zero on any finding.
lint:
	go run ./cmd/esthera-vet ./...

# Recompute scripts/bce_baseline.txt from the tree's current
# //esthera:hotpath bce functions. Run after a deliberate, reviewed
# change to a hot loop's retained bounds checks; the diff is the audit.
vet-ratchet:
	go run ./cmd/esthera-vet -ratchet

# Build + vet + esthera-vet + full test suite, every package under the
# race detector, and a benchmark smoke run. This is the pre-merge gate.
verify:
	./scripts/verify.sh

bench:
	go test -bench=. -benchmem

# Round hot-path benchmarks (unfused / fused / serve-batched) written to
# BENCH_2.json, with the recorded pre-optimization baseline merged in.
bench-json:
	./scripts/bench.sh

serve:
	go run ./cmd/esthera-serve

# Sharded-serving chaos drill: router + 3 replicas, swarm load, kill -9
# and restart one replica mid-run. Fails on any non-retryable error or
# a blown p99 budget. Also runs inside verify via CHAOS=1.
chaos:
	./scripts/test_chaos_shards.sh
