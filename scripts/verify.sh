#!/bin/sh
# Full verification, the one pre-merge gate: build + vet + the
# esthera-vet static-analysis suite, then tests everywhere, then every
# package again under the race detector, a benchmark smoke run and the
# fused-round benchmark guard.
# esthera-vet enforces the determinism and work-group safety invariants
# (see DESIGN.md "Static guarantees"); any diagnostic fails the run.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The benchmark is its own module (perfbench/go.mod, with esthera
# replaced by this checkout): compile and vet it, so a change to the
# API it drives (Server.Stats, Router.Stats, Profiler().Stats) fails
# here rather than at benchmark time. Vet only: its tests check the
# benchmark definition, which changes only with the benchmark.
(cd perfbench && GOWORK=off go vet .)
go run ./cmd/esthera-vet -list
# -require makes the sweep fail loudly if a module-path change ever
# silently drops a load-bearing package from ./... coverage: telemetry
# (the leaf package every hot path calls into, under the noalloc ratchet
# for its disabled-path helpers) and telemetry/log (the slog ring
# handler, whose Enabled level gate is under the same ratchet), shard (the
# control endpoints' *Msg bodies under checkpointcompat), the //esthera:hotpath-annotated
# numeric core (kernels/sortnet/scan/rng/model under noalloc+bce, model
# under draworder), and serve (lockorder).
go run ./cmd/esthera-vet -require esthera/internal/telemetry,esthera/internal/telemetry/log,esthera/internal/shard,esthera/internal/kernels,esthera/internal/sortnet,esthera/internal/scan,esthera/internal/rng,esthera/internal/model,esthera/internal/model/arm,esthera/internal/serve ./...
go test ./...
go test -race ./...
# The vectorized lane kernels and the branchless sort/search paths are
# sensitive to codegen: re-run the numeric core once more under
# GOAMD64=v3 (AVX2-era ISA selection) so an instruction-selection
# difference that breaks bit-identity surfaces here, not on a user's
# machine. Probed: only meaningful on amd64, and only when the host CPU
# actually has the v3 feature set (avx2 implies the rest for this
# check's purposes).
if [ "$(go env GOARCH)" = "amd64" ] && grep -q avx2 /proc/cpuinfo 2>/dev/null; then
	GOAMD64=v3 go test ./internal/kernels/ ./internal/filter/ ./internal/sortnet/ ./internal/rng/ ./internal/model/...
else
	echo "verify: skipping GOAMD64=v3 leg (not amd64 or no avx2)"
fi
# The serving robustness layer (cancellation, shutdown, drain) is pure
# concurrency: hammer it repeatedly under the race detector so
# interleaving-dependent regressions surface before merge.
go test -race -count=3 ./internal/serve/...
# Restore decodes checkpoints that arrive from other processes (a
# migration, a failover, POST /v1/restore), stream states included:
# fuzz that decoder past its committed corpus for a bounded time. Each
# new input is minimized for at most 2 s: at the 60 s default the
# coordinator spends the leg minimizing after its first few seconds.
go test -run '^$' -fuzz FuzzRestoreCheckpoint -fuzztime 20s -fuzzminimizetime 2s ./internal/serve
# The router is concurrent the same way: failover recreates and restores
# sessions while probes, steps and migrations run.
go test -race -count=3 ./internal/shard/...
# Benchmark smoke: one short iteration of every benchmark, asserting they
# still run (not measuring them).
go test -run '^$' -bench . -benchtime 1x ./...
# Observability must be free when disabled: the fused and batched rounds
# allocate nothing, and the fused round is no slower than at its base
# commit (HEAD, or HEAD~1 on a clean tree) beyond tolerance, judged in
# alternating runs of both trees on this host.
scripts/bench_guard.sh
# Sharded-serving chaos drill (router + replicas + kill/restore) is
# opt-in: it builds three binaries and runs ~30s of wall-clock load.
if [ "${CHAOS:-0}" = "1" ]; then
	scripts/test_chaos_shards.sh
fi
