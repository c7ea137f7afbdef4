#!/bin/sh
# CI pipeline: the full gate a merge must pass, in fail-fast order —
# cheapest checks first, the expensive race sweep and benchmark smoke
# last. Mirrors `make ci`.
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
# Same -require coverage guard as verify.sh: the sweep must include the
# telemetry/wire packages and the //esthera:hotpath-annotated core.
go run ./cmd/esthera-vet -require esthera/internal/telemetry,esthera/internal/telemetry/log,esthera/internal/shard,esthera/internal/kernels,esthera/internal/sortnet,esthera/internal/scan,esthera/internal/rng,esthera/internal/model,esthera/internal/model/arm,esthera/internal/serve ./...
go test ./...
go test -race ./...
# Same hammer as verify.sh: the serving layer's cancellation, shutdown
# and drain paths are pure concurrency, so run them repeatedly under the
# race detector to surface interleaving-dependent regressions.
go test -race -count=3 ./internal/serve/...
# Benchmark smoke: one short iteration of every benchmark, asserting they
# still run (not measuring them).
go test -run '^$' -bench . -benchtime 1x ./...
