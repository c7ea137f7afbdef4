#!/bin/sh
# Guards the fused round hot path against overhead creep: reruns
# BenchmarkRoundFused (telemetry disabled — the default) and asserts
# (a) the best-of-N ns/op at the default GOMAXPROCS, the lines
# scripts/bench.sh records, is within BENCH_GUARD_TOLERANCE percent
# (default 20) of the newest recorded BENCH_*.json baseline, and
# (b) the steady-state round performs zero heap allocations at
# GOMAXPROCS 1 and 2: only with two or more Ps can a launch overtake
# its queued helpers, so a single-P run cannot see that path allocate.
# Observability must be free when off; this is where that promise is
# enforced.
#
# The recorded baseline is a best-of-N on a noisy single-core host whose
# run-to-run spread is ±15%, so the default tolerance is wide: it exists
# to catch structural regressions (an extra pass over the particles, a
# lost fusion — tens of percent), not single-digit drift the host cannot
# resolve. Tighten BENCH_GUARD_TOLERANCE on a quiet machine.
#
# With no recorded baseline the guard warns and exits 0 (first run on a
# fresh tree), so verify.sh stays runnable everywhere.
#
# Usage: scripts/bench_guard.sh
set -eu

cd "$(dirname "$0")/.."

TOLERANCE="${BENCH_GUARD_TOLERANCE:-20}"
COUNT="${BENCH_GUARD_COUNT:-3}"
BENCHTIME="${BENCH_GUARD_BENCHTIME:-1s}"

# Newest recorded run that carries a fused-round number. "Newest" is
# the highest PR number in the filename, NOT file mtime: not every PR
# records a bench, so the BENCH_<n>.json numbering has gaps (e.g. only
# BENCH_2 and BENCH_5), and a checkout or touch can reorder mtimes.
# Non-numeric suffixes (BENCH_custom.json from BENCH_OUT) are ignored.
BASELINE=""
BEST=-1
for f in BENCH_*.json; do
	[ -f "$f" ] || continue
	n="${f#BENCH_}"
	n="${n%.json}"
	case "$n" in
	'' | *[!0-9]*) continue ;;
	esac
	if [ "$n" -gt "$BEST" ] && grep -q '"BenchmarkRoundFused' "$f"; then
		BEST="$n"
		BASELINE="$f"
	fi
done
if [ -z "$BASELINE" ]; then
	echo "bench_guard: no BENCH_*.json baseline with BenchmarkRoundFused; skipping (run scripts/bench.sh to record one)" >&2
	exit 0
fi

# First match is the "current" section (emitted before any merged-in
# historical baseline section). Older baselines also record a
# ".../m=128/metropolis" series of a since-deleted resampler; the
# pattern skips it.
BASE_NS="$(sed -n 's/.*"BenchmarkRoundFused\/[^"]*m=128[^/"]*": {"ns_per_op": \([0-9][0-9.e+]*\).*/\1/p' "$BASELINE" | head -1)"
if [ -z "$BASE_NS" ]; then
	echo "bench_guard: could not parse BenchmarkRoundFused ns/op from $BASELINE; skipping" >&2
	exit 0
fi

# The default GOMAXPROCS joins the -cpu list when it is neither 1 nor 2.
# go test names a benchmark line "<name>-<procs>", with no suffix at 1.
PROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}"
CPUS="1,2"
case "$PROCS" in 1 | 2) ;; *) CPUS="1,2,$PROCS" ;; esac
SUFFIX=""
[ "$PROCS" -eq 1 ] || SUFFIX="-$PROCS"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
go test -run '^$' -bench 'BenchmarkRoundFused$' -benchtime "$BENCHTIME" -count "$COUNT" -cpu "$CPUS" -benchmem . | tee "$RAW"

FRESH_NS="$(awk -v sfx="$SUFFIX" '/^BenchmarkRoundFused/ && $1 ~ ("m=128" sfx "$") { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") ns = $(i-1); if (best == "" || ns + 0 < best + 0) best = ns } END { print best }' "$RAW")"
if [ -z "$FRESH_NS" ]; then
	echo "bench_guard: BenchmarkRoundFused produced no ns/op at GOMAXPROCS $PROCS" >&2
	exit 1
fi

# Zero-allocation assertion, over every -cpu line: the fused round
# reuses every buffer it touches, so any steady-state allocation is a
# leak into the hot path.
MAX_ALLOCS="$(awk '/^BenchmarkRoundFused/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") if ($(i-1) + 0 > max + 0) max = $(i-1) } END { print max + 0 }' "$RAW")"
if [ "$MAX_ALLOCS" -gt 0 ]; then
	echo "bench_guard: FAIL [allocs/op] — fused round allocates $MAX_ALLOCS objects/op, want 0 (ns/op not at fault; find the escape with \`go run ./cmd/esthera-vet -run noalloc ./...\`)" >&2
	exit 1
fi
echo "bench_guard: fused round allocs/op: 0 at -cpu $CPUS"

awk -v fresh="$FRESH_NS" -v base="$BASE_NS" -v tol="$TOLERANCE" -v src="$BASELINE" 'BEGIN {
	limit = base * (1 + tol / 100)
	delta = (fresh - base) / base * 100
	printf "bench_guard: fused round %.0f ns/op vs %.0f baseline (%s): %+.1f%% (tolerance +%s%%)\n", fresh, base, src, delta, tol
	if (fresh > limit) {
		printf "bench_guard: FAIL [ns/op] — fused round %.0f ns/op exceeds limit %.0f (baseline %.0f +%s%%); allocs/op already passed at 0\n", fresh, limit, base, tol
		exit 1
	}
	print "bench_guard: ok"
}'
