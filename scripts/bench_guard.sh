#!/bin/sh
# Guards the fused round hot path against overhead creep. Two legs:
#
# (a) Allocations: BenchmarkRoundFused and the serve-shaped
#     BenchmarkRoundBatch/batched-fused-b=32-n=16-m=64 must perform zero
#     heap allocations per round at GOMAXPROCS 1 and 2, in each of three
#     runs: only with two or more Ps can a launch overtake its queued
#     helpers, so a single-P run cannot see that path allocate, and such
#     an allocation can show in one run of three. Observability must be
#     free when off; this is where that promise is enforced.
#
# (b) Time, paired against a base tree: the base is unpacked with
#     `git archive` into a temporary directory, both trees' test
#     binaries are built, and BenchmarkRoundFused/n=64/m=128 runs in
#     alternation, base and change, for 15 pairs of 300 ms (the order
#     flips every pair, so a drift in host speed falls on both sides).
#     The guard fails when the median of the per-pair ratios change/base
#     exceeds 1 + BENCH_GUARD_TOLERANCE percent (default 10, at most
#     20). Judging against the base on the same host, minutes apart,
#     keeps the verdict independent of the host's speed, which on a
#     shared 2-vCPU host swings by tens of percent from day to day.
#
#     The base is HEAD while the working tree differs from it, so an
#     uncommitted change is judged against its parent commit. On a clean
#     tree the change is HEAD's own commit, judged against HEAD~1.
#     BENCH_GUARD_BASE=<ref> names another base.
#
# A paired gate cannot see slow drift across many changes, so the guard
# also prints the change's median against the newest recorded
# BENCH_*.json baseline. That line is a record, not a verdict.
#
# Usage: scripts/bench_guard.sh
#   BENCH_GUARD_BASE       base commit (default HEAD, or HEAD~1 on a clean tree)
#   BENCH_GUARD_TOLERANCE  allowed median slowdown, percent (default 10, max 20)
set -eu

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

TOLERANCE="${BENCH_GUARD_TOLERANCE:-10}"
PAIRS=15
BENCHTIME=300ms
FUSED='BenchmarkRoundFused$/^n=64$/^m=128$'

if awk -v t="$TOLERANCE" 'BEGIN { exit !(t + 0 > 20) }'; then
	echo "bench_guard: BENCH_GUARD_TOLERANCE=$TOLERANCE is wider than the 20% ceiling" >&2
	exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM

go test -c -o "$TMP/change.test" .

# --- (a) allocation leg ----------------------------------------------------

# The default GOMAXPROCS joins the -cpu list when it is neither 1 nor 2.
PROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}"
CPUS="1,2"
case "$PROCS" in 1 | 2) ;; *) CPUS="1,2,$PROCS" ;; esac

# Three runs of one second per line: shorter runs can catch the -cpu 2
# lines' helper pool still warming up and read a few allocs/op.
"$TMP/change.test" -test.run '^$' -test.timeout 5m -test.bench 'BenchmarkRoundFused$' -test.benchtime 1s -test.count 3 -test.cpu "$CPUS" -test.benchmem | tee "$TMP/allocs.txt"
"$TMP/change.test" -test.run '^$' -test.timeout 5m -test.bench 'BenchmarkRoundBatch$/^batched-fused-b=32-n=16-m=64$' -test.benchtime 1s -test.count 3 -test.cpu "$CPUS" -test.benchmem | tee -a "$TMP/allocs.txt"

# Zero-allocation assertion, over every line: the rounds reuse every
# buffer they touch, so any steady-state allocation is a leak into the
# hot path.
MAX_ALLOCS="$(awk '/^Benchmark/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") if ($(i-1) + 0 > max + 0) max = $(i-1) } END { print max + 0 }' "$TMP/allocs.txt")"
LINES="$(grep -c '^Benchmark.*allocs/op' "$TMP/allocs.txt" || true)"
if [ "$LINES" -eq 0 ]; then
	echo "bench_guard: the allocation leg produced no benchmark lines" >&2
	exit 1
fi
if [ "$MAX_ALLOCS" -gt 0 ]; then
	echo "bench_guard: FAIL [allocs/op] — a round allocates $MAX_ALLOCS objects/op, want 0 (find the escape with \`go run ./cmd/esthera-vet -run noalloc ./...\`)" >&2
	exit 1
fi
echo "bench_guard: fused and batched rounds allocs/op: 0 on all $LINES lines at -cpu $CPUS"

# --- (b) paired time leg ---------------------------------------------------

if [ -n "${BENCH_GUARD_BASE:-}" ]; then
	BASE_REF="$BENCH_GUARD_BASE"
elif [ -z "$(git status --porcelain 2>/dev/null)" ]; then
	BASE_REF="HEAD~1"
	echo "bench_guard: the working tree matches HEAD, so HEAD's commit is judged against HEAD~1"
else
	BASE_REF="HEAD"
fi
if ! git rev-parse --verify --quiet "$BASE_REF^{commit}" >/dev/null; then
	echo "bench_guard: no base commit $BASE_REF to pair against; skipping the time leg" >&2
	exit 0
fi
mkdir "$TMP/base"
git archive "$BASE_REF" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go test -c -o "$TMP/base.test" .)

# run <side> appends the side's ns/op for one run of the fused round.
run() {
	dir="$ROOT"
	[ "$1" = base ] && dir="$TMP/base"
	ns="$(cd "$dir" && "$TMP/$1.test" -test.run '^$' -test.timeout 5m -test.bench "$FUSED" -test.benchtime "$BENCHTIME" |
		awk '/^BenchmarkRoundFused/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }')"
	if [ -z "$ns" ]; then
		echo "bench_guard: the $1 tree's BenchmarkRoundFused/n=64/m=128 produced no ns/op" >&2
		exit 1
	fi
	echo "$ns" >>"$TMP/$1.ns"
}

# One unrecorded run per side first: a binary's first run after its
# build reads slow on this kind of host.
run base
run change
rm -f "$TMP/base.ns" "$TMP/change.ns"

i=1
while [ "$i" -le "$PAIRS" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base
		run change
	else
		run change
		run base
	fi
	b="$(sed -n "${i}p" "$TMP/base.ns")"
	c="$(sed -n "${i}p" "$TMP/change.ns")"
	awk -v i="$i" -v b="$b" -v c="$c" 'BEGIN { printf "bench_guard: pair %d: base %.0f ns/op, change %.0f ns/op, ratio %.3f\n", i, b, c, c / b }'
	echo "$c $b" | awk '{ print $1 / $2 }' >>"$TMP/ratio"
	i=$((i + 1))
done

median() { sort -g "$1" | awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
RATIO="$(median "$TMP/ratio")"
CHANGE_NS="$(median "$TMP/change.ns")"
BASE_NS="$(median "$TMP/base.ns")"

# The record: newest recorded run that carries a fused-round number.
# "Newest" is the highest PR number in the filename, not file mtime;
# non-numeric suffixes (BENCH_custom.json from BENCH_OUT) are ignored.
RECORD=""
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
		RECORD="$f"
	fi
done
if [ -n "$RECORD" ]; then
	# First match is the "current" section; the pattern skips the
	# ".../m=128/metropolis" series some older records carry.
	REC_NS="$(sed -n 's/.*"BenchmarkRoundFused\/n=64\/m=128[^/"]*": {"ns_per_op": \([0-9][0-9.e+]*\).*/\1/p' "$RECORD" | head -1)"
	if [ -n "$REC_NS" ]; then
		awk -v c="$CHANGE_NS" -v r="$REC_NS" -v src="$RECORD" 'BEGIN { printf "bench_guard: record: change median %.0f ns/op is %+.1f%% against %s (%.0f ns/op; host speed moves this line, no verdict)\n", c, (c - r) / r * 100, src, r }'
	fi
fi

awk -v ratio="$RATIO" -v tol="$TOLERANCE" -v c="$CHANGE_NS" -v b="$BASE_NS" -v ref="$BASE_REF" -v k="$PAIRS" 'BEGIN {
	printf "bench_guard: fused round median %.0f ns/op against %.0f at %s over %d pairs: median ratio %.3f (%+.1f%%, tolerance +%s%%)\n", c, b, ref, k, ratio, (ratio - 1) * 100, tol
	if (ratio > 1 + tol / 100) {
		printf "bench_guard: FAIL [ns/op] — the change is %.1f%% slower than %s in the median pair; allocs/op already passed at 0\n", (ratio - 1) * 100, ref
		exit 1
	}
	print "bench_guard: ok"
}'
