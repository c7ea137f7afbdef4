#!/bin/sh
# Chaos drill for the sharded serving stack: build the three binaries,
# start a router fronting 3 esthera-serve replicas (session API plus
# shard control endpoints, both HTTP, each), drive swarm load for the whole run, kill -9 one
# replica mid-run and restart it later. esthera-swarm judges the run:
# it exits non-zero if any session saw a non-retryable error (the
# failover must be absorbed by 503+Retry-After retries) or stepping p99
# exceeded its budget. Replica death must cost retries, not errors.
#
# Opt-in from verify.sh via CHAOS=1 (or `make chaos`): it burns ~30s of
# wall clock and binds local ports (base CHAOS_PORT_BASE, default 19480).
#
# Usage: scripts/test_chaos_shards.sh
set -eu

cd "$(dirname "$0")/.."

PORT="${CHAOS_PORT_BASE:-19480}"
DURATION="${CHAOS_DURATION:-20s}"
SESSIONS="${CHAOS_SESSIONS:-9}"

TMP="$(mktemp -d)"
PIDS=""
cleanup() {
	for p in $PIDS; do
		kill "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "chaos: building binaries" >&2
go build -o "$TMP/esthera-serve" ./cmd/esthera-serve
go build -o "$TMP/esthera-router" ./cmd/esthera-router
go build -o "$TMP/esthera-swarm" ./cmd/esthera-swarm
go build -o "$TMP/esthera-trace" ./cmd/esthera-trace

# start_replica <index>: session API on PORT+i, shard control endpoints
# on PORT+10+i.
# Prints the replica pid; logs append so a restart keeps history.
# Tracing is on so the post-run merge can assert span continuity.
start_replica() {
	"$TMP/esthera-serve" \
		-addr "127.0.0.1:$((PORT + $1))" \
		-shard-addr "127.0.0.1:$((PORT + 10 + $1))" \
		-shard-name "r$1" -trace \
		>>"$TMP/replica$1.log" 2>&1 &
	echo $!
}

# fetch_traces <tag>: drain every process's span ring into
# trace_<proc>_<tag>.json. Drains are periodic (GET /trace empties the
# ring) so a long run cannot overflow spans recorded early — the
# failover spans from the kill land in the first drain. A dead or
# freshly restarted process is tolerated here; empty drains are
# filtered out before the merge.
fetch_traces() {
	"$TMP/esthera-trace" fetch -out "$TMP/trace_router_$1.json" \
		"http://127.0.0.1:$PORT/trace?format=raw" 2>/dev/null || true
	for i in 1 2 3; do
		"$TMP/esthera-trace" fetch -out "$TMP/trace_r${i}_$1.json" \
			"http://127.0.0.1:$((PORT + i))/trace?format=raw" 2>/dev/null || true
	done
}

# wait_ready <name> <base url>: poll GET <base url>/readyz until it
# answers 200, so the swarm never races a listener that is not up yet
# (a refused create would fail the drill). Gives up after 10s.
wait_ready() {
	tries=0
	until curl -sf -o /dev/null "$2/readyz" 2>/dev/null ||
		wget -qO /dev/null "$2/readyz" 2>/dev/null; do
		tries=$((tries + 1))
		if [ "$tries" -ge 100 ]; then
			echo "chaos: FAIL — $1 did not answer 200 on $2/readyz within 10s" >&2
			tail -20 "$TMP/$1.log" >&2 || true
			exit 1
		fi
		sleep 0.1
	done
}

R1="$(start_replica 1)"
R2="$(start_replica 2)"
R3="$(start_replica 3)"
PIDS="$R1 $R2 $R3"
for i in 1 2 3; do
	wait_ready "replica$i" "http://127.0.0.1:$((PORT + i))"
done

SPEC="r1|http://127.0.0.1:$((PORT + 1))|127.0.0.1:$((PORT + 11))"
SPEC="$SPEC,r2|http://127.0.0.1:$((PORT + 2))|127.0.0.1:$((PORT + 12))"
SPEC="$SPEC,r3|http://127.0.0.1:$((PORT + 3))|127.0.0.1:$((PORT + 13))"

"$TMP/esthera-router" \
	-addr "127.0.0.1:$PORT" \
	-shards "$SPEC" \
	-probe 100ms -fail-after 2 -retry-hint 25ms \
	-snapshot 500ms -rebalance-threshold 3 -trace \
	>"$TMP/router.log" 2>&1 &
ROUTER=$!
PIDS="$PIDS $ROUTER"
wait_ready router "http://127.0.0.1:$PORT"

# Periodic trace drains for the whole run: the span rings are
# fixed-capacity and swarm load overwrites them in a couple of seconds,
# so a single post-run drain would have lost the failover spans from
# the kill. Draining every quarter second bounds any span's time-at-risk
# to one interval, short enough that a busy replica does not fill its
# 32,768-span ring within it; same-named files land on the same merged
# track.
(
	n=0
	while :; do
		sleep 0.25
		n=$((n + 1))
		fetch_traces "p$n"
	done
) &
POLLER=$!
PIDS="$PIDS $POLLER"

echo "chaos: starting swarm ($SESSIONS sessions, $DURATION)" >&2
"$TMP/esthera-swarm" \
	-router "http://127.0.0.1:$PORT" \
	-sessions "$SESSIONS" -duration "$DURATION" \
	-attempts 128 -p99-budget 2s \
	>"$TMP/swarm.json" &
SWARM=$!
PIDS="$PIDS $SWARM"

sleep 5
echo "chaos: kill -9 replica r2 (pid $R2)" >&2
kill -9 "$R2" 2>/dev/null || true

sleep 5
echo "chaos: restarting replica r2" >&2
R2="$(start_replica 2)"
PIDS="$PIDS $R2"

STATUS=0
wait "$SWARM" || STATUS=$?

echo "chaos: swarm summary:" >&2
cat "$TMP/swarm.json"

if [ "$STATUS" -ne 0 ]; then
	echo "chaos: FAIL — swarm saw non-retryable errors or blew its p99 budget" >&2
	echo "chaos: router log tail:" >&2
	tail -40 "$TMP/router.log" >&2 || true
	exit "$STATUS"
fi

# Post-chaos trace merge: stop the poller, final drain, clock offsets
# from the router's ping estimator, then align every per-process trace
# onto one timeline.
kill "$POLLER" 2>/dev/null || true
# -require-cross fails the merge unless at least one trace ID observed
# in two or more processes traverses the failover path — proof that the
# killed replica's sessions kept their trace identity across the hop.
fetch_traces end
curl -sf "http://127.0.0.1:$PORT/v1/shards" >"$TMP/shards.json" ||
	wget -qO "$TMP/shards.json" "http://127.0.0.1:$PORT/v1/shards"

TRACES=""
for f in "$TMP"/trace_*.json; do
	[ -f "$f" ] || continue
	# Skip empty drains (a freshly restarted replica's ring starts empty).
	grep -q '"events":\[{' "$f" && TRACES="$TRACES $f"
done
if [ -z "$TRACES" ]; then
	echo "chaos: FAIL — no non-empty trace drains collected" >&2
	exit 1
fi
# shellcheck disable=SC2086 # TRACES is a space-separated file list
if ! "$TMP/esthera-trace" merge -out "$TMP/merged_trace.json" \
	-shards "$TMP/shards.json" -require-cross failover.place $TRACES >&2; then
	echo "chaos: FAIL — merged trace missing a cross-process failover trace" >&2
	exit 1
fi
# The merged artifact must itself be a parseable trace.
if ! "$TMP/esthera-trace" summary -in "$TMP/merged_trace.json" >&2; then
	echo "chaos: FAIL — merged trace does not parse" >&2
	exit 1
fi

echo "chaos: ok — replica death cost retries, not errors; failover kept trace continuity" >&2
