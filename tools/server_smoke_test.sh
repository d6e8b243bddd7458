#!/usr/bin/env bash
# End-to-end smoke test: boots kspin_server on an ephemeral port, drives
# it with kspin_cli (ping, searches, an update, metrics), checks a clean
# SIGINT shutdown, then runs a crash/restore cycle: snapshot, kill -9,
# restart from --snapshot-dir, and verify byte-identical query results.
# Then boots a primary + replica pair: writes through the primary,
# demands byte-identical replica reads after catch-up, kills the primary
# with SIGKILL, and checks that a --endpoints failover client keeps
# answering. Finally drives the durable write path: acked insert/update/
# delete land in the op log, survive a kill -9 of the primary via boot
# replay, ship to a replica by log tailing (no extra snapshot transfer),
# and remain readable through a failover client after the primary dies
# again. Closes with the epoch-fenced failover drill: a chaos proxy with
# a seeded fault plan partitions the primary, the replica is promoted
# behind the cut, the stale primary is fenced (STALE_EPOCH), a failover
# client re-routes on its own, and the ex-primary rejoins by
# quarantining its divergent op-log tail. The last drill is overload:
# a deliberately under-provisioned server is saturated by the load
# harness until it sheds with OVERLOADED and browns out, then must
# stand down (overload_state back to 0) on its own once the load stops.
# After both drills `kspin_cli diag` dumps the always-on flight
# recorder and must reconstruct the story — promotion, replication
# source switch, brownout entry/exit, shed bursts — from the ring
# alone, long after the fact. Exercises the real binaries over real
# TCP — the piece unit tests cannot cover.
#
# Usage: tools/server_smoke_test.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/kspin_server"
KCLI="$BUILD_DIR/tools/kspin_cli"
PROXY="$BUILD_DIR/tools/chaos_proxy"
LOADGEN="$BUILD_DIR/tools/load_harness"
LOG="$(mktemp)"
RLOG="$(mktemp)"
PXLOG="$(mktemp)"
PXERR="$(mktemp)"
SNAPDIR="$(mktemp -d)"
PSNAPDIR="$(mktemp -d)"
RSNAPDIR="$(mktemp -d)"
MPRIDIR="$(mktemp -d)"
MREPDIR="$(mktemp -d)"
FOPRI_SNAP="$(mktemp -d)"
FOPRI_OPLOG="$(mktemp -d)"
FOREP_SNAP="$(mktemp -d)"
FOREP_OPLOG="$(mktemp -d)"

for bin in "$SERVER" "$KCLI" "$PROXY" "$LOADGEN"; do
  if [[ ! -x "$bin" ]]; then
    echo "smoke: missing binary $bin" >&2
    exit 1
  fi
done

cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  [[ -n "${REPLICA_PID:-}" ]] && kill -9 "$REPLICA_PID" 2>/dev/null || true
  [[ -n "${PROXY_PID:-}" ]] && kill -9 "$PROXY_PID" 2>/dev/null || true
  rm -f "$LOG" "$RLOG" "$PXLOG" "$PXERR"
  rm -rf "$SNAPDIR" "$PSNAPDIR" "$RSNAPDIR" "$MPRIDIR" "$MREPDIR" \
    "$FOPRI_SNAP" "$FOPRI_OPLOG" "$FOREP_SNAP" "$FOREP_OPLOG"
}
trap cleanup EXIT

# Loud failure for the failover drill: dump every involved log so a CI
# timeout never hides which side wedged.
fo_die() {
  echo "smoke: $*" >&2
  echo "--- primary log ---" >&2; cat "$LOG" >&2 || true
  echo "--- replica log ---" >&2; cat "$RLOG" >&2 || true
  echo "--- proxy log ---" >&2; cat "$PXLOG" "$PXERR" >&2 || true
  exit 1
}

# Starts $SERVER with the given extra flags, waits for its port, and sets
# SERVER_PID + PORT. Truncates and reuses $LOG.
start_server() {
  : >"$LOG"
  "$SERVER" --port=0 --grid=20x20 --pois=200 --seed=3 "$@" >"$LOG" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$LOG")"
    [[ -n "$PORT" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG" >&2; exit 1; }
    sleep 0.1
  done
  [[ -n "$PORT" ]] || { echo "smoke: server never reported its port" >&2; cat "$LOG" >&2; exit 1; }
}

start_server
echo "smoke: server up on port $PORT"

"$KCLI" ping --endpoints=127.0.0.1:"$PORT"
echo "smoke: ping ok"

RESULTS="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=3 --query="kw0 or kw1")"
[[ -n "$RESULTS" ]] || { echo "smoke: empty search results" >&2; exit 1; }
echo "smoke: search returned $(wc -l <<<"$RESULTS") results"

"$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=3 --query="kw0 kw2" --ranked >/dev/null
echo "smoke: ranked search ok"

POI_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$PORT" --vertex=7 --name=smoketestpoi --tags=smokekw)"
POI_ID="${POI_OUT%%$'\t'*}"
FOUND="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=7 --k=1 --query=smokekw)"
grep -q "smoketestpoi" <<<"$FOUND" || { echo "smoke: added POI not found" >&2; exit 1; }
"$KCLI" delete --endpoints=127.0.0.1:"$PORT" --id="$POI_ID" >/dev/null
echo "smoke: update cycle ok (poi id $POI_ID)"

# A misspelled flag fails the command with usage (exit 1) and applies
# nothing: it never falls back to a default such as vertex 0.
APPLIED_BEFORE="$("$KCLI" metrics --endpoints=127.0.0.1:"$PORT" | awk '$1 == "kspin_mutations_applied" { print $2 }')"
TYPO_RC=0
"$KCLI" insert --endpoints=127.0.0.1:"$PORT" --vertx=7 --name=typopoi --tags=typokw 2>/dev/null || TYPO_RC=$?
[[ "$TYPO_RC" == 1 ]] || { echo "smoke: misspelled flag exited $TYPO_RC, expected 1" >&2; exit 1; }
APPLIED_AFTER="$("$KCLI" metrics --endpoints=127.0.0.1:"$PORT" | awk '$1 == "kspin_mutations_applied" { print $2 }')"
[[ -n "$APPLIED_BEFORE" && "$APPLIED_AFTER" == "$APPLIED_BEFORE" ]] || { echo "smoke: misspelled insert applied a mutation ($APPLIED_BEFORE -> $APPLIED_AFTER)" >&2; exit 1; }
echo "smoke: misspelled flag rejected, nothing applied (mutations_applied=$APPLIED_AFTER)"

# A missing --vertex or --k is a usage error (exit 1), never vertex 0 or k 10.
for PARTIAL in --vertex=5 --k=3; do
  MISSING_RC=0
  "$KCLI" search --endpoints=127.0.0.1:"$PORT" "$PARTIAL" --query=kw0 >/dev/null 2>&1 || MISSING_RC=$?
  [[ "$MISSING_RC" == 1 ]] || { echo "smoke: search with only $PARTIAL exited $MISSING_RC, expected 1" >&2; exit 1; }
done
echo "smoke: search without --vertex or --k rejected"

# Bad queries must be rejected without killing the server.
if "$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=3 --query="((kw1" 2>/dev/null; then
  echo "smoke: malformed query unexpectedly accepted" >&2
  exit 1
fi
"$KCLI" ping --endpoints=127.0.0.1:"$PORT"
echo "smoke: bad query rejected, server alive"

METRICS="$("$KCLI" metrics --endpoints=127.0.0.1:"$PORT")"
grep -q "^kspin_requests_ok " <<<"$METRICS" || { echo "smoke: metrics missing kspin_requests_ok" >&2; exit 1; }
OK_COUNT="$(awk '$1 == "kspin_requests_ok" { print $2 }' <<<"$METRICS")"
[[ "$OK_COUNT" -ge 6 ]] || { echo "smoke: implausible requests_ok=$OK_COUNT" >&2; exit 1; }
echo "smoke: metrics ok (requests_ok=$OK_COUNT)"

kill -INT "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "smoke: server ignored SIGINT" >&2
  exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q "shutting down" "$LOG" || { echo "smoke: no graceful shutdown log" >&2; cat "$LOG" >&2; exit 1; }
echo "smoke: graceful shutdown ok"

# ---- crash / restore cycle ------------------------------------------
# Snapshot the serving state, kill -9 the server (no chance to flush
# anything), restart from the snapshot directory, and demand the exact
# same answers — including an update that only ever lived post-boot.

start_server --snapshot-dir="$SNAPDIR"
echo "smoke: snapshot server up on port $PORT"

CRASH_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$PORT" --vertex=9 --name=crashpoi --tags=crashkw)"
CRASH_ID="${CRASH_OUT%%$'\t'*}"
BASELINE_A="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=5 --query="kw0 or kw1")"
BASELINE_B="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=9 --k=3 --query=crashkw)"
grep -q "crashpoi" <<<"$BASELINE_B" || { echo "smoke: crashpoi missing pre-crash" >&2; exit 1; }

SNAP_OUT="$("$KCLI" snapshot --endpoints=127.0.0.1:"$PORT")"
SNAP_PATH="$(cut -f2 <<<"$SNAP_OUT")"
[[ -f "$SNAP_PATH" ]] || { echo "smoke: snapshot file $SNAP_PATH missing" >&2; exit 1; }
echo "smoke: snapshot written ($SNAP_OUT)"

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "smoke: server killed with SIGKILL"

start_server --snapshot-dir="$SNAPDIR"
grep -q "restored snapshot" "$LOG" || { echo "smoke: restart did not restore from snapshot" >&2; cat "$LOG" >&2; exit 1; }

AFTER_A="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=5 --query="kw0 or kw1")"
AFTER_B="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=9 --k=3 --query=crashkw)"
[[ "$AFTER_A" == "$BASELINE_A" ]] || { echo "smoke: post-restore results differ (baseline A)" >&2; diff <(echo "$BASELINE_A") <(echo "$AFTER_A") >&2 || true; exit 1; }
[[ "$AFTER_B" == "$BASELINE_B" ]] || { echo "smoke: post-restore results differ (baseline B)" >&2; diff <(echo "$BASELINE_B") <(echo "$AFTER_B") >&2 || true; exit 1; }
grep -q "crashpoi" <<<"$AFTER_B" || { echo "smoke: crashpoi lost across crash" >&2; exit 1; }
echo "smoke: post-crash results byte-identical (poi id $CRASH_ID survived)"

# RELOAD over the wire converges on the same snapshot.
"$KCLI" reload --endpoints=127.0.0.1:"$PORT" >/dev/null
AFTER_RELOAD="$("$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=5 --query="kw0 or kw1")"
[[ "$AFTER_RELOAD" == "$BASELINE_A" ]] || { echo "smoke: RELOAD changed results" >&2; exit 1; }
echo "smoke: RELOAD opcode ok"

kill -INT "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "smoke: snapshot server ignored SIGINT" >&2
  exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# ---- replication / failover -----------------------------------------
# Primary + replica pair: the replica bootstraps from the primary's
# snapshot, catches up on a poll, serves byte-identical reads, rejects
# writes (redirecting to the primary), and keeps answering a failover
# client after the primary dies by SIGKILL.

start_server --snapshot-dir="$PSNAPDIR"
PRIMARY_PORT="$PORT"
echo "smoke: primary up on port $PRIMARY_PORT"

REPL_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$PRIMARY_PORT" --vertex=11 --name=replpoi --tags=replkw)"
REPL_ID="${REPL_OUT%%$'\t'*}"
"$KCLI" snapshot --endpoints=127.0.0.1:"$PRIMARY_PORT" >/dev/null
echo "smoke: primary snapshot written (poi id $REPL_ID)"

: >"$RLOG"
"$SERVER" --port=0 --grid=20x20 --pois=200 --seed=3 \
  --snapshot-dir="$RSNAPDIR" --role=replica \
  --primary=127.0.0.1:"$PRIMARY_PORT" --replica-poll-ms=100 >"$RLOG" 2>&1 &
REPLICA_PID=$!
REPLICA_PORT=""
for _ in $(seq 1 100); do
  REPLICA_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$RLOG")"
  [[ -n "$REPLICA_PORT" ]] && break
  kill -0 "$REPLICA_PID" 2>/dev/null || { cat "$RLOG" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$REPLICA_PORT" ]] || { echo "smoke: replica never reported its port" >&2; cat "$RLOG" >&2; exit 1; }
grep -q "restored snapshot" "$RLOG" || { echo "smoke: replica did not bootstrap from primary snapshot" >&2; cat "$RLOG" >&2; exit 1; }
echo "smoke: replica up on port $REPLICA_PORT (bootstrapped from primary)"

# Wait until the replica's health reports the primary's sequence.
SEQ=""
for _ in $(seq 1 100); do
  SEQ="$("$KCLI" health --endpoints=127.0.0.1:"$REPLICA_PORT" | awk -F'\t' 'NR == 2 { print $5 }')"
  [[ -n "$SEQ" && "$SEQ" -ge 1 ]] && break
  sleep 0.1
done
[[ -n "$SEQ" && "$SEQ" -ge 1 ]] || { echo "smoke: replica never caught up (sequence=$SEQ)" >&2; cat "$RLOG" >&2; exit 1; }
ROLE="$("$KCLI" health --endpoints=127.0.0.1:"$REPLICA_PORT" | awk -F'\t' 'NR == 2 { print $2 }')"
[[ "$ROLE" == "replica" ]] || { echo "smoke: replica reports role=$ROLE" >&2; exit 1; }
echo "smoke: replica caught up (snapshot_sequence=$SEQ)"

# Byte-identical reads on both sides, including the replicated POI.
PRIMARY_READ="$("$KCLI" search --endpoints=127.0.0.1:"$PRIMARY_PORT" --vertex=5 --k=5 --query="kw0 or kw1")"
REPLICA_READ="$("$KCLI" search --endpoints=127.0.0.1:"$REPLICA_PORT" --vertex=5 --k=5 --query="kw0 or kw1")"
[[ "$PRIMARY_READ" == "$REPLICA_READ" ]] || { echo "smoke: replica reads differ from primary" >&2; diff <(echo "$PRIMARY_READ") <(echo "$REPLICA_READ") >&2 || true; exit 1; }
REPLICA_POI="$("$KCLI" search --endpoints=127.0.0.1:"$REPLICA_PORT" --vertex=11 --k=1 --query=replkw)"
grep -q "replpoi" <<<"$REPLICA_POI" || { echo "smoke: replicated POI missing on replica" >&2; exit 1; }
echo "smoke: replica reads byte-identical to primary"

# A write sent to the replica endpoint follows the NOT_PRIMARY redirect
# to the live primary and succeeds there.
REDIR_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$REPLICA_PORT" --vertex=13 --name=redirpoi --tags=redirkw)"
REDIR_ID="${REDIR_OUT%%$'\t'*}"
FOUND_ON_PRIMARY="$("$KCLI" search --endpoints=127.0.0.1:"$PRIMARY_PORT" --vertex=13 --k=1 --query=redirkw)"
grep -q "redirpoi" <<<"$FOUND_ON_PRIMARY" || { echo "smoke: redirected write missing on primary" >&2; exit 1; }
echo "smoke: replica write redirected to primary (poi id $REDIR_ID)"

# The redirected write reaches the replica by op-log tailing — the
# primary's log ships just that record, so no second snapshot install
# happens even after the primary writes snapshot 2.
"$KCLI" snapshot --endpoints=127.0.0.1:"$PRIMARY_PORT" >/dev/null
FAILOVER_BASELINE=""
for _ in $(seq 1 100); do
  FAILOVER_BASELINE="$("$KCLI" search --endpoints=127.0.0.1:"$REPLICA_PORT" --vertex=13 --k=1 --query=redirkw)"
  grep -q "redirpoi" <<<"$FAILOVER_BASELINE" && break
  sleep 0.1
done
grep -q "redirpoi" <<<"$FAILOVER_BASELINE" || { echo "smoke: redirected write never reached replica" >&2; cat "$RLOG" >&2; exit 1; }
RMETRICS="$("$KCLI" metrics --endpoints=127.0.0.1:"$REPLICA_PORT")"
RSOURCE="$(awk '$1 == "kspin_replication_source" { print $2 }' <<<"$RMETRICS")"
RRECORDS="$(awk '$1 == "kspin_replication_oplog_records" { print $2 }' <<<"$RMETRICS")"
RINSTALLS="$(awk '$1 == "kspin_replication_installs_ok" { print $2 }' <<<"$RMETRICS")"
[[ "$RSOURCE" == "1" ]] || { echo "smoke: replica not tailing the op log (replication_source=$RSOURCE)" >&2; echo "$RMETRICS" >&2; exit 1; }
[[ -n "$RRECORDS" && "$RRECORDS" -ge 1 ]] || { echo "smoke: no op-log records shipped (replication_oplog_records=$RRECORDS)" >&2; exit 1; }
# The boot-time bootstrap fetch is not a replicator install, so the
# install counter stays at zero while tailing does all the work.
[[ "$RINSTALLS" == "0" ]] || { echo "smoke: tailing replica took snapshot installs (replication_installs_ok=$RINSTALLS)" >&2; exit 1; }
echo "smoke: replica caught up by log tailing (records=$RRECORDS, snapshot installs=$RINSTALLS)"

# Kill the primary with no warning; the failover client (endpoint list
# includes the dead primary first) must keep answering from the replica.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "smoke: primary killed with SIGKILL"

FAILOVER_READ="$("$KCLI" search --endpoints=127.0.0.1:"$PRIMARY_PORT",127.0.0.1:"$REPLICA_PORT" --vertex=13 --k=1 --query=redirkw)"
[[ "$FAILOVER_READ" == "$FAILOVER_BASELINE" ]] || { echo "smoke: failover read differs" >&2; diff <(echo "$FAILOVER_BASELINE") <(echo "$FAILOVER_READ") >&2 || true; exit 1; }
"$KCLI" ping --endpoints=127.0.0.1:"$PRIMARY_PORT",127.0.0.1:"$REPLICA_PORT"
echo "smoke: failover client keeps answering after primary death"

# ---- observability ---------------------------------------------------
# Scrape Prometheus text from the surviving replica: the key series must
# be present, and engine counters must be monotone across scrapes that
# bracket more query traffic.
SCRAPE1="$("$KCLI" metrics --endpoints=127.0.0.1:"$REPLICA_PORT")"
for series in \
  "# TYPE kspin_requests_ok counter" \
  "kspin_engine_distance_computations" \
  "kspin_engine_false_positive_distances" \
  "kspin_query_latency_us_bucket{le=\"+Inf\"}" \
  "kspin_query_latency_us_count" \
  "# TYPE kspin_queue_depth gauge" \
  "kspin_replication_lag_ms"; do
  grep -qF "$series" <<<"$SCRAPE1" || { echo "smoke: metrics missing series: $series" >&2; echo "$SCRAPE1" >&2; exit 1; }
done
DIST1="$(awk '$1 == "kspin_engine_distance_computations" { print $2 }' <<<"$SCRAPE1")"
"$KCLI" search --endpoints=127.0.0.1:"$REPLICA_PORT" --vertex=5 --k=5 --query="kw0 or kw1" >/dev/null
SCRAPE2="$("$KCLI" metrics --endpoints=127.0.0.1:"$REPLICA_PORT")"
DIST2="$(awk '$1 == "kspin_engine_distance_computations" { print $2 }' <<<"$SCRAPE2")"
[[ "$DIST1" =~ ^[0-9]+$ && "$DIST2" =~ ^[0-9]+$ ]] || { echo "smoke: non-numeric engine counter ($DIST1 / $DIST2)" >&2; exit 1; }
[[ "$DIST2" -gt "$DIST1" ]] || { echo "smoke: engine counter not monotone ($DIST1 -> $DIST2)" >&2; exit 1; }
echo "smoke: metrics scrape ok (engine_distance_computations $DIST1 -> $DIST2)"

# With the primary gone, writes must fail rather than land on the replica.
if "$KCLI" insert --endpoints=127.0.0.1:"$REPLICA_PORT" --vertex=14 --name=orphanpoi --tags=orphankw 2>/dev/null; then
  echo "smoke: write unexpectedly succeeded with primary dead" >&2
  exit 1
fi
"$KCLI" ping --endpoints=127.0.0.1:"$REPLICA_PORT"
echo "smoke: writes fail cleanly without a primary, replica still serves"

kill -INT "$REPLICA_PID"
for _ in $(seq 1 100); do
  kill -0 "$REPLICA_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$REPLICA_PID" 2>/dev/null; then
  echo "smoke: replica ignored SIGINT" >&2
  exit 1
fi
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""

# ---- durable mutations: op log, kill -9 replay, tailing, failover ----
# The write path: acked insert/update/delete land in the op log before
# the reply goes out, so they must survive a kill -9 with no snapshot
# covering them, ship to a replica as log records (not a snapshot
# transfer), and stay readable through a failover client.

start_server --snapshot-dir="$MPRIDIR"
MPRI_PORT="$PORT"
echo "smoke: oplog primary up on port $MPRI_PORT"

# Baseline snapshot BEFORE the writes: everything after it lives only in
# the op log until replay proves it durable.
"$KCLI" snapshot --endpoints=127.0.0.1:"$MPRI_PORT" >/dev/null

INS_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$MPRI_PORT" --vertex=7 --name=durablepoi --tags=durkw)"
DUR_ID="${INS_OUT%%$'\t'*}"
grep -q "seq=" <<<"$INS_OUT" || { echo "smoke: insert reply missing sequence: $INS_OUT" >&2; exit 1; }
"$KCLI" update --endpoints=127.0.0.1:"$MPRI_PORT" --id="$DUR_ID" --add=durkw2 >/dev/null
DISP_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$MPRI_PORT" --vertex=9 --name=disposablepoi --tags=durkw)"
DISP_ID="${DISP_OUT%%$'\t'*}"
"$KCLI" delete --endpoints=127.0.0.1:"$MPRI_PORT" --id="$DISP_ID" >/dev/null
echo "smoke: durable writes acked (insert id $DUR_ID, $INS_OUT)"

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "smoke: oplog primary killed with SIGKILL"

start_server --snapshot-dir="$MPRIDIR"
MPRI_PORT="$PORT"
grep -q "restored snapshot" "$LOG" || { echo "smoke: oplog restart did not restore snapshot" >&2; cat "$LOG" >&2; exit 1; }
MMETRICS="$("$KCLI" metrics --endpoints=127.0.0.1:"$MPRI_PORT")"
REPLAYED="$(awk '$1 == "kspin_oplog_replay_records" { print $2 }' <<<"$MMETRICS")"
[[ -n "$REPLAYED" && "$REPLAYED" -ge 4 ]] || { echo "smoke: expected >=4 replayed op-log records, got $REPLAYED" >&2; cat "$LOG" >&2; exit 1; }
REPLAY_READ="$("$KCLI" search --endpoints=127.0.0.1:"$MPRI_PORT" --vertex=7 --k=3 --query=durkw2)"
grep -q "durablepoi" <<<"$REPLAY_READ" || { echo "smoke: acked insert+update lost across kill -9" >&2; exit 1; }
POST_DELETE="$("$KCLI" search --endpoints=127.0.0.1:"$MPRI_PORT" --vertex=9 --k=5 --query=durkw)"
if grep -q "disposablepoi" <<<"$POST_DELETE"; then
  echo "smoke: deleted POI resurrected by replay" >&2
  exit 1
fi
echo "smoke: kill -9 replay ok (oplog_replay_records=$REPLAYED, durablepoi survived, delete held)"

# Replica bootstraps from the pre-write snapshot, then must receive the
# writes by tailing the op log — no further snapshot transfer.
: >"$RLOG"
"$SERVER" --port=0 --grid=20x20 --pois=200 --seed=3 \
  --snapshot-dir="$MREPDIR" --role=replica \
  --primary=127.0.0.1:"$MPRI_PORT" --replica-poll-ms=50 >"$RLOG" 2>&1 &
REPLICA_PID=$!
MREP_PORT=""
for _ in $(seq 1 100); do
  MREP_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$RLOG")"
  [[ -n "$MREP_PORT" ]] && break
  kill -0 "$REPLICA_PID" 2>/dev/null || { cat "$RLOG" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$MREP_PORT" ]] || { echo "smoke: oplog replica never reported its port" >&2; cat "$RLOG" >&2; exit 1; }

TAILED=""
for _ in $(seq 1 100); do
  TAILED="$("$KCLI" search --endpoints=127.0.0.1:"$MREP_PORT" --vertex=7 --k=3 --query=durkw2 2>/dev/null || true)"
  grep -q "durablepoi" <<<"$TAILED" && break
  sleep 0.1
done
grep -q "durablepoi" <<<"$TAILED" || { echo "smoke: durable write never reached replica by tailing" >&2; cat "$RLOG" >&2; exit 1; }
MRMETRICS="$("$KCLI" metrics --endpoints=127.0.0.1:"$MREP_PORT")"
MRSOURCE="$(awk '$1 == "kspin_replication_source" { print $2 }' <<<"$MRMETRICS")"
MRRECORDS="$(awk '$1 == "kspin_replication_oplog_records" { print $2 }' <<<"$MRMETRICS")"
MRINSTALLS="$(awk '$1 == "kspin_replication_installs_ok" { print $2 }' <<<"$MRMETRICS")"
MRAPPLIED="$(awk '$1 == "kspin_mutations_applied" { print $2 }' <<<"$MRMETRICS")"
[[ "$MRSOURCE" == "1" ]] || { echo "smoke: oplog replica not tailing (replication_source=$MRSOURCE)" >&2; echo "$MRMETRICS" >&2; exit 1; }
[[ "$MRINSTALLS" == "0" ]] || { echo "smoke: oplog replica took $MRINSTALLS snapshot installs; tailing should need none" >&2; exit 1; }
[[ -n "$MRRECORDS" && "$MRRECORDS" -ge 4 ]] || { echo "smoke: oplog replica shipped too few records ($MRRECORDS)" >&2; exit 1; }
[[ -n "$MRAPPLIED" && "$MRAPPLIED" -ge 4 ]] || { echo "smoke: oplog replica applied too few mutations ($MRAPPLIED)" >&2; exit 1; }
echo "smoke: replica received writes by tailing (records=$MRRECORDS, applied=$MRAPPLIED, installs=$MRINSTALLS)"

# Replication lag while tailing is bounded by the poll interval, not a
# snapshot cycle: with --replica-poll-ms=50 the gauge must stay small.
LAG="$("$KCLI" metrics --endpoints=127.0.0.1:"$MREP_PORT" | awk '$1 == "kspin_replication_lag_ms" { print $2 }')"
[[ "$LAG" =~ ^[0-9]+$ && "$LAG" -lt 1000 ]] || { echo "smoke: implausible replication_lag_ms=$LAG while tailing" >&2; exit 1; }
echo "smoke: replication lag while tailing: ${LAG}ms"

# One more acked write, then kill the primary: a failover read against
# the dead-primary-first endpoint list must still see every write.
LIVE_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$MPRI_PORT" --vertex=11 --name=livepoi --tags=durkw2)"
LIVE_READ=""
for _ in $(seq 1 100); do
  LIVE_READ="$("$KCLI" search --endpoints=127.0.0.1:"$MREP_PORT" --vertex=11 --k=3 --query=durkw2 2>/dev/null || true)"
  grep -q "livepoi" <<<"$LIVE_READ" && break
  sleep 0.1
done
grep -q "livepoi" <<<"$LIVE_READ" || { echo "smoke: final write never reached replica" >&2; cat "$RLOG" >&2; exit 1; }

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
FAILOVER_MUT="$("$KCLI" search --endpoints=127.0.0.1:"$MPRI_PORT",127.0.0.1:"$MREP_PORT" --vertex=7 --k=3 --query=durkw2)"
grep -q "durablepoi" <<<"$FAILOVER_MUT" || { echo "smoke: failover read lost the durable write" >&2; exit 1; }
echo "smoke: failover read sees durable writes after primary death ($LIVE_OUT acked)"

# With no live primary, keyed mutations must fail cleanly, not land on
# the replica.
if "$KCLI" insert --endpoints=127.0.0.1:"$MREP_PORT" --vertex=13 --name=orphanpoi --tags=durkw 2>/dev/null; then
  echo "smoke: insert unexpectedly succeeded with primary dead" >&2
  exit 1
fi
"$KCLI" ping --endpoints=127.0.0.1:"$MREP_PORT"
echo "smoke: keyed writes fail cleanly without a primary"

kill -INT "$REPLICA_PID"
for _ in $(seq 1 100); do
  kill -0 "$REPLICA_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$REPLICA_PID" 2>/dev/null; then
  echo "smoke: oplog replica ignored SIGINT" >&2
  exit 1
fi
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""

# ---- epoch-fenced failover drill under the chaos proxy ---------------
# The failure-drill scenario from docs/persistence.md, driven end to end
# through tools/chaos_proxy with a deterministic seeded fault plan:
# writers reach the primary only through the proxy; the link is cut
# mid-reign, the replica is promoted behind the partition, the stale
# primary absorbs one divergent write and is then fenced (STALE_EPOCH);
# the failover client re-routes to the new primary; finally the
# ex-primary rejoins as a replica, quarantines its divergent tail, and
# converges on the new reign.

start_server --snapshot-dir="$FOPRI_SNAP" --oplog-dir="$FOPRI_OPLOG"
FOPRI_PORT="$PORT"
echo "smoke: failover primary up on port $FOPRI_PORT"

"$PROXY" --target=127.0.0.1:"$FOPRI_PORT" --seed=11 --delay-ms=2 \
  >"$PXLOG" 2>"$PXERR" &
PROXY_PID=$!
PXPORT=""
for _ in $(seq 1 100); do
  PXPORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$PXLOG")"
  [[ -n "$PXPORT" ]] && break
  kill -0 "$PROXY_PID" 2>/dev/null || fo_die "chaos proxy died at startup"
  sleep 0.1
done
[[ -n "$PXPORT" ]] || fo_die "chaos proxy never reported its port"
echo "smoke: chaos proxy on port $PXPORT (seed=11, delay-ms=2)"

# Shared history lands through the proxy, then a snapshot seeds the
# replica's bootstrap.
SHARED_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$PXPORT" --vertex=5 --name=sharedpoi --tags=fokw)" \
  || fo_die "shared insert through proxy failed"
"$KCLI" snapshot --endpoints=127.0.0.1:"$FOPRI_PORT" >/dev/null
echo "smoke: shared write through proxy acked ($SHARED_OUT)"

: >"$RLOG"
"$SERVER" --port=0 --grid=20x20 --pois=200 --seed=3 \
  --snapshot-dir="$FOREP_SNAP" --oplog-dir="$FOREP_OPLOG" --role=replica \
  --primary=127.0.0.1:"$FOPRI_PORT" --replica-poll-ms=50 >"$RLOG" 2>&1 &
REPLICA_PID=$!
FOREP_PORT=""
for _ in $(seq 1 100); do
  FOREP_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$RLOG")"
  [[ -n "$FOREP_PORT" ]] && break
  kill -0 "$REPLICA_PID" 2>/dev/null || fo_die "failover replica died at startup"
  sleep 0.1
done
[[ -n "$FOREP_PORT" ]] || fo_die "failover replica never reported its port"
CAUGHT=""
for _ in $(seq 1 100); do
  CAUGHT="$("$KCLI" search --endpoints=127.0.0.1:"$FOREP_PORT" --vertex=5 --k=1 --query=fokw 2>/dev/null || true)"
  grep -q "sharedpoi" <<<"$CAUGHT" && break
  sleep 0.1
done
grep -q "sharedpoi" <<<"$CAUGHT" || fo_die "replica never caught up on shared write"
echo "smoke: failover replica up on port $FOREP_PORT and caught up"

# Cut the link. Writes through the proxy must now fail fast, not hang.
kill -USR1 "$PROXY_PID"
for _ in $(seq 1 50); do
  grep -q "partition: on" "$PXERR" && break
  sleep 0.1
done
grep -q "partition: on" "$PXERR" || fo_die "proxy never acknowledged partition"
if "$KCLI" insert --endpoints=127.0.0.1:"$PXPORT" --vertex=6 --name=lostpoi --tags=fokw --retries=1 2>/dev/null; then
  fo_die "write through a partitioned proxy unexpectedly succeeded"
fi
echo "smoke: partition on, writes through proxy fail fast"

# Promote the replica behind the partition: epoch 1, role primary.
PROMOTE_OUT="$("$KCLI" promote --endpoints=127.0.0.1:"$FOREP_PORT")" \
  || fo_die "promote failed"
NEW_EPOCH="$(sed -n 's/.* epoch=\([0-9]*\).*/\1/p' <<<"$PROMOTE_OUT")"
[[ "$NEW_EPOCH" == "1" ]] || fo_die "promote reported epoch=$NEW_EPOCH, expected 1"
PROMOTED_ROLE="$("$KCLI" health --endpoints=127.0.0.1:"$FOREP_PORT" | awk -F'\t' 'NR == 2 { print $2 }')"
[[ "$PROMOTED_ROLE" == "primary" ]] || fo_die "promoted replica reports role=$PROMOTED_ROLE"
echo "smoke: replica promoted under partition (epoch=$NEW_EPOCH)"

# The fleet health view shows the split brain: both sides claim primary,
# but only one holds the newer epoch.
HEALTH_TABLE="$("$KCLI" health --endpoints=127.0.0.1:"$FOPRI_PORT",127.0.0.1:"$FOREP_PORT")" \
  || fo_die "kspin_cli health failed"
grep -q "epoch" <<<"$HEALTH_TABLE" || fo_die "kspin_cli health missing epoch column"
echo "smoke: fleet health table ok"
echo "$HEALTH_TABLE" | sed 's/^/smoke:   /'

# The stale primary still takes one divergent write from its side of the
# partition, then the first epoch-aware writer fences it: every write
# after that dies with STALE_EPOCH while reads keep working.
"$KCLI" insert --endpoints=127.0.0.1:"$FOPRI_PORT" --vertex=7 --name=doomedpoi --tags=doomkw >/dev/null \
  || fo_die "divergent write on stale primary failed"
if FENCE_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$FOPRI_PORT" --vertex=7 --name=fencedpoi --tags=fokw --fence-epoch=1 --retries=1 2>&1)"; then
  fo_die "fenced write unexpectedly succeeded: $FENCE_OUT"
fi
grep -q "STALE_EPOCH" <<<"$FENCE_OUT" || fo_die "fencing did not report STALE_EPOCH: $FENCE_OUT"
if "$KCLI" insert --endpoints=127.0.0.1:"$FOPRI_PORT" --vertex=8 --name=latepoi --tags=fokw --retries=1 2>/dev/null; then
  fo_die "stale primary accepted a write after being fenced"
fi
STALE_COUNT="$("$KCLI" metrics --endpoints=127.0.0.1:"$FOPRI_PORT" | awk '$1 == "kspin_requests_stale_epoch" { print $2 }')"
[[ -n "$STALE_COUNT" && "$STALE_COUNT" -ge 2 ]] || fo_die "requests_stale_epoch=$STALE_COUNT, expected >=2"
"$KCLI" ping --endpoints=127.0.0.1:"$FOPRI_PORT" >/dev/null || fo_die "fenced primary stopped serving reads"
echo "smoke: stale primary fenced (requests_stale_epoch=$STALE_COUNT), reads still served"

# Heal the partition; a failover client listing the fenced ex-primary
# first must re-route the write to the new primary on its own.
kill -USR1 "$PROXY_PID"
for _ in $(seq 1 50); do
  grep -q "partition: off" "$PXERR" && break
  sleep 0.1
done
grep -q "partition: off" "$PXERR" || fo_die "proxy never healed the partition"
REROUTE_OUT="$("$KCLI" insert --endpoints=127.0.0.1:"$PXPORT",127.0.0.1:"$FOREP_PORT" --vertex=9 --name=reroutepoi --tags=fokw2)" \
  || fo_die "failover client write failed after heal"
REROUTED="$("$KCLI" search --endpoints=127.0.0.1:"$FOREP_PORT" --vertex=9 --k=1 --query=fokw2)"
grep -q "reroutepoi" <<<"$REROUTED" || fo_die "re-routed write missing on new primary"
echo "smoke: failover client re-routed write to new primary ($REROUTE_OUT)"

# The ex-primary dies and rejoins as a replica of the new primary. Boot
# replay resurrects its divergent write; tailing detects the divergence,
# quarantines the tail on disk, resyncs via snapshot, and converges.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$KCLI" snapshot --endpoints=127.0.0.1:"$FOREP_PORT" >/dev/null
: >"$LOG"
"$SERVER" --port=0 --grid=20x20 --pois=200 --seed=3 \
  --snapshot-dir="$FOPRI_SNAP" --oplog-dir="$FOPRI_OPLOG" --role=replica \
  --primary=127.0.0.1:"$FOREP_PORT" --replica-poll-ms=50 >"$LOG" 2>&1 &
SERVER_PID=$!
REJOIN_PORT=""
for _ in $(seq 1 100); do
  REJOIN_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$LOG")"
  [[ -n "$REJOIN_PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fo_die "rejoining ex-primary died at startup"
  sleep 0.1
done
[[ -n "$REJOIN_PORT" ]] || fo_die "rejoining ex-primary never reported its port"

CONVERGED=""
for _ in $(seq 1 100); do
  CONVERGED="$("$KCLI" search --endpoints=127.0.0.1:"$REJOIN_PORT" --vertex=9 --k=1 --query=fokw2 2>/dev/null || true)"
  grep -q "reroutepoi" <<<"$CONVERGED" && break
  sleep 0.1
done
grep -q "reroutepoi" <<<"$CONVERGED" || fo_die "rejoined ex-primary never converged on new reign"
DOOMED_READ="$("$KCLI" search --endpoints=127.0.0.1:"$REJOIN_PORT" --vertex=7 --k=5 --query=doomkw)"
if grep -q "doomedpoi" <<<"$DOOMED_READ"; then
  fo_die "divergent write survived the rejoin repair"
fi
QUARANTINED="$("$KCLI" metrics --endpoints=127.0.0.1:"$REJOIN_PORT" | awk '$1 == "kspin_oplog_quarantined_records" { print $2 }')"
[[ -n "$QUARANTINED" && "$QUARANTINED" -ge 1 ]] || fo_die "oplog_quarantined_records=$QUARANTINED, expected >=1"
ls "$FOPRI_OPLOG"/quarantine/divergent-*.log >/dev/null 2>&1 \
  || fo_die "no quarantine file preserved in $FOPRI_OPLOG/quarantine"
REJOIN_EPOCH="$("$KCLI" health --endpoints=127.0.0.1:"$REJOIN_PORT" | awk -F'\t' 'NR == 2 { print $3 }')"
[[ "$REJOIN_EPOCH" == "1" ]] || fo_die "rejoined ex-primary reports epoch=$REJOIN_EPOCH, expected 1"
echo "smoke: ex-primary rejoined, quarantined $QUARANTINED divergent record(s), converged at epoch $REJOIN_EPOCH"

# ---- diag: the flight recorder reconstructs the drill ----------------
# With the dust settled and no traffic running, `kspin_cli diag` against
# each survivor must replay the control-plane story from the always-on
# flight recorder alone: the promotion (its event with the epoch and the
# PROMOTE request's span) on the new primary, and the replication source
# switch on the rejoined ex-primary.
DIAG_NEWPRI="$("$KCLI" diag --endpoints=127.0.0.1:"$FOREP_PORT")" \
  || fo_die "kspin_cli diag against the new primary failed"
grep -q '"type":"PROMOTE","a":1' <<<"$DIAG_NEWPRI" \
  || fo_die "diag on new primary missing the epoch-1 PROMOTE event"
grep -q '"opcode":"PROMOTE"' <<<"$DIAG_NEWPRI" \
  || fo_die "diag on new primary missing the PROMOTE request's span"
DIAG_REJOIN="$("$KCLI" diag --endpoints=127.0.0.1:"$REJOIN_PORT")" \
  || fo_die "kspin_cli diag against the rejoined ex-primary failed"
grep -q '"type":"REPLICATION_SOURCE_' <<<"$DIAG_REJOIN" \
  || fo_die "diag on rejoined ex-primary missing the replication source switch"
echo "smoke: diag reconstructs the promotion + source switch from the recorder"

kill -INT "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVER_PID" 2>/dev/null && fo_die "rejoined ex-primary ignored SIGINT"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
kill -INT "$REPLICA_PID"
for _ in $(seq 1 100); do
  kill -0 "$REPLICA_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$REPLICA_PID" 2>/dev/null && fo_die "promoted primary ignored SIGINT"
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
kill -TERM "$PROXY_PID" 2>/dev/null || true
wait "$PROXY_PID" 2>/dev/null || true
PROXY_PID=""
echo "smoke: failover drill complete"

# ---- overload / brownout drill --------------------------------------
# Saturate a deliberately tiny server: 2 workers with a 2 ms service
# floor cap capacity at ~1000 qps, and a full 32-slot queue means ~32 ms
# of sojourn — well past the 15 ms SLO. 48 closed-loop connections keep
# it pinned there, so the AIMD limiter must clamp, the excess must shed
# with OVERLOADED, and brownout must engage. Once the load stops, the
# controller has to stand down without intervention.

start_server --workers=2 --queue=32 --service-floor-ms=2 \
  --slo-ms=15 --overload-tick-ms=20 --codel-target-ms=5 \
  --brownout-enter-ticks=2 --brownout-exit-ticks=3 --retry-after-ms=120
echo "smoke: overload server up on port $PORT"

# The burst goes through chaos_proxy (transparent but for a 1 ms relay
# delay), so shed-fast replies prove themselves over a real extra hop;
# metrics polling talks to the server directly, the way a dashboard would.
: >"$PXLOG"; : >"$PXERR"
"$PROXY" --target=127.0.0.1:"$PORT" --seed=13 --delay-ms=1 \
  >"$PXLOG" 2>"$PXERR" &
PROXY_PID=$!
PXPORT=""
for _ in $(seq 1 100); do
  PXPORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$PXLOG")"
  [[ -n "$PXPORT" ]] && break
  kill -0 "$PROXY_PID" 2>/dev/null || { echo "smoke: overload proxy died at startup" >&2; cat "$PXERR" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$PXPORT" ]] || { echo "smoke: overload proxy never reported its port" >&2; exit 1; }

"$LOADGEN" --port="$PXPORT" --threads=48 --seconds=2 --vertices=400 \
  --deadline-ms=500 \
  || { echo "smoke: load harness failed" >&2; cat "$LOG" >&2; exit 1; }

OMETRICS="$("$KCLI" metrics --endpoints=127.0.0.1:"$PORT")"
OVL_OK="$(awk '$1 == "kspin_requests_ok" { print $2 }' <<<"$OMETRICS")"
# Any shed cause counts: hard queue-full, AIMD limit, CoDel sojourn, or
# rate limit — which one fires first depends on arrival timing.
OVL_SHED="$(awk '$1 == "kspin_requests_overloaded" || $1 == "kspin_requests_admission_limited" || $1 == "kspin_requests_codel_shed" || $1 == "kspin_requests_rate_limited" { total += $2 } END { print total + 0 }' <<<"$OMETRICS")"
OVL_ENTRIES="$(awk '$1 == "kspin_brownout_entries" { print $2 }' <<<"$OMETRICS")"
[[ -n "$OVL_OK" && "$OVL_OK" -ge 1 ]] \
  || { echo "smoke: nothing served under overload (requests_ok=$OVL_OK)" >&2; exit 1; }
[[ -n "$OVL_SHED" && "$OVL_SHED" -ge 1 ]] \
  || { echo "smoke: nothing shed under overload (requests_overloaded=$OVL_SHED)" >&2; cat "$LOG" >&2; exit 1; }
[[ -n "$OVL_ENTRIES" && "$OVL_ENTRIES" -ge 1 ]] \
  || { echo "smoke: brownout never engaged (brownout_entries=$OVL_ENTRIES)" >&2; cat "$LOG" >&2; exit 1; }
echo "smoke: overload served $OVL_OK, shed $OVL_SHED, brownout_entries=$OVL_ENTRIES"

# Recovery: with the load gone the limiter re-opens and brownout exits.
# Each metrics poll wakes the I/O loop, so ticks keep firing while idle.
OVL_STATE=""
for _ in $(seq 1 100); do
  OVL_STATE="$("$KCLI" metrics --endpoints=127.0.0.1:"$PORT" | awk '$1 == "kspin_overload_state" { print $2 }')"
  [[ "$OVL_STATE" == "0" ]] && break
  sleep 0.1
done
[[ "$OVL_STATE" == "0" ]] \
  || { echo "smoke: overload_state=$OVL_STATE never recovered to 0" >&2; cat "$LOG" >&2; exit 1; }
"$KCLI" search --endpoints=127.0.0.1:"$PORT" --vertex=5 --k=3 --query="kw0 or kw1" >/dev/null
OVL_SECS="$("$KCLI" metrics --endpoints=127.0.0.1:"$PORT" | awk '$1 == "kspin_brownout_seconds" { print $2 }')"
echo "smoke: overload recovered (overload_state=0, brownout_seconds=${OVL_SECS:-0})"

# The whole brownout episode must be reconstructible from the recorder
# on the now-idle server: entry, exit, and at least one shed burst.
DIAG_OVL="$("$KCLI" diag --endpoints=127.0.0.1:"$PORT")" \
  || { echo "smoke: kspin_cli diag against overload server failed" >&2; exit 1; }
grep -q '"type":"BROWNOUT_ENTER"' <<<"$DIAG_OVL" \
  || { echo "smoke: diag missing BROWNOUT_ENTER" >&2; echo "$DIAG_OVL" >&2; exit 1; }
grep -q '"type":"BROWNOUT_EXIT"' <<<"$DIAG_OVL" \
  || { echo "smoke: diag missing BROWNOUT_EXIT" >&2; echo "$DIAG_OVL" >&2; exit 1; }
grep -q '"type":"SHED_BURST"' <<<"$DIAG_OVL" \
  || { echo "smoke: diag missing SHED_BURST" >&2; echo "$DIAG_OVL" >&2; exit 1; }
echo "smoke: diag reconstructs the brownout episode from the recorder"

kill -TERM "$PROXY_PID" 2>/dev/null || true
wait "$PROXY_PID" 2>/dev/null || true
PROXY_PID=""
kill -INT "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVER_PID" 2>/dev/null && { echo "smoke: overload server ignored SIGINT" >&2; exit 1; }
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "smoke: overload drill complete"
echo "smoke: PASS"
