#!/bin/sh
# Loopback end-to-end demo of whisperd's wire server, in three legs:
#
#   chaos        — whisper_loadgen drives a fleet of concurrent
#                  agents (default 128; WHISPER_SERVER_DEMO_AGENTS
#                  overrides, e.g. for TSan CI) through an active
#                  wire fault spec: corrupt CRCs, torn frames,
#                  mid-frame connection kills, slow-loris stalls.
#                  Every chunk must end acknowledged exactly once.
#   byte-identity— the same traffic (dumped chunk-for-chunk by the
#                  load generator) is replayed through the in-process
#                  --chunks ingest path; every tenant's deployed
#                  bundle must be byte-identical to the wire run's,
#                  and deployed at the same epoch.
#   kill-9/WAL   — a second server deploys from a seed load, then is
#                  kill -9ed mid-way through a live load on the same
#                  tenants; a restart on the same port resumes them
#                  from their journals while the still-running
#                  clients reconnect and retransmit to completion.
set -e

BIN_DIR="$1"
AGENTS="${WHISPER_SERVER_DEMO_AGENTS:-128}"
CHUNKS_PER_AGENT="${WHISPER_SERVER_DEMO_CHUNKS:-4}"
KILL_AGENTS="${WHISPER_SERVER_DEMO_KILL_AGENTS:-12}"
KILL_CHUNKS="${WHISPER_SERVER_DEMO_KILL_CHUNKS:-60}"
CHUNK_RECORDS=1500
FAULTS="wire-corrupt=7,wire-tear=11,wire-kill=13,wire-stall=17:10"

WORK_DIR="${TMPDIR:-/tmp}/whisperd_server_$$"
mkdir -p "$WORK_DIR/dump" "$WORK_DIR/wire_journal" \
    "$WORK_DIR/wire_out" "$WORK_DIR/local_journal" \
    "$WORK_DIR/local_out" "$WORK_DIR/kill_journal" \
    "$WORK_DIR/kill_out"
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2> /dev/null
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# Epoch at which whisperd log $1 reports app $2's bundle deployed.
deployed_epoch() {
    sed -n "s/^whisperd\[$2\]: deployed bundle (epoch \([0-9]*\),.*/\1/p" \
        "$1"
}

wait_port_file() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || {
            echo "FAIL: server never wrote $1"; exit 1; }
        sleep 0.1
    done
}

# ---- leg 1+2: chaos load, then byte-identity replay ----------------

"$BIN_DIR/whisperd" --listen 127.0.0.1:0 \
    --port-file "$WORK_DIR/port.txt" \
    --tenants auto \
    --journal-dir "$WORK_DIR/wire_journal" \
    --out-dir "$WORK_DIR/wire_out" \
    --chunk-records $CHUNK_RECORDS --epoch-chunks 2 \
    --quota-chunks 16 --quota-jobs 65536 --max-hard 64 \
    > "$WORK_DIR/wire_server.txt" 2>&1 &
SRV_PID=$!
wait_port_file "$WORK_DIR/port.txt"
PORT=$(cat "$WORK_DIR/port.txt")

"$BIN_DIR/whisper_loadgen" --port "$PORT" \
    --agents "$AGENTS" --chunks-per-agent "$CHUNKS_PER_AGENT" \
    --chunk-records $CHUNK_RECORDS \
    --dump-dir "$WORK_DIR/dump" \
    --fault-spec "$FAULTS" \
    --timeout-ms 5000 --max-attempts 400 \
    --pull-every 2 \
    --json "$WORK_DIR/bench_chaos.json" \
    > "$WORK_DIR/chaos.txt" 2>&1 || {
    cat "$WORK_DIR/chaos.txt"
    echo "FAIL: loadgen lost chunks under the fault spec"; exit 1; }
cat "$WORK_DIR/chaos.txt"
grep -q "all chunks acknowledged" "$WORK_DIR/chaos.txt"

# The chaos was real: every fault class actually fired.
for fault in injected_corrupt injected_torn injected_kills \
    injected_stalls; do
    N=$(sed -n "s/.*\"$fault\": \([0-9]*\).*/\1/p" \
        "$WORK_DIR/bench_chaos.json")
    [ "${N:-0}" -ge 1 ] || {
        echo "FAIL: fault $fault never fired"; exit 1; }
done

# Graceful drain: SIGTERM must flush every queued chunk through
# training and write the per-tenant report before exit.
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
    echo "FAIL: server did not exit cleanly on SIGTERM"; exit 1; }
SRV_PID=""
cat "$WORK_DIR/wire_server.txt"
grep -q "whisperd per-tenant metrics" "$WORK_DIR/wire_server.txt"
DROPPED=$(sed -n \
    's/.*dropped-chunks=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/wire_server.txt" | awk '{s += $1} END {print s}')
[ "${DROPPED:-0}" -eq 0 ] || {
    echo "FAIL: wire server dropped $DROPPED chunks"; exit 1; }

# Byte-identity: replay the dumped chunks through the in-process
# ingest path (same chunk size => same per-tenant chunk sequence).
"$BIN_DIR/whisperd" --chunks "$WORK_DIR/dump" \
    --tenants auto \
    --journal-dir "$WORK_DIR/local_journal" \
    --out-dir "$WORK_DIR/local_out" \
    --chunk-records $CHUNK_RECORDS --epoch-chunks 2 \
    --quota-chunks 1000000 --quota-jobs 65536 --max-hard 64 \
    > "$WORK_DIR/local.txt" 2>&1

WIRE_BUNDLES=$(ls "$WORK_DIR/wire_out" | grep -c '\.hints$' ||
    true)
LOCAL_BUNDLES=$(ls "$WORK_DIR/local_out" | grep -c '\.hints$' ||
    true)
[ "$WIRE_BUNDLES" -ge 1 ] || {
    echo "FAIL: wire run deployed no bundles"; exit 1; }
[ "$WIRE_BUNDLES" -eq "$LOCAL_BUNDLES" ] || {
    echo "FAIL: wire run deployed $WIRE_BUNDLES bundles," \
        "in-process run deployed $LOCAL_BUNDLES"; exit 1; }
for hints in "$WORK_DIR"/wire_out/*.hints; do
    app=$(basename "$hints" .hints)
    cmp "$hints" "$WORK_DIR/local_out/$app.hints" || {
        echo "FAIL: $app differs between wire and in-process"
        exit 1; }
    WIRE_EPOCH=$(deployed_epoch "$WORK_DIR/wire_server.txt" "$app")
    LOCAL_EPOCH=$(deployed_epoch "$WORK_DIR/local.txt" "$app")
    [ -n "$WIRE_EPOCH" ] && [ "$WIRE_EPOCH" = "$LOCAL_EPOCH" ] || {
        echo "FAIL: $app deployed at epoch '$WIRE_EPOCH' over the" \
            "wire, '$LOCAL_EPOCH' in process"; exit 1; }
done

# ---- leg 3: kill -9 mid-load, restart, WAL resume ------------------

# Per-epoch log lines ("info: whisperd[APP] epoch N: ...") so far.
epoch_lines() {
    grep -c '^info: whisperd\[.*\] epoch [0-9]*: ' "$1" || true
}

# Wait until server log $1 holds at least $2 per-epoch lines.
wait_epoch_lines() {
    i=0
    while [ "$(epoch_lines "$1")" -lt "$2" ]; do
        i=$((i + 1))
        [ "$i" -le 3000 ] || {
            echo "FAIL: $1 never reached $2 trained epochs"; exit 1; }
        kill -0 "$SRV_PID" 2> /dev/null || {
            echo "FAIL: server died before $2 trained epochs"; exit 1; }
        sleep 0.02
    done
}

# The first life takes an ephemeral port; the restart rebinds that
# same port so the clients' reconnects find it.
"$BIN_DIR/whisperd" --listen 127.0.0.1:0 \
    --port-file "$WORK_DIR/kill_port1.txt" \
    --journal-dir "$WORK_DIR/kill_journal" \
    --out-dir "$WORK_DIR/kill_out" \
    --chunk-records 1000 --epoch-chunks 2 \
    --quota-chunks 64 --quota-jobs 65536 --max-hard 64 \
    > "$WORK_DIR/kill_s1.txt" 2>&1 &
SRV_PID=$!
wait_port_file "$WORK_DIR/kill_port1.txt"
PORT=$(cat "$WORK_DIR/kill_port1.txt")

# Seed load: the same agents send SEED_CHUNKS chunks each and finish.
# With --epoch-chunks 2 every agent's tenant then has exactly
# (SEED_CHUNKS - 1) / 2 training jobs; once all of them are logged,
# each ACCEPTED among them is durable (the line is logged after the
# deployment's journal append returned), so the restart has
# something to resume. The journal files themselves prove nothing:
# they exist from tenant registration on.
SEED_CHUNKS=8
"$BIN_DIR/whisper_loadgen" --port "$PORT" \
    --agents "$KILL_AGENTS" --chunks-per-agent $SEED_CHUNKS \
    --chunk-records 1000 \
    --timeout-ms 2000 --max-attempts 400 \
    > "$WORK_DIR/kill_seed.txt" 2>&1 || {
    cat "$WORK_DIR/kill_seed.txt"
    echo "FAIL: seed load lost chunks"; exit 1; }
SEED_EPOCHS=$((KILL_AGENTS * ((SEED_CHUNKS - 1) / 2)))
wait_epoch_lines "$WORK_DIR/kill_s1.txt" "$SEED_EPOCHS"
grep -q "ACCEPTED (deployed epoch" "$WORK_DIR/kill_s1.txt" || {
    echo "FAIL: the seed load deployed no epoch"; exit 1; }

# Live load on the same tenants. Each tenant already holds one
# untrained chunk, so the first live chunk it absorbs completes an
# epoch: one more epoch line means live traffic is flowing, with
# most of each agent's KILL_CHUNKS still unsent. Kill -9 right then.
"$BIN_DIR/whisper_loadgen" --port "$PORT" \
    --agents "$KILL_AGENTS" --chunks-per-agent "$KILL_CHUNKS" \
    --chunk-records 1000 \
    --timeout-ms 2000 --max-attempts 400 \
    --json "$WORK_DIR/bench_kill.json" \
    > "$WORK_DIR/kill_lg.txt" 2>&1 &
LG_PID=$!
wait_epoch_lines "$WORK_DIR/kill_s1.txt" $((SEED_EPOCHS + 1))
kill -9 "$SRV_PID"
wait "$SRV_PID" 2> /dev/null || true

"$BIN_DIR/whisperd" --listen "127.0.0.1:$PORT" \
    --port-file "$WORK_DIR/kill_port2.txt" \
    --journal-dir "$WORK_DIR/kill_journal" \
    --out-dir "$WORK_DIR/kill_out" \
    --chunk-records 1000 --epoch-chunks 2 \
    --quota-chunks 64 --quota-jobs 65536 --max-hard 64 \
    > "$WORK_DIR/kill_s2.txt" 2>&1 &
SRV_PID=$!
wait_port_file "$WORK_DIR/kill_port2.txt"
[ "$(cat "$WORK_DIR/kill_port2.txt")" -eq "$PORT" ] || {
    echo "FAIL: restart bound port $(cat "$WORK_DIR/kill_port2.txt")," \
        "not $PORT"; exit 1; }

wait "$LG_PID" || {
    cat "$WORK_DIR/kill_lg.txt"
    echo "FAIL: clients lost chunks across the kill -9"; exit 1; }
cat "$WORK_DIR/kill_lg.txt"
grep -q "all chunks acknowledged" "$WORK_DIR/kill_lg.txt"

# The outage was real: every agent had to reconnect at least once
# beyond its initial connection.
RECONNECTS=$(sed -n 's/.*"reconnects": \([0-9]*\).*/\1/p' \
    "$WORK_DIR/bench_kill.json")
[ "${RECONNECTS:-0}" -gt "$KILL_AGENTS" ] || {
    echo "FAIL: reconnects=$RECONNECTS — the kill never" \
        "interrupted the load"; exit 1; }

kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
    echo "FAIL: restarted server did not drain cleanly"; exit 1; }
SRV_PID=""
cat "$WORK_DIR/kill_s2.txt"
RESUMED=$(sed -n \
    's/^journal resumed epoch  *\([0-9]*\)$/\1/p' \
    "$WORK_DIR/kill_s2.txt")
[ "${RESUMED:-0}" -ge 1 ] || {
    echo "FAIL: restarted server resumed nothing from the WAL"
    exit 1; }

echo "whisperd server demo OK (chaos agents=$AGENTS," \
    "bundles=$WIRE_BUNDLES byte-identical," \
    "kill-9 resumed-epoch=$RESUMED reconnects=$RECONNECTS)"
