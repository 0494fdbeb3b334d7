#!/bin/sh
# End-to-end demo of the whisperd continuous-optimization service:
# stream kafka input-0 chunks followed by input-1 chunks (workload
# drift), train across several epochs with validated deployment, and
# check with whisper_eval that the deployed online bundle
# (--out-dir DIR/kafka.hints) is no worse than a static single-shot
# whisper_train bundle on the drifted input.
#
# Every chunk file is kafka, so whisperd (default --tenants auto) runs
# as a one-tenant router and reports on whisperd[kafka] summary lines.
# The deployment history is written through the crash-safe hint-store
# journal (JOURNAL_DIR/kafka.journal). In the default mode a second
# whisperd is killed (-9)
# mid-run, the journal tail is torn, and a restarted daemon must
# resume from the last durable epoch. With
#   whisperd_demo.sh BIN_DIR --fault-spec SPEC
# the main run instead executes under the deterministic
# fault-injection harness and must still complete with a deployed
# bundle that mispredicts no more than the TAGE-SC-L baseline.
set -e

BIN_DIR="$1"
FAULT_SPEC=""
if [ "$2" = "--fault-spec" ]; then
    FAULT_SPEC="$3"
fi
WORK_DIR="${TMPDIR:-/tmp}/whisperd_demo_$$"
JOURNAL_DIR="$WORK_DIR/journal"
JOURNAL="$JOURNAL_DIR/kafka.journal"
mkdir -p "$WORK_DIR/chunks" "$JOURNAL_DIR" "$WORK_DIR/out" \
    "$WORK_DIR/out_cold" "$WORK_DIR/out2" "$WORK_DIR/out3"
trap 'rm -rf "$WORK_DIR"' EXIT

# Mispredicts of the first row of whisper_eval table $1 whose
# predictor name starts with $2.
mispredicts() {
    awk -v p="$2" 'index($1, p) == 1 { print $NF; exit }' "$1"
}

# Evaluate bundle $1 on the held-out trace as predictors $2 into $3.
evaluate() {
    "$BIN_DIR/whisper_eval" --trace "$WORK_DIR/eval_i1.whrt" \
        --hints "$1" --predictors "$2" > "$3"
    cat "$3"
}

# Drift stream: names encode arrival order (input 0, then input 1).
"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 \
    --records 200000 --out "$WORK_DIR/chunks/000_kafka_i0.whrt"
"$BIN_DIR/whisper_trace_gen" --app kafka --input 1 \
    --records 200000 --out "$WORK_DIR/chunks/001_kafka_i1.whrt"
# Held-out evaluation trace from the drifted input.
"$BIN_DIR/whisper_trace_gen" --app kafka --input 1 \
    --records 150000 --out "$WORK_DIR/eval_i1.whrt"

# Static reference: one-shot training on the pre-drift input only.
"$BIN_DIR/whisper_train" \
    --trace "$WORK_DIR/chunks/000_kafka_i0.whrt" \
    --out "$WORK_DIR/static.hints" > /dev/null

if [ -n "$FAULT_SPEC" ]; then
    # Fault mode: run the whole pipeline under injected faults. It
    # must degrade gracefully, not crash, and still beat the
    # baseline predictor on the held-out trace.
    "$BIN_DIR/whisperd" --chunks "$WORK_DIR/chunks" \
        --out-dir "$WORK_DIR/out" \
        --journal-dir "$JOURNAL_DIR" \
        --fault-spec "$FAULT_SPEC" \
        --chunk-records 40000 --epoch-chunks 3 \
        --workers 4 --max-hard 256 \
        > "$WORK_DIR/whisperd.txt" 2>&1
    cat "$WORK_DIR/whisperd.txt"

    grep -q "fault injection armed" "$WORK_DIR/whisperd.txt"
    grep -q "deployed bundle (epoch" "$WORK_DIR/whisperd.txt"
    # The armed faults must actually have fired: the fault metric
    # line has to report at least one nonzero counter.
    FAULT_SUM=$(sed -n 's/^whisperd: faults //p' \
        "$WORK_DIR/whisperd.txt" |
        tr ' ' '\n' | sed -n 's/.*=\([0-9]*\)$/\1/p' |
        awk '{s += $1} END {print s}')
    [ "$FAULT_SUM" -ge 1 ]
    # Graceful degradation: the deployed bundle may not mispredict
    # more than plain TAGE-SC-L on the held-out trace.
    evaluate "$WORK_DIR/out/kafka.hints" tage,whisper \
        "$WORK_DIR/eval.txt"
    TAGE_MISSES=$(mispredicts "$WORK_DIR/eval.txt" tage-)
    ONLINE_MISSES=$(mispredicts "$WORK_DIR/eval.txt" whisper+)
    [ "$ONLINE_MISSES" -le "$TAGE_MISSES" ]

    echo "whisperd fault demo OK (faults fired: $FAULT_SUM," \
        "online mispredicts $ONLINE_MISSES <= tage $TAGE_MISSES)"
    exit 0
fi

"$BIN_DIR/whisperd" --chunks "$WORK_DIR/chunks" \
    --out-dir "$WORK_DIR/out" \
    --journal-dir "$JOURNAL_DIR" \
    --chunk-records 40000 --epoch-chunks 3 \
    --workers 4 --max-hard 256 \
    > "$WORK_DIR/whisperd.txt" 2>&1
cat "$WORK_DIR/whisperd.txt"

# Exactly one tenant, named by the traces' app.
[ "$(grep -c '^whisperd\[.*\]: epochs=' "$WORK_DIR/whisperd.txt")" -eq 1 ]
# A fresh journal starts empty: resume from epoch 0.
grep -q '^whisperd\[kafka\]: .* resumed-epoch=0 ' "$WORK_DIR/whisperd.txt"
# At least two training epochs ran...
EPOCHS=$(sed -n 's/^whisperd\[kafka\]: epochs=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd.txt")
[ "$EPOCHS" -ge 2 ]
# ...at least one candidate was accepted and atomically deployed...
ACCEPTED=$(sed -n 's/^whisperd\[kafka\]: .* accepted=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd.txt")
[ "$ACCEPTED" -ge 1 ]
grep -q "deployed bundle (epoch" "$WORK_DIR/whisperd.txt"
# ...the service metrics block rendered...
grep -q "whisperd service metrics" "$WORK_DIR/whisperd.txt"
# ...and the online bundle matches or beats the static one on the
# drifted input (the continuous-PGO payoff).
evaluate "$WORK_DIR/out/kafka.hints" whisper "$WORK_DIR/online_eval.txt"
evaluate "$WORK_DIR/static.hints" whisper "$WORK_DIR/static_eval.txt"
ONLINE_MISSES=$(mispredicts "$WORK_DIR/online_eval.txt" whisper+)
STATIC_MISSES=$(mispredicts "$WORK_DIR/static_eval.txt" whisper+)
[ "$ONLINE_MISSES" -le "$STATIC_MISSES" ]

# Training-knob phase: with the default --train-prune=on
# --warm-start=on the summary must expose the warm/cold training
# stats and per-branch train-time...
grep -q '^whisperd\[kafka\]: .* warm-hits=' "$WORK_DIR/whisperd.txt"
BR_MS=$(sed -n 's/^whisperd\[kafka\]: .*branch-train-ms=\([0-9.]*\).*/\1/p' \
    "$WORK_DIR/whisperd.txt" | head -n 1)
awk -v ms="$BR_MS" 'BEGIN { exit !(ms > 0) }'
# ...and turning both knobs off must produce a purely cold run:
# zero warm hits, every considered branch a cold search.
"$BIN_DIR/whisperd" --chunks "$WORK_DIR/chunks" \
    --out-dir "$WORK_DIR/out_cold" \
    --train-prune=off --warm-start=off \
    --chunk-records 40000 --epoch-chunks 3 \
    --workers 4 --max-hard 256 \
    > "$WORK_DIR/whisperd_cold.txt" 2>&1
cat "$WORK_DIR/whisperd_cold.txt"
grep -q '^whisperd\[kafka\]: .* warm-hits=0 ' "$WORK_DIR/whisperd_cold.txt"
COLD_SEARCHES=$(sed -n \
    's/^whisperd\[kafka\]: .* warm-hits=0 cold-searches=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd_cold.txt")
[ "$COLD_SEARCHES" -ge 1 ]
COLD_BR_MS=$(sed -n 's/^whisperd\[kafka\]: .*branch-train-ms=\([0-9.]*\).*/\1/p' \
    "$WORK_DIR/whisperd_cold.txt" | head -n 1)
awk -v ms="$COLD_BR_MS" 'BEGIN { exit !(ms > 0) }'

# Crash-recovery phase: rerun on the same journal, kill -9 the
# daemon mid-run, tear the journal tail, and check the restarted
# daemon resumes from the last durable epoch instead of epoch 0.
"$BIN_DIR/whisperd" --chunks "$WORK_DIR/chunks" \
    --out-dir "$WORK_DIR/out2" \
    --journal-dir "$JOURNAL_DIR" \
    --chunk-records 40000 --epoch-chunks 3 \
    --workers 4 --max-hard 256 \
    > "$WORK_DIR/whisperd_bg.txt" 2>&1 &
BG_PID=$!
i=0
while [ "$i" -lt 300 ]; do
    if grep -q "ACCEPTED (deployed epoch" "$WORK_DIR/whisperd_bg.txt"
    then
        break
    fi
    kill -0 "$BG_PID" 2> /dev/null || break
    sleep 0.2
    i=$((i + 1))
done
kill -9 "$BG_PID" 2> /dev/null || true
wait "$BG_PID" 2> /dev/null || true

# Generations durable so far: phase-1 deployments plus whatever the
# killed daemon managed to append. With at least two, tear the last
# record so replay must discard it and fall back one epoch.
BG_ACCEPTED=$(grep -c "ACCEPTED (deployed epoch" \
    "$WORK_DIR/whisperd_bg.txt" || true)
TOTAL_GENERATIONS=$((ACCEPTED + BG_ACCEPTED))
if [ "$TOTAL_GENERATIONS" -ge 2 ]; then
    truncate -s -3 "$JOURNAL"
fi

"$BIN_DIR/whisperd" --chunks "$WORK_DIR/chunks" \
    --out-dir "$WORK_DIR/out3" \
    --journal-dir "$JOURNAL_DIR" \
    --chunk-records 40000 --epoch-chunks 3 \
    --workers 4 --max-hard 256 \
    > "$WORK_DIR/whisperd_restart.txt" 2>&1
cat "$WORK_DIR/whisperd_restart.txt"

RESUMED=$(sed -n \
    's/^whisperd\[kafka\]: .* resumed-epoch=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd_restart.txt")
[ "$RESUMED" -ge 1 ]
FINAL_EPOCH=$(sed -n 's/^whisperd\[kafka\]: .* deployed-epoch=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd_restart.txt")
[ "$FINAL_EPOCH" -ge "$RESUMED" ]

echo "whisperd demo OK (crash recovery resumed at epoch $RESUMED," \
    "final deployed epoch $FINAL_EPOCH)"
