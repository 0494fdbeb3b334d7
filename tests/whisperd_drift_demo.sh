#!/bin/sh
# Drift scenario demo: a kafka stream whose request mix and branch
# formulas rotate mid-stream (whisper_trace_gen --drift) feeds the
# whisperd adaptive loop. Asserts the continuous-PGO contracts on a
# drifting workload:
#   1. whisperd trains across epochs and deploys validated bundles;
#   2. the deployed online bundle (whisper_eval on --out-dir
#      DIR/kafka.hints) mispredicts no more than plain TAGE-SC-L or
#      a static bundle trained on the pre-drift prefix;
#   3. per whisper_eval --per-epoch, the drift visibly dents the
#      baseline at the phase boundary, and the static prefix-trained
#      bundle goes stale: its accuracy edge over TAGE collapses on
#      the post-drift epochs (the gap the online loop exists to
#      close).
set -e

BIN_DIR="$1"
WORK_DIR="${TMPDIR:-/tmp}/whisperd_drift_$$"
mkdir -p "$WORK_DIR/chunks" "$WORK_DIR/journal" "$WORK_DIR/out"
trap 'rm -rf "$WORK_DIR"' EXIT

# Mispredicts of the first row of whisper_eval table $1 whose
# predictor name starts with $2.
mispredicts() {
    awk -v p="$2" 'index($1, p) == 1 { print $NF; exit }' "$1"
}

DRIFT="phase:period=225000,phases=2,intensity=0.7,seed=11"

# One drifting stream serves as both the chunk arrival and the
# held-out evaluation trace (epochs 0-2 phase 0, epochs 3-5 the
# rotated phase at 75k records per epoch).
"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 \
    --records 450000 --drift "$DRIFT" \
    --out "$WORK_DIR/chunks/000_kafka_drift.whrt" > /dev/null
cp "$WORK_DIR/chunks/000_kafka_drift.whrt" "$WORK_DIR/eval.whrt"

# Static reference: one-shot training on pre-drift (phase 0) data
# only — the bundle a collect-once pipeline would still be running.
"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 \
    --records 150000 --out "$WORK_DIR/pre.whrt" > /dev/null
"$BIN_DIR/whisper_train" --trace "$WORK_DIR/pre.whrt" \
    --out "$WORK_DIR/static.hints" > /dev/null

"$BIN_DIR/whisperd" --chunks "$WORK_DIR/chunks" \
    --out-dir "$WORK_DIR/out" \
    --journal-dir "$WORK_DIR/journal" \
    --chunk-records 45000 --epoch-chunks 2 \
    --workers 4 --max-hard 256 \
    > "$WORK_DIR/whisperd.txt" 2>&1
cat "$WORK_DIR/whisperd.txt"

# Contract 1: adaptation actually happened (one tenant: the stream
# is all kafka).
EPOCHS=$(sed -n 's/^whisperd\[kafka\]: epochs=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd.txt")
[ "$EPOCHS" -ge 2 ]
ACCEPTED=$(sed -n 's/^whisperd\[kafka\]: .* accepted=\([0-9]*\).*/\1/p' \
    "$WORK_DIR/whisperd.txt")
[ "$ACCEPTED" -ge 1 ]
grep -q "deployed bundle (epoch" "$WORK_DIR/whisperd.txt"

# Contract 2: online beats (or ties) both references on the full
# drifting trace.
"$BIN_DIR/whisper_eval" --trace "$WORK_DIR/eval.whrt" \
    --hints "$WORK_DIR/out/kafka.hints" --predictors tage,whisper \
    > "$WORK_DIR/online_eval.txt"
cat "$WORK_DIR/online_eval.txt"
"$BIN_DIR/whisper_eval" --trace "$WORK_DIR/eval.whrt" \
    --hints "$WORK_DIR/static.hints" --predictors whisper \
    > "$WORK_DIR/static_eval.txt"
cat "$WORK_DIR/static_eval.txt"
TAGE_MISSES=$(mispredicts "$WORK_DIR/online_eval.txt" tage-)
ONLINE_MISSES=$(mispredicts "$WORK_DIR/online_eval.txt" whisper+)
STATIC_MISSES=$(mispredicts "$WORK_DIR/static_eval.txt" whisper+)
[ "$ONLINE_MISSES" -le "$TAGE_MISSES" ]
[ "$ONLINE_MISSES" -le "$STATIC_MISSES" ]

# Contract 3: the machine-readable per-epoch dump shows the drift
# and the staleness of the static bundle.
"$BIN_DIR/whisper_eval" --trace "$WORK_DIR/eval.whrt" \
    --hints "$WORK_DIR/static.hints" \
    --per-epoch --epoch-records 75000 > "$WORK_DIR/per_epoch.txt"
grep "per-epoch" "$WORK_DIR/per_epoch.txt"

# Accuracy of predictor-prefix $1 in epoch $2.
acc() {
    sed -n "s/^per-epoch predictor=$1[^ ]* epoch=$2 \
.*accuracy=\([0-9.]*\).*/\1/p" "$WORK_DIR/per_epoch.txt"
}
[ "$(grep -c '^per-epoch-summary' "$WORK_DIR/per_epoch.txt")" -eq 2 ]

# The phase boundary (epoch 3) visibly dents the warmed-up baseline
# relative to the last pre-drift epoch...
awk -v pre="$(acc tage 2)" -v post="$(acc tage 3)" \
    'BEGIN { exit !(post <= pre - 0.01) }'
# ...and the static prefix-trained bundle goes stale: its accuracy
# edge over TAGE in the last pre-drift epoch shrinks by the end of
# the drifted segment.
awk -v tpre="$(acc tage 2)" -v wpre="$(acc whisper 2)" \
    -v tpost="$(acc tage 5)" -v wpost="$(acc whisper 5)" \
    'BEGIN { exit !((wpre - tpre) >= (wpost - tpost) + 0.001) }'

echo "whisperd drift demo OK (epochs=$EPOCHS accepted=$ACCEPTED" \
    "online mispredicts $ONLINE_MISSES vs tage $TAGE_MISSES," \
    "static $STATIC_MISSES)"
