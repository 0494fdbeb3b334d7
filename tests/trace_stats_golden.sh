#!/bin/sh
# whisper_trace_stats coverage: (1) golden-output diff — the stats
# report for a fixed generated trace must match the committed golden
# file byte for byte (catches silent format or generator drift);
# (2) CLI CBP round-trip — .whrt -> .cbp -> .whrt must reproduce the
# original file exactly; (3) the foreign .cbp feeds whisper_eval
# end to end; (4) an empty trace reports 0.0 shares, not nan.
set -e

BIN_DIR="$1"
GOLDEN_DIR="$2"
WORK_DIR="${TMPDIR:-/tmp}/trace_stats_golden_$$"
mkdir -p "$WORK_DIR"
trap 'rm -rf "$WORK_DIR"' EXIT

"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 --records 50000 \
    --out "$WORK_DIR/kafka.whrt" > /dev/null

# Golden diff: report layout and generator output are both pinned.
"$BIN_DIR/whisper_trace_stats" "$WORK_DIR/kafka.whrt" --top 5 \
    > "$WORK_DIR/stats.txt"
diff -u "$GOLDEN_DIR/trace_stats_kafka_i0_50k.txt" \
    "$WORK_DIR/stats.txt"

# CBP round-trip through the CLI converter modes.
"$BIN_DIR/whisper_trace_stats" --export-cbp \
    "$WORK_DIR/kafka.whrt" "$WORK_DIR/kafka.cbp" > /dev/null
"$BIN_DIR/whisper_trace_stats" --convert-cbp \
    "$WORK_DIR/kafka.cbp" "$WORK_DIR/kafka_rt.whrt" > /dev/null
cmp "$WORK_DIR/kafka.whrt" "$WORK_DIR/kafka_rt.whrt"

# The text trace is a first-class stats input...
"$BIN_DIR/whisper_trace_stats" "$WORK_DIR/kafka.cbp" \
    > "$WORK_DIR/stats_cbp.txt"
grep -q "trace: app=kafka input=0 records=50000" \
    "$WORK_DIR/stats_cbp.txt"

# ...and a first-class evaluation input: a foreign CBP-style trace
# runs through whisper_eval without touching the native format.
"$BIN_DIR/whisper_eval" --trace "$WORK_DIR/kafka.cbp" \
    > "$WORK_DIR/eval.txt"
grep -q "evaluation: kafka input #0" "$WORK_DIR/eval.txt"
grep -q "tage-sc-l" "$WORK_DIR/eval.txt"

# An empty trace has no denominator for any share column.
"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 --records 0 \
    --out "$WORK_DIR/empty.whrt" > /dev/null
"$BIN_DIR/whisper_trace_stats" "$WORK_DIR/empty.whrt" \
    > "$WORK_DIR/empty.txt"
grep -q "records=0" "$WORK_DIR/empty.txt"
if grep -qi nan "$WORK_DIR/empty.txt"; then
    echo "empty-trace stats print nan:" >&2
    cat "$WORK_DIR/empty.txt" >&2
    exit 1
fi

echo "trace_stats golden OK"
