#!/bin/sh
# End-to-end test of the CLI tools: generate traces, inspect them,
# train a hint bundle, and evaluate it — the paper's Fig. 10 flow
# split across processes. Any non-zero exit fails the test.
set -e

BIN_DIR="$1"
WORK_DIR="${TMPDIR:-/tmp}/whisper_tools_test_$$"
mkdir -p "$WORK_DIR"
trap 'rm -rf "$WORK_DIR"' EXIT

"$BIN_DIR/whisper_trace_stats" --list | grep -q mysql

"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 \
    --records 150000 --out "$WORK_DIR/train.whrt"
"$BIN_DIR/whisper_trace_gen" --app kafka --input 1 \
    --records 120000 --out "$WORK_DIR/test.whrt"

"$BIN_DIR/whisper_trace_stats" "$WORK_DIR/train.whrt" --top 3 \
    | grep -q "app=kafka"

"$BIN_DIR/whisper_train" --trace "$WORK_DIR/train.whrt" \
    --out "$WORK_DIR/kafka.hints" | grep -q "hints"

# Profiling, training and placement are deterministic: the bundle
# bytes are pinned (POSIX cksum: CRC, then length), so any drift in
# them fails here. The profile itself is pinned in process by
# Profiler.KafkaProfileMatchesThePinnedCrc (tests/test_sim.cc).
expect_cksum() {
    got=$(cksum < "$1")
    if [ "$got" != "$2" ]; then
        echo "$1: cksum '$got', want '$2'" >&2
        exit 1
    fi
}
expect_cksum "$WORK_DIR/kafka.hints" "3631339525 1284"

"$BIN_DIR/whisper_eval" --trace "$WORK_DIR/test.whrt" \
    --hints "$WORK_DIR/kafka.hints" \
    --predictors tage,whisper \
    > "$WORK_DIR/eval.txt"
grep -q "whisper+tage" "$WORK_DIR/eval.txt"

# A bundle whose first placement names a branch without a hint is a
# corrupt file: whisper_eval exits 1 naming it. The placement's
# branch PC follows the 8-byte header, the hint count, 44 bytes per
# hint and the placement count; it becomes 0xdeadbeef0.
hints=$(od -An -t u8 -j 8 -N 8 "$WORK_DIR/kafka.hints" | tr -d ' ')
cp "$WORK_DIR/kafka.hints" "$WORK_DIR/orphan.hints"
printf '\360\356\333\352\015\000\000\000' | dd of="$WORK_DIR/orphan.hints" \
    bs=1 seek=$((24 + 44 * hints)) conv=notrunc 2> /dev/null
rc=0
"$BIN_DIR/whisper_eval" --trace "$WORK_DIR/test.whrt" \
    --hints "$WORK_DIR/orphan.hints" > /dev/null \
    2> "$WORK_DIR/orphan.err" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "orphan.hints" "$WORK_DIR/orphan.err"; then
    echo "whisper_eval on a placement without a hint: exit $rc" >&2
    exit 1
fi

# Bad numeric flags are usage errors (exit 2), never an abort or a
# silent default.
expect_usage_error() {
    tool="$1"
    shift
    rc=0
    "$BIN_DIR/$tool" "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "$tool $*: exit $rc, want 2" >&2
        exit 1
    fi
}
EVAL_TRACE="$WORK_DIR/test.whrt"
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --warmup 1
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --warmup -0.5
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --warmup abc
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --tage-kb 0
# --tage-kb takes the budgets TAGE-SC-L scales to: powers of two
# from 8 to 8192.
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --tage-kb 3
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --tage-kb 100000
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --tage-kb 4
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --tage-kb 16384
expect_usage_error whisper_train --trace "$WORK_DIR/train.whrt" \
    --out "$WORK_DIR/bad.hints" --tage-kb 96
expect_usage_error whisperd --chunks "$WORK_DIR" --tage-kb 3
expect_usage_error whisper_eval --trace "$EVAL_TRACE" \
    --per-epoch --epoch-records 0
# Predictors outside the paper's figures are not offered.
expect_usage_error whisper_eval --trace "$EVAL_TRACE" --predictors gshare
expect_usage_error whisper_eval --trace "$EVAL_TRACE" \
    --predictors profile-static
# The whole --predictors list is checked before the trace is read: a
# bad name fails as usage even when the trace is missing, and so do
# names whose input option is absent.
expect_usage_error whisper_eval --trace /nonexistent.whrt \
    --predictors tage,gshare
expect_usage_error whisper_eval --trace /nonexistent.whrt \
    --predictors tage,whisper
expect_usage_error whisper_train --trace "$WORK_DIR/train.whrt" \
    --out "$WORK_DIR/bad.hints" --tage-kb x
expect_usage_error whisperd --chunks "$WORK_DIR" --epoch-chunks 0
expect_usage_error whisperd --listen 127.0.0.1:abc
expect_usage_error whisperd --chunks "$WORK_DIR" --fault-spec flip-chunks=2x
expect_usage_error whisperd --chunks "$WORK_DIR" --fault-spec fail-read=-1
expect_usage_error whisper_trace_stats "$WORK_DIR/train.whrt" --top x
expect_usage_error whisper_loadgen --port 1 --agents x
expect_usage_error whisper_loadgen --port 70000
# A bad record count leaves no trace behind.
expect_usage_error whisper_trace_gen --app kafka --records x \
    --out "$WORK_DIR/bad.whrt"
if [ -e "$WORK_DIR/bad.whrt" ]; then
    echo "whisper_trace_gen --records x wrote a trace" >&2
    exit 1
fi

# Determinism: regenerating the same trace must be byte-identical.
"$BIN_DIR/whisper_trace_gen" --app kafka --input 0 \
    --records 150000 --out "$WORK_DIR/train2.whrt"
cmp "$WORK_DIR/train.whrt" "$WORK_DIR/train2.whrt"

echo "tools pipeline OK"
