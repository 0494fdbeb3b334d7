#!/bin/sh
# Reachability gate: every whisper:: function the libraries define must
# be linked into some non-test binary, or be listed with a reason in
# tools/reachable_allowlist.txt.
#
#   sh tools/check_reachable.sh [BUILD_DIR]     (default: build-reachable)
#
# The script configures BUILD_DIR at -O0 -ffunction-sections with
# -Wl,--gc-sections, builds the libraries and every target under
# tools/, bench/ and examples/, and links perfbench's whisper_bench
# from perfbench/*.cc against the same libraries (perfbench itself is
# only read). The linker then drops every function no binary can reach.
# The script diffs the whisper:: text symbols (nm T, t and W) of the
# libraries' .a files against those left in the binaries, and fails
#   - on a library function that no binary reaches and no allowlist
#     entry covers;
#   - on an allowlist entry that matches no library function (the
#     function is gone) or that matches one a binary now reaches;
#   - on an allowlist entry without a reason.
#
# Allowlist lines are "NAME  # reason". NAME is a qualified function
# name and covers every overload (whisper::GlobalHistory::foldedHash);
# a NAME ending in "::" covers every member of a class
# (whisper::FormulaNetlist::). Blank lines and lines starting with #
# are ignored.
#
# Blind spot: inline functions, templates and header-only code (such
# as a class defined entirely in a header) are not in the libraries'
# symbol tables as T/t symbols, so this gate cannot see them; review
# headers by hand.
set -eu
export LC_ALL=C

ROOT=$(cd "$(dirname "$0")/.." && pwd)
B=${1:-"$ROOT/build-reachable"}
ALLOW="$ROOT/tools/reachable_allowlist.txt"
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}

mkdir -p "$B"
run() {
    "$@" >> "$B/check_reachable.log" 2>&1 || {
        tail -n 40 "$B/check_reachable.log" >&2
        echo "check_reachable: build failed: $*" >&2
        exit 1
    }
}
run cmake -S "$ROOT" -B "$B" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
for dir in tools bench examples; do
    run make -C "$B/$dir" -j"$JOBS"
done

LIBS=$(find "$B/src" -name 'libwhisper_*.a' | sort)
mkdir -p "$B/perfbench"
run c++ -std=c++20 -O0 -ffunction-sections -I"$ROOT/src" \
    "$ROOT"/perfbench/*.cc -Wl,--gc-sections \
    -Wl,--start-group $LIBS -Wl,--end-group -pthread \
    -o "$B/perfbench/whisper_bench"

BINS=$(find "$B/tools" "$B/bench" "$B/examples" "$B/perfbench" \
    -maxdepth 1 -type f -perm -u+x | sort)

# The functions of namespace whisper (and their local lambdas) that
# are defined in text sections, demangled, one per line. Filtering on
# the mangled name keeps out std:: template instances that merely
# mention a whisper:: type; function template instances demangle with
# their return type first and drop out at the grep.
textSymbols() {
    nm --defined-only "$@" 2>/dev/null |
        awk '($2 == "T" || $2 == "t" || $2 == "W") &&
             $3 ~ /^_ZZ?N[KVROr]*7whisper/ { print $3 }' |
        c++filt | grep '^whisper::' | sort -u
}

textSymbols $LIBS > "$B/lib_symbols.txt"
textSymbols $BINS > "$B/bin_symbols.txt"
comm -23 "$B/lib_symbols.txt" "$B/bin_symbols.txt" \
    > "$B/unreached.txt"
comm -12 "$B/lib_symbols.txt" "$B/bin_symbols.txt" \
    > "$B/reached.txt"

awk -v allow="$ALLOW" -v reachedFile="$B/reached.txt" '
    function covers(entry, sym) {
        if (substr(entry, length(entry) - 1) == "::")
            return index(sym, entry) == 1
        return sym == entry || index(sym, entry "(") == 1 ||
               index(sym, entry "<") == 1
    }
    BEGIN {
        bad = 0
        while ((getline line < allow) > 0) {
            if (line ~ /^[ \t]*(#|$)/)
                continue
            hash = index(line, "#")
            name = hash ? substr(line, 1, hash - 1) : line
            why = hash ? substr(line, hash + 1) : ""
            gsub(/^[ \t]+|[ \t]+$/, "", name)
            gsub(/^[ \t]+|[ \t]+$/, "", why)
            if (why == "") {
                print "allowlist entry without a reason: " name
                bad = 1
            }
            entries[++n] = name
        }
        while ((getline sym < reachedFile) > 0)
            for (i = 1; i <= n; ++i)
                if (covers(entries[i], sym)) {
                    print "allowlisted but reached by a binary: " sym
                    used[i] = 1
                    bad = 1
                }
    }
    {
        ok = 0
        for (i = 1; i <= n; ++i)
            if (covers(entries[i], $0)) {
                ok = 1
                used[i] = 1
            }
        if (!ok) {
            print "reached by no non-test binary: " $0
            bad = 1
        }
    }
    END {
        for (i = 1; i <= n; ++i)
            if (!used[i]) {
                print "allowlist entry matches no library function: " \
                      entries[i]
                bad = 1
            }
        exit bad
    }' "$B/unreached.txt" || {
    echo "check_reachable: FAILED (see above; allowlist: $ALLOW)" >&2
    exit 1
}

echo "check_reachable: ok, $(wc -l < "$B/lib_symbols.txt") library" \
     "functions, $(wc -l < "$B/unreached.txt") allowlisted as test-only"
