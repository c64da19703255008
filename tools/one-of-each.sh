#!/bin/sh
# One of each: the FNV-1a constants, the pick call/return pairing, the
# JSON string escaper, the record/replay/flight hook word and the latency
# histogram bucket layout each live in exactly one place (enoki_sim::fnv,
# SpanGraph::build, enoki_core::json, enoki_core::record::HOOKS,
# enoki_sim::stats::Histogram), and the armed record/replay/flight sinks
# are cached in one thread-local snapshot (enoki_core::record::SINKS).
# Fails when a copy grows back, including the separate mode and flight
# flags the hook word replaced, a second read of record's GLOBAL or
# flight's old STATE_GEN / CACHED_STATE cache, and when a crate's
# non-test lines (tools/loc.sh) exceed its line in tools/loc.budget.
# Run from the repo root: `just one-of-each` (also a CI step).
set -u
fail=0

hooks=$(grep -rn --include='*.rs' 'static HOOKS: AtomicU8' crates)
if [ "$(printf '%s\n' "$hooks" | cut -d: -f1)" != crates/core/src/record.rs ]; then
    echo "one-of-each: the hook word must be declared on exactly one line, in crates/core/src/record.rs:"
    printf '%s\n' "$hooks"
    fail=1
fi

if grep -rn --include='*.rs' 'static MODE_TAG\|static ARMED' crates tests examples; then
    echo "one-of-each: a second record/flight mode flag is back; use the hook word in enoki_core::record"
    fail=1
fi

# One snapshot of the armed sinks: record.rs reads GLOBAL in one place
# (the thread-local snapshot's refresh), and flight keeps no cache of its own.
reads=$(grep -n 'GLOBAL\.read(' crates/core/src/record.rs)
if [ "$(printf '%s\n' "$reads" | grep -c .)" -gt 1 ]; then
    echo "one-of-each: GLOBAL must be read in one place in crates/core/src/record.rs (the snapshot refresh in with_sinks):"
    printf '%s\n' "$reads"
    fail=1
fi

if grep -rn --include='*.rs' 'STATE_GEN\|CACHED_STATE' crates; then
    echo "one-of-each: a second armed-state cache is back; read the sinks through record's thread-local snapshot"
    fail=1
fi

fnv=$(grep -rn --include='*.rs' 'cbf2_9ce4_8422_2325' crates tests examples)
if [ "$(printf '%s\n' "$fnv" | grep -c .)" -ne 1 ]; then
    echo "one-of-each: the FNV-1a offset basis must appear on exactly one line (enoki_sim::fnv):"
    printf '%s\n' "$fnv"
    fail=1
fi

picks=$(grep -rn --include='*.rs' 'let mut pending_pick' crates)
if [ "$(printf '%s\n' "$picks" | grep -c .)" -ne 1 ]; then
    echo "one-of-each: pick call/return pairing must be bound in exactly one function (SpanGraph::build):"
    printf '%s\n' "$picks"
    fail=1
fi

if grep -rn --include='*.rs' 'fn json_str\|fn json_string\|fn json_escape\|fn push_json_str' crates tests examples; then
    echo "one-of-each: private JSON escapers are back; use enoki_core::json::escape_into"
    fail=1
fi

buckets=$(grep -rn --include='*.rs' 'const SUB_BUCKET_BITS' crates)
if [ "$(printf '%s\n' "$buckets" | grep -c .)" -ne 1 ]; then
    echo "one-of-each: the histogram bucket layout must be declared on exactly one line (enoki_sim::stats):"
    printf '%s\n' "$buckets"
    fail=1
fi

# The line budget only goes down: lower a crate's number when it shrinks.
loc=$(sh tools/loc.sh)
for crate in $(ls crates); do
    n=$(printf '%s\n' "$loc" | awk -v c="$crate" '$1 == c { print $2 }')
    budget=$(awk -v c="$crate" '$1 == c { print $2 }' tools/loc.budget)
    if [ -z "$budget" ]; then
        echo "one-of-each: crate $crate has no line in tools/loc.budget"
        fail=1
    elif [ "$n" -gt "$budget" ]; then
        echo "one-of-each: crate $crate has $n non-test lines, over its budget of $budget (tools/loc.budget)"
        fail=1
    fi
done

[ "$fail" -eq 0 ] && echo "one-of-each: ok"
exit "$fail"
