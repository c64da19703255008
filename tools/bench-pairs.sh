#!/usr/bin/env bash
# Paired benchmark runs: a base revision against the working tree.
#
#   tools/bench-pairs.sh <base-rev> <workload> [pairs=10] [seconds=15]
#
# Exports <base-rev> with `git archive` into target/bench-pairs/<sha>/ and
# builds its benchmark there with its own CARGO_TARGET_DIR; the change side
# is the working tree's benchmark/run.sh, uncommitted edits included. Pair i
# runs both sides once with seed i, the base first on odd pairs and the
# change first on even ones, so drift on the host falls on both sides.
# Prints one row per pair with the four end-to-end metrics, then each
# side's median and quartiles, the change's wins per metric and each
# side's failed-operation total. Then it runs one traced pass per side
# (seed 1, same seconds) and prints every per-layer metric that is
# non-zero on either side as `name base change change/base`, plus each
# side's ladder ratio enoki_fifo ÷ ref_fifo. Exits non-zero if a run
# fails outright.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <base-rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-15}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
base="$root/target/bench-pairs/$sha"
if [ ! -f "$base/benchmark/run.sh" ]; then
    rm -rf "$base"
    mkdir -p "$base"
    git -C "$root" archive "$sha" | tar -x -C "$base"
fi
base_target="$base/target"

# One pass of one side, untraced unless a third argument of 1 is given;
# prints its stdout (the JSON result last).
run_side() {
    local side=$1 seed=$2 trace=${3:-0}
    if [ "$side" = base ]; then
        CARGO_TARGET_DIR="$base_target" "$base/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    else
        "$root/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    fi
}

# `field JSON NAME`: the value of metric NAME, or of the top-level "failed".
field() {
    if [ "$2" = failed ]; then
        sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$1"
    else
        sed -n "s/.*\"$2\": {\"value\": \([^,]*\),.*/\1/p" <<<"$1"
    fi
}

echo "building base ${sha:0:12} and the working tree ..." >&2
CARGO_TARGET_DIR="$base_target" cargo build --release --offline --quiet \
    --manifest-path "$base/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

metrics="events_per_sec wakeups_per_sec peak_rss_mb setup_s"
rows=$(mktemp)
layers_base=$(mktemp)
layers_change=$(mktemp)
trap 'rm -f "$rows" "$layers_base" "$layers_change"' EXIT
sim_differs=""
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        if ! out=$(run_side "$side" "$i" 2>/dev/null); then
            echo "pair $i: the $side run failed" >&2
            exit 1
        fi
        json=$(tail -n 1 <<<"$out")
        if [ -z "$(field "$json" failed)" ]; then
            echo "pair $i: the $side run printed no result" >&2
            exit 1
        fi
        line="$side $i"
        for m in $metrics failed; do line="$line $(field "$json" "$m")"; done
        echo "$line" >>"$rows"
        # The simulated statistics (events, rounds, p99, digest) are the
        # schedule: a change that claims speed must leave them alone.
        sim=$(grep '^sim[[:space:]]' <<<"$out" || true)
        if [ "$side" = "${order%% *}" ]; then first_sim=$sim
        elif [ "$sim" != "$first_sim" ]; then sim_differs="$sim_differs $i"; fi
    done
done

awk -v workload="$workload" -v rev="${sha:0:12}" '
function q(arr, n, p,    h, lo) {
    h = (n - 1) * p; lo = int(h)
    return lo + 1 < n ? arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo]) : arr[lo]
}
function sortn(arr, n,    i, j, t) {
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && arr[j - 1] > arr[j]; j--) { t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t }
}
BEGIN {
    split("events_per_sec wakeups_per_sec peak_rss_mb setup_s", name, " ")
    split("1 1 -1 -1", better, " ")
}
{ v[$1, $2, 1] = $3; v[$1, $2, 2] = $4; v[$1, $2, 3] = $5; v[$1, $2, 4] = $6
  failed[$1] += $7; if ($2 > n) n = $2 }
END {
    printf "%s: base %s vs working tree, %d pairs\n", workload, rev, n
    printf "%-5s %-6s", "pair", "side"
    for (k = 1; k <= 4; k++) printf " %16s", name[k]
    printf "\n"
    for (i = 1; i <= n; i++)
        for (s = 0; s < 2; s++) {
            side = s ? "change" : "base"
            printf "%-5d %-6s", i, side
            for (k = 1; k <= 4; k++) printf " %16.6g", v[side, i, k]
            printf "\n"
        }
    printf "\n%-6s %-16s %14s %14s %14s\n", "side", "metric", "q1", "median", "q3"
    for (s = 0; s < 2; s++) {
        side = s ? "change" : "base"
        for (k = 1; k <= 4; k++) {
            for (i = 1; i <= n; i++) x[i - 1] = v[side, i, k]
            sortn(x, n)
            printf "%-6s %-16s %14.6g %14.6g %14.6g\n", side, name[k], q(x, n, 0.25), q(x, n, 0.5), q(x, n, 0.75)
        }
    }
    printf "\nchange wins (of %d pairs):", n
    for (k = 1; k <= 4; k++) {
        w = 0
        for (i = 1; i <= n; i++)
            if ((v["change", i, k] - v["base", i, k]) * better[k] > 0) w++
        printf " %s %d", name[k], w
    }
    printf "\nfailed operations: base %d, change %d\n", failed["base"], failed["change"]
}' "$rows"
if [ -n "$sim_differs" ]; then
    echo "sim statistics differ between the sides in pairs:$sim_differs"
else
    echo "sim statistics identical on both sides in every pair"
fi

# One traced pass per side, base first: `name value` per metric, in the
# benchmark's order, then `failed N`.
for side in base change; do
    if ! out=$(run_side "$side" 1 1 2>/dev/null); then
        echo "traced pass: the $side run failed" >&2
        exit 1
    fi
    json=$(tail -n 1 <<<"$out")
    if [ "$side" = base ]; then layers=$layers_base; else layers=$layers_change; fi
    grep -o '"[a-z_.0-9]*": {"value": [^,]*' <<<"$json" |
        sed 's/^"\([^"]*\)": {"value": /\1 /' >"$layers"
    echo "failed $(field "$json" failed)" >>"$layers"
done

awk '
FNR == NR { if ($1 != "failed") order[++n] = $1; base[$1] = $2; next }
{ change[$1] = $2 }
function ratio(num, den) { return den + 0 != 0 ? sprintf("%.3f", num / den) : "-" }
END {
    printf "\nper-layer, one traced pass per side (seed 1):\n"
    printf "%-40s %14s %14s %12s\n", "metric", "base", "change", "change/base"
    for (i = 1; i <= n; i++) {
        k = order[i]
        if (base[k] + 0 == 0 && change[k] + 0 == 0) continue
        printf "%-40s %14.6g %14.6g %12s\n", k, base[k], change[k], ratio(change[k], base[k])
    }
    e = "ladder.enoki_fifo_ns_per_event"; r = "ladder.ref_fifo_ns_per_event"
    printf "enoki_fifo÷ref_fifo: base %s, change %s\n", ratio(base[e], base[r]), ratio(change[e], change[r])
    printf "traced failed operations: base %d, change %d\n", base["failed"], change["failed"]
}' "$layers_base" "$layers_change"
