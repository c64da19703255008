#!/bin/sh
# Non-test lines of Rust per crate: every line of a `.rs` file under
# crates/<crate>/ that comes before the file's first `#[cfg(test)]`.
# enoki-core is also split into the framework (the ten modules the paper
# describes) and its extensions (everything else in the crate).
# Prints `<name> <lines>` rows; tools/one-of-each.sh checks the crate rows
# against tools/loc.budget. Run from the repo root: `just loc`.
set -eu

count() {
    # Files arrive on stdin; an empty list counts 0.
    sort | xargs -r awk 'FNR == 1 { stop = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 }
        !stop { n++ }
        END { print n + 0 }'
}

framework='^crates/core/src/(api|schedulable|dispatch|queue|sync|record|replay|registry|kernel|builder)(\.rs|/)'

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir" -name '*.rs' | count)
    echo "$crate $n"
    total=$((total + n))
    if [ "$crate" = core ]; then
        fw=$(find "$dir" -name '*.rs' | grep -E "$framework" | count)
        echo "core.framework $fw"
        echo "core.extensions $((n - fw))"
    fi
done
echo "total $total"
