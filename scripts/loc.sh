#!/usr/bin/env bash
# Code lines per crate and in total: non-blank lines that are not `//`
# comments (doc comments included), up to the first unindented
# `#[cfg(test)]` of each file that opens a `mod`; one on a test-only `fn`
# or `static` counts as code with its item. With arguments, counts just
# those files and prints one line each; without, also one line per
# `shims/*` and for `benchmark`, below `total` and not part of it.
#
# Usage: scripts/loc.sh [FILE.rs ...]
#
# Counts the checkout it is run from (the current directory), so a second
# checkout can be measured with the same script.
set -euo pipefail

count() {
    awk 'FNR == 1 { n += held; skip = 0; held = 0 }
         skip { next }
         held { held = 0; if (/^(pub(\([a-z]+\))? )?mod /) { skip = 1; next } n++ }
         /^#\[cfg\(test\)\]/ { held = 1; next }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + held }' "$@"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%6d  %s\n' "$(count "$f")" "$f"
    done
    printf '%6d  total\n' "$(count "$@")"
    exit 0
fi

# Prints the count of DIR/src and sets `n` to it.
count_dir() {
    mapfile -t files < <(find "$1/src" -name '*.rs')
    n=$(count "${files[@]}")
    printf '%6d  %s\n' "$n" "${1#./}"
}

total=0
for dir in . crates/*; do
    [ -d "$dir/src" ] || continue
    count_dir "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
# Counted by the same rule, outside the total: the stand-ins for published
# crates and the benchmark package.
for dir in shims/* benchmark; do
    [ -d "$dir/src" ] || continue
    count_dir "$dir"
done
