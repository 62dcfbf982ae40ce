#!/usr/bin/env bash
# Code lines per crate and in total: non-blank lines that are not `//`
# comments (doc comments included), up to the first `#[cfg(test)]` of each
# file. With arguments, counts just those files and prints one line each.
#
# Usage: scripts/loc.sh [FILE.rs ...]
#
# Counts the checkout it is run from (the current directory), so a second
# checkout can be measured with the same script.
set -euo pipefail

count() {
    awk 'FNR == 1 { skip = 0 }
         /^#\[cfg\(test\)\]/ { skip = 1 }
         skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$@"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%6d  %s\n' "$(count "$f")" "$f"
    done
    printf '%6d  total\n' "$(count "$@")"
    exit 0
fi

total=0
for dir in . crates/*; do
    [ -d "$dir/src" ] || continue
    mapfile -t files < <(find "$dir/src" -name '*.rs')
    n=$(count "${files[@]}")
    printf '%6d  %s\n' "$n" "${dir#./}"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
