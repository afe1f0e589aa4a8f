#!/usr/bin/env bash
# Non-test Rust lines in crates/: for each crates/*/src/**/*.rs, the lines
# before the file's test module — a `#[cfg(test)]` line followed by a
# `mod name {` line. A `#[cfg(test)]` on any other item (a field, a
# function, a `mod name;` declaration) does not end the count. Prints one
# line per crate and the total.
#
#   scripts/nontest_lines.sh [REPO_ROOT]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0; pending = 0 }
        cut { next }
        pending && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_0-9]+[[:space:]]*\{/ {
            cut = 1; pending = 0; next
        }
        pending { n += 1; pending = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { n += 1 }
        END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((${total:-0} + n))
done
printf '%-12s %6d\n' total "$total"
