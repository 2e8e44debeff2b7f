#!/usr/bin/env bash
# Net engine lines of code: for every file in crates/engine/src, the lines
# before its unit-test module — the first `#[cfg(test)]` line directly
# followed by a `mod tests` line (any visibility) — or the whole file when
# it has none. Prints one `lines path` row per file and the total; the total
# is the number every refactor reports.
#
# Usage: scripts/engine_loc.sh [repo-root]
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
for f in crates/engine/src/*.rs; do
    n=$(awk '
        prev_cfg && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod tests/ { print NR - 2; found = 1; exit }
        { prev_cfg = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
        END { if (!found) print NR }
    ' "$f")
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
