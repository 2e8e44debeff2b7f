#!/usr/bin/env bash
# Net engine lines of code: for every file in crates/engine/src, the lines
# before its unit-test module — the first `#[cfg(test)]` line directly
# followed by a `mod tests` line (any visibility) — or the whole file when
# it has none. Prints one `lines path` row per file and the total; the total
# is the number every refactor reports. With `--max N`, exits 1 when the
# total exceeds N (CI passes the current total, so a PR that adds engine
# lines raises the number in its own diff).
#
# Usage: scripts/engine_loc.sh [--max N] [repo-root]
set -euo pipefail

max=""
if [ "${1:-}" = "--max" ]; then
    [ $# -ge 2 ] || { echo "usage: $0 [--max N] [repo-root]" >&2; exit 2; }
    max="$2"
    shift 2
fi
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
if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
    echo "engine LOC $total exceeds the --max of $max" >&2
    exit 1
fi
