#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree: the
# protocol a change that claims a gain is read by, so nobody re-types it
# by hand.
#
# Unpacks the parent into a temporary directory (`git archive`; set
# TMPDIR to choose where), builds perfbench in both trees (each from the
# source of its own tree), then runs alternating untraced 15 s pairs of
# one workload — the side that goes first flips every pair, so a
# drifting host hits both alike — and
# prints, per end-to-end metric, each side's median and quartiles over
# the pairs and how many pairs the working tree won (lower is better for
# every end-to-end metric; a tie counts for neither side). A claim needs
# at least nine wins in ten pairs and medians further apart than the
# parent's own quartiles.
#
# With `--layers`, one traced run a side follows the pairs and every
# per-layer metric whose two values differ by more than 10% is printed —
# the "name the layer it moves" evidence. One run a side: read it for
# which layers moved, not for by how much.
#
# Runs pin themselves to one CPU: run nothing else meanwhile. This is a
# measuring tool, not a gate — CI does not call it.
#
# Usage: scripts/perf_pairs.sh [--layers] <parent-ref> <workload> [pairs=10] [seed=42]
set -euo pipefail

layers=0
if [[ ${1:-} == --layers ]]; then
    layers=1
    shift
fi
if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 [--layers] <parent-ref> <workload> [pairs=10] [seed=42]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-42}
seconds=15

root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

mkdir "$scratch/parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$scratch/parent"
for tree in "$scratch/parent" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml"
done

# One run of tree $1 at trace level $2: the result object is the last
# line of standard output.
run() {
    "$1/perfbench/target/release/perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$2" 2>/dev/null | tail -n 1
}

# "<metric> <value>" per metric of a result.
metrics() {
    grep -o '"[a-z0-9_.]*": {"value": [-0-9.e+]*' <<<"$1" | sed 's/"//g; s/: {value://'
}

# "<side> <pair> <metric> <value>" per end-to-end metric of a result.
record() {
    local side=$1 pair=$2 result=$3
    if ! grep -q '"failed": 0,' <<<"$result"; then
        echo "perf_pairs: $side run of pair $pair had failed operations: $result" >&2
    fi
    metrics "$result" |
        awk -v side="$side" -v pair="$pair" '{print side, pair, $1, $2}' >>"$scratch/samples"
}

for pair in $(seq 1 "$pairs"); do
    if ((pair % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [[ $side == parent ]]; then tree="$scratch/parent"; else tree="$root"; fi
        record "$side" "$pair" "$(run "$tree" 0)"
    done
    echo "pair $pair/$pairs done" >&2
done

# Median and quartiles by linear interpolation between order statistics.
summary() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(f,    pos, lo) {
            pos = 1 + (NR - 1) * f; lo = int(pos)
            return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.8g (%.8g-%.8g)", q(0.5), q(0.25), q(0.75) }'
}

echo "$workload, seed $seed, $pairs alternating pairs of ${seconds} s, parent $parent_ref: median (quartiles)"
for metric in $(awk '{print $3}' "$scratch/samples" | awk '!seen[$0]++'); do
    parent=$(awk -v m="$metric" '$1 == "parent" && $3 == m {print $4}' "$scratch/samples" | summary)
    change=$(awk -v m="$metric" '$1 == "change" && $3 == m {print $4}' "$scratch/samples" | summary)
    wins=$(awk -v m="$metric" '
        $3 == m { v[$1, $2] = $4 }
        END { for (p = 1; (("parent", p) in v); p++) wins += v["change", p] < v["parent", p]; print wins + 0 }
    ' "$scratch/samples")
    printf '%-18s parent %s -> change %s, %d/%d wins\n' "$metric" "$parent" "$change" "$wins" "$pairs"
done

if ((layers)); then
    echo "per-layer metrics more than 10% apart (one traced run a side): parent -> change"
    metrics "$(run "$scratch/parent" 1)" >"$scratch/layers.parent"
    metrics "$(run "$root" 1)" >"$scratch/layers.change"
    awk '
        NR == FNR { parent[$1] = $2; next }
        /\./ && ($1 in parent) {
            p = parent[$1]; c = $2; d = c - p; if (d < 0) d = -d
            if (d > 0.1 * (p < 0 ? -p : p))
                printf "%-42s %.8g -> %.8g%s\n", $1, p, c, p == 0 ? "" : sprintf(" (%+.1f%%)", 100 * (c - p) / p)
        }' "$scratch/layers.parent" "$scratch/layers.change"
fi
