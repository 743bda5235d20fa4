#!/usr/bin/env bash
# Runs each workload twice with one seed and checks that both runs print
# the same `repro` line: issued and refused counts and the receipt-stream
# digest over the first 100 timed operations.
#
# usage: perfbench/repro.sh [seed] [workload...]   (from the repository root)
set -euo pipefail

seed=${1:-1}
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(paper_live city_sparse)
fi

run() {
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed "$seed" --seconds 1 --trace 0 | sed -n 's/^repro  *//p'
}

status=0
for w in "${workloads[@]}"; do
    first=$(run "$w")
    second=$(run "$w")
    if [ "$first" = "$second" ]; then
        echo "$w seed $seed: identical: $first"
    else
        echo "$w seed $seed: DIFFERENT" >&2
        echo "  $first" >&2
        echo "  $second" >&2
        status=1
    fi
done
exit $status
