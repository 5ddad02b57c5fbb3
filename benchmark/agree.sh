#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs two interleaved sets
# (A B A B ...) of the SAME build, every workload in each, then hands both
# sets to `revtr-benchmark compare`: every end-to-end metric must stay
# within its own bound between the sets, and the exact metrics must repeat
# between runs that share a seed. Also runs one traced run per workload and
# seed and prints the median `bench.trace_overhead_ratio`.
#
#   benchmark/agree.sh [RUNS_PER_SET=5] [OUT_DIR=benchmark/out/agree]
#
# Takes about RUNS_PER_SET x 5 minutes on the 2-core reference host.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
out=${2:-benchmark/out/agree}
seconds=20
workloads=(bootstrap-cold ondemand-serial campaign-batch service-openloop)

REVTR_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export REVTR_COMMIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/revtr-benchmark

rm -rf "$out"
mkdir -p "$out/A" "$out/B" "$out/traced"
for seed in $(seq 1 "$runs"); do
  for set in A B; do
    for w in "${workloads[@]}"; do
      echo "set $set seed $seed $w"
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$set" >"$out/$set/$w.seed$seed.log"
    done
  done
  for w in "${workloads[@]}"; do
    echo "traced seed $seed $w"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --out "$out/traced" >"$out/traced/$w.seed$seed.log"
  done
done

echo
echo "median bench.trace_overhead_ratio over $runs traced runs (want <= 1.10):"
for w in "${workloads[@]}"; do
  grep -h '^bench.trace_overhead_ratio' "$out/traced/$w".seed*.log |
    awk '{print $2}' | sort -n |
    awk -v w="$w" '{v[NR]=$1} END {m=(NR%2)?v[(NR+1)/2]:(v[NR/2]+v[NR/2+1])/2; printf "  %-18s %.4f\n", w, m}'
done
echo
"$bin" compare "$out/A" "$out/B"
