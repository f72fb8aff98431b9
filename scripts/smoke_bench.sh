#!/usr/bin/env bash
# Runs every bench binary in --smoke mode and assembles the per-bench JSON
# aggregates into one BENCH_smoke.json:
#
#   { "bench_x": {"wall_ms": 123, "report": {...}}, ... }
#
# wall_ms is the bench's whole-process wall time, so the perf trajectory
# accumulates a comparable number per bench per commit even for benches
# whose reports carry no timing of their own.  CI uploads the merged file
# as a workflow artifact; humans can run it locally the same way:
#
#   scripts/smoke_bench.sh [build-dir] [output-json] [kernels-json]
#
# The third argument redirects the BENCH_kernels.json artifact (the
# bench_micro kernel-probe re-run appended after the fleet).  The probes
# are recorded three times: BENCH_kernels.json, BENCH_kernels.2.json and
# BENCH_kernels.3.json (same stem as the third argument), and the
# perf_delta.py gate reads the median of the three.
#
# A bench that exits non-zero fails the sweep (smoke mode is a runtime
# regression gate, not just a timing probe).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-$BUILD_DIR/BENCH_smoke.json}"
WORK_DIR="$BUILD_DIR/smoke"
mkdir -p "$WORK_DIR"
# Drop leftovers from previous sweeps so a renamed/removed bench can never
# ghost-merge its stale JSON into this run's aggregate.
rm -f "$WORK_DIR"/bench_*.json "$WORK_DIR"/bench_*.log "$WORK_DIR"/bench_*.ms

shopt -s nullglob
benches=("$BUILD_DIR"/bench_*)
if [ ${#benches[@]} -eq 0 ]; then
  echo "no bench binaries under $BUILD_DIR -- build first" >&2
  exit 1
fi

for bench in "${benches[@]}"; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "=== $name --smoke"
  start=$(date +%s%N)
  "$bench" --smoke --json "$WORK_DIR/$name.json" > "$WORK_DIR/$name.log"
  end=$(date +%s%N)
  ms=$(( (end - start) / 1000000 ))
  echo "$ms" > "$WORK_DIR/$name.ms"
  echo "    ok ($ms ms, log: $WORK_DIR/$name.log)"
done

# Merge without external JSON tools: every executed bench contributes its
# wall time plus whatever report it wrote (null when it wrote none).
{
  echo '{'
  first=1
  for msfile in "$WORK_DIR"/bench_*.ms; do
    name=$(basename "$msfile" .ms)
    [ "$first" -eq 1 ] || echo ','
    first=0
    printf '"%s": {"wall_ms": %s, "report": ' "$name" "$(cat "$msfile")"
    if [ -s "$WORK_DIR/$name.json" ]; then
      cat "$WORK_DIR/$name.json"
    else
      printf 'null'
    fi
    printf '}'
  done
  echo
  echo '}'
} > "$OUT_JSON"

echo "wrote $OUT_JSON"

# Kernel probes: the gf/ slab kernels and their RS / Vandermonde consumers,
# the key-pool extraction every eavesdropper compiler's pads derive through
# (BM_KeyPoolExtract), the packing/BFS preprocessing, and the sketch ingest
# that dominates the compilers' send time (BM_L0_Update, BM_SparseRecovery),
# re-run into a dedicated gbench-shaped artifact so PRs can cite kernel
# deltas mechanically (scripts/perf_delta.py diffs a baseline against these
# records).  Keep the list in sync with the refresh command in
# bench/README.md.
KERNELS_JSON="${3:-$BUILD_DIR/BENCH_kernels.json}"
KERNEL_PROBES='BM_GF16_Mul|BM_GfSlabAxpy|BM_RsEncode|BM_RsDecode'
KERNEL_PROBES="$KERNEL_PROBES|BM_VandermondeExtract|BM_KeyPoolExtract"
KERNEL_PROBES="$KERNEL_PROBES|BM_TreePacking|BM_BfsLayering"
KERNEL_PROBES="$KERNEL_PROBES|BM_L0_Update|BM_L0Bundle_Build|BM_SparseRecovery"
if [ -x "$BUILD_DIR/bench_micro" ]; then
  for rep in 1 2 3; do
    out="$KERNELS_JSON"
    [ "$rep" -eq 1 ] || out="${KERNELS_JSON%.json}.$rep.json"
    echo "=== bench_micro kernel probes ($rep/3)"
    "$BUILD_DIR/bench_micro" --smoke --json "$out" \
        "--benchmark_filter=$KERNEL_PROBES" \
        > "$WORK_DIR/bench_kernels.$rep.log"
    echo "wrote $out"
  done
fi
