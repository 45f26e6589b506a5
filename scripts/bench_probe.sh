#!/usr/bin/env bash
# Runs the eviction/index hot-path microbenches (flat path vs faithful
# replicas of the pre-rewrite path, see crates/bench/src/bin/probe_micro.rs)
# and writes BENCH_probe.json at the repo root.
#
# Usage: scripts/bench_probe.sh [--quick]
#
# Artifact layout (BENCH_probe.json):
#   {
#     "probe_micro": [ {"bench": "insert_evict_cap4096", "baseline": ...,
#                       "baseline_ns_per_op": ..., "flat_ns_per_op": ...,
#                       "speedup": ..., "ops": ...}, ... ]
#   }
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
if [ "${1:-}" = "--quick" ]; then QUICK="--quick"; fi

echo "== probe_micro ${QUICK:-(full)} =="
# shellcheck disable=SC2086
cargo run --release -p mstream-bench --bin probe_micro -- \
  $QUICK --json target/probe_micro.json

echo "== merging BENCH_probe.json =="
python3 - <<'EOF'
import json

with open("target/probe_micro.json") as f:
    rows = json.load(f)

with open("BENCH_probe.json", "w") as f:
    json.dump({"probe_micro": rows}, f, indent=2, sort_keys=True)
print(f"wrote BENCH_probe.json ({len(rows)} benches)")
EOF
