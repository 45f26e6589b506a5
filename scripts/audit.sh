#!/usr/bin/env bash
# Nightly deep audit: engine-vs-oracle differential fuzzing over randomly
# generated queries and workloads, with structural invariant checks after
# every arrival (see DESIGN.md §8), then the event-time disorder audit
# (§13) and the multi-query sharing audit (§14).
#
# Usage: scripts/audit.sh [CASES] [SEED]
#
# Defaults to 1000 sweep cases seeded from the date, so each night explores
# fresh cases while any failure stays reproducible: the failing case's
# seed is printed with a `replay <seed>` (or `disorder-replay` /
# `multi-replay`) line and a shrunk minimal trace. The disorder and multi
# audits run on the same seed with half as many cases, the ratio the
# tier-1 smoke in scripts/check.sh uses (their cases run several engines
# each).
set -euo pipefail
cd "$(dirname "$0")/.."

CASES="${1:-1000}"
SEED="${2:-$(date +%Y%m%d)}"
HALF=$(( CASES / 2 > 0 ? CASES / 2 : 1 ))

echo "audit sweep: ${CASES} cases, master seed ${SEED}"
cargo run --release -p mstream-audit -- sweep --cases "${CASES}" --seed "${SEED}"
echo "disorder audit: ${HALF} cases, master seed ${SEED}"
cargo run --release -p mstream-audit -- disorder --cases "${HALF}" --seed "${SEED}"
echo "multi-query audit: ${HALF} cases, master seed ${SEED}"
cargo run --release -p mstream-audit -- multi --cases "${HALF}" --seed "${SEED}"
