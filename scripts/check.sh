#!/usr/bin/env bash
# The tier-1 gate: release build, full test suite, clippy with warnings
# denied. CI and pre-commit both call this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The sharded steady-state allocation test measures the production worker
# path, so it runs again in a build without the `audit` feature, which the
# workspace-wide `cargo test` unifies in (and under which it skips).
cargo test -q -p mstream-core --test steady_state_alloc_sharded
cargo clippy --workspace -- -D warnings
# Differential audit smoke: every policy vs the exact oracle over 50
# fuzzed cases, with per-arrival structural invariant checks (includes the
# sharded-vs-oracle differential at the case's shard count). Odd-seed
# cases additionally run every engine twice — productivity score cache
# forced on and off — and the runs must be bit-identical (DESIGN.md §16).
cargo run --release -p mstream-audit -- sweep --cases 50 --seed 7
# Event-time disorder smoke (DESIGN.md §13): for fuzzed cases across every
# policy and both memory modes, a K=0 run is bit-identical to the trusting
# engine, a shuffle bounded by K reproduces the in-order output exactly
# (single-engine and sharded at S in {1, case shards}), and beyond-bound
# lateness is dropped, counted, and never joined. Odd-seed cases A/B the
# score cache through the event-time path (prev-epoch memo keying).
cargo run --release -p mstream-audit -- disorder --cases 25 --seed 7

# Benchmark harness unit tests: perfbench is its own cargo workspace, so
# the root `cargo test` above never reaches them.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
# Deferred sketch-fold smoke (DESIGN.md §17): one-second traced runs of the
# multi-query and sharded workloads, whose sketch banks settle pending
# folds at rollovers, must pass the benchmark's exact-oracle, fingerprint
# and row checks (`"correct": true` on the last output line).
for W in multi_churn sharded_zipf; do
  LAST=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$W" --seed 1 --seconds 1 --trace 1 | tail -n 1)
  W="$W" LAST="$LAST" python3 - <<'EOF'
import json, os
r = json.loads(os.environ["LAST"])
if r.get("correct") is not True:
    raise SystemExit(f"FAIL: traced {os.environ['W']} smoke reported correct={r.get('correct')}")
print(f"perfbench smoke: {os.environ['W']} correct ({r['attempted']} arrivals attempted)")
EOF
done

# Sharded-vs-single CLI differential smoke: the same key-partitionable
# query and trace must produce the same output count at S in {1,2,4} when
# nothing sheds (full memory, blocking channels).
KEYED_QUERY='SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2)
             WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1'
cargo run --release -p mstream-cli -- generate \
  --workload regions --tuples 400 --out target/check_shard_trace.csv
BASELINE=""
for S in 1 2 4; do
  OUT=$(cargo run --release -p mstream-cli -- run \
    --query "$KEYED_QUERY" --trace target/check_shard_trace.csv \
    --capacity 100000 --shards "$S" --json \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["output_tuples"], r["shards"], r["shed_window"], r["shed_channel"])')
  read -r TUPLES GOT_S SHED_W SHED_C <<<"$OUT"
  [ "$GOT_S" = "$S" ] || { echo "FAIL: requested $S shards, ran $GOT_S"; exit 1; }
  [ "$SHED_W" = 0 ] && [ "$SHED_C" = 0 ] || { echo "FAIL: full-memory run shed ($SHED_W window, $SHED_C channel)"; exit 1; }
  if [ -z "$BASELINE" ]; then BASELINE="$TUPLES"; fi
  [ "$TUPLES" = "$BASELINE" ] || { echo "FAIL: S=$S produced $TUPLES tuples, S=1 produced $BASELINE"; exit 1; }
  echo "shard smoke: S=$S -> $TUPLES output tuples (matches baseline)"
done

# Hot-path equivalence smoke: the open-addressed index vs the HashMap
# model, and the iterative probe kernel vs the recursive reference kept in
# that test (property tests), then a quick eviction/index microbench pass
# whose correctness assertions compare flat vs legacy-replica results.
cargo test -q -p mstream-window --test index_equivalence
cargo test -q -p mstream-join --test probe_equivalence
cargo run --release -p mstream-bench --bin probe_micro -- --quick

# Sharded data-plane determinism suite (DESIGN.md §11): coalesced-tick
# equivalence vs the per-arrival oracle, S=1 bit-identity under shedding,
# buffer-recycling stress at channel capacity 1, and Shed-backpressure
# arrival accounting.
cargo test -q --test sharded_join

# Skew-adaptive routing differential smoke (DESIGN.md §12): at provably
# lossless memory (--mem-pct 100: every window can hold the whole trace on
# every shard) the same trace must produce the identical output multiset
# at S=1 and S=4 — for the uniform regions workload and for a Zipf
# hot-key workload where the router demonstrably promotes and splits
# heavy hitters with replicated build sides.
cargo run --release -p mstream-bench --bin shard_scaling -- \
  --scale 0.1 --mem-pct 100 --shards 1,4 --min-secs 0.05 \
  --json target/check_skew_uniform.json
cargo run --release -p mstream-bench --bin shard_scaling -- \
  --zipf 2.0 --scale 0.1 --mem-pct 100 --shards 1,4 --min-secs 0.05 \
  --json target/check_skew_zipf.json
python3 - <<'EOF'
import json
for name, want_hot in [("uniform", False), ("zipf", True)]:
    rows = json.load(open(f"target/check_skew_{name}.json"))
    by_s = {r["shards"]: r for r in rows}
    assert set(by_s) == {1, 4}, f"{name}: expected S in {{1,4}}, got {sorted(by_s)}"
    outs = {s: r["output"] for s, r in by_s.items()}
    if outs[1] != outs[4]:
        raise SystemExit(f"FAIL: {name} S=4 output {outs[4]} != S=1 output {outs[1]}")
    shed = {s: r["shed_window"] for s, r in by_s.items()}
    if any(shed.values()):
        raise SystemExit(f"FAIL: {name} lossless run shed windows: {shed}")
    if want_hot and by_s[4]["hot_promoted"] == 0:
        raise SystemExit("FAIL: zipf smoke never promoted a hot key")
    if want_hot and by_s[4]["replicated"] == 0:
        raise SystemExit("FAIL: zipf smoke never replicated a build side")
    print(f"skewed-route smoke: {name} S=1 == S=4 ({outs[1]} rows, "
          f"hot_promoted={by_s[4]['hot_promoted']})")
EOF

# Multi-query sharing smoke (DESIGN.md §14): multi-query differential
# audit over fuzzed 2-4-query sets (each query vs its own solo exact
# oracle, in-process and sharded S in {1,2}), then the bench acceptance
# gate — at full memory, N=64 duplicate standing queries must cost
# <= 1.5x the wall time and <= 2x the resident state of N=1 on the
# shared plane while each duplicate reproduces the solo output count,
# and the independent-engine baseline must cost more than the shared
# plane at N=64.
cargo run --release -p mstream-audit -- multi --cases 25 --seed 7
cargo run --release -p mstream-bench --bin multi_query -- \
  --scale 0.1 --queries 1,64 --min-secs 0.05 --json target/check_multi.json
python3 - <<'EOF'
import json
rows = json.load(open("target/check_multi.json"))
by = {(r["mode"], r["queries"]): r for r in rows}
need = {("duplicate", 1), ("duplicate", 64), ("independent", 64)}
assert need <= set(by), f"missing rows: {sorted(need - set(by))}"
d1, d64, i64 = by[("duplicate", 1)], by[("duplicate", 64)], by[("independent", 64)]
for r in (d1, d64):
    if r["produced_per_query"] != r["solo_produced"]:
        raise SystemExit(
            f"FAIL: duplicate N={r['queries']} produced {r['produced_per_query']} "
            f"per query, solo produced {r['solo_produced']}"
        )
if d64["seconds"] > 1.5 * d1["seconds"]:
    raise SystemExit(
        f"FAIL: N=64 duplicates took {d64['seconds']:.3f}s, "
        f"more than 1.5x N=1 ({d1['seconds']:.3f}s)"
    )
if d64["resident"] > 2 * d1["resident"]:
    raise SystemExit(
        f"FAIL: N=64 duplicates hold {d64['resident']} resident tuples, "
        f"more than 2x N=1 ({d1['resident']})"
    )
if i64["seconds"] <= d64["seconds"]:
    raise SystemExit(
        f"FAIL: 64 independent engines ({i64['seconds']:.3f}s) did not cost "
        f"more than the shared plane ({d64['seconds']:.3f}s)"
    )
print(
    f"multi-query smoke: N=64 duplicates {d64['seconds'] / d1['seconds']:.2f}x "
    f"wall, {d64['resident'] / d1['resident']:.2f}x resident of N=1 "
    f"(independent baseline {i64['seconds'] / d64['seconds']:.1f}x the shared plane)"
)
EOF

# Route-only data-plane smoke: mint + route + channel round-trip with the
# join disabled must reach a zero-allocation steady state at some S.
cargo run --release -p mstream-bench --bin shard_scaling -- \
  --route-only --scale 0.2 --json target/check_route_only.json
python3 - <<'EOF'
import json
rows = json.load(open("target/check_route_only.json"))
assert rows, "route-only smoke produced no rows"
assert all(r["route_only"] for r in rows), "rows not marked route_only"
best = min(r["steady_allocs"] for r in rows)
if best != 0:
    raise SystemExit(f"FAIL: route-only steady state allocates ({best} allocs)")
print(f"route-only smoke: steady_allocs min={best} over S={[r['shards'] for r in rows]}")
EOF
