#!/usr/bin/env bash
# Repo gate: formatting, lints (warnings are errors), full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, -D warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors) =="
# The vendored crates carry rustdoc warnings of their own, so they are excluded.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude serde --exclude serde_derive

echo "== cargo test (all targets) =="
cargo test -q --all-targets

SMOKE_DIR="target/ci-smoke"
mkdir -p "$SMOKE_DIR"

echo "== examples (run to completion, stdout matches the committed output) =="
# cargo test builds the examples but never runs them; running them
# catches a panic in any of them (e2e_admission asserts that the
# client-regulated traffic drains), and the diff catches a change in what
# they print (dynamic_modes is the ideal admission path end to end).
for ex in quickstart dram_wcd e2e_admission ee_architectures dynamic_modes; do
    cargo run -q -p autoplat-core --example "$ex"
done > "$SMOKE_DIR/examples_stdout.txt"
diff tests/golden/examples_stdout.txt "$SMOKE_DIR/examples_stdout.txt"

echo "== cargo test --release (event queue, scheduler, cache, DRAM, admission, NoC, co-sim, regulator, oracles) =="
# Release builds turn overflow checks and debug_asserts off; the
# scheduler's time accounting and queue bitset, the cache's flat sets and
# per-flow state, the admission RMs' cycle arithmetic, heard-order
# watchdog index, per-client records and the sequence windows every
# receiver (client, RM, cluster RM, root) deduplicates through (whose
# floor stops at u64::MAX, the top seq being a flag), the fleet's hashed
# timer wheel, and the NoC's ring index wrap, bitset arithmetic, hashed
# in-flight table and drained completion queue must hold without them
# too. The allocation gates run here as well: the event kernel's fixed
# handful per engine and the scheduler's per-run bound, the co-sim's
# allocations-per-packet bound and horizon-flat peak of live bytes, the
# RM's heartbeat-flat and the root's bundle-flat live bytes, and the
# platform's per-access bound and golden reports. The DRAM crate runs
# here because its streaming channel (with costs cached at construction)
# serves the paper pass and every co-sim, and its FR-FCFS controller the
# WCD sweeps.
# The regulator and the conformance oracles run here too: per-bank
# regulation otherwise runs in release only in the full campaign grid,
# and the sweep's shard merge must match the serial sweep without its
# family-order debug_assert.
cargo test --release -q -p autoplat-sim -p autoplat-sched -p autoplat-cache \
    -p autoplat-dram -p autoplat-admission -p autoplat-noc -p autoplat-core \
    -p autoplat-regulation -p autoplat-conformance

echo "== metrics export smoke (bench binaries + schema gate) =="
# validation and fig5 are the two readers of the FR-FCFS replay's
# publish_metrics; both exports go through the schema gate.
cargo run -q -p autoplat-bench --bin validation -- --smoke \
    --export-json "$SMOKE_DIR/metrics.json" \
    --export-csv "$SMOKE_DIR/metrics.csv" >/dev/null
cargo run -q -p autoplat-bench --bin fig5 -- --smoke \
    --export-json "$SMOKE_DIR/fig5.json" \
    --export-csv "$SMOKE_DIR/fig5.csv" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- \
    "$SMOKE_DIR/metrics.json" "$SMOKE_DIR/metrics.csv" \
    "$SMOKE_DIR/fig5.json" "$SMOKE_DIR/fig5.csv"

echo "== co-simulation smoke (composed platform + schema gate) =="
cargo run -q -p autoplat-bench --bin cosim -- --smoke \
    --export-json "$SMOKE_DIR/cosim.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/cosim.json"

echo "== closed-loop QoS smoke (MPAM monitors + regulation + schema gate) =="
cargo run -q -p autoplat-bench --bin cosim -- --smoke --closed-loop \
    --export-json "$SMOKE_DIR/cosim_loop.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/cosim_loop.json"

echo "== sensor-fault-storm smoke (graceful degradation + schema gate) =="
cargo run -q -p autoplat-bench --bin cosim -- --smoke --closed-loop --sensor-faults \
    --export-json "$SMOKE_DIR/cosim_storm.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/cosim_storm.json"

echo "== conformance smoke (bounds-vs-simulators sweep + schema gate) =="
# 5 cases per oracle family by default; widen with CONFORMANCE_CASES=200 ./ci.sh
cargo run -q -p autoplat-bench --bin conformance -- \
    --cases "${CONFORMANCE_CASES:-5}" --seed 7 --shards 4 \
    --export-json "$SMOKE_DIR/conformance.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/conformance.json"

echo "== conformance shard determinism (merged report independent of shard count) =="
cargo run -q -p autoplat-bench --bin conformance -- \
    --cases "${CONFORMANCE_CASES:-5}" --seed 7 --shards 2 \
    --export-json "$SMOKE_DIR/conformance_reshard.json" >/dev/null
cmp "$SMOKE_DIR/conformance.json" "$SMOKE_DIR/conformance_reshard.json"

echo "== arbiter-family conformance (dpq/perbank/diff/fleet sweeps + shard determinism) =="
# The diff family also exports cross-arbiter tightness/throughput
# observations as histograms; the reshard cmp proves those merge
# byte-identically for any shard count. The fleet family runs the
# flat-RM-vs-hierarchy differential under seeded faults.
for fam in dpq perbank diff fleet; do
    cargo run -q -p autoplat-bench --bin conformance -- \
        --family "$fam" --cases "${CONFORMANCE_CASES:-5}" --seed 7 --shards 4 \
        --export-json "$SMOKE_DIR/conformance_$fam.json" >/dev/null
    cargo run -q -p autoplat-bench --bin conformance -- \
        --family "$fam" --cases "${CONFORMANCE_CASES:-5}" --seed 7 --shards 3 \
        --export-json "$SMOKE_DIR/conformance_${fam}_reshard.json" >/dev/null
    cmp "$SMOKE_DIR/conformance_$fam.json" "$SMOKE_DIR/conformance_${fam}_reshard.json"
    cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/conformance_$fam.json"
done

echo "== fleet bench smoke (sharded hierarchy + flat differential + schema gate) =="
# 10^4 clients through the cluster/root hierarchy under seeded
# delay/duplication faults and a crash storm; the binary itself enforces
# the flat-RM differential and the root-ledger conservation check, and
# refuses wall-clock timing from a debug build, so this gate needs
# --release.
cargo run -q --release -p autoplat-bench --bin fleet -- --smoke \
    --export-json "$SMOKE_DIR/fleet.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/fleet.json"

echo "== fleet replay determinism (byte-identical timing-free double run) =="
cargo run -q --release -p autoplat-bench --bin fleet -- --smoke --deterministic \
    --export-json "$SMOKE_DIR/fleet_replay_a.json" >/dev/null
cargo run -q --release -p autoplat-bench --bin fleet -- --smoke --deterministic \
    --export-json "$SMOKE_DIR/fleet_replay_b.json" >/dev/null
cmp "$SMOKE_DIR/fleet_replay_a.json" "$SMOKE_DIR/fleet_replay_b.json"

echo "== campaign smoke (design-space map-reduce sweep + schema gate) =="
# 32-point smoke grid; the binary refuses wall-clock timing from a debug
# build, so the timed run needs --release.
cargo run -q --release -p autoplat-bench --bin campaign -- --smoke \
    --export-json "$SMOKE_DIR/campaign.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- "$SMOKE_DIR/campaign.json"

echo "== campaign reshard determinism (2 vs 4 workers byte-identical) =="
cargo run -q --release -p autoplat-bench --bin campaign -- --smoke --deterministic \
    --workers 2 --export-json "$SMOKE_DIR/campaign_w2.json" >/dev/null
cargo run -q --release -p autoplat-bench --bin campaign -- --smoke --deterministic \
    --workers 4 --export-json "$SMOKE_DIR/campaign_w4.json" >/dev/null
cmp "$SMOKE_DIR/campaign_w2.json" "$SMOKE_DIR/campaign_w4.json"

echo "== campaign kill-and-resume (manifest schema gate + byte-identical resume) =="
CAMPAIGN_CKPT="$SMOKE_DIR/campaign_ckpt"
rm -rf "$CAMPAIGN_CKPT"
cargo run -q --release -p autoplat-bench --bin campaign -- --smoke --deterministic \
    --workers 2 --checkpoint-dir "$CAMPAIGN_CKPT" --kill-after-chunks 2 >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- \
    "$CAMPAIGN_CKPT/manifest.json" "$CAMPAIGN_CKPT"/chunk_*.json
cargo run -q --release -p autoplat-bench --bin campaign -- --smoke --deterministic \
    --workers 3 --checkpoint-dir "$CAMPAIGN_CKPT" --resume \
    --export-json "$SMOKE_DIR/campaign_resumed.json" >/dev/null
cmp "$SMOKE_DIR/campaign_w2.json" "$SMOKE_DIR/campaign_resumed.json"

echo "== perf baseline smoke (queue/engine/cosim throughput + schema gate) =="
# Quick scale; the perf binary itself exits 1 if one §IV-A WCD bound
# averages 1 ms or more, and refuses to run unoptimized, so this gate
# needs --release.
cargo run -q --release -p autoplat-bench --bin perf -- --quick \
    --export-kernel "$SMOKE_DIR/bench_kernel.json" \
    --export-cosim "$SMOKE_DIR/bench_cosim.json" >/dev/null
cargo run -q -p autoplat-bench --bin schema_check -- \
    "$SMOKE_DIR/bench_kernel.json" "$SMOKE_DIR/bench_cosim.json"

echo "== perf regression gate (fresh throughput vs committed baselines) =="
# The committed BENCH_*.json were measured at full scale on a quiet
# machine; the smoke runs at --quick on shared CI, so the floor is
# deliberately loose (override with PERF_BASELINE_RATIO=0.5 ./ci.sh).
cargo run -q -p autoplat-bench --bin perf_check -- \
    --baseline BENCH_kernel.json --fresh "$SMOKE_DIR/bench_kernel.json" \
    --min-ratio "${PERF_BASELINE_RATIO:-0.25}"
cargo run -q -p autoplat-bench --bin perf_check -- \
    --baseline BENCH_cosim.json --fresh "$SMOKE_DIR/bench_cosim.json" \
    --min-ratio "${PERF_BASELINE_RATIO:-0.25}"
# The committed fleet baseline is 10^6 clients; the smoke run is 10^4,
# where per-admission cost is lower, so the same loose floor holds. The
# one rate both exports carry is fleet.admissions_per_sec.
cargo run -q -p autoplat-bench --bin perf_check -- \
    --baseline BENCH_fleet.json --fresh "$SMOKE_DIR/fleet.json" \
    --min-ratio "${PERF_BASELINE_RATIO:-0.25}"
# The committed campaign baseline is the full 243-point grid; the smoke
# grid's points are smaller (fewer rivals, smaller meshes), so
# points-per-second is comparable under the same loose floor.
cargo run -q -p autoplat-bench --bin perf_check -- \
    --baseline BENCH_campaign.json --fresh "$SMOKE_DIR/campaign.json" \
    --min-ratio "${PERF_BASELINE_RATIO:-0.25}"

echo "== perfbench digests (benchmark outputs match the committed table) =="
# perfbench is a workspace of its own; --locked keeps the build from
# rewriting perfbench/Cargo.lock. Every (workload, seed) row of
# perfbench/expected_digests.txt must reproduce byte for byte.
cargo build -q --release --offline --locked --manifest-path perfbench/Cargo.toml
PERFBENCH=perfbench/target/release/autoplat-perfbench
DIGEST_SEEDS="$(seq -s, 0 20),4242"
{
    for w in cosim_qos campaign_grid fleet_admission; do
        "$PERFBENCH" --workload "$w" --print-digests "$DIGEST_SEEDS"
    done
    "$PERFBENCH" --workload paper_figures --print-digests 0
} | LC_ALL=C sort > "$SMOKE_DIR/perfbench_digests.txt"
grep -v '^#' perfbench/expected_digests.txt | LC_ALL=C sort \
    | diff - "$SMOKE_DIR/perfbench_digests.txt"

echo "ci: OK"
