#!/usr/bin/env bash
# One entry point for correctness + perf verification of a PR:
#   1. tier-1: release build + full test suite (quiet), plus the
#      lambda-bench library's unit tests (the bench crate is not a
#      default workspace member, so tier-1 `cargo test` skips it)
#   2. lint: clippy across the workspace, warnings denied
#   3. fig10 golden check: the seeded latency-CDF figure must be
#      byte-identical to results/golden/fig10_latency_cdfs.txt (modulo
#      the wall-clock line) — the end-to-end determinism contract the
#      hot-path overhauls must not break.
#   4. fig15 golden check: same contract for the fault-tolerance figure —
#      with no fault plan installed, the fault plane must not perturb a
#      single event (results/golden/fig15_fault_tolerance.txt).
#   5. chaos smoke: fig15b_chaos --smoke runs every fault class against a
#      small system and exits nonzero if any post-run invariant audit
#      (leaked locks/txns/invocations, namespace↔store divergence,
#      op-count conservation) fails.
#   6. fig10 at --threads=4: the figure sweep re-run on four worker
#      threads must still match the golden capture byte-for-byte —
#      sweep-level parallelism must never reach the simulated results.
#   7. memory sweep smoke: fig08d_million_scale --smoke --phase-timings
#      exercises the footprint instrumentation and the per-phase
#      wall-clock breakdown end-to-end (small scales, exact bytes/inode +
#      bytes/client accounting via the counting allocator).
#   8. alloc-stats feature build: the counting-allocator feature must
#      keep compiling in release mode (it is off by default, so only
#      this step catches bit-rot).
#   9. bootstrap budget regression: the streaming tree loader must keep
#      loading fresh trees at >=500k inodes/sec and stay at least as
#      dense per inode as insert+repack (crates/bench/tests/
#      bootstrap_budget.rs, release + alloc-stats).
#  10. store engine bench smoke: bench_store --smoke runs the arena B+
#      tree vs std-BTreeMap microbench at small scales (liveness; the
#      full-scale numbers live in results/BENCH_store.json). The engine's
#      observational equivalence is pinned by the differential proptests
#      in crates/store/tests/engine_differential.rs, which tier-1
#      `cargo test` runs (the root `default-members` covers every crate
#      but lambda-bench).
#  11. per-op allocation regression: lean reads (point gets + visitor
#      scans) against a 250k-inode tree, and MetadataCache::listing hits
#      on a cached 48-name directory (a shared snapshot, not a copy),
#      must make zero heap allocations (crates/bench/tests/
#      alloc_per_op.rs, release + alloc-stats).
#  12. LSM crash/replay differential: the lambda-lsm proptests (random
#      put/delete/flush interleavings crashed at arbitrary points; WAL
#      replay must reconstruct the exact pre-crash visible state) run
#      explicitly in release mode.
#  13. durable chaos smoke: fig15b_chaos --smoke --durable re-runs every
#      fault class on the WAL-backed durable store backend — shard
#      failovers recover by WAL replay, and the audit adds the
#      post-crash shadow↔table consistency check.
#  14. durability sweep smoke: fig15c_durability --smoke runs the
#      flush-interval x crash-rate grid (recovery time, write
#      amplification, lost-window aborts) and exits nonzero on any
#      audit failure. Full-scale numbers: results/BENCH_durability.json.
#  15. benchmark self-tests: perfbench (its own cargo workspace, built
#      against the crates by path) runs a tiny size of every workload
#      through its correctness gate and checks traced == untraced, and
#      its Python tests check run.py and BENCHMARK.json's contract. A
#      crate API change that breaks the benchmark fails here.
#
# The store bench smoke writes results/BENCH_store_smoke.json and is
# informational at that scale. End-to-end speed is measured by perfbench
# (absolute rates and per-layer counters, see BENCHMARK.json); the
# kernel, cache, store and FaaS hot paths are held to reference models
# and recorded digests by the crate tests in step 1.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release --offline
# The workspace build does not cover the bench crate's binaries; the smoke
# steps below need these.
cargo build --release --offline -p lambda-bench --bin fig10_latency_cdfs
cargo build --release --offline -p lambda-bench --bin fig15_fault_tolerance
cargo build --release --offline -p lambda-bench --bin fig15b_chaos
cargo build --release --offline -p lambda-bench --bin fig08d_million_scale --features alloc-stats
cargo build --release --offline -p lambda-bench --bin bench_store
cargo build --release --offline -p lambda-bench --bin fig15c_durability

echo "== tier-1: cargo test -q =="
cargo test -q --offline
cargo test -q --offline -p lambda-bench --lib

echo "== lint: cargo clippy (deny warnings) =="
cargo clippy --workspace --offline -- -D warnings

echo "== fig10 golden check (byte-identical modulo wall-clock) =="
./target/release/fig10_latency_cdfs > results/fig10_latency_cdfs.txt
diff <(grep -v wall-clock results/golden/fig10_latency_cdfs.txt) \
     <(grep -v wall-clock results/fig10_latency_cdfs.txt)
echo "fig10 output matches the golden capture"

echo "== fig15 golden check (fault plane off => byte-identical) =="
./target/release/fig15_fault_tolerance > results/fig15_fault_tolerance.txt
diff <(grep -v wall-clock results/golden/fig15_fault_tolerance.txt) \
     <(grep -v wall-clock results/fig15_fault_tolerance.txt)
echo "fig15 output matches the golden capture"

echo "== chaos smoke (fault classes + invariant audits) =="
./target/release/fig15b_chaos --smoke

echo "== fig10 golden check at --threads=4 =="
./target/release/fig10_latency_cdfs --threads=4 > results/fig10_latency_cdfs_t4.txt
diff <(grep -v wall-clock results/golden/fig10_latency_cdfs.txt) \
     <(grep -v wall-clock results/fig10_latency_cdfs_t4.txt)
rm -f results/fig10_latency_cdfs_t4.txt
echo "fig10 output matches the golden capture at 4 threads"

echo "== memory sweep smoke (fig08d, counting allocator, phase timings) =="
./target/release/fig08d_million_scale --smoke --phase-timings

echo "== memory budget regression (bytes/inode at scale 25) =="
cargo test -q --release --offline -p lambda-bench --features alloc-stats --test mem_budget

echo "== bootstrap budget regression (throughput floor + bulk density) =="
cargo test -q --release --offline -p lambda-bench --features alloc-stats --test bootstrap_budget

echo "== store engine bench smoke (arena B+ tree vs std BTreeMap) =="
./target/release/bench_store --smoke

echo "== per-op allocation regression (lean reads allocate zero) =="
cargo test -q --release --offline -p lambda-bench --features alloc-stats --test alloc_per_op

echo "== LSM crash/replay differential proptests =="
cargo test -q --release --offline -p lambda-lsm --test crash_replay

echo "== durable chaos smoke (WAL replay recovery + shadow check) =="
./target/release/fig15b_chaos --smoke --durable

echo "== durability sweep smoke (flush interval x crash rate) =="
./target/release/fig15c_durability --smoke

echo "== benchmark self-tests (perfbench tiny runs + run.py contract) =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "verify.sh: all checks passed"
