//! Whole-stack determinism: identical seeds reproduce identical runs —
//! down to every latency sample — different seeds genuinely differ, and
//! one fig08a-shaped run's final state is pinned to a committed digest.

use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::namespace::OpClass;
use lambdafs_repro::sim::params::StoreParams;
use lambdafs_repro::sim::{Sim, SimDuration};
use lambdafs_repro::workload::{run_spotify, SpotifyConfig};
use std::rc::Rc;

fn run(seed: u64) -> (u64, u64, u64, u64, f64, f64, usize) {
    let mut sim = Sim::new(seed);
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig { deployments: 4, clients: 8, client_vms: 2, ..Default::default() },
    ));
    fs.start(&mut sim);
    let cfg = SpotifyConfig {
        base_throughput: 300.0,
        duration: SimDuration::from_secs(20),
        dirs: 12,
        files_per_dir: 8,
        ..Default::default()
    };
    let dirs = fs.bootstrap_tree(&"/".parse().unwrap(), cfg.dirs, cfg.files_per_dir);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
    fs.stop(&mut sim);
    let metrics = fs.run_metrics();
    let m = metrics.borrow();
    (
        run.generated,
        m.completed,
        m.tcp_rpcs,
        m.http_rpcs,
        m.mean_latency().as_secs_f64(),
        fs.pay_meter().total(),
        fs.active_namenodes(),
    )
}

#[test]
fn identical_seeds_reproduce_bit_identical_runs() {
    let a = run(31337);
    let b = run(31337);
    assert_eq!(a, b, "same seed must reproduce the same run exactly");
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run(1);
    let b = run(2);
    // The burst process differs, so at minimum the latency profile and
    // request counts move.
    assert_ne!(a, b, "different seeds produced identical runs");
}

/// A fig08a-shaped λFS run (the §5.2 industrial configuration: ten
/// NameNode deployments of 5 vCPUs, eight client VMs, a Spotify stream
/// with Pareto bursts) shrunk 200× so it stays quick under the debug
/// profile.
fn fig08a_state_words() -> Vec<u64> {
    const SCALE: f64 = 200.0;
    let mut sim = Sim::new(2023);
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig {
            deployments: 10,
            nn_vcpus: 5,
            nn_mem_gb: 6.0,
            cluster_vcpus: 64,
            clients: 16,
            client_vms: 8,
            store: StoreParams::default().slowed(SCALE),
            ..Default::default()
        },
    ));
    fs.start(&mut sim);
    let cfg = SpotifyConfig {
        base_throughput: 25_000.0 / SCALE,
        duration: SimDuration::from_secs((300.0 / SCALE.sqrt()) as u64),
        dirs: 64,
        files_per_dir: 48,
        ..Default::default()
    };
    let dirs = fs.bootstrap_tree(&"/".parse().unwrap(), cfg.dirs, cfg.files_per_dir);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
    fs.stop(&mut sim);

    let metrics = fs.run_metrics();
    let m = metrics.borrow();
    let mut words = vec![sim.now().as_nanos(), sim.events_executed(), run.generated];
    words.extend([
        m.issued,
        m.completed,
        m.failed,
        m.timeouts,
        m.retries_exhausted,
        m.retries,
        m.load_sheds,
        m.http_rpcs,
        m.tcp_rpcs,
        m.straggler_resubmits,
        m.anti_thrash_entries,
        m.connection_shares,
        m.http_replaced,
        m.http_no_connection,
    ]);
    for class in OpClass::ALL {
        if let Some(rec) = m.latency.get(&class) {
            words.extend([rec.count() as u64, rec.mean().as_nanos(), rec.max().as_nanos()]);
            words.extend([0.5, 0.9, 0.99, 0.999].map(|p| rec.percentile(p).as_nanos()));
        }
    }
    let db = fs.db().stats();
    words.extend([
        db.locked_reads,
        db.unlocked_reads,
        db.scans,
        db.rows_written,
        db.commits,
        db.aborts,
        db.lock_timeouts,
        db.shard_crashes,
        db.failover_aborts,
        db.unavailable_errors,
    ]);
    let faas = fs.platform().stats();
    words.extend([
        faas.http_invocations,
        faas.tcp_deliveries,
        faas.cold_starts,
        faas.reclaims,
        faas.kills,
        faas.expired_requests,
        faas.evictions,
    ]);
    words.extend([
        fs.pay_meter().total().to_bits(),
        fs.simplified_meter().total().to_bits(),
        fs.platform().provisioned_cost().to_bits(),
    ]);
    words
}

/// The whole-run state fingerprint of [`fig08a_state_words`]: final sim
/// clock, executed events, `RunMetrics` counters and latency quantiles,
/// `DbStats`, `PlatformStats`, and the billing totals' bits. Audit
/// bookkeeping is left out on purpose, so adding an auditor check is not
/// a behaviour change.
///
/// A failure means the simulated behaviour changed. If that is intended
/// (the fig10/fig15 goldens will usually move too), replace this constant
/// with the digest the failing test prints.
const FIG08A_FINGERPRINT: u64 = 0x84ed_f51d_5f28_0ee8;

#[test]
fn whole_run_state_fingerprint_is_pinned() {
    let words = fig08a_state_words();
    // FNV-1a over the words' little-endian bytes: stable across Rust
    // releases, unlike `DefaultHasher`.
    let digest = words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!(digest, FIG08A_FINGERPRINT, "fingerprint moved to {digest:#x}; state: {words:?}");
}
