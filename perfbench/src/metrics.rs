//! Turns a drained run into the benchmark's named metrics, and runs the
//! correctness gate over it.

use std::time::Instant;

use lambda_fs::LambdaFs;

use crate::layers::Snapshot;
use crate::spans::{error_share, is_read, is_write, percentile, SpanLog, PENDING};
use crate::workloads::Outcome;

/// Whether a metric is a function of the simulation alone (and must
/// repeat exactly at one seed) or of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated time or a count: identical across runs at one seed.
    Sim,
    /// Host time or memory: varies from run to run.
    Host,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sim or host.
    pub kind: Kind,
}

/// Tail evidence behind one latency percentile.
#[derive(Debug, Clone)]
pub struct Tail {
    /// Metric name.
    pub name: &'static str,
    /// Operations slower than the reported value.
    pub beyond: usize,
    /// Operations considered.
    pub samples: usize,
}

/// A run reduced to numbers.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layer: Vec<Metric>,
    /// Samples beyond each latency percentile.
    pub tails: Vec<Tail>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or never completed.
    pub failed: u64,
    /// Host seconds from the first `submit_op` to the last completion.
    pub window_s: f64,
    /// Correctness-gate findings (empty = correct).
    pub findings: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sim_metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        kind: Kind::Sim,
    }
}

fn host_metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        kind: Kind::Host,
    }
}

/// Correctness gate: the system's own audit and consistency check (or,
/// where the O(n²) namespace pass cannot finish, the audit's other
/// checks plus a linear namespace check), operation conservation, and one
/// `done` per `submit_op`.
fn gate(out: &Outcome, start: &Snapshot, end: &Snapshot) -> Vec<String> {
    let fs: &LambdaFs = &out.fs;
    let mut findings = Vec::new();
    if out.full_audit {
        let audit = fs.audit();
        findings.extend(audit.violations.iter().map(|v| format!("audit: {v}")));
        findings.extend(
            fs.check_consistency()
                .into_iter()
                .map(|v| format!("consistency: {v}")),
        );
    } else {
        let db = fs.db();
        let platform = fs.platform();
        let leaks = [
            ("store transactions never terminated", db.active_txn_count()),
            ("store row locks leaked", db.locked_rows()),
            ("store lock-wait sequences parked", db.pending_seq_count()),
            (
                "faas invocation records leaked",
                platform.pending_invocations(),
            ),
            ("faas requests still queued", platform.queued_requests()),
        ];
        for (what, n) in leaks {
            if n != 0 {
                findings.push(format!("audit: {n} {what}"));
            }
        }
        findings.extend(
            db.durability_violations()
                .into_iter()
                .map(|v| format!("audit: {v}")),
        );
        let m = fs.metrics();
        let m = m.borrow();
        if m.issued != m.accounted() {
            findings.push(format!(
                "conservation: issued {} != completed {} + failed {} + timeouts {} + retries-exhausted {}",
                m.issued, m.completed, m.failed, m.timeouts, m.retries_exhausted
            ));
        }
    }
    // A write that failed on the client (a timeout) may still have
    // committed, so the generator's count is exact only without failures.
    let write_failed = out
        .log
        .spans
        .iter()
        .any(|s| is_write(s.class) && !s.succeeded());
    if let (Some(expected), false) = (out.expected_inodes, write_failed) {
        let have = fs.schema().inode_count(fs.db());
        if have != expected {
            findings.push(format!(
                "namespace: {have} inodes, generator expects {expected}"
            ));
        }
    }
    for p in &out.must_exist {
        if fs.schema().peek_chain_ids(fs.db(), p).is_none() {
            findings.push(format!("namespace: created path {p} does not resolve"));
        }
    }
    let log = &out.log;
    if log.extra_dones != 0 {
        findings.push(format!(
            "probe: {} operations saw more than one done",
            log.extra_dones
        ));
    }
    let pending = log.spans.iter().filter(|s| s.done_ns == PENDING).count();
    if pending != 0 {
        findings.push(format!("probe: {pending} operations never saw done"));
    }
    let issued = end.issued - start.issued;
    if issued != log.spans.len() as u64 {
        findings.push(format!(
            "probe: {} submit_op calls but the client library issued {issued}",
            log.spans.len()
        ));
    }
    findings
}

/// Host ns per `MetadataSchema::peek_chain_ids` call over the run's own
/// read targets, against the end-of-run tree.
fn peek_chain_ns(out: &Outcome) -> f64 {
    let paths = &out.log.read_paths;
    if paths.is_empty() {
        return 0.0;
    }
    let (schema, db) = (out.fs.schema(), out.fs.db());
    let rounds = (200_000 / paths.len()).max(1);
    let mut found = 0usize;
    let t = Instant::now();
    for _ in 0..rounds {
        for p in paths {
            found += usize::from(std::hint::black_box(schema.peek_chain_ids(db, p)).is_some());
        }
    }
    std::hint::black_box(found);
    t.elapsed().as_nanos() as f64 / (rounds * paths.len()) as f64
}

/// Peak backlog of generated-but-unsubmitted operations, from the
/// generator's per-second offered load and the probe's submit times.
fn backlog_peak(offered_per_s: &[f64], spans: &SpanLog) -> f64 {
    if offered_per_s.is_empty() {
        return 0.0;
    }
    let mut submitted = vec![0.0f64; offered_per_s.len()];
    for s in spans.iter() {
        let sec = (s.submit_ns / 1_000_000_000) as usize;
        if let Some(slot) = submitted.get_mut(sec) {
            *slot += 1.0;
        }
    }
    let (mut offered, mut issued, mut peak) = (0.0f64, 0.0f64, 0.0f64);
    for (o, s) in offered_per_s.iter().zip(&submitted) {
        offered += o;
        issued += s;
        peak = peak.max(offered - issued);
    }
    peak
}

/// Reduces a drained run to its metrics and gate findings. `traced`
/// adds the metrics only the traced run measures.
#[must_use]
pub fn report(out: &Outcome, traced: bool) -> Report {
    let log = &out.log;
    let spans = &log.spans;
    let Some((first_instant, start)) = log.first_submit else {
        return Report {
            findings: vec!["probe: no operation was issued".to_string()],
            ..Report::default()
        };
    };
    let end = out.end;
    let mut findings = gate(out, &start, &end);

    let n = spans.len() as f64;
    let writes = spans.iter().filter(|s| is_write(s.class)).count() as f64;
    let failed = spans.iter().filter(|s| !s.succeeded()).count() as u64;
    let succeeded = n - failed as f64;
    let completed = spans.iter().filter(|s| s.done_ns != PENDING).count() as f64;
    let last = log.last_done.unwrap_or(first_instant);
    let window_s = last.duration_since(first_instant).as_secs_f64();
    let setup_s = first_instant.duration_since(out.started).as_secs_f64();
    let window_sim_s = {
        let first = spans.iter().map(|s| s.submit_ns).min().unwrap_or(0);
        let last = spans
            .iter()
            .filter(|s| s.done_ns != PENDING)
            .map(|s| s.done_ns)
            .max()
            .unwrap_or(first);
        (last - first) as f64 / 1e9
    };

    let mut e2e = vec![
        host_metric("wall_ops_per_s", ratio(completed, window_s), "1/s"),
        host_metric("setup_s", setup_s, "s"),
    ];
    let mut tails = Vec::new();
    let pct = [
        ("read_p50_ms", true, 0.5),
        ("read_p99_ms", true, 0.99),
        ("write_p50_ms", false, 0.5),
        ("write_p99_ms", false, 0.99),
    ];
    for (name, read, p) in pct {
        let pick = if read { is_read } else { is_write };
        match percentile(spans.iter(), pick, p) {
            Some(q) => {
                e2e.push(sim_metric(name, q.ms, "ms"));
                tails.push(Tail {
                    name,
                    beyond: q.beyond,
                    samples: q.samples,
                });
            }
            None => findings.push(format!("{name}: no operations of its classes were issued")),
        }
    }
    e2e.push(sim_metric(
        "goodput_ratio",
        ratio(succeeded, out.generated as f64),
        "ratio",
    ));
    e2e.push(sim_metric(
        "usd_per_mop",
        ratio((end.usd - start.usd) * 1e6, completed),
        "usd",
    ));

    let d = |f: fn(&Snapshot) -> u64| (f(&end) - f(&start)) as f64;
    let per_op = |x: f64| ratio(x, n);
    let per_kop = |x: f64| ratio(1000.0 * x, n);
    let commits = d(|s| s.db.commits);
    let cache_hits = d(|s| s.cache.hits);
    let cache_misses = d(|s| s.cache.misses);
    let listing_hits = d(|s| s.cache.listing_hits);
    let listing_misses = d(|s| s.cache.listing_misses);
    let http = d(|s| s.http_rpcs);
    let tcp = d(|s| s.tcp_rpcs);
    let window_samples: Vec<_> = log
        .sampler
        .samples
        .iter()
        .filter(|(s, _)| s.at_ns > start.at_ns)
        .collect();
    let mean_of = |f: &dyn Fn(&(Snapshot, f64)) -> f64| {
        ratio(
            window_samples.iter().map(|s| f(s)).sum(),
            window_samples.len() as f64,
        )
    };
    let events = d(|s| s.events);

    let mut layer = vec![
        sim_metric("sim.events_per_op", per_op(events), "count"),
        host_metric("sim.host_ns_per_event", ratio(window_s * 1e9, events), "ns"),
        sim_metric(
            "sim.pending_peak",
            window_samples
                .iter()
                .map(|(s, _)| s.pending as f64)
                .fold(0.0, f64::max),
            "count",
        ),
        sim_metric(
            "namespace.cache_hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
            "ratio",
        ),
        sim_metric(
            "namespace.listing_hit_ratio",
            ratio(listing_hits, listing_hits + listing_misses),
            "ratio",
        ),
        sim_metric(
            "namespace.cache_evictions_per_op",
            per_op(d(|s| s.cache.evictions)),
            "count",
        ),
        host_metric("namespace.bootstrap_s", out.bootstrap_s, "s"),
        sim_metric(
            "namespace.invalidations_per_write",
            ratio(
                d(|s| s.cache.invalidations + s.cache.prefix_invalidations),
                writes,
            ),
            "count",
        ),
        sim_metric(
            "store.reads_per_op",
            per_op(d(|s| s.db.locked_reads + s.db.unlocked_reads)),
            "count",
        ),
        sim_metric("store.scans_per_op", per_op(d(|s| s.db.scans)), "count"),
        sim_metric("store.commits_per_op", per_op(commits), "count"),
        sim_metric(
            "store.rows_written_per_commit",
            ratio(d(|s| s.db.rows_written), commits),
            "count",
        ),
        sim_metric(
            "store.abort_ratio",
            ratio(d(|s| s.db.aborts), commits + d(|s| s.db.aborts)),
            "ratio",
        ),
        sim_metric(
            "store.lock_timeouts_per_kop",
            per_kop(d(|s| s.db.lock_timeouts)),
            "count",
        ),
        sim_metric(
            "store.shard_busy_ms_per_op",
            per_op(d(|s| s.shard_busy_ns) / 1e6),
            "ms",
        ),
        sim_metric(
            "store.shard_wait_ms_per_op",
            per_op(d(|s| s.shard_wait_ns) / 1e6),
            "ms",
        ),
        sim_metric(
            "store.shard_util",
            ratio(
                d(|s| s.shard_busy_ns) / 1e9,
                end.shard_servers as f64 * window_sim_s,
            ),
            "ratio",
        ),
        sim_metric(
            "lsm.wal_appends_per_commit",
            ratio(d(|s| s.wal_appends), commits),
            "count",
        ),
        sim_metric(
            "lsm.group_syncs_per_s",
            ratio(d(|s| s.group_syncs), window_sim_s),
            "1/s",
        ),
        sim_metric(
            "lsm.write_amp",
            ratio(d(|s| s.lsm_bytes_compacted), d(|s| s.lsm_bytes_ingested)),
            "ratio",
        ),
        sim_metric(
            "lsm.compactions_per_kop",
            per_kop(d(|s| s.lsm_compactions)),
            "count",
        ),
        sim_metric(
            "coord.msgs_per_write",
            ratio(d(|s| s.coord_delivered), writes),
            "count",
        ),
        sim_metric("coord.msgs_dropped", d(|s| s.coord_dropped), "count"),
        sim_metric(
            "faas.http_per_kop",
            per_kop(d(|s| s.http_invocations)),
            "count",
        ),
        sim_metric("faas.tcp_per_op", per_op(d(|s| s.tcp_deliveries)), "count"),
        sim_metric("faas.cold_starts", d(|s| s.cold_starts), "count"),
        sim_metric("faas.reclaims", d(|s| s.reclaims), "count"),
        sim_metric("faas.evictions", d(|s| s.evictions), "count"),
        sim_metric("faas.expired_requests", d(|s| s.expired_requests), "count"),
        sim_metric("faas.peak_vcpus", end.peak_vcpus as f64, "count"),
        sim_metric(
            "faas.mean_namenodes",
            mean_of(&|(s, _)| s.namenodes as f64),
            "count",
        ),
        sim_metric("faas.nn_cpu_util", mean_of(&|(_, u)| *u), "ratio"),
        sim_metric("core.retries_per_kop", per_kop(d(|s| s.retries)), "count"),
        sim_metric(
            "core.straggler_resubmits_per_kop",
            per_kop(d(|s| s.straggler_resubmits)),
            "count",
        ),
        sim_metric(
            "core.anti_thrash_entries",
            d(|s| s.anti_thrash_entries),
            "count",
        ),
        sim_metric("core.http_share", ratio(http, http + tcp), "ratio"),
        sim_metric(
            "core.http_no_connection_per_kop",
            per_kop(d(|s| s.http_no_connection)),
            "count",
        ),
        sim_metric(
            "core.connection_shares_per_kop",
            per_kop(d(|s| s.connection_shares)),
            "count",
        ),
        sim_metric("core.error_share", error_share(spans.iter()), "ratio"),
        sim_metric(
            "workload.backlog_peak",
            backlog_peak(&out.offered_per_s, spans),
            "count",
        ),
    ];
    if traced {
        let submit_ns: u64 = spans.iter().map(|s| s.host_ns).sum();
        layer.push(host_metric(
            "core.submit_ns",
            ratio(submit_ns as f64, n),
            "ns",
        ));
        layer.push(host_metric(
            "namespace.peek_chain_ns",
            peek_chain_ns(out),
            "ns",
        ));
    }
    Report {
        e2e,
        layer,
        tails,
        attempted: spans.len() as u64,
        failed,
        window_s,
        findings,
    }
}
