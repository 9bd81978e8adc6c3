//! Layer counters read from outside the system through each crate's
//! public API. A [`Snapshot`] is taken when the first operation is
//! submitted, once per simulated second while the run is live, and after
//! the drain; per-layer metrics are differences between snapshots.

use std::collections::BTreeMap;

use lambda_faas::InstanceId;
use lambda_fs::LambdaFs;
use lambda_namespace::CacheStats;
use lambda_sim::Sim;
use lambda_store::DbStats;

/// Every layer counter at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Sim time of the snapshot, ns.
    pub at_ns: u64,
    /// `sim`: events executed so far.
    pub events: u64,
    /// `sim`: events queued.
    pub pending: u64,
    /// `namespace`: cache counters over every NameNode ever run.
    pub cache: CacheStats,
    /// `store`: transaction and row counters.
    pub db: DbStats,
    /// `store`: shard station busy time, ns, summed over shards.
    pub shard_busy_ns: u64,
    /// `store`: shard station queueing time, ns, summed over shards.
    pub shard_wait_ns: u64,
    /// `store`: shard station servers, summed over shards.
    pub shard_servers: u64,
    /// `lsm`: WAL records appended (0 on the in-memory backend).
    pub wal_appends: u64,
    /// `lsm`: group-commit syncs.
    pub group_syncs: u64,
    /// `lsm`: SSTable bytes written by flushes and compactions.
    pub lsm_bytes_compacted: u64,
    /// `lsm`: bytes accepted from the store.
    pub lsm_bytes_ingested: u64,
    /// `lsm`: compactions.
    pub lsm_compactions: u64,
    /// `coord`: messages delivered.
    pub coord_delivered: u64,
    /// `coord`: messages dropped.
    pub coord_dropped: u64,
    /// `faas`: HTTP invocations accepted at the gateway.
    pub http_invocations: u64,
    /// `faas`: direct TCP deliveries.
    pub tcp_deliveries: u64,
    /// `faas`: cold starts.
    pub cold_starts: u64,
    /// `faas`: idle instances reclaimed.
    pub reclaims: u64,
    /// `faas`: instances evicted.
    pub evictions: u64,
    /// `faas`: queued requests that expired.
    pub expired_requests: u64,
    /// `faas`: peak vCPUs in use so far.
    pub peak_vcpus: u64,
    /// `faas`: provisioned NameNodes.
    pub namenodes: u64,
    /// `faas`: pay-per-use dollars so far.
    pub usd: f64,
    /// `core`: operations submitted to the client library.
    pub issued: u64,
    /// `core`: successes.
    pub completed: u64,
    /// `core`: non-retryable failures.
    pub failed: u64,
    /// `core`: operations whose every attempt timed out.
    pub timeouts: u64,
    /// `core`: operations that ran out of retries.
    pub retries_exhausted: u64,
    /// `core`: retry attempts.
    pub retries: u64,
    /// `core`: retries refused by the retry budget.
    pub load_sheds: u64,
    /// `core`: HTTP RPCs.
    pub http_rpcs: u64,
    /// `core`: TCP RPCs.
    pub tcp_rpcs: u64,
    /// `core`: straggler resubmissions.
    pub straggler_resubmits: u64,
    /// `core`: anti-thrashing entries.
    pub anti_thrash_entries: u64,
    /// `core`: requests sent over another client's TCP server.
    pub connection_shares: u64,
    /// `core`: HTTP RPCs caused by a missing TCP connection.
    pub http_no_connection: u64,
}

impl Snapshot {
    /// Reads every counter. Reads only: it draws no RNG and schedules
    /// nothing, so taking a snapshot cannot change the simulation.
    #[must_use]
    pub fn take(fs: &LambdaFs, sim: &Sim) -> Snapshot {
        let db = fs.db();
        let (mut shard_busy_ns, mut shard_wait_ns, mut shard_servers) = (0, 0, 0);
        for shard in db.shards() {
            let shard = shard.borrow();
            let st = shard.stats();
            shard_busy_ns += st.busy_time.as_nanos();
            shard_wait_ns += st.wait_time.as_nanos();
            shard_servers += u64::from(shard.servers());
        }
        let durability = db.durability_stats().unwrap_or_default();
        let lsm = db.lsm_stats().unwrap_or_default();
        let (coord_delivered, coord_dropped) = fs.coordinator().message_stats();
        let platform = fs.platform();
        let faas = platform.stats();
        let m = fs.metrics();
        let m = m.borrow();
        Snapshot {
            at_ns: sim.now().as_nanos(),
            events: sim.events_executed(),
            pending: sim.events_pending() as u64,
            cache: fs.cache_stats(),
            db: db.stats(),
            shard_busy_ns,
            shard_wait_ns,
            shard_servers,
            wal_appends: durability.wal_appends,
            group_syncs: durability.group_syncs,
            lsm_bytes_compacted: lsm.bytes_compacted,
            lsm_bytes_ingested: lsm.bytes_ingested,
            lsm_compactions: lsm.compactions,
            coord_delivered,
            coord_dropped,
            http_invocations: faas.http_invocations,
            tcp_deliveries: faas.tcp_deliveries,
            cold_starts: faas.cold_starts,
            reclaims: faas.reclaims,
            evictions: faas.evictions,
            expired_requests: faas.expired_requests,
            peak_vcpus: u64::from(platform.peak_vcpus_used()),
            namenodes: fs.active_namenodes() as u64,
            usd: fs.pay_meter().total(),
            issued: m.issued,
            completed: m.completed,
            failed: m.failed,
            timeouts: m.timeouts,
            retries_exhausted: m.retries_exhausted,
            retries: m.retries,
            load_sheds: m.load_sheds,
            http_rpcs: m.http_rpcs,
            tcp_rpcs: m.tcp_rpcs,
            straggler_resubmits: m.straggler_resubmits,
            anti_thrash_entries: m.anti_thrash_entries,
            connection_shares: m.connection_shares,
            http_no_connection: m.http_no_connection,
        }
    }

    /// The counters as `(name, value)` pairs, for the per-second sample
    /// file.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        let c = &self.cache;
        let d = &self.db;
        vec![
            ("t_s", self.at_ns as f64 / 1e9),
            ("sim.events", self.events as f64),
            ("sim.pending", self.pending as f64),
            ("namespace.hits", c.hits as f64),
            ("namespace.misses", c.misses as f64),
            ("namespace.evictions", c.evictions as f64),
            (
                "namespace.invalidations",
                (c.invalidations + c.prefix_invalidations) as f64,
            ),
            ("namespace.listing_hits", c.listing_hits as f64),
            ("namespace.listing_misses", c.listing_misses as f64),
            ("store.reads", (d.locked_reads + d.unlocked_reads) as f64),
            ("store.scans", d.scans as f64),
            ("store.rows_written", d.rows_written as f64),
            ("store.commits", d.commits as f64),
            ("store.aborts", d.aborts as f64),
            ("store.lock_timeouts", d.lock_timeouts as f64),
            ("store.shard_busy_s", self.shard_busy_ns as f64 / 1e9),
            ("store.shard_wait_s", self.shard_wait_ns as f64 / 1e9),
            ("lsm.wal_appends", self.wal_appends as f64),
            ("lsm.group_syncs", self.group_syncs as f64),
            ("lsm.compactions", self.lsm_compactions as f64),
            ("coord.delivered", self.coord_delivered as f64),
            ("coord.dropped", self.coord_dropped as f64),
            ("faas.http", self.http_invocations as f64),
            ("faas.tcp", self.tcp_deliveries as f64),
            ("faas.cold_starts", self.cold_starts as f64),
            ("faas.namenodes", self.namenodes as f64),
            ("faas.usd", self.usd),
            ("core.issued", self.issued as f64),
            ("core.completed", self.completed as f64),
            ("core.failed", self.failed as f64),
            ("core.timeouts", self.timeouts as f64),
            ("core.retries_exhausted", self.retries_exhausted as f64),
            ("core.retries", self.retries as f64),
            ("core.load_sheds", self.load_sheds as f64),
            ("core.http", self.http_rpcs as f64),
            ("core.tcp", self.tcp_rpcs as f64),
        ]
    }
}

/// Per-second sampler: one [`Snapshot`] plus the NameNode CPU utilisation
/// over the second before it. It is polled from the benchmark's own
/// `submit_op`/`done` hooks, so it needs no timer event of its own.
#[derive(Debug, Default)]
pub struct Sampler {
    next_at_ns: u64,
    /// Samples in time order.
    pub samples: Vec<(Snapshot, f64)>,
    busy_ns: BTreeMap<InstanceId, u64>,
    scratch: Vec<(InstanceId, u32, u32, usize, lambda_sim::StationStats)>,
}

impl Sampler {
    /// Whether a sample is due at sim time `now_ns`.
    #[must_use]
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_at_ns
    }

    /// Takes a sample now and arms the next one at the following whole
    /// simulated second.
    pub fn sample(&mut self, fs: &LambdaFs, sim: &Sim) {
        let snap = Snapshot::take(fs, sim);
        let interval_ns = self
            .samples
            .last()
            .map_or(0, |(prev, _)| snap.at_ns - prev.at_ns);
        fs.platform().instance_cpu_stats_into(&mut self.scratch);
        let (mut busy_delta, mut servers) = (0u64, 0u64);
        let mut seen = BTreeMap::new();
        for (id, cpus, _, _, st) in &self.scratch {
            let busy = st.busy_time.as_nanos();
            busy_delta += busy - self.busy_ns.get(id).copied().unwrap_or(0);
            servers += u64::from(*cpus);
            seen.insert(*id, busy);
        }
        self.busy_ns = seen;
        let util = if interval_ns == 0 || servers == 0 {
            0.0
        } else {
            (busy_delta as f64 / (servers as f64 * interval_ns as f64)).min(1.0)
        };
        self.samples.push((snap, util));
        self.next_at_ns = (snap.at_ns / 1_000_000_000 + 1) * 1_000_000_000;
    }
}
