//! The three workloads, each with its own system and workload
//! configuration spelled out here. Every run builds a fresh simulation
//! from the seed, drives it through the [`Probe`] and drains it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::{interned, DfsPath, FsOp, InodeName};
use lambda_sim::params::StoreParams;
use lambda_sim::{every, Sim, SimDuration, SimRng};
use lambda_store::DurabilityConfig;
use lambda_workload::{run_spotify, SpotifyConfig};

use crate::layers::Snapshot;
use crate::probe::{Probe, ProbeLog};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §5.2 Spotify mix with Pareto bursts on the fig08a λFS setup.
    Industrial,
    /// Uniform open-loop reads over a 10M-inode tree.
    Namespace10m,
    /// Open-loop write-dominated mix on hot directories, durable store.
    WriteDurable,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Industrial,
        Workload::Namespace10m,
        Workload::WriteDurable,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Industrial => "industrial",
            Workload::Namespace10m => "namespace-10m",
            Workload::WriteDurable => "write-durable",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run size: the measured size, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark reports.
    Full,
    /// A few thousand operations, for tests.
    Tiny,
}

impl Size {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Files per bootstrap directory (the industrial layout).
const FILES_PER_DIR: usize = 48;
/// Salt separating the workload generator's RNG stream from the system's.
const GEN_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything a finished, drained run leaves behind.
pub struct Outcome {
    /// The system, quiesced.
    pub fs: Rc<LambdaFs>,
    /// What the probe recorded.
    pub log: ProbeLog,
    /// Host instant the run started (before the system was built).
    pub started: Instant,
    /// Host seconds of the first `bootstrap_tree` call.
    pub bootstrap_s: f64,
    /// Operations the generator produced (≥ operations submitted when a
    /// closed-loop client rolls work over).
    pub generated: u64,
    /// Per-second counts of generated operations, indexed by sim second.
    pub offered_per_s: Vec<f64>,
    /// Inodes the namespace should hold after the run, where the
    /// generator can know it.
    pub expected_inodes: Option<usize>,
    /// Paths created by successful create/mkdir/mv operations that must
    /// still exist (checked when the full audit is too slow to run).
    pub must_exist: Vec<DfsPath>,
    /// Whether `LambdaFs::audit` is affordable at this namespace size.
    pub full_audit: bool,
    /// Layer counters after the drain.
    pub end: Snapshot,
}

/// Runs `workload` at `seed` and returns the drained system.
#[must_use]
pub fn run(workload: Workload, seed: u64, traced: bool, size: Size) -> Outcome {
    let started = Instant::now();
    let mut sim = Sim::new(seed);
    match workload {
        Workload::Industrial => industrial(&mut sim, traced, size, started),
        Workload::Namespace10m => namespace_10m(&mut sim, seed, traced, size, started),
        Workload::WriteDurable => write_durable(&mut sim, seed, traced, size, started),
    }
}

fn bootstrap(fs: &LambdaFs, dirs: usize) -> (Vec<DfsPath>, f64) {
    let t = Instant::now();
    let paths = fs.bootstrap_tree(&DfsPath::root(), dirs, FILES_PER_DIR);
    (paths, t.elapsed().as_secs_f64())
}

/// Warm every deployment from every client VM and let the platform
/// settle: the evaluation's warm, connected starting state.
fn warm_up(sim: &mut Sim, fs: &LambdaFs, dirs: &[DfsPath]) {
    fs.prewarm_with(sim, &dirs[..dirs.len().min(64)]);
    sim.run_for(SimDuration::from_secs(8));
}

fn drain(sim: &mut Sim, fs: &LambdaFs) {
    fs.stop(sim);
    sim.run_for(SimDuration::from_secs(30));
}

/// `industrial`: the fig08a λFS configuration at scale 1/25 (1/200 for
/// tests), driven by the §5.2 Spotify generator for 150 s: ten 15 s burst
/// intervals.
fn industrial(sim: &mut Sim, traced: bool, size: Size, started: Instant) -> Outcome {
    let (scale, secs): (f64, u64) = size.pick((25.0, 150), (200.0, 20));
    let cfg = LambdaFsConfig {
        deployments: 10,
        nn_vcpus: 5,
        nn_mem_gb: 6.0,
        cluster_vcpus: ((512.0 / scale) as u32).max(64),
        clients: ((1024.0 / scale) as u32).max(16),
        client_vms: 8,
        cache_capacity: 2_000_000,
        store: StoreParams::default().slowed(scale),
        ..Default::default()
    };
    let spotify = SpotifyConfig {
        base_throughput: 25_000.0 / scale,
        burst_cap: 7.0,
        resample_every: SimDuration::from_secs(15),
        duration: SimDuration::from_secs(secs),
        dirs: ((2048.0 / scale) as usize).max(64),
        files_per_dir: FILES_PER_DIR,
        max_outstanding_per_client: 1,
        drain_grace: SimDuration::from_secs(60),
        // fig08a's generator seed for every run: the offered-load curve and
        // the operation stream are the figure's, and `seed` drives the
        // simulation's own randomness. A per-seed curve would make peak
        // RSS and the tails depend on one seed's largest Pareto burst.
        gen_seed: SpotifyConfig::default().gen_seed,
        read_hot_fraction: 0.8,
    };
    let fs = Rc::new(LambdaFs::build(sim, cfg));
    fs.start(sim);
    let (dirs, bootstrap_s) = bootstrap(&fs, spotify.dirs);
    warm_up(sim, &fs, &dirs);
    let probe = Probe::new(Rc::clone(&fs), traced);
    // `run_spotify` bootstraps the same tree again (an idempotent no-op
    // load) before its first operation, so that pass counts as set-up.
    let run = run_spotify(sim, Rc::new(probe.clone()), spotify);
    drain(sim, &fs);
    Outcome {
        end: Snapshot::take(&fs, sim),
        expected_inodes: None,
        fs,
        log: probe.take_log(),
        started,
        bootstrap_s,
        generated: run.generated,
        offered_per_s: run.offered.buckets(),
        must_exist: Vec::new(),
        full_audit: true,
    }
}

/// Mutable generator state shared by the open-loop workloads' events.
struct OpenLoop {
    rng: SimRng,
    issued: u64,
    next_name: u64,
    /// Files this run created and nothing has claimed yet (mv/delete
    /// sources).
    pool: Vec<DfsPath>,
    /// Paths that must exist at the end.
    live: Vec<DfsPath>,
    /// Successful creates minus deletes (inode growth).
    net_inodes: i64,
}

/// Issues `total` operations at `rate` ops/sec: a 10 ms generation tick
/// whose arrivals are spread uniformly over the tick. `make` draws one
/// operation; successful completions feed the generator's pools. Open
/// loop: arrivals never wait for completions.
fn open_loop(
    sim: &mut Sim,
    probe: &Probe,
    gen: &Rc<RefCell<OpenLoop>>,
    total: u64,
    rate: f64,
    make: impl Fn(&mut OpenLoop) -> FsOp + 'static,
) {
    const TICK_NS: u64 = 10_000_000;
    let per_tick = rate * TICK_NS as f64 / 1e9;
    let clients = probe.client_count();
    let probe = probe.clone();
    let gen = Rc::clone(gen);
    let mut carry = 0.0f64;
    every(
        sim,
        sim.now(),
        SimDuration::from_nanos(TICK_NS),
        move |sim| {
            carry += per_tick;
            let n = carry.floor() as u64;
            carry -= n as f64;
            for _ in 0..n {
                let (op, client, offset) = {
                    let mut g = gen.borrow_mut();
                    if g.issued >= total {
                        return false;
                    }
                    g.issued += 1;
                    let op = make(&mut g);
                    let client = g.rng.pick_index(clients);
                    (op, client, g.rng.gen_range(0..TICK_NS))
                };
                let probe = probe.clone();
                let gen = Rc::clone(&gen);
                sim.schedule(SimDuration::from_nanos(offset), move |sim| {
                    let for_pool = op.clone();
                    probe.submit_op(
                        sim,
                        client,
                        op,
                        Box::new(move |_sim, result| {
                            if result.is_ok() {
                                gen.borrow_mut().completed(for_pool);
                            }
                        }),
                    );
                });
            }
            true
        },
    );
    let secs = (total as f64 / rate).ceil() as u64 + 20;
    sim.run_for(SimDuration::from_secs(secs));
}

impl OpenLoop {
    fn new(seed: u64) -> OpenLoop {
        OpenLoop {
            rng: SimRng::new(seed ^ GEN_SALT),
            issued: 0,
            next_name: 0,
            pool: Vec::new(),
            live: Vec::new(),
            net_inodes: 0,
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> &'static str {
        self.next_name += 1;
        interned(&format!("{prefix}{:08}", self.next_name))
    }

    fn completed(&mut self, op: FsOp) {
        match op {
            FsOp::CreateFile(p) => {
                self.net_inodes += 1;
                self.pool.push(p);
            }
            FsOp::Mkdir(p) => {
                self.net_inodes += 1;
                self.live.push(p);
            }
            FsOp::Mv(_, dst) => self.pool.push(dst),
            FsOp::Delete(_) => self.net_inodes -= 1,
            _ => {}
        }
    }

    /// Claims a random created file for mv/delete.
    fn claim(&mut self) -> Option<DfsPath> {
        if self.pool.is_empty() {
            return None;
        }
        let i = self.rng.pick_index(self.pool.len());
        Some(self.pool.swap_remove(i))
    }
}

/// Share of requests the open-loop workloads' clients send over HTTP on
/// purpose. The default (1 %) puts the HTTP path's ~8 ms mode exactly at
/// the 99th percentile, so `read_p99_ms` would jump between the TCP and
/// HTTP modes from seed to seed; at 0.5 % the p99 measures the TCP path's
/// tail (store, cache and lock waits), which is what these workloads are
/// for. `industrial` keeps the default: its bursts put the p99 well inside
/// the slow mode.
const HTTP_REPLACE_PROB: f64 = 0.005;

/// Directories in the 10M-inode tree: 1 root + 204 081 × (1 + 48) inodes.
const NS_DIRS: usize = 204_081;
/// Per-NameNode cache entries: far below the ~12k distinct files each of
/// the ten deployments reads in one run, so the cache evicts.
const NS_CACHE: usize = 4_096;

/// `namespace-10m`: the fig08d 10M-inode point with uniform open-loop
/// reads and stats, plus a 2 % stream of creates so that write latency on
/// a large tree is measured too.
fn namespace_10m(sim: &mut Sim, seed: u64, traced: bool, size: Size, started: Instant) -> Outcome {
    let dirs_n = size.pick(NS_DIRS, 200);
    let total: u64 = size.pick(120_000, 3_000);
    let rate = 4_000.0;
    let cfg = LambdaFsConfig {
        clients: 256,
        cache_capacity: NS_CACHE,
        http_replace_prob: HTTP_REPLACE_PROB,
        ..Default::default()
    };
    let fs = Rc::new(LambdaFs::build(sim, cfg));
    let (dirs, bootstrap_s) = bootstrap(&fs, dirs_n);
    fs.start(sim);
    warm_up(sim, &fs, &dirs);
    let probe = Probe::new(Rc::clone(&fs), traced);
    let gen = Rc::new(RefCell::new(OpenLoop::new(seed)));
    let names: Vec<InodeName> = (0..FILES_PER_DIR)
        .map(|f| InodeName::new(&format!("file{f:05}")))
        .collect();
    let dirs: Rc<[DfsPath]> = dirs.into();
    {
        let dirs = Rc::clone(&dirs);
        open_loop(sim, &probe, &gen, total, rate, move |g| {
            let draw = g.rng.gen_unit();
            let d = g.rng.pick_index(dirs.len());
            if draw < 0.02 {
                let name = g.fresh_name("n");
                return FsOp::CreateFile(dirs[d].join(name).expect("valid name"));
            }
            let path = dirs[d].join_interned(names[g.rng.pick_index(names.len())]);
            if draw < 0.71 {
                FsOp::ReadFile(path)
            } else {
                FsOp::Stat(path)
            }
        });
    }
    drain(sim, &fs);
    let g = gen.borrow();
    Outcome {
        end: Snapshot::take(&fs, sim),
        expected_inodes: Some(1 + dirs_n * (FILES_PER_DIR + 1) + g.net_inodes as usize),
        must_exist: g.pool.clone(),
        fs,
        log: probe.take_log(),
        started,
        bootstrap_s,
        generated: g.issued,
        offered_per_s: Vec::new(),
        full_audit: size == Size::Tiny,
    }
}

/// `write-durable`: 82 % create/mv/delete/mkdir, 18 % stat/read, on a few
/// hot directories every client shares, over the WAL-backed store. Deletes
/// nearly balance creates, so the namespace stays small enough for the
/// full audit.
fn write_durable(sim: &mut Sim, seed: u64, traced: bool, size: Size, started: Instant) -> Outcome {
    let hot = size.pick(8, 4);
    let total: u64 = size.pick(80_000, 2_000);
    let rate = 1_000.0;
    let cfg = LambdaFsConfig {
        clients: 64,
        http_replace_prob: HTTP_REPLACE_PROB,
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    };
    let fs = Rc::new(LambdaFs::build(sim, cfg));
    let (dirs, bootstrap_s) = bootstrap(&fs, hot);
    fs.start(sim);
    warm_up(sim, &fs, &dirs);
    let probe = Probe::new(Rc::clone(&fs), traced);
    let gen = Rc::new(RefCell::new(OpenLoop::new(seed)));
    let names: Vec<InodeName> = (0..FILES_PER_DIR)
        .map(|f| InodeName::new(&format!("file{f:05}")))
        .collect();
    let dirs: Rc<[DfsPath]> = dirs.into();
    {
        let dirs = Rc::clone(&dirs);
        open_loop(sim, &probe, &gen, total, rate, move |g| {
            // create .33 | mv .14 | delete .30 | mkdir .05 | stat .09 | read .09;
            // mv and delete fall back to create while no created file is
            // free to claim.
            let draw = g.rng.gen_unit();
            let dir = &dirs[g.rng.pick_index(dirs.len())];
            if (0.33..0.77).contains(&draw) {
                if let Some(src) = g.claim() {
                    if draw < 0.47 {
                        let name = g.fresh_name("m");
                        return FsOp::Mv(src, dir.join(name).expect("valid name"));
                    }
                    return FsOp::Delete(src);
                }
            }
            if draw < 0.77 {
                let name = g.fresh_name("c");
                return FsOp::CreateFile(dir.join(name).expect("valid name"));
            }
            if draw < 0.82 {
                let name = g.fresh_name("d");
                return FsOp::Mkdir(dir.join(name).expect("valid name"));
            }
            let path = dir.join_interned(names[g.rng.pick_index(names.len())]);
            if draw < 0.91 {
                FsOp::Stat(path)
            } else {
                FsOp::ReadFile(path)
            }
        });
    }
    drain(sim, &fs);
    let g = gen.borrow();
    let mut must_exist = g.pool.clone();
    must_exist.extend(g.live.iter().cloned());
    Outcome {
        end: Snapshot::take(&fs, sim),
        expected_inodes: Some(1 + hot * (FILES_PER_DIR + 1) + g.net_inodes as usize),
        must_exist,
        fs,
        log: probe.take_log(),
        started,
        bootstrap_s,
        generated: g.issued,
        offered_per_s: Vec::new(),
        full_audit: true,
    }
}
