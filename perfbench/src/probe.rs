//! The benchmark's `DfsService` decorator: it forwards every operation to
//! λFS and records one [`Span`] per operation, the host-time window from
//! the first `submit_op` to the last completion, and the per-second layer
//! samples. It adds no events and draws no RNG, so a run through the
//! probe is the same simulation as a run without it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lambda_fs::{DfsService, LambdaFs, OpDone, RunMetrics};
use lambda_namespace::{DfsPath, FsOp};
use lambda_sim::Sim;

use crate::layers::{Sampler, Snapshot};
use crate::spans::{Span, SpanLog, PENDING};

/// Read-target paths kept for the `namespace.peek_chain_ns` replay.
const PATH_SAMPLE_CAP: usize = 20_000;
/// Keep every n-th read target.
const PATH_SAMPLE_EVERY: usize = 8;

/// What the probe saw.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// One span per `submit_op`, indexed by operation id.
    pub spans: SpanLog,
    /// Host instant and counters at the first `submit_op`.
    pub first_submit: Option<(Instant, Snapshot)>,
    /// Host instant of the last completion.
    pub last_done: Option<Instant>,

    /// `done` callbacks beyond the first for some operation.
    pub extra_dones: u64,
    /// Per-second layer samples.
    pub sampler: Sampler,
    /// Sample of read targets (traced runs only).
    pub read_paths: Vec<DfsPath>,
    /// `(allocations, bytes)` from the first `submit_op` to the last
    /// completion (traced runs only).
    pub allocs_in_window: (u64, u64),
    alloc_base: (u64, u64),
}

struct Shared {
    fs: Rc<LambdaFs>,
    traced: bool,
    log: RefCell<ProbeLog>,
}

impl Shared {
    fn poll_sampler(&self, sim: &Sim) {
        let mut log = self.log.borrow_mut();
        if log.first_submit.is_some() && log.sampler.due(sim.now().as_nanos()) {
            log.sampler.sample(&self.fs, sim);
        }
    }
}

/// Decorator over a λFS system.
#[derive(Clone)]
pub struct Probe {
    shared: Rc<Shared>,
}

impl Probe {
    /// Wraps `fs`. With `traced`, it also times each `submit_op` call and
    /// keeps a sample of read targets.
    #[must_use]
    pub fn new(fs: Rc<LambdaFs>, traced: bool) -> Probe {
        Probe {
            shared: Rc::new(Shared {
                fs,
                traced,
                log: RefCell::new(ProbeLog::default()),
            }),
        }
    }

    /// Takes the log out of the probe.
    #[must_use]
    pub fn take_log(&self) -> ProbeLog {
        std::mem::take(&mut self.shared.log.borrow_mut())
    }
}

fn target(op: &FsOp) -> &DfsPath {
    match op {
        FsOp::CreateFile(p)
        | FsOp::Mkdir(p)
        | FsOp::Delete(p)
        | FsOp::ReadFile(p)
        | FsOp::Stat(p)
        | FsOp::Ls(p)
        | FsOp::Mv(p, _) => p,
    }
}

impl DfsService for Probe {
    fn service_name(&self) -> &'static str {
        "lambda-fs"
    }

    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        let shared = &self.shared;
        let id = {
            let mut log = shared.log.borrow_mut();
            if log.first_submit.is_none() {
                let snap = Snapshot::take(&shared.fs, sim);
                log.alloc_base = crate::alloc_totals();
                log.first_submit = Some((Instant::now(), snap));
            }
            if shared.traced
                && !op.is_write()
                && log.spans.len().is_multiple_of(PATH_SAMPLE_EVERY)
                && log.read_paths.len() < PATH_SAMPLE_CAP
            {
                log.read_paths.push(target(&op).clone());
            }
            log.spans.push(Span {
                class: op.class(),
                client: client as u32,
                submit_ns: sim.now().as_nanos(),
                done_ns: PENDING,
                ok: false,
                host_ns: 0,
            })
        };
        shared.poll_sampler(sim);
        let inner = Rc::clone(shared);
        let wrapped: OpDone = Box::new(move |sim, result| {
            {
                let mut log = inner.log.borrow_mut();
                let span = log.spans.get_mut(id);
                if span.done_ns == PENDING {
                    span.done_ns = sim.now().as_nanos();
                    span.ok = result.is_ok();
                } else {
                    log.extra_dones += 1;
                }
                log.last_done = Some(Instant::now());
                if inner.traced {
                    let (allocs, bytes) = crate::alloc_totals();
                    let (a0, b0) = log.alloc_base;
                    log.allocs_in_window = (allocs - a0, bytes - b0);
                }
            }
            inner.poll_sampler(sim);
            done(sim, result);
        });
        if shared.traced {
            let t0 = Instant::now();
            shared.fs.submit(sim, client, op, wrapped);
            let host_ns = t0.elapsed().as_nanos() as u64;
            shared.log.borrow_mut().spans.get_mut(id).host_ns = host_ns;
        } else {
            shared.fs.submit(sim, client, op, wrapped);
        }
    }

    fn client_count(&self) -> usize {
        self.shared.fs.client_count()
    }

    fn run_metrics(&self) -> Rc<RefCell<RunMetrics>> {
        self.shared.fs.run_metrics()
    }

    fn bootstrap_tree(&self, root: &DfsPath, dirs: usize, files_per_dir: usize) -> Vec<DfsPath> {
        self.shared.fs.bootstrap_tree(root, dirs, files_per_dir)
    }

    fn bootstrap_file(&self, path: &DfsPath) {
        self.shared.fs.bootstrap_file(path);
    }
}
