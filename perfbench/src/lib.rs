//! The repository benchmark: three workloads run through λFS on one
//! simulation thread each, measured from outside through the crates'
//! public APIs. `run.py` is the entry point; it builds this package and
//! runs the two binaries (`perfbench-run`, untraced on the system
//! allocator, and `perfbench-traced`, which adds spans with host times,
//! per-second layer samples and allocation counts) in separate processes.

pub mod layers;
pub mod metrics;
pub mod probe;
pub mod spans;
pub mod workloads;

use std::alloc::{GlobalAlloc, Layout};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use lambda_allocstats::CountingAlloc;

use crate::metrics::{Kind, Metric, Report};
use crate::workloads::{Outcome, Size, Workload};

/// Bytes requested from the allocator, counted only when
/// [`TracingAlloc`] is the global allocator (the traced binary).
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The traced binary's global allocator: `lambda_allocstats`'s counting
/// allocator plus a running total of bytes requested.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracingAlloc;

// SAFETY: every method forwards to `CountingAlloc` with the caller's own
// arguments, so the caller's `GlobalAlloc` contract carries over; the
// extra work is one relaxed atomic add on a statistic.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for TracingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { CountingAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { CountingAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` so far; zeros unless the traced
/// binary registered [`TracingAlloc`].
#[must_use]
pub fn alloc_totals() -> (u64, u64) {
    (
        lambda_allocstats::GLOBAL.alloc_count(),
        BYTES_ALLOCATED.load(Ordering::Relaxed),
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace_dir,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit (`{:?}` prints the shortest string that
/// reads back to the same `f64`); non-finite values, which JSON lacks,
/// use Python's `Infinity`/`NaN` spellings.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "Infinity".to_string()
    } else {
        "-Infinity".to_string()
    }
}

fn json_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match m.kind {
            Kind::Sim => "sim",
            Kind::Host => "host",
        };
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{},\"kind\":\"{kind}\"}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push('}');
}

/// The one-line JSON result a child process prints.
#[must_use]
pub fn result_line(workload: &str, seed: u64, traced: bool, r: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"traced\":{traced},\"attempted\":{},\"failed\":{},\"window_s\":{},",
        json_str(workload),
        r.attempted,
        r.failed,
        json_num(r.window_s)
    );
    out.push_str("\"findings\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(f));
    }
    out.push_str("],\"e2e\":");
    json_metrics(&mut out, &r.e2e);
    out.push_str(",\"layer\":");
    json_metrics(&mut out, &r.layer);
    out.push_str(",\"tails\":{");
    for (i, t) in r.tails.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:[{},{}]", json_str(t.name), t.beyond, t.samples);
    }
    out.push_str("}}");
    out
}

/// Writes the traced run's spans (CSV) and per-second layer samples
/// (JSON lines) under `dir`.
fn write_trace(dir: &std::path::Path, workload: &str, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut spans = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.spans.csv")),
    )?);
    writeln!(spans, "id,class,client,submit_ns,done_ns,ok,host_ns")?;
    for (id, s) in out.log.spans.iter().enumerate() {
        writeln!(
            spans,
            "{id},{:?},{},{},{},{},{}",
            s.class,
            s.client,
            s.submit_ns,
            s.done_ns,
            u8::from(s.ok),
            s.host_ns
        )?;
    }
    spans.flush()?;
    let mut samples = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.samples.jsonl")),
    )?);
    for (snap, util) in &out.log.sampler.samples {
        let mut line = String::from("{");
        for (name, v) in snap.fields() {
            let _ = write!(line, "{}:{},", json_str(name), json_num(v));
        }
        let _ = write!(line, "\"faas.nn_cpu_util\":{}}}", json_num(*util));
        writeln!(samples, "{line}")?;
    }
    samples.flush()
}

/// Entry point of both binaries. Exit codes: 0 correct, 1 a gate finding,
/// 2 bad arguments or an I/O failure.
#[must_use]
pub fn cli_main(traced: bool) -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench-run --workload <industrial|namespace-10m|write-durable> --seed <n> [--trace-dir <dir>]"
            );
            return 2;
        }
    };
    let out = workloads::run(args.workload, args.seed, traced, Size::Full);
    // Read before the gate: the audit copies whole tables, which is the
    // benchmark's cost, not the workload's.
    let rss_mb = peak_rss_mb();
    let mut report = metrics::report(&out, traced);
    report.e2e.push(Metric {
        name: "peak_rss_mb",
        value: rss_mb,
        unit: "MB",
        kind: Kind::Host,
    });
    if traced {
        let (allocs, bytes) = out.log.allocs_in_window;
        let n = report.attempted.max(1) as f64;
        report.layer.push(Metric {
            name: "trace.allocs_per_op",
            value: allocs as f64 / n,
            unit: "count",
            kind: Kind::Host,
        });
        report.layer.push(Metric {
            name: "trace.bytes_per_op",
            value: bytes as f64 / n,
            unit: "B",
            kind: Kind::Host,
        });
        if let Some(dir) = &args.trace_dir {
            if let Err(e) = write_trace(dir, args.workload.name(), &out) {
                eprintln!("perfbench: writing the trace under {}: {e}", dir.display());
                return 2;
            }
        }
    }
    for f in &report.findings {
        eprintln!("perfbench: FINDING: {f}");
    }
    println!(
        "{}",
        result_line(args.workload.name(), args.seed, traced, &report)
    );
    i32::from(!report.findings.is_empty())
}
