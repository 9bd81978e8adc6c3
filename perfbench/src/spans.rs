//! Per-operation spans and the end-to-end rules computed from them:
//! latency percentiles in which a failure is slower than any success, and
//! the error share over operations issued.

use lambda_namespace::OpClass;

/// `done_ns` of a span whose completion has not arrived.
pub const PENDING: u64 = u64::MAX;

/// One operation as the benchmark saw it from outside the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Operation class.
    pub class: OpClass,
    /// Issuing client index.
    pub client: u32,
    /// Sim time of the `submit_op` call, ns.
    pub submit_ns: u64,
    /// Sim time of the `done` callback, ns ([`PENDING`] until it fires).
    pub done_ns: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Host ns spent inside `submit_op` (traced runs only, else 0).
    pub host_ns: u64,
}

impl Span {
    /// Whether the operation completed successfully.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.ok && self.done_ns != PENDING
    }
}

/// Spans in fixed-size chunks. A `Vec` doubling its capacity would copy
/// every span and hold both buffers at once, a jump in peak RSS that
/// depends on whether a run's operation count crosses a power of two.
#[derive(Debug, Default)]
pub struct SpanLog {
    chunks: Vec<Vec<Span>>,
    len: usize,
}

const CHUNK: usize = 1 << 14;

impl SpanLog {
    /// Appends a span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks
            .last_mut()
            .expect("a chunk was just ensured")
            .push(span);
        self.len += 1;
        self.len - 1
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The span at `id`.
    pub fn get_mut(&mut self, id: usize) -> &mut Span {
        &mut self.chunks[id / CHUNK][id % CHUNK]
    }

    /// Spans in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &Span> + Clone {
        self.chunks.iter().flatten()
    }
}

/// read/stat/ls: the classes behind `read_*` latencies.
#[must_use]
pub fn is_read(class: OpClass) -> bool {
    matches!(class, OpClass::Read | OpClass::Stat | OpClass::Ls)
}

/// create/mv/delete/mkdir: the classes behind `write_*` latencies.
#[must_use]
pub fn is_write(class: OpClass) -> bool {
    !is_read(class)
}

/// One latency percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Latency at the percentile, ms; infinite when the rank falls on a
    /// failed operation.
    pub ms: f64,
    /// Operations slower than `ms` (failures always count here).
    pub beyond: usize,
    /// Operations considered.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of the spans whose class
/// passes `pick`. A failed or never-completed operation ranks after every
/// success, so failures push the percentile up and count as beyond it.
#[must_use]
pub fn percentile<'a>(
    spans: impl IntoIterator<Item = &'a Span>,
    pick: impl Fn(OpClass) -> bool,
    p: f64,
) -> Option<Percentile> {
    let mut ok: Vec<u64> = Vec::new();
    let mut failures = 0usize;
    for s in spans.into_iter().filter(|s| pick(s.class)) {
        if s.succeeded() {
            ok.push(s.done_ns - s.submit_ns);
        } else {
            failures += 1;
        }
    }
    let samples = ok.len() + failures;
    if samples == 0 {
        return None;
    }
    ok.sort_unstable();
    let rank = ((p * samples as f64).ceil() as usize).clamp(1, samples);
    if rank > ok.len() {
        return Some(Percentile {
            ms: f64::INFINITY,
            beyond: samples - rank,
            samples,
        });
    }
    let value = ok[rank - 1];
    let beyond = ok.len() - ok.partition_point(|&v| v <= value) + failures;
    Some(Percentile {
        ms: value as f64 / 1e6,
        beyond,
        samples,
    })
}

/// Terminal failures (including operations that never completed) over
/// operations issued; 0 when nothing was issued.
#[must_use]
pub fn error_share<'a>(spans: impl IntoIterator<Item = &'a Span>) -> f64 {
    let (mut issued, mut failed) = (0usize, 0usize);
    for s in spans {
        issued += 1;
        failed += usize::from(!s.succeeded());
    }
    if issued == 0 {
        0.0
    } else {
        failed as f64 / issued as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(class: OpClass, latency_ms: u64, ok: bool) -> Span {
        Span {
            class,
            client: 0,
            submit_ns: 1_000_000_000,
            done_ns: 1_000_000_000 + latency_ms * 1_000_000,
            ok,
            host_ns: 0,
        }
    }

    #[test]
    fn failures_count_in_error_share_over_issued() {
        let mut spans: Vec<Span> = (1..=8).map(|ms| span(OpClass::Read, ms, true)).collect();
        spans.push(span(OpClass::Read, 1, false));
        spans.push(Span {
            done_ns: PENDING,
            ..span(OpClass::Create, 0, true)
        });
        assert!((error_share(&spans) - 0.2).abs() < 1e-12);
        assert_eq!(error_share(&[]), 0.0);
        let mut log = SpanLog::default();
        for s in &spans {
            log.push(*s);
        }
        assert_eq!(error_share(log.iter()), error_share(&spans));
    }

    #[test]
    fn a_failure_is_slower_than_every_success() {
        // 99 fast successes and one failure that "finished" in 0 ms: the
        // failure must still rank last, beyond every percentile.
        let mut spans: Vec<Span> = (1..=99).map(|ms| span(OpClass::Stat, ms, true)).collect();
        spans.push(span(OpClass::Stat, 0, false));
        let p50 = percentile(&spans, is_read, 0.5).unwrap();
        assert_eq!(p50.ms, 50.0);
        assert_eq!(p50.beyond, 50, "49 slower successes + the failure");
        assert_eq!(p50.samples, 100);
        let p99 = percentile(&spans, is_read, 0.99).unwrap();
        assert_eq!(p99.ms, 99.0);
        assert_eq!(p99.beyond, 1, "only the failure lies beyond p99");
    }

    #[test]
    fn a_percentile_landing_on_failures_is_infinite() {
        let mut spans: Vec<Span> = (1..=5).map(|ms| span(OpClass::Mv, ms, true)).collect();
        spans.extend((0..5).map(|_| span(OpClass::Delete, 1, false)));
        let p99 = percentile(&spans, is_write, 0.99).unwrap();
        assert!(p99.ms.is_infinite());
        let p50 = percentile(&spans, is_write, 0.5).unwrap();
        assert_eq!(p50.ms, 5.0);
        assert_eq!(p50.beyond, 5);
    }

    #[test]
    fn classes_are_split_and_empty_sets_have_no_percentile() {
        let spans = vec![
            span(OpClass::Read, 3, true),
            span(OpClass::Create, 40, true),
        ];
        assert_eq!(percentile(&spans, is_read, 0.5).unwrap().ms, 3.0);
        assert_eq!(percentile(&spans, is_write, 0.5).unwrap().ms, 40.0);
        assert!(percentile(&spans[..1], is_write, 0.5).is_none());
    }
}
