//! A tiny-size run of every workload passes the correctness gate, and the
//! traced run reproduces the untraced run's simulated-time metrics and
//! layer counts exactly.

use lfs_perfbench::metrics::{report, Kind, Metric};
use lfs_perfbench::workloads::{run, Size, Workload};

fn sim_metrics(metrics: &[Metric]) -> Vec<(&'static str, u64)> {
    metrics
        .iter()
        .filter(|m| m.kind == Kind::Sim)
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn check(workload: Workload) {
    let plain = report(&run(workload, 11, false, Size::Tiny), false);
    assert!(
        plain.findings.is_empty(),
        "{}: {:?}",
        workload.name(),
        plain.findings
    );
    assert!(plain.attempted > 0);
    let traced = report(&run(workload, 11, true, Size::Tiny), true);
    assert!(
        traced.findings.is_empty(),
        "{}: {:?}",
        workload.name(),
        traced.findings
    );
    assert_eq!(
        sim_metrics(&plain.e2e),
        sim_metrics(&traced.e2e),
        "{}",
        workload.name()
    );
    assert_eq!(
        sim_metrics(&plain.layer),
        sim_metrics(&traced.layer),
        "{}",
        workload.name()
    );
    for name in ["core.submit_ns", "namespace.peek_chain_ns"] {
        assert!(
            traced.layer.iter().any(|m| m.name == name),
            "traced run lacks {name}"
        );
    }
}

#[test]
fn industrial_tiny_run_is_correct_and_deterministic() {
    check(Workload::Industrial);
}

#[test]
fn namespace_10m_tiny_run_is_correct_and_deterministic() {
    check(Workload::Namespace10m);
}

#[test]
fn write_durable_tiny_run_is_correct_and_deterministic() {
    check(Workload::WriteDurable);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("nope"), None);
}
