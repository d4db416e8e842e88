//! Job-path equivalence: one exact sweep point gives the same bits
//! whichever way it is reached — [`execute_job`] with no store, a store
//! miss (warm pass, then deposit), a store hit (restore), or the batch
//! sweep, which runs every point through the same executor — for all
//! four renaming schemes. Degraded store paths keep those bits and say
//! what went wrong.

use std::path::PathBuf;
use std::sync::Mutex;
use vpr_bench::checkpoints::{CheckpointOutcome, CheckpointStore};
use vpr_bench::sweep::PointMetrics;
use vpr_bench::workloads::THROUGHPUT_SCHEMES;
use vpr_bench::{
    execute_job, run_sweep_metrics, ExperimentConfig, JobSpec, SweepContext, SweepPoint,
};
use vpr_core::RenameScheme;
use vpr_snap::faults::{self, FaultKind, FaultOp, FaultPlan};
use vpr_trace::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-job-path-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exp() -> ExperimentConfig {
    ExperimentConfig {
        warmup: 500,
        measure: 3_000,
        jobs: 2,
        ..ExperimentConfig::quick()
    }
}

fn spec(scheme: RenameScheme) -> JobSpec {
    SweepPoint::at64(Benchmark::Swim, scheme).job(&exp())
}

fn assert_bits(got: &PointMetrics, want: &PointMetrics, ctx: &str) {
    assert_eq!(got.ipc.to_bits(), want.ipc.to_bits(), "{ctx}: ipc");
    assert_eq!(
        got.miss_ratio.to_bits(),
        want.miss_ratio.to_bits(),
        "{ctx}: miss ratio"
    );
    assert_eq!(
        got.executions_per_commit.to_bits(),
        want.executions_per_commit.to_bits(),
        "{ctx}: executions/commit"
    );
}

#[test]
fn every_route_to_a_point_gives_the_same_bits() {
    let exp = exp();
    let points: Vec<SweepPoint> = THROUGHPUT_SCHEMES
        .iter()
        .map(|&s| SweepPoint::at64(Benchmark::Swim, s))
        .collect();
    let swept = run_sweep_metrics(&points, &exp, &SweepContext::exact());
    assert!(swept.failures.is_empty(), "{:?}", swept.failures);

    let dir = temp_dir("routes");
    let store = Mutex::new(CheckpointStore::open(&dir).unwrap());
    for (p, from_sweep) in points.iter().zip(&swept.points) {
        let spec = p.job(&exp);
        let label = spec.label();
        let plain = execute_job(&spec, None);
        assert_eq!(plain.outcome, CheckpointOutcome::NoStore);

        let miss = execute_job(&spec, Some(&store));
        assert_eq!(miss.outcome, CheckpointOutcome::Miss, "{label}");
        let hit = execute_job(&spec, Some(&store));
        assert!(
            matches!(hit.outcome, CheckpointOutcome::Hit(_)),
            "{label}: {:?}",
            hit.outcome
        );
        for (out, route) in [(&miss, "store miss"), (&hit, "store hit")] {
            assert_eq!(out.note, None, "{label} {route}");
            assert_bits(&out.metrics, &plain.metrics, &format!("{label} {route}"));
        }
        assert_bits(from_sweep, &plain.metrics, &format!("{label} sweep"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm entry recorded under another configuration hash is stale: the
/// job says so, re-runs its warm pass, and keeps the storeless bits.
/// When the deposit then fails too, both faults stay in the note.
#[test]
fn stale_entries_and_every_later_fault_reach_the_note() {
    let spec = spec(RenameScheme::VirtualPhysicalWriteback { nrr: 32 });
    let reference = execute_job(&spec, None);
    let dir = temp_dir("stale");
    let deposited = execute_job(
        &spec,
        Some(&Mutex::new(CheckpointStore::open(&dir).unwrap())),
    );
    assert_eq!(deposited.outcome, CheckpointOutcome::Miss);

    let tamper = || {
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.manifest.entries.len(), 1);
        store.manifest.entries[0].config_hash ^= 1;
        store.flush().unwrap();
        Mutex::new(CheckpointStore::open(&dir).unwrap())
    };

    let stale = execute_job(&spec, Some(&tamper()));
    assert_eq!(stale.outcome, CheckpointOutcome::Miss);
    let note = stale.note.expect("a stale entry is reported");
    assert!(note.contains("stale checkpoint"), "{note}");
    assert_bits(&stale.metrics, &reference.metrics, "stale entry");

    let store = tamper();
    let _guard = faults::exclusive();
    faults::arm(FaultPlan::new(
        FaultKind::IoError,
        FaultOp::Write,
        dir.display().to_string(),
    ));
    let degraded = execute_job(&spec, Some(&store));
    faults::disarm().expect("the deposit's write fault fired");
    let note = degraded.note.expect("both faults are reported");
    let parts: Vec<&str> = note.split("; ").collect();
    assert_eq!(parts.len(), 2, "{note}");
    assert!(parts[0].starts_with("stale checkpoint"), "{note}");
    assert!(parts[1].starts_with("checkpoint persist failed"), "{note}");
    assert_bits(
        &degraded.metrics,
        &reference.metrics,
        "stale entry, failed deposit",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
