//! Single-fault byte-identity: any **one** injected fault — an I/O
//! error, a truncated or bit-flipped write or read, a partial (crashed)
//! rename, or a job panic — may cost the sweep a retry or a checkpoint
//! regeneration, but never a bit of output. Every sweep metric must be
//! byte-identical to the fault-free run, and a fault that actually fired
//! must be visible in the structured `failures` block rather than passing
//! silently.
//!
//! The property sweeps seeds through [`FaultPlan::from_seed`], which maps
//! seeds onto the whole fault matrix (kind × hook × position). Each case
//! runs the faulted store cold (populate) and warm (load), so write
//! faults land in the first pass and read faults in the second.

use proptest::prelude::*;
use std::path::PathBuf;
use vpr_bench::sweep::{run_sweep_metrics, SweepContext, SweepMetrics, SweepPoint};
use vpr_bench::ExperimentConfig;
use vpr_core::RenameScheme;
use vpr_snap::faults::{self, FaultPlan};
use vpr_trace::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-fault-injection-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> (Vec<SweepPoint>, ExperimentConfig) {
    let points = vec![
        SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional),
        SweepPoint::at64(
            Benchmark::Go,
            RenameScheme::VirtualPhysicalWriteback { nrr: 8 },
        ),
    ];
    let exp = ExperimentConfig {
        warmup: 256,
        measure: 1_024,
        jobs: 1, // serial: the nth-match fault position is deterministic
        ..ExperimentConfig::quick()
    };
    (points, exp)
}

fn run(points: &[SweepPoint], exp: &ExperimentConfig, dir: &std::path::Path) -> SweepMetrics {
    run_sweep_metrics(points, exp, &SweepContext::new(true, Some(dir)))
}

fn assert_bits_equal(got: &SweepMetrics, want: &SweepMetrics, ctx: &str) {
    assert_eq!(got.points.len(), want.points.len(), "{ctx}: point count");
    for (i, (g, w)) in got.points.iter().zip(&want.points).enumerate() {
        assert_eq!(g.ipc.to_bits(), w.ipc.to_bits(), "{ctx}: point {i} ipc");
        assert_eq!(
            g.miss_ratio.to_bits(),
            w.miss_ratio.to_bits(),
            "{ctx}: point {i} miss ratio"
        );
        assert_eq!(
            g.executions_per_commit.to_bits(),
            w.executions_per_commit.to_bits(),
            "{ctx}: point {i} executions/commit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_single_fault_leaves_every_result_byte_identical(seed in 0u64..4096) {
        // Serialise against the other fault-arming tests in this binary;
        // the armed fault is process-global.
        let _guard = faults::exclusive();

        let (points, exp) = grid();
        // Fault-free reference: cold populate, then warm reload. The two
        // must agree (checkpoint-seeding is bit-exact) — everything the
        // faulted runs produce is compared against this.
        let clean_dir = temp_dir(&format!("clean-{seed}"));
        let reference = run(&points, &exp, &clean_dir);
        let reference_warm = run(&points, &exp, &clean_dir);
        assert_bits_equal(&reference_warm, &reference, "clean warm run");
        prop_assert!(reference.failures.is_empty(), "clean run reported failures");
        let _ = std::fs::remove_dir_all(&clean_dir);

        // The faulted pair: the empty target matches every path and job
        // label, so `nth` alone picks the site within the armed hook.
        let fault_dir = temp_dir(&format!("faulted-{seed}"));
        faults::arm(FaultPlan::from_seed(seed, ""));
        let cold = run(&points, &exp, &fault_dir);
        let warm = run(&points, &exp, &fault_dir);
        let record = faults::disarm();

        assert_bits_equal(&cold, &reference, &format!("seed {seed} cold"));
        assert_bits_equal(&warm, &reference, &format!("seed {seed} warm"));
        if let Some(r) = &record {
            // A fault that fired must be visible somewhere: a recovered
            // retry, a degradation note, or a persist warning. The one
            // exception is a corrupted *manifest read* that still parses —
            // it can masquerade as entries that were never written, which
            // is indistinguishable from a cold start, so the sweep
            // regenerates silently (the byte-identity assertions above
            // still hold). Artefact envelopes are checksummed end to end,
            // so on `.vprsnap` sites and job panics detection is total.
            let detection_guaranteed =
                r.op == faults::FaultOp::Job || r.site.ends_with(".vprsnap");
            prop_assert!(
                !detection_guaranteed
                    || !cold.failures.is_empty()
                    || !warm.failures.is_empty(),
                "seed {seed}: fault fired ({r:?}) but no failure was recorded"
            );
        }
        for f in cold.failures.iter().chain(&warm.failures) {
            prop_assert!(
                f.recovered,
                "seed {seed}: single fault must never be terminal: {f:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&fault_dir);
    }
}

/// A deterministically injected job panic: retried once, reported as a
/// recovered failure, output untouched. Pins the exact failure-block
/// shape the proptest only checks loosely.
#[test]
fn injected_job_panic_is_retried_and_reported() {
    let _guard = faults::exclusive();
    let (points, exp) = grid();
    let clean = run_sweep_metrics(&points, &exp, &SweepContext::new(true, None));

    faults::arm(FaultPlan::new(
        vpr_snap::faults::FaultKind::JobPanic,
        vpr_snap::faults::FaultOp::Job,
        "go/", // the second sweep point's label
    ));
    let faulted = run_sweep_metrics(&points, &exp, &SweepContext::new(true, None));
    let record = faults::disarm().expect("panic fault must fire");
    assert!(record.site.contains("go/"), "fired at {}", record.site);

    assert_bits_equal(&faulted, &clean, "after recovered panic");
    let panics: Vec<_> = faulted
        .failures
        .iter()
        .filter(|f| f.error.contains("job panic"))
        .collect();
    assert_eq!(panics.len(), 1, "failures: {:?}", faulted.failures);
    assert!(panics[0].recovered, "retry succeeded, so recovered = true");
    assert_eq!(panics[0].attempts, 1, "panicked on the first attempt");
    assert!(
        panics[0].point.contains("go/"),
        "point: {}",
        panics[0].point
    );
}

/// An exact sweep whose checkpoint deposit fails reports it under the
/// same `persist` stage a sampled sweep uses, on the point that paid the
/// warm pass, and not as a load fault; the metrics are untouched.
#[test]
fn failed_exact_deposit_is_reported_under_persist() {
    let _guard = faults::exclusive();
    let (points, exp) = grid();
    let clean = run_sweep_metrics(&points, &exp, &SweepContext::exact());

    let dir = temp_dir("exact-persist");
    faults::arm(FaultPlan::new(
        vpr_snap::faults::FaultKind::IoError,
        vpr_snap::faults::FaultOp::Write,
        dir.display().to_string(),
    ));
    let faulted = run_sweep_metrics(&points, &exp, &SweepContext::new(false, Some(&dir)));
    faults::disarm().expect("the deposit's write fault fired");

    assert_bits_equal(&faulted, &clean, "after a failed deposit");
    let stages: Vec<_> = faulted
        .failures
        .iter()
        .map(|f| (f.point.clone(), f.stage, f.recovered))
        .collect();
    assert_eq!(
        stages,
        [(points[0].job(&exp).label(), "persist", true)],
        "failures: {:?}",
        faulted.failures
    );
    assert!(
        faulted.failures[0]
            .error
            .starts_with("checkpoint persist failed"),
        "{}",
        faulted.failures[0].error
    );
    let _ = std::fs::remove_dir_all(&dir);
}
