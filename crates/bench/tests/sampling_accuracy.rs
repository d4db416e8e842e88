//! Sampled-simulation accuracy gate: checkpoint-seeded sampling must
//! estimate every configuration of the quick table2 workload within 2 %
//! of the full-run reference, and each scheme's reported (harmonic-mean)
//! IPC within 1 %.
//!
//! Everything here is deterministic — fixed seed, fixed plan, and the
//! parallel fan-out merges in submission order — so the gate cannot
//! flake.

use vpr_bench::sampling::SamplingPlan;
use vpr_bench::sweep::{run_sweep_metrics, SweepContext, SweepPoint};
use vpr_bench::ExperimentConfig;
use vpr_core::harmonic_mean;

/// The checkpoint-seeded estimator (the `--sampled` experiment path):
/// **every** `(benchmark, scheme)` configuration of the quick table2 grid
/// within 2 % of its exact IPC, and each scheme's reported harmonic-mean
/// IPC within 1 % — from windows covering ≤ 50 % of the region, with no
/// per-interval warm-up (each window restores the exact machine state
/// from an interval checkpoint of one warm serial pass).
#[test]
fn quick_table2_checkpoint_sampled_ipc_within_tight_bounds() {
    let exp = ExperimentConfig::quick();
    let plan = SamplingPlan::for_experiment(&exp);
    assert!(
        plan.detailed_fraction() <= 0.5,
        "plan simulates {:.1}% in detailed mode, over the 50% budget",
        plan.detailed_fraction() * 100.0
    );

    let points: Vec<SweepPoint> = vpr_bench::workloads::table2_grid()
        .into_iter()
        .map(|(b, s)| SweepPoint::at64(b, s))
        .collect();
    let exact = run_sweep_metrics(&points, &exp, &SweepContext::exact());
    let sampled = run_sweep_metrics(&points, &exp, &SweepContext::new(true, None));

    let mut per_scheme: std::collections::BTreeMap<String, (Vec<f64>, Vec<f64>)> =
        Default::default();
    for (p, (e, s)) in points.iter().zip(exact.points.iter().zip(&sampled.points)) {
        let err = (s.ipc / e.ipc - 1.0) * 100.0;
        assert!(
            err.abs() <= 2.0,
            "{}/{}: checkpoint-sampled IPC off by {err:+.2}% (>2%)",
            p.workload.name(),
            vpr_bench::workloads::scheme_label(p.scheme)
        );
        let slot = per_scheme
            .entry(vpr_bench::workloads::scheme_label(p.scheme))
            .or_default();
        slot.0.push(e.ipc);
        slot.1.push(s.ipc);
    }
    for (label, (full, est)) in per_scheme {
        let err = (harmonic_mean(&est) / harmonic_mean(&full) - 1.0) * 100.0;
        assert!(
            err.abs() <= 1.0,
            "{label}: sampled harmonic-mean IPC off by {err:+.2}% (>1%)"
        );
    }
}
