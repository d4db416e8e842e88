//! Sampled-simulation accuracy gate: checkpoint-seeded sampling must
//! estimate every configuration of the quick table2 workload and of the
//! quick Figure 5 NRR sweep within 2 % of the full-run reference, and
//! each scheme's reported (harmonic-mean) IPC within 1 %.
//!
//! Everything here is deterministic — fixed seed, fixed plan, and the
//! parallel fan-out merges in submission order — so the gate cannot
//! flake.

use vpr_bench::experiments::NRR_SWEEP;
use vpr_bench::sampling::SamplingPlan;
use vpr_bench::sweep::{run_sweep_metrics, SweepContext, SweepPoint};
use vpr_bench::workloads::{grid, scheme_label, table2_grid};
use vpr_bench::{ExperimentConfig, Workload};
use vpr_core::{harmonic_mean, RenameScheme};

/// Runs `points` exact and sampled at the quick scale and asserts
/// **every** point within 2 % of its exact IPC and each scheme's
/// harmonic-mean IPC within 1 % — from windows covering ≤ 50 % of the
/// region, with no per-interval warm-up (each window is measured by the
/// point's own warm serial pass).
fn assert_sampled_within_tight_bounds(points: &[SweepPoint]) {
    let exp = ExperimentConfig::quick();
    let plan = SamplingPlan::for_experiment(&exp);
    assert!(
        plan.detailed_fraction() <= 0.5,
        "plan simulates {:.1}% in detailed mode, over the 50% budget",
        plan.detailed_fraction() * 100.0
    );

    let exact = run_sweep_metrics(points, &exp, &SweepContext::exact());
    let sampled = run_sweep_metrics(points, &exp, &SweepContext::new(true, None));

    let mut per_scheme: std::collections::BTreeMap<String, (Vec<f64>, Vec<f64>)> =
        Default::default();
    for (p, (e, s)) in points.iter().zip(exact.points.iter().zip(&sampled.points)) {
        let err = (s.ipc / e.ipc - 1.0) * 100.0;
        assert!(
            err.abs() <= 2.0,
            "{}/{}: checkpoint-sampled IPC off by {err:+.2}% (>2%)",
            p.workload.name(),
            scheme_label(p.scheme)
        );
        let slot = per_scheme.entry(scheme_label(p.scheme)).or_default();
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

/// The quick table2 grid: nine benchmarks × conventional and VP-wb at
/// NRR 32.
#[test]
fn quick_table2_checkpoint_sampled_ipc_within_tight_bounds() {
    let points: Vec<SweepPoint> = table2_grid()
        .into_iter()
        .map(|(b, s)| SweepPoint::at64(b, s))
        .collect();
    assert_sampled_within_tight_bounds(&points);
}

/// Figure 5's VP-issue points: nine benchmarks × every NRR of the sweep
/// at 64 registers, the §3.3 parameter the table2 grid never varies.
#[test]
fn quick_fig5_nrr_sweep_sampled_ipc_within_tight_bounds() {
    let schemes = NRR_SWEEP.map(|nrr| RenameScheme::VirtualPhysicalIssue { nrr });
    let points: Vec<SweepPoint> = grid(&Workload::synthetic(), &schemes)
        .into_iter()
        .map(|(w, s)| SweepPoint::at64(w, s))
        .collect();
    assert_eq!(points.len(), 54);
    assert_sampled_within_tight_bounds(&points);
}
