//! The warm pass measures its own windows: for every scheme, each window
//! `generate_checkpoints` returns equals — begin, end and every
//! `SimStats` field — restoring that interval's checkpoint and running
//! `detailed_measure` commits, so a sampled run that simulated the pass
//! can skip the restores for the pass's own scheme without changing a
//! bit. Each interval snapshot must also equal an uninterrupted run
//! paused at its start, and the snapshots' checksums are pinned, so the
//! pass provably takes every checkpoint where it belongs and never
//! touches the machine it checkpoints (a `reset_window` would change
//! every later snapshot). A plan with no slack between windows covers
//! windows that run past the next interval start.

use vpr::core::{Processor, RenameScheme};
use vpr_bench::checkpoints::{generate_checkpoints, sim_config, KIND_INTERVAL};
use vpr_bench::sampling::{estimate_from_windows, Window};
use vpr_bench::workloads::{scheme_label, THROUGHPUT_SCHEMES};
use vpr_bench::{
    sample_from_checkpoints, ExperimentConfig, SamplingPlan, Workload, WorkloadStream,
};
use vpr_trace::Benchmark;

fn workloads() -> [Workload; 3] {
    [
        Benchmark::Swim.into(),
        Benchmark::Go.into(),
        Workload::parse("asm:matmul").unwrap(),
    ]
}

/// The windows of one pass, measured the restoring way: each interval
/// checkpoint restored onto a fresh stream, then `detailed_measure`
/// commits.
fn restored_windows(
    workload: Workload,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    set: &[(u64, vpr_snap::Snapshot)],
) -> Vec<Window> {
    set.iter()
        .map(|(_, snapshot)| {
            let mut cpu: Processor<WorkloadStream> =
                Processor::restore(snapshot, workload.stream(exp.seed)).unwrap();
            let begin = cpu.absolute_committed();
            cpu.reset_window();
            let stats = cpu.run(plan.detailed_measure);
            (begin, cpu.absolute_committed(), stats)
        })
        .collect()
}

/// Checks one pass's windows against their restores and returns them.
fn check_pass(
    workload: Workload,
    scheme: RenameScheme,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
) -> Vec<Window> {
    let pass = generate_checkpoints(workload, scheme, 64, exp, Some(plan));
    let set: Vec<(u64, vpr_snap::Snapshot)> = pass
        .checkpoints
        .into_iter()
        .filter(|c| c.key.kind == KIND_INTERVAL)
        .map(|c| (c.key.target, c.snapshot))
        .collect();
    let label = format!("{}/{}", workload.name(), scheme_label(scheme));
    // The checkpoints sit where an uninterrupted run pauses at each start.
    let mut reference = Processor::new(sim_config(scheme, 64, exp), workload.stream(exp.seed));
    for (i, (start, snapshot)) in set.iter().enumerate() {
        reference.run_to_commit(*start);
        assert!(
            reference.snapshot() == *snapshot,
            "{label}: interval {i} checkpoint"
        );
    }
    assert_eq!(pass.windows.len(), plan.intervals, "{label}");
    let restored = restored_windows(workload, exp, plan, &set);
    for (i, (ours, theirs)) in pass.windows.iter().zip(&restored).enumerate() {
        assert_eq!(ours, theirs, "{label}: window {i}");
    }
    // And so the estimate: the pass's windows give the restoring path's
    // report, whole.
    assert_eq!(
        estimate_from_windows(workload, scheme, 64, exp, plan, pass.windows.clone()),
        sample_from_checkpoints(workload, scheme, 64, exp, plan, &set),
        "{label}"
    );
    pass.windows
}

#[test]
fn every_pass_window_equals_its_restored_window() {
    let exp = ExperimentConfig::quick();
    let plan = SamplingPlan::for_experiment(&exp);
    for workload in workloads() {
        for scheme in THROUGHPUT_SCHEMES {
            check_pass(workload, scheme, &exp, &plan);
        }
    }
}

#[test]
fn windows_that_run_past_the_next_start_are_exact_too() {
    // No slack: the stride equals the window length, so every window ends
    // at or past the next interval's start.
    let plan = SamplingPlan {
        offset: 2_000,
        region: 4_800,
        intervals: 48,
        detailed_measure: 100,
    };
    let exp = ExperimentConfig {
        warmup: plan.offset,
        measure: plan.region,
        ..ExperimentConfig::quick()
    };
    let mut overlaps = 0;
    for workload in workloads() {
        for scheme in THROUGHPUT_SCHEMES {
            let windows = check_pass(workload, scheme, &exp, &plan);
            overlaps += windows.windows(2).filter(|w| w[0].1 > w[1].0).count();
        }
    }
    assert!(overlaps > 0, "the plan must make windows overlap");
}

#[test]
fn interval_snapshots_keep_their_bytes() {
    // FNV-1a over the FNV-1a hashes of the 48 interval snapshots'
    // payloads (little endian, in interval order) of swim's quick pass per
    // scheme: the payload bytes are pinned, whatever the envelope's
    // checksum is.
    let pinned: [u64; 4] = [
        0x2596_72e9_b842_9ea6,
        0xfd24_6e26_4525_51fa,
        0xed65_20c8_19ff_5dcb,
        0x2b86_aa63_c4b6_871e,
    ];
    let exp = ExperimentConfig::quick();
    let plan = SamplingPlan::for_experiment(&exp);
    for (scheme, want) in THROUGHPUT_SCHEMES.into_iter().zip(pinned) {
        let mut bytes = Vec::new();
        for c in generate_checkpoints(Benchmark::Swim, scheme, 64, &exp, Some(&plan)).checkpoints {
            if c.key.kind == KIND_INTERVAL {
                bytes.extend_from_slice(&vpr_snap::fnv1a(c.snapshot.payload()).to_le_bytes());
            }
        }
        assert_eq!(bytes.len(), 8 * plan.intervals);
        assert_eq!(
            vpr_snap::fnv1a(&bytes),
            want,
            "{}: interval snapshots changed",
            scheme_label(scheme)
        );
    }
}
