//! Smoke tests for the throughput harness's `--profile` mode: profiled
//! stepping must not perturb the simulation (bit-identical `SimStats`),
//! the per-stage attributions must account for the whole measured total,
//! and the schema-v5 `profile` block must round-trip through the
//! workspace's minimal JSON parser.

use vpr_bench::harness::{measure_throughput, profile_throughput};
use vpr_bench::ExperimentConfig;
use vpr_core::{Processor, RenameScheme, SimConfig, Stage, StageProfile};
use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

fn tiny_exp() -> ExperimentConfig {
    let mut exp = ExperimentConfig::quick();
    exp.warmup = 200;
    exp.measure = 1500;
    exp
}

fn build(scheme: RenameScheme, seed: u64) -> Processor<TraceGen> {
    let config = SimConfig::builder()
        .scheme(scheme)
        .physical_regs(64)
        .build();
    let trace = TraceBuilder::new(Benchmark::Go).seed(seed).build();
    Processor::new(config, trace)
}

/// The profile instrumentation must be observation-only: a profiled run
/// produces exactly the stats of a plain run on the same machine.
#[test]
fn profiled_run_is_bit_identical_to_plain_run() {
    for scheme in [
        RenameScheme::Conventional,
        RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
    ] {
        let mut plain = build(scheme, 7);
        let plain_stats = plain.run(2000);

        let mut profiled = build(scheme, 7);
        let mut prof = StageProfile::new();
        let prof_stats = profiled.run_profiled(2000, &mut prof);

        assert_eq!(plain_stats, prof_stats, "profiling perturbed {scheme:?}");
        assert_eq!(plain.cycle(), profiled.cycle());
        assert!(prof.steps > 0, "no steps recorded");
        assert!(prof.total_events() > 0, "no events attributed");
    }
}

/// Per-stage attributions must account for the totals: the stage sums are
/// the totals by definition, and the exact event counters must line up
/// with the architecture (commit events == committed instructions).
#[test]
fn stage_attributions_sum_to_totals() {
    let mut cpu = build(RenameScheme::Conventional, 11);
    let mut prof = StageProfile::new();
    let stats = cpu.run_profiled(3000, &mut prof);

    let ns_sum: u64 = Stage::ALL.iter().map(|&s| prof.stage(s).ns).sum();
    let ev_sum: u64 = Stage::ALL.iter().map(|&s| prof.stage(s).events).sum();
    assert_eq!(ns_sum, prof.total_ns());
    assert_eq!(ev_sum, prof.total_events());
    assert_eq!(
        prof.stage(Stage::Commit).events,
        stats.committed,
        "commit attribution must equal the committed-instruction count"
    );
    assert!(prof.stage(Stage::Fetch).events >= stats.committed);
}

/// The v5 report with a profile block must parse back through
/// `vpr_snap::json::parse`, and the serialised stage rows must
/// sum to the serialised total.
#[test]
fn v5_profile_block_round_trips_through_json() {
    let exp = tiny_exp();
    let mut report = measure_throughput(&exp, 1);
    report.profile = Some(profile_throughput(&exp));
    let json = report.to_json();

    let doc = vpr_snap::json::parse(&json).expect("v5 report parses");
    let root = doc.as_object().expect("object root");
    assert_eq!(
        root.get("schema").and_then(|v| v.as_str()),
        Some("vpr-bench-throughput/v5")
    );
    let profile = root
        .get("profile")
        .and_then(|v| v.as_object())
        .expect("profile block present");
    assert!(profile.get("steps").and_then(|v| v.as_f64()).unwrap() > 0.0);
    let total_ns = profile.get("total_ns").and_then(|v| v.as_f64()).unwrap();
    let stages = profile
        .get("stages")
        .and_then(|v| v.as_array())
        .expect("stages array");
    assert_eq!(stages.len(), Stage::ALL.len());
    let mut ns_sum = 0.0;
    let mut names = Vec::new();
    for row in stages {
        let row = row.as_object().expect("stage row object");
        names.push(
            row.get("stage")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_owned(),
        );
        ns_sum += row.get("ns").and_then(|v| v.as_f64()).unwrap();
        assert!(row.get("events").and_then(|v| v.as_f64()).is_some());
    }
    assert_eq!(ns_sum, total_ns, "stage ns rows must sum to total_ns");
    let expected: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, expected, "stage order matches pipeline order");
}
