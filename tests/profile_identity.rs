//! The stage profiler shares the one step loop: a profiled run must be
//! architecturally identical to a plain run under every renaming scheme,
//! its exact event counts must line up with the architecture, and the
//! per-stage rows must account for the profile's totals.

use vpr::core::{Processor, RenameScheme, SimConfig, Stage, StageProfile};
use vpr::trace::{Benchmark, TraceBuilder, TraceGen};

const SCHEMES: [RenameScheme; 4] = [
    RenameScheme::Conventional,
    RenameScheme::ConventionalEarlyRelease,
    RenameScheme::VirtualPhysicalIssue { nrr: 32 },
    RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
];

fn build(benchmark: Benchmark, scheme: RenameScheme) -> Processor<TraceGen> {
    let config = SimConfig::builder()
        .scheme(scheme)
        .physical_regs(64)
        .build();
    Processor::new(config, TraceBuilder::new(benchmark).seed(5).build())
}

#[test]
fn run_profiled_is_run_for_all_schemes() {
    for benchmark in [Benchmark::Go, Benchmark::Swim] {
        for scheme in SCHEMES {
            let mut plain = build(benchmark, scheme);
            plain.warm_up(500);
            let plain_stats = plain.run(3_000);

            let mut profiled = build(benchmark, scheme);
            let mut prof = StageProfile::new();
            profiled.run_profiled(500, &mut prof);
            profiled.reset_window();
            let prof_stats = profiled.run_profiled(3_000, &mut prof);

            let what = format!("{benchmark:?}/{scheme:?}");
            assert_eq!(plain_stats, prof_stats, "profiling perturbed {what}");
            assert_eq!(plain.cycle(), profiled.cycle(), "cycle drift on {what}");
            assert_eq!(
                prof.stage(Stage::Commit).events,
                profiled.absolute_committed(),
                "commit events must equal committed instructions on {what}"
            );
            assert!(
                prof.stage(Stage::Fetch).events >= profiled.absolute_committed(),
                "every committed instruction was fetched on {what}"
            );
            let ns: u64 = Stage::ALL.iter().map(|&s| prof.stage(s).ns).sum();
            let events: u64 = Stage::ALL.iter().map(|&s| prof.stage(s).events).sum();
            assert_eq!(ns, prof.total_ns(), "stage ns rows sum to the total");
            assert_eq!(events, prof.total_events(), "stage events sum to the total");
            assert!(prof.steps > 0, "no active cycles recorded on {what}");
        }
    }
}
