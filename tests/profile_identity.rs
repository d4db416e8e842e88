//! The stage profiler shares the one step loop: a profiled run must be
//! architecturally identical to a plain run under every renaming scheme,
//! and its exact event counts must line up with the architecture.

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
            assert!(prof.steps > 0, "no active cycles recorded on {what}");
        }
    }
}
