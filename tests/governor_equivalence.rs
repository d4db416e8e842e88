//! The next-event cycle governor's central contract: a governor-stepped
//! run is **bit-identical** to naively stepping every cycle
//! ([`Processor::step_single_cycle`]) — same `SimStats`, same cycle
//! count, at every observation point.
//!
//! The cycle-exact goldens pin the governor against checked-in numbers;
//! this suite pins it against the *definitionally correct* reference
//! kernel over randomised configurations, benchmarks, and mid-run
//! checkpoint positions.

use proptest::prelude::*;
use vpr_core::{Processor, RenameScheme, SimConfig};
use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

fn build(
    benchmark: Benchmark,
    scheme: RenameScheme,
    regs: usize,
    seed: u64,
    vp_commit_delay: bool,
) -> Processor<TraceGen> {
    let config = SimConfig::builder()
        .scheme(scheme)
        .physical_regs(regs)
        .vp_commit_delay(vp_commit_delay)
        .build();
    let trace = TraceBuilder::new(benchmark).seed(seed).build();
    Processor::new(config, trace)
}

/// Runs to an absolute committed-instruction target one single cycle at a
/// time — the governor-free reference driver.
fn run_to_commit_naive(cpu: &mut Processor<TraceGen>, target: u64) {
    while cpu.absolute_committed() < target && !cpu.is_done() {
        cpu.step_single_cycle();
    }
}

fn observe(cpu: &Processor<TraceGen>) -> (u64, u64, vpr_core::SimStats) {
    (cpu.cycle(), cpu.absolute_committed(), cpu.stats())
}

const BENCHES: [Benchmark; 4] = [
    Benchmark::Go,
    Benchmark::Swim,
    Benchmark::Compress,
    Benchmark::Wave5,
];

fn scheme_of(code: u8, nrr: usize) -> RenameScheme {
    match code % 4 {
        0 => RenameScheme::Conventional,
        1 => RenameScheme::ConventionalEarlyRelease,
        2 => RenameScheme::VirtualPhysicalIssue { nrr },
        _ => RenameScheme::VirtualPhysicalWriteback { nrr },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Governor-stepped == naively-stepped, observed at two random
    /// checkpoint positions per run.
    #[test]
    fn governor_matches_single_cycle_reference(
        bench_idx in 0usize..BENCHES.len(),
        scheme_code in 0u8..4,
        nrr in 1usize..32,
        regs in prop_oneof![Just(48usize), Just(64), Just(96)],
        seed in 1u64..1_000,
        first in 200u64..1_500,
        second in 200u64..1_500,
        vp_commit_delay in any::<bool>(),
    ) {
        let benchmark = BENCHES[bench_idx];
        // NRR is only legal up to `physical_regs - 32` (§3.3).
        let scheme = scheme_of(scheme_code, nrr.min(regs - 32));
        let mut governed = build(benchmark, scheme, regs, seed, vp_commit_delay);
        let mut naive = build(benchmark, scheme, regs, seed, vp_commit_delay);

        governed.run_to_commit(first);
        run_to_commit_naive(&mut naive, first);
        prop_assert_eq!(observe(&governed), observe(&naive), "at first checkpoint");

        governed.run_to_commit(first + second);
        run_to_commit_naive(&mut naive, first + second);
        prop_assert_eq!(observe(&governed), observe(&naive), "at second checkpoint");
    }
}
