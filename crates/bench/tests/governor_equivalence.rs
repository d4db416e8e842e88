//! The next-event cycle governor's central contract: a governor-stepped
//! run is **bit-identical** to naively stepping every cycle
//! ([`Processor::step_single_cycle`]) — same `SimStats`, same cycle
//! count, at every observation point.
//!
//! The cycle-exact goldens pin the governor against checked-in numbers;
//! this suite pins it against the *definitionally correct* reference
//! kernel over randomised configurations, benchmarks, and mid-run
//! checkpoint positions (including a snapshot/restore + NRR re-target in
//! the middle, the cross-configuration checkpoint-reuse path).

use proptest::prelude::*;
use vpr_bench::ExperimentConfig;
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

    /// The re-target path composes with the governor contract: restoring
    /// a snapshot, re-targeting the NRR downward, and continuing with the
    /// governor equals the same continuation stepped cycle by cycle.
    #[test]
    fn retargeted_continuations_agree_across_stepping_modes(
        bench_idx in 0usize..BENCHES.len(),
        writeback in any::<bool>(),
        target_nrr in 1usize..=32,
        seed in 1u64..1_000,
        warm in 300u64..1_200,
        run in 300u64..1_200,
    ) {
        let benchmark = BENCHES[bench_idx];
        // Warm pass at the canonical (maximum) NRR for 64 registers.
        let canonical = if writeback {
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 }
        } else {
            RenameScheme::VirtualPhysicalIssue { nrr: 32 }
        };
        let mut warm_cpu = build(benchmark, canonical, 64, seed, false);
        warm_cpu.run_to_commit(warm);
        let snapshot = warm_cpu.snapshot();

        let restore = || {
            let fresh = TraceBuilder::new(benchmark).seed(seed).build();
            Processor::<TraceGen>::restore(&snapshot, fresh).expect("snapshot restores")
        };
        let mut governed = restore();
        let mut naive = restore();
        governed.retarget_nrr(target_nrr);
        naive.retarget_nrr(target_nrr);
        prop_assert_eq!(
            governed.snapshot(),
            naive.snapshot(),
            "re-target is deterministic"
        );
        let target = governed.absolute_committed() + run;
        governed.run_to_commit(target);
        run_to_commit_naive(&mut naive, target);
        prop_assert_eq!(observe(&governed), observe(&naive));
    }
}

/// Re-targeting to the machine's current NRR is a bit-exact no-op — the
/// invariant the shared (cross-NRR) checkpoint artefacts rest on.
#[test]
fn retarget_to_current_nrr_is_identity() {
    for scheme in [
        RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        RenameScheme::VirtualPhysicalIssue { nrr: 32 },
    ] {
        for benchmark in [Benchmark::Go, Benchmark::Swim] {
            let mut cpu = build(benchmark, scheme, 64, 42, false);
            cpu.run_to_commit(2_000);
            let before = cpu.snapshot();
            cpu.retarget_nrr(32);
            assert_eq!(cpu.snapshot(), before, "{benchmark:?}/{scheme:?}");
        }
    }
}

/// Upward re-targets violate the §3.3 free-register invariant and must be
/// refused loudly.
#[test]
#[should_panic(expected = "cannot raise NRR")]
fn upward_retarget_is_refused() {
    let mut cpu = build(
        Benchmark::Swim,
        RenameScheme::VirtualPhysicalWriteback { nrr: 8 },
        64,
        42,
        false,
    );
    cpu.run_to_commit(500);
    cpu.retarget_nrr(16);
}

/// A deep downward re-target on a loaded machine stays deadlock-free and
/// commits everything the un-shared machine would.
#[test]
fn downward_retarget_keeps_making_progress() {
    let exp = ExperimentConfig::quick();
    for writeback in [true, false] {
        let canonical = if writeback {
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 }
        } else {
            RenameScheme::VirtualPhysicalIssue { nrr: 32 }
        };
        let mut cpu = build(Benchmark::Wave5, canonical, 64, exp.seed, false);
        cpu.run_to_commit(3_000);
        cpu.retarget_nrr(1);
        let before = cpu.absolute_committed();
        cpu.run(5_000);
        assert!(
            cpu.absolute_committed() >= before + 5_000,
            "writeback={writeback}: re-targeted machine must keep committing"
        );
    }
}
