//! End-to-end checks of the paper's qualitative claims on the synthetic
//! suite (scaled-down runs; the full-size numbers live in EXPERIMENTS.md).

use vpr::core::{harmonic_mean, Processor, RenameScheme, SimConfig, SimStats};
use vpr::trace::{Benchmark, TraceBuilder};

/// The measurement window of `b` under `config`: seed 42, 5 000
/// warm-up and 40 000 measured instructions.
fn window(b: Benchmark, config: SimConfig) -> SimStats {
    let trace = TraceBuilder::new(b).seed(42).build();
    let mut cpu = Processor::new(config, trace);
    cpu.warm_up(5_000);
    cpu.run(40_000)
}

fn ipc(b: Benchmark, scheme: RenameScheme, regs: usize) -> f64 {
    let config = SimConfig::builder()
        .scheme(scheme)
        .physical_regs(regs)
        .build();
    window(b, config).ipc()
}

#[test]
fn headline_claim_vp_writeback_beats_conventional_at_64_regs() {
    // Table 2's +19% harmonic-mean improvement: we accept anything
    // clearly positive on the reduced run.
    let conv: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| ipc(b, RenameScheme::Conventional, 64))
        .collect();
    let vp: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }, 64))
        .collect();
    let improvement = harmonic_mean(&vp) / harmonic_mean(&conv) - 1.0;
    assert!(
        improvement > 0.10,
        "expected a clear mean improvement, got {:+.1}%",
        improvement * 100.0
    );
}

#[test]
fn fp_programs_improve_more_than_integer_ones() {
    let mean_improvement = |benchmarks: &[Benchmark]| {
        let speedups: Vec<f64> = benchmarks
            .iter()
            .map(|&b| {
                ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }, 64)
                    / ipc(b, RenameScheme::Conventional, 64)
            })
            .collect();
        speedups.iter().sum::<f64>() / speedups.len() as f64
    };
    let fp = mean_improvement(&Benchmark::FP);
    let int = mean_improvement(&Benchmark::INTEGER);
    assert!(
        fp > int,
        "paper: FP improves much more than integer ({fp:.2} vs {int:.2})"
    );
}

#[test]
fn swim_is_the_biggest_winner() {
    let speedup = |b| {
        ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }, 64)
            / ipc(b, RenameScheme::Conventional, 64)
    };
    let swim = speedup(Benchmark::Swim);
    assert!(swim > 1.4, "swim must gain a lot, got {swim:.2}");
    for b in [
        Benchmark::Hydro2d,
        Benchmark::Wave5,
        Benchmark::Go,
        Benchmark::Li,
    ] {
        assert!(
            swim > speedup(b),
            "swim should outgain {b} ({swim:.2} vs {:.2})",
            speedup(b)
        );
    }
}

#[test]
fn improvement_shrinks_with_more_registers() {
    // Figure 7: +31% / +19% / +8% for 48/64/96 registers.
    let mean_speedup = |regs: usize, nrr: usize| {
        let bs = [Benchmark::Swim, Benchmark::Apsi, Benchmark::Vortex];
        let conv: Vec<f64> = bs
            .iter()
            .map(|&b| ipc(b, RenameScheme::Conventional, regs))
            .collect();
        let vp: Vec<f64> = bs
            .iter()
            .map(|&b| ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr }, regs))
            .collect();
        harmonic_mean(&vp) / harmonic_mean(&conv)
    };
    let at48 = mean_speedup(48, 16);
    let at96 = mean_speedup(96, 64);
    assert!(
        at48 > at96,
        "fewer registers must mean a bigger win: {at48:.2} vs {at96:.2}"
    );
}

#[test]
fn writeback_allocation_beats_issue_allocation() {
    // Figure 6's conclusion, on the register-hungry FP benchmarks.
    let mut wb_total = 0.0;
    let mut issue_total = 0.0;
    for b in [Benchmark::Swim, Benchmark::Mgrid, Benchmark::Apsi] {
        wb_total += ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }, 64);
        issue_total += ipc(b, RenameScheme::VirtualPhysicalIssue { nrr: 32 }, 64);
    }
    assert!(
        wb_total > issue_total,
        "write-back must beat issue allocation overall: {wb_total:.2} vs {issue_total:.2}"
    );
}

#[test]
fn vp48_comparable_to_conventional_64() {
    // Figure 7's register-saving claim: VP with 48 registers ≈
    // conventional with 64 (we allow VP-48 to be at worst 15% behind on
    // the reduced run).
    let bs = [Benchmark::Swim, Benchmark::Apsi, Benchmark::Compress];
    let conv64: Vec<f64> = bs
        .iter()
        .map(|&b| ipc(b, RenameScheme::Conventional, 64))
        .collect();
    let vp48: Vec<f64> = bs
        .iter()
        .map(|&b| ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 16 }, 48))
        .collect();
    let ratio = harmonic_mean(&vp48) / harmonic_mean(&conv64);
    assert!(
        ratio > 0.85,
        "VP at 48 regs should be near conventional at 64: ratio {ratio:.2}"
    );
}

#[test]
fn tiny_nrr_hurts_fp_programs_under_scarcity() {
    // Figure 4: "very small values of NRR are not adequate for any FP
    // programs". In our reproduction the FP file only becomes genuinely
    // scarce at 48 registers (see EXPERIMENTS.md on this deviation), so
    // the claim is checked there: NRR=1 must underperform the maximum
    // NRR (16 at 48 registers). This is also the NRR ablation: under
    // scarcity the maximum NRR never loses to NRR=1.
    for b in [Benchmark::Swim, Benchmark::Apsi] {
        let small = ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 1 }, 48);
        let large = ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 16 }, 48);
        assert!(
            large > small,
            "{b}: NRR=16 should beat NRR=1 at 48 regs ({large:.2} vs {small:.2})"
        );
    }
    // At 64 registers the pathology survives on hydro2d, whose occupancy
    // still touches the limit.
    let small = ipc(
        Benchmark::Hydro2d,
        RenameScheme::VirtualPhysicalWriteback { nrr: 1 },
        64,
    );
    let large = ipc(
        Benchmark::Hydro2d,
        RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        64,
    );
    assert!(
        large >= small,
        "hydro2d: NRR=32 should not lose to NRR=1 ({large:.2} vs {small:.2})"
    );
}

#[test]
fn vp_commit_delay_costs_cycles_but_little_ipc() {
    // §3.2.2: the PMT look-up may add a cycle before a VP instruction
    // commits. On swim that must show as cycles, yet stay a small effect.
    // (Not a universal claim: apsi gets marginally faster with it.)
    let scheme = RenameScheme::VirtualPhysicalWriteback { nrr: 32 };
    let fast = window(Benchmark::Swim, SimConfig::builder().scheme(scheme).build());
    let slow = window(
        Benchmark::Swim,
        SimConfig::builder()
            .scheme(scheme)
            .vp_commit_delay(true)
            .build(),
    );
    assert!(
        slow.cycles > fast.cycles,
        "the commit delay must cost cycles ({} vs {})",
        slow.cycles,
        fast.cycles
    );
    let ratio = slow.ipc() / fast.ipc();
    assert!(
        (ratio - 1.0).abs() <= 0.02,
        "the commit delay must stay within 2% of IPC, got {ratio:.4}"
    );
}

#[test]
fn early_release_and_writeback_never_lose_to_conventional() {
    // §3.1's two waste intervals: early release removes the tail after
    // the last read, write-back allocation the head before write-back.
    for b in [Benchmark::Swim, Benchmark::Apsi, Benchmark::Vortex] {
        let conv = ipc(b, RenameScheme::Conventional, 64);
        let er = ipc(b, RenameScheme::ConventionalEarlyRelease, 64);
        let wb = ipc(b, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }, 64);
        assert!(
            er >= conv * 0.98,
            "{b}: early release should not lose to conventional ({er:.3} vs {conv:.3})"
        );
        assert!(
            wb >= conv,
            "{b}: write-back should not lose to conventional ({wb:.3} vs {conv:.3})"
        );
    }
}

#[test]
fn a_cheaper_miss_shrinks_the_vp_advantage() {
    // Table 2's sensitivity point: the mean improvement drops from 19% to
    // 12% when the miss penalty falls from 50 to 20 cycles.
    let swim_speedup = |miss_penalty| {
        let at = |scheme| {
            let config = SimConfig::builder()
                .scheme(scheme)
                .miss_penalty(miss_penalty)
                .build();
            window(Benchmark::Swim, config).ipc()
        };
        at(RenameScheme::VirtualPhysicalWriteback { nrr: 32 }) / at(RenameScheme::Conventional)
    };
    let at50 = swim_speedup(50);
    let at20 = swim_speedup(20);
    assert!(
        at20 < at50,
        "a cheaper miss must shrink the VP advantage: {at20:.2} vs {at50:.2}"
    );
}
