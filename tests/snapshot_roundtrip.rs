//! Checkpoint/restore correctness: a processor restored from a snapshot
//! must continue **bit-identically** to the uninterrupted run.
//!
//! Three layers of pinning:
//!
//! 1. `save_restore_run_matches_golden` replays the cycle-exactness
//!    goldens (root `tests/golden/`) with a snapshot/restore inserted in the
//!    middle of the measurement window, for every renaming scheme on a
//!    cache-heavy benchmark — so restore is held to the *same* golden
//!    `SimStats` the optimised kernel is.
//! 2. `roundtrip_through_bytes_all_schemes` pushes the snapshot through
//!    its serialised byte form (envelope, checksum) and across a fresh
//!    trace generator.
//! 3. A property test checkpoints at random commit counts, with and
//!    without the VP commit delay, and verifies continuation equality
//!    each time.

use proptest::prelude::*;
use std::path::PathBuf;
use vpr_bench::workloads::{scheme_label, THROUGHPUT_SCHEMES};
use vpr_bench::ExperimentConfig;
use vpr_core::{Processor, RenameScheme, SimConfig};
use vpr_snap::Snapshot;
use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

fn quick_processor(
    benchmark: Benchmark,
    scheme: RenameScheme,
    exp: &ExperimentConfig,
    vp_commit_delay: bool,
) -> Processor<TraceGen> {
    let config = SimConfig::builder()
        .scheme(scheme)
        .physical_regs(64)
        .miss_penalty(exp.miss_penalty)
        .vp_commit_delay(vp_commit_delay)
        .build();
    let trace = TraceBuilder::new(benchmark).seed(exp.seed).build();
    Processor::new(config, trace)
}

/// `save → restore → run` must reproduce the checked-in golden stats of
/// an uninterrupted run, for every scheme on the cache-heavy `swim`.
#[test]
fn save_restore_run_matches_golden() {
    let exp = ExperimentConfig::quick();
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let benchmark = Benchmark::Swim;
    for scheme in THROUGHPUT_SCHEMES {
        let mut cpu = quick_processor(benchmark, scheme, &exp, false);
        cpu.warm_up(exp.warmup);
        // One third of the window, then checkpoint mid-flight. A run can
        // overshoot its commit target by up to commit-width − 1, so the
        // continuation is sized off the *achieved* count to stop at the
        // same absolute target as the uninterrupted golden run.
        let first = cpu.run(exp.measure / 3).committed;
        let bytes = cpu.snapshot().to_bytes();
        let snapshot = Snapshot::from_bytes(&bytes).expect("own snapshot reopens");
        // Restore into a *fresh* generator at position zero: the snapshot
        // carries the stream position.
        let fresh_trace = TraceBuilder::new(benchmark).seed(exp.seed).build();
        let mut restored = Processor::restore(&snapshot, fresh_trace).expect("restore");
        let stats = restored.run(exp.measure - first);
        let rendered = format!("{stats:#?}\n");
        let path = golden_dir.join(format!("{}_{}.txt", benchmark.name(), scheme_label(scheme)));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            rendered,
            golden,
            "{}/{}: restored continuation diverged from the uninterrupted golden",
            benchmark.name(),
            scheme_label(scheme)
        );
    }
}

/// Byte-level round trip on a second benchmark (branchy integer code) for
/// every scheme: continuation equality against an uninterrupted twin.
#[test]
fn roundtrip_through_bytes_all_schemes() {
    let exp = ExperimentConfig::quick();
    for benchmark in [Benchmark::Go, Benchmark::Compress] {
        for scheme in THROUGHPUT_SCHEMES {
            let mut uninterrupted = quick_processor(benchmark, scheme, &exp, false);
            uninterrupted.warm_up(500);
            uninterrupted.run(8_000);

            let mut checkpointed = quick_processor(benchmark, scheme, &exp, false);
            checkpointed.warm_up(500);
            let first = checkpointed.run(3_000).committed;
            let bytes = checkpointed.snapshot().to_bytes();
            let snapshot = Snapshot::from_bytes(&bytes).expect("reopen");
            let fresh = TraceBuilder::new(benchmark).seed(exp.seed).build();
            let mut restored = Processor::restore(&snapshot, fresh).expect("restore");
            restored.run(8_000 - first);

            assert_eq!(
                uninterrupted.stats(),
                restored.stats(),
                "{benchmark}/{}: window stats diverged after byte round trip",
                scheme_label(scheme)
            );
            assert_eq!(
                uninterrupted.cycle(),
                restored.cycle(),
                "{benchmark}/{}: cycle counts diverged",
                scheme_label(scheme)
            );
        }
    }
}

/// Restoring with a wrong-shaped snapshot fails loudly, not silently.
#[test]
fn snapshot_envelope_rejects_corruption() {
    let exp = ExperimentConfig::quick();
    let mut cpu = quick_processor(Benchmark::Swim, RenameScheme::Conventional, &exp, false);
    cpu.run(1_000);
    let mut bytes = cpu.snapshot().to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    assert!(Snapshot::from_bytes(&bytes).is_err(), "corruption detected");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint at a random point, restore, continue: the continuation
    /// is bit-identical for any checkpoint position and scheme.
    #[test]
    fn restore_continues_identically_from_random_checkpoints(
        checkpoint_commits in 100u64..6_000,
        scheme_idx in 0usize..4,
        bench_idx in 0usize..3,
        seed in 0u64..1_000,
        vp_commit_delay in any::<bool>(),
    ) {
        let scheme = THROUGHPUT_SCHEMES[scheme_idx];
        let benchmark = [Benchmark::Swim, Benchmark::Go, Benchmark::Wave5][bench_idx];
        let exp = ExperimentConfig { seed, ..ExperimentConfig::quick() };
        let tail = 4_000u64;

        let mut uninterrupted = quick_processor(benchmark, scheme, &exp, vp_commit_delay);
        uninterrupted.run(checkpoint_commits + tail);

        let mut checkpointed = quick_processor(benchmark, scheme, &exp, vp_commit_delay);
        let first = checkpointed.run(checkpoint_commits).committed;
        let snapshot = checkpointed.snapshot();
        let fresh = TraceBuilder::new(benchmark).seed(seed).build();
        let mut restored = Processor::restore(&snapshot, fresh).expect("restore");
        restored.run(checkpoint_commits + tail - first);

        prop_assert_eq!(
            uninterrupted.stats(),
            restored.stats(),
            "stats diverged (checkpoint at {} commits, {:?}, {}, commit delay {})",
            checkpoint_commits,
            scheme,
            benchmark,
            vp_commit_delay
        );
        prop_assert_eq!(uninterrupted.cycle(), restored.cycle());
    }
}
