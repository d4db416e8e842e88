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
//! 4. `every_grid_checkpoint_restores_fresh_and_into_a_used_machine`
//!    checkpoints every scheme × swim/go/wave5 × commit delay on/off at
//!    five fixed positions, and continues each one twice: on a new
//!    machine, and through `Processor::restore_into` on a machine that
//!    already ran another window (and, where the scheme has an NRR, was
//!    just restored to a snapshot taken at half that NRR). Both must
//!    match the uninterrupted run, and each other's observer.

use proptest::prelude::*;
use std::path::PathBuf;
use vpr_bench::workloads::{scheme_label, THROUGHPUT_SCHEMES};
use vpr_bench::ExperimentConfig;
use vpr_core::{Processor, RenameScheme, SimConfig, SimObserver};
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

/// Where the grid checkpoints the uninterrupted run (committed
/// instructions), and how far each continuation runs past its checkpoint.
const GRID_POSITIONS: [u64; 5] = [300, 1_100, 1_900, 2_700, 3_500];
const GRID_TAIL: u64 = 1_500;

#[test]
fn every_grid_checkpoint_restores_fresh_and_into_a_used_machine() {
    let exp = ExperimentConfig {
        seed: 7,
        ..ExperimentConfig::quick()
    };
    for vp_commit_delay in [false, true] {
        for benchmark in [Benchmark::Swim, Benchmark::Go, Benchmark::Wave5] {
            for scheme in THROUGHPUT_SCHEMES {
                let label = format!(
                    "{benchmark}/{} (commit delay {vp_commit_delay})",
                    scheme_label(scheme)
                );
                // One uninterrupted run takes every checkpoint and notes
                // where every continuation must end.
                let mut marks: Vec<(u64, usize, bool)> = GRID_POSITIONS
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &at)| [(at, i, true), (at + GRID_TAIL, i, false)])
                    .collect();
                marks.sort_unstable();
                let mut reference = quick_processor(benchmark, scheme, &exp, vp_commit_delay);
                let mut snapshots = vec![None; GRID_POSITIONS.len()];
                let mut ends = vec![None; GRID_POSITIONS.len()];
                for (target, i, is_checkpoint) in marks {
                    reference.run_to_commit(target);
                    if is_checkpoint {
                        snapshots[i] = Some(reference.snapshot());
                    } else {
                        ends[i] = Some((reference.stats(), reference.cycle()));
                    }
                }
                // A decoy of the same benchmark at half the NRR, so that
                // each real `restore_into` starts from another
                // configuration.
                let decoy = scheme.nrr().map(|nrr| {
                    let half = match scheme {
                        RenameScheme::VirtualPhysicalIssue { .. } => {
                            RenameScheme::VirtualPhysicalIssue { nrr: nrr / 2 }
                        }
                        _ => RenameScheme::VirtualPhysicalWriteback { nrr: nrr / 2 },
                    };
                    let mut cpu = quick_processor(benchmark, half, &exp, vp_commit_delay);
                    cpu.run_to_commit(GRID_POSITIONS[2]);
                    cpu.snapshot()
                });
                let trace = || TraceBuilder::new(benchmark).seed(exp.seed).build();
                let restore = |snapshot: &Snapshot| {
                    Processor::<TraceGen, SimObserver>::restore_with(
                        snapshot,
                        trace(),
                        SimObserver::new(),
                    )
                    .expect("restore")
                };
                // The used machine first runs the last window, so its
                // first restore goes back in time.
                let last = GRID_POSITIONS.len() - 1;
                let mut used = restore(snapshots[last].as_ref().unwrap());
                used.run_to_commit(GRID_POSITIONS[last] + GRID_TAIL);
                for (i, &at) in GRID_POSITIONS.iter().enumerate() {
                    let snapshot = snapshots[i].as_ref().unwrap();
                    let end = ends[i].clone().unwrap();
                    let mut fresh = restore(snapshot);
                    fresh.run_to_commit(at + GRID_TAIL);
                    assert_eq!(
                        (fresh.stats(), fresh.cycle()),
                        end,
                        "{label}: fresh restore at {at}"
                    );
                    if let Some(decoy) = &decoy {
                        used.restore_into(decoy).expect("decoy restores");
                    }
                    used.restore_into(snapshot).expect("restore_into");
                    assert_eq!(used.config(), reference.config(), "{label}");
                    used.run_to_commit(at + GRID_TAIL);
                    assert_eq!(
                        (used.stats(), used.cycle()),
                        end,
                        "{label}: restore_into at {at}"
                    );
                    assert_eq!(
                        used.observer().metrics,
                        fresh.observer().metrics,
                        "{label}: observer after restore_into at {at}"
                    );
                }
            }
        }
    }
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
