//! `.vprsnap` files as experiment artefacts: write → reload → run must
//! equal the uninterrupted run **bit-identically**, and stale artefacts
//! must be rejected at load.
//!
//! Three layers:
//!
//! 1. `warm_checkpoint_through_disk_matches_golden` pushes a warm
//!    checkpoint through the full disk workflow (serial pass → `.vprsnap`
//!    file + manifest → reopen → validate → restore → run) for **all four
//!    renaming schemes** and holds the continuation to the same checked-in
//!    golden `SimStats` the optimised kernel is pinned by.
//! 2. `stale_and_corrupt_artefacts_are_rejected` exercises the manifest's
//!    staleness gates end to end: wrong configuration hash, edited file
//!    bytes, manifest/file mismatch.
//! 3. `sampled_sweep_is_deterministic_and_reuses_disk_checkpoints` pins
//!    the `--sampled` path: metrics are byte-identical across worker
//!    counts and across the warm-pass vs checkpoint-dir seeding paths.
//! 4. `exact_sweep_deposits_then_restores_warm_checkpoints` pins the exact
//!    path through a directory: a cold sweep deposits every point's warm
//!    checkpoint, a warm sweep restores them all, and both match the
//!    storeless sweep bit for bit, `metrics` block included.

use std::path::PathBuf;
use vpr_bench::checkpoints::{
    checkpoint_key, config_hash, generate_checkpoints, sim_config, CheckpointStore, KIND_WARM,
};
use vpr_bench::sweep::{run_sweep_metrics, SweepContext, SweepPoint};
use vpr_bench::workloads::{scheme_label, THROUGHPUT_SCHEMES};
use vpr_bench::ExperimentConfig;
use vpr_core::{Processor, RenameScheme};
use vpr_snap::manifest::ManifestError;
use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-checkpoint-files-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Warm checkpoint → `.vprsnap` on disk → reload → measure: equals the
/// golden stats of the uninterrupted run, for every scheme.
#[test]
fn warm_checkpoint_through_disk_matches_golden() {
    let exp = ExperimentConfig::quick();
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let dir = temp_dir("golden");
    let benchmark = Benchmark::Swim;

    let mut store = CheckpointStore::open(&dir).unwrap();
    for scheme in THROUGHPUT_SCHEMES {
        let generated = generate_checkpoints(benchmark, scheme, 64, &exp, None);
        store.save_all(&generated).unwrap();
    }
    store.flush().unwrap();

    // Reopen from disk cold and continue each scheme's run.
    let reopened = CheckpointStore::open(&dir).unwrap();
    for scheme in THROUGHPUT_SCHEMES {
        let config = sim_config(scheme, 64, &exp);
        let hash = config_hash(benchmark, &config, exp.seed);
        let key = checkpoint_key(benchmark, scheme, 64, &exp, KIND_WARM, exp.warmup);
        let (entry, snapshot) = reopened.load(&key, hash).unwrap_or_else(|e| {
            panic!("{}: {e}", scheme_label(scheme));
        });
        assert!(entry.committed >= exp.warmup);
        let fresh = TraceBuilder::new(benchmark).seed(exp.seed).build();
        let mut cpu: Processor<TraceGen> = Processor::restore(&snapshot, fresh).expect("restore");
        cpu.reset_window();
        let stats = cpu.run(exp.measure);
        let rendered = format!("{stats:#?}\n");
        let path = golden_dir.join(format!("{}_{}.txt", benchmark.name(), scheme_label(scheme)));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            rendered,
            golden,
            "{}/{}: disk-restored run diverged from the uninterrupted golden",
            benchmark.name(),
            scheme_label(scheme)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The staleness gates: config-hash mismatch, corrupt file bytes, and a
/// file/manifest checksum disagreement all refuse to load.
#[test]
fn stale_and_corrupt_artefacts_are_rejected() {
    let exp = ExperimentConfig {
        warmup: 400,
        measure: 2_000,
        ..ExperimentConfig::quick()
    };
    let dir = temp_dir("stale");
    let benchmark = Benchmark::Go;
    let scheme = RenameScheme::Conventional;

    let generated = generate_checkpoints(benchmark, scheme, 64, &exp, None);
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.save_all(&generated).unwrap();
    store.flush().unwrap();

    let store = CheckpointStore::open(&dir).unwrap();
    let config = sim_config(scheme, 64, &exp);
    let hash = config_hash(benchmark, &config, exp.seed);
    let key = checkpoint_key(benchmark, scheme, 64, &exp, KIND_WARM, exp.warmup);
    assert!(store.load(&key, hash).is_ok());

    // A run under a different configuration derives a different hash and
    // must see the artefact as stale.
    let other_config = sim_config(scheme, 96, &exp);
    let other_hash = config_hash(benchmark, &other_config, exp.seed);
    assert_ne!(hash, other_hash);
    assert!(matches!(
        store.load(&key, other_hash).unwrap_err(),
        vpr_bench::checkpoints::CheckpointLoadError::Manifest(ManifestError::StaleConfig { .. })
    ));

    // Flip one payload byte on disk: the envelope checksum catches it,
    // and the torn file is quarantined so a regenerated artefact can take
    // its place.
    let entry = store.manifest.find(&key).unwrap();
    let file = dir.join(&entry.file);
    let mut bytes = std::fs::read(&file).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&file, &bytes).unwrap();
    match store.load(&key, hash).unwrap_err() {
        vpr_bench::checkpoints::CheckpointLoadError::Corrupt {
            path,
            quarantined_to,
            ..
        } => {
            assert_eq!(path, file);
            let q = quarantined_to.expect("quarantine rename succeeds in a temp dir");
            assert!(q.exists(), "quarantined file kept for inspection");
            assert!(!file.exists(), "corrupt file moved out of the way");
        }
        other => panic!("expected Corrupt, got {other}"),
    }

    // Rewrite the file as a *valid but different* snapshot: the manifest's
    // recorded payload checksum no longer matches — same quarantine-and-
    // regenerate treatment as a torn envelope.
    let different = vpr_snap::Snapshot::new(vec![1, 2, 3]);
    different.write_to(&file).unwrap();
    match store.load(&key, hash).unwrap_err() {
        vpr_bench::checkpoints::CheckpointLoadError::Corrupt { detail, .. } => {
            assert!(detail.contains("checksum"), "unexpected detail: {detail}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampled sweep path is deterministic across worker counts, and
/// loading interval checkpoints from disk reproduces the in-memory
/// warm-pass numbers byte-for-byte.
#[test]
fn sampled_sweep_is_deterministic_and_reuses_disk_checkpoints() {
    let exp = ExperimentConfig {
        warmup: 500,
        measure: 6_000,
        jobs: 1,
        ..ExperimentConfig::quick()
    };
    let points = [
        SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional),
        SweepPoint::at64(
            Benchmark::Go,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ),
    ];

    let serial = run_sweep_metrics(&points, &exp, &SweepContext::new(true, None));
    let mut exp_par = exp;
    exp_par.jobs = 4;
    let parallel = run_sweep_metrics(&points, &exp_par, &SweepContext::new(true, None));
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "jobs-invariant ipc");
        assert_eq!(a.miss_ratio.to_bits(), b.miss_ratio.to_bits());
        assert_eq!(
            a.executions_per_commit.to_bits(),
            b.executions_per_commit.to_bits()
        );
    }

    // First sampled run against an empty directory generates and persists
    // the checkpoints; the second must load them and agree exactly.
    let dir = temp_dir("sweep");
    let first = run_sweep_metrics(&points, &exp, &SweepContext::new(true, Some(&dir)));
    assert!(
        dir.join("checkpoints.json").exists(),
        "sampled sweep persists generated checkpoints"
    );
    let second = run_sweep_metrics(&points, &exp, &SweepContext::new(true, Some(&dir)));
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "disk-seeded ipc");
    }
    for (a, b) in serial.points.iter().zip(&second.points) {
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "warm-pass == disk-seeded");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An exact sweep over a checkpoint directory misses and deposits on the
/// cold run and restores every point on the warm one; the point metrics
/// and the `metrics` block (observer reset on the restore path included)
/// equal the sweep with no directory, for one worker and for three.
#[test]
fn exact_sweep_deposits_then_restores_warm_checkpoints() {
    let points = [
        SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional),
        SweepPoint::at64(Benchmark::Go, RenameScheme::ConventionalEarlyRelease),
        SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalIssue { nrr: 16 },
        ),
        SweepPoint {
            workload: Benchmark::Go.into(),
            scheme: RenameScheme::VirtualPhysicalWriteback { nrr: 16 },
            physical_regs: 48,
        },
    ];
    let n = points.len() as u64;
    for jobs in [1, 3] {
        let exp = ExperimentConfig {
            warmup: 400,
            measure: 3_000,
            jobs,
            ..ExperimentConfig::quick()
        };
        let plain = run_sweep_metrics(&points, &exp, &SweepContext::exact());
        let dir = temp_dir(&format!("exact-jobs{jobs}"));

        // A context per run: a shared one would answer the warm run from
        // its memo instead of the store.
        let cold = run_sweep_metrics(&points, &exp, &SweepContext::new(false, Some(&dir)));
        assert_eq!(
            (
                cold.telemetry.checkpoint_misses,
                cold.telemetry.checkpoint_hits
            ),
            (n, 0),
            "--jobs {jobs}: the cold sweep misses every point"
        );
        let deposited = CheckpointStore::open(&dir).unwrap().manifest.entries;
        assert_eq!(
            deposited.len(),
            points.len(),
            "one warm checkpoint per point"
        );
        assert!(deposited.iter().all(|e| e.key.kind == KIND_WARM));

        let warm = run_sweep_metrics(&points, &exp, &SweepContext::new(false, Some(&dir)));
        assert_eq!(
            (
                warm.telemetry.checkpoint_misses,
                warm.telemetry.checkpoint_hits
            ),
            (0, n),
            "--jobs {jobs}: the warm sweep restores every point"
        );

        for (run, tag) in [(&cold, "cold"), (&warm, "warm")] {
            assert!(run.failures.is_empty(), "{tag}: {:?}", run.failures);
            assert_eq!(run.telemetry.memo_hits, 0, "{tag}: simulated");
            for (i, (a, b)) in run.points.iter().zip(&plain.points).enumerate() {
                assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{tag} point {i} ipc");
                assert_eq!(a.miss_ratio.to_bits(), b.miss_ratio.to_bits());
                assert_eq!(
                    a.executions_per_commit.to_bits(),
                    b.executions_per_commit.to_bits()
                );
            }
            assert_eq!(
                run.metrics.to_json_value(),
                plain.metrics.to_json_value(),
                "--jobs {jobs} {tag}: metrics block"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
