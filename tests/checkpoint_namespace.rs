//! One checkpoint namespace: every artefact is filed under the scheme
//! label of the configuration its pass ran, so the sets that `checkpoint
//! create`, exact sweeps and sampled sweeps write are one set. A
//! directory populated the way `checkpoint create --intervals` does
//! seeds a sampled run without a warm pass; a sampled run's deposits
//! seed an exact run without a miss; and no pass is ever filed twice.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use vpr_bench::checkpoints::{generate_checkpoints, CheckpointStore};
use vpr_bench::experiments::{fig4_for, table2_for};
use vpr_bench::{ExperimentConfig, SamplingPlan, SweepContext, Workload};
use vpr_core::RenameScheme;
use vpr_obs::{JobOutcome, RunTelemetry};
use vpr_trace::Benchmark;

fn swim() -> [Workload; 1] {
    [Benchmark::Swim.into()]
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vpr-checkpoint-namespace-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn files_in(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.count())
}

/// An artefact without its `sampling` provenance line, which names the
/// checkpoint directory and where the interval checkpoints came from.
fn without_provenance(json: &str) -> String {
    json.lines()
        .filter(|l| !l.trim_start().starts_with("\"sampling\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn warm_pass_misses(telemetry: &RunTelemetry) -> usize {
    telemetry
        .points
        .iter()
        .filter(|p| p.stage == "warm-pass" && p.outcome == JobOutcome::CacheMiss)
        .count()
}

#[test]
fn a_created_directory_seeds_a_sampled_run_without_a_warm_pass() {
    let exp = ExperimentConfig::quick();
    let dir = temp_dir("create");
    let plan = SamplingPlan::for_experiment(&exp);
    let mut store = CheckpointStore::open(&dir).unwrap();
    for scheme in [
        RenameScheme::Conventional,
        RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
    ] {
        let generated =
            generate_checkpoints(Benchmark::Swim, scheme, 64, &exp, Some(&plan)).checkpoints;
        store.save_all(&generated).unwrap();
    }
    store.flush().unwrap();
    let files = files_in(&dir);

    let seeded = table2_for(&swim(), &exp, &SweepContext::new(true, Some(&dir)));
    let json = seeded.to_json();
    assert!(
        json.contains("\"seeded_from\": \"checkpoint-dir\""),
        "{json}"
    );
    assert_eq!(warm_pass_misses(&seeded.telemetry), 0);
    assert_eq!(files_in(&dir), files, "a seeded run writes no file");

    let dirless = table2_for(&swim(), &exp, &SweepContext::new(true, None));
    assert_eq!(
        without_provenance(&json),
        without_provenance(&dirless.to_json())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sampled_runs_deposits_seed_an_exact_run_without_a_miss() {
    let exp = ExperimentConfig::quick();
    let dir = temp_dir("deposit");
    let sampled = table2_for(&swim(), &exp, &SweepContext::new(true, Some(&dir)));
    assert!(sampled.failures.is_empty(), "{:?}", sampled.failures);

    let exact = table2_for(&swim(), &exp, &SweepContext::new(false, Some(&dir)));
    assert_eq!(exact.telemetry.checkpoint_misses, 0);
    assert_eq!(exact.telemetry.checkpoint_hits, 2);
    let dirless = table2_for(&swim(), &exp, &SweepContext::exact());
    assert_eq!(exact.to_json(), dirless.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sampled_nrr_sweep_files_each_pass_once() {
    let exp = ExperimentConfig::quick();
    let dir = temp_dir("fig4");
    let swept = fig4_for(&swim(), &exp, &SweepContext::new(true, Some(&dir)));
    assert!(swept.failures.is_empty(), "{:?}", swept.failures);

    let store = CheckpointStore::open(&dir).unwrap();
    assert!(!store.manifest.entries.is_empty());
    let mut seen = HashSet::new();
    for e in &store.manifest.entries {
        assert!(
            seen.insert((e.config_hash, e.key.kind.clone(), e.key.target)),
            "{} is filed twice",
            e.file
        );
    }
    // One pack per configuration: conventional and six NRR values.
    let packs: HashSet<&str> = store
        .manifest
        .entries
        .iter()
        .map(|e| e.file.as_str())
        .collect();
    assert_eq!(packs.len(), 7, "{packs:?}");
    let on_disk = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|f| f.as_ref().unwrap().path().extension() == Some("vprsnap".as_ref()))
        .count();
    assert_eq!(on_disk, 7);

    // Every point of a rerun restores its own set from the directory.
    let rerun = fig4_for(&swim(), &exp, &SweepContext::new(true, Some(&dir)));
    let json = rerun.to_json();
    assert!(
        json.contains("\"seeded_from\": \"checkpoint-dir\""),
        "{json}"
    );
    assert_eq!(warm_pass_misses(&rerun.telemetry), 0);
    assert_eq!(
        without_provenance(&json),
        without_provenance(&swept.to_json())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
