//! One `.vprsnap` pack per warm pass: a sampled run writes exactly one
//! file per pass it ran, and a rerun reads them back without writing; a
//! bad envelope quarantines its whole pack, the run regenerates it
//! bit-identically, and every row into a quarantined pack leaves the
//! manifest; a directory written one envelope per file, with manifest
//! rows that carry no `offset`, still seeds a sampled run; the warm and
//! first interval checkpoint, one snapshot, are one envelope; a pack
//! that loses its last row is deleted; and an older build's directory is
//! refused as stale, not quarantined as corrupt, and regenerated.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::SystemTime;
use vpr_bench::checkpoints::{generate_checkpoints, key_config_hash, CheckpointStore, RowCheck};
use vpr_bench::experiments::{table2_for, Table2};
use vpr_bench::{ExperimentConfig, SamplingPlan, SweepContext, Workload};
use vpr_core::RenameScheme;
use vpr_obs::{JobOutcome, RunTelemetry};
use vpr_snap::manifest::MANIFEST_FILE;
use vpr_snap::FORMAT_VERSION;
use vpr_trace::Benchmark;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vpr-checkpoint-packs-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn swim_go() -> [Workload; 2] {
    [Benchmark::Swim.into(), Benchmark::Go.into()]
}

/// Every file of `dir` with its size and modification time.
fn listing(dir: &Path) -> BTreeMap<String, (u64, SystemTime)> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let meta = e.metadata().unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, (meta.len(), meta.modified().unwrap()))
        })
        .collect()
}

fn files_ending(dir: &Path, suffix: &str) -> Vec<String> {
    listing(dir)
        .into_keys()
        .filter(|name| name.ends_with(suffix))
        .collect()
}

fn warm_pass_misses(telemetry: &RunTelemetry) -> usize {
    telemetry
        .points
        .iter()
        .filter(|p| p.stage == "warm-pass" && p.outcome == JobOutcome::CacheMiss)
        .count()
}

/// An artefact from its `metrics` block on: the numbers, without the
/// provenance and `failures` lines that name the directory and its faults.
fn results(table: &Table2) -> String {
    let json = table.to_json();
    json[json.find("  \"metrics\":").expect("metrics block")..].to_string()
}

fn sampled(dir: Option<&Path>) -> Table2 {
    table2_for(
        &swim_go(),
        &ExperimentConfig::quick(),
        &SweepContext::new(true, dir),
    )
}

#[test]
fn a_sampled_run_writes_one_pack_per_warm_pass_and_a_rerun_writes_none() {
    let dir = temp_dir("one-per-pass");
    let cold = sampled(Some(&dir));
    assert!(cold.failures.is_empty(), "{:?}", cold.failures);
    let passes = warm_pass_misses(&cold.telemetry);
    assert_eq!(passes, 4, "conventional and vp-wb-nrr32 for swim and go");
    let packs = files_ending(&dir, ".vprsnap");
    assert_eq!(packs.len(), passes, "one file per warm pass: {packs:?}");
    let store = CheckpointStore::open(&dir).unwrap();
    for pack in &packs {
        let rows: Vec<_> = store
            .manifest
            .entries
            .iter()
            .filter(|e| &e.file == pack)
            .collect();
        assert_eq!(rows.len(), 49, "{pack}: the warm + 48 interval rows");
        let mut offsets: Vec<u64> = rows.iter().map(|e| e.offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), 48, "{pack}: warm@W is interval@W's envelope");
    }

    let before = listing(&dir);
    let warm = sampled(Some(&dir));
    assert!(warm.failures.is_empty(), "{:?}", warm.failures);
    assert!(
        warm.to_json()
            .contains("\"seeded_from\": \"checkpoint-dir\""),
        "{}",
        warm.to_json()
    );
    assert_eq!(warm_pass_misses(&warm.telemetry), 0);
    assert_eq!(listing(&dir), before, "a seeded run writes no file");

    let dirless = sampled(None);
    assert_eq!(results(&warm), results(&dirless));
    assert_eq!(results(&cold), results(&dirless));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_bad_envelope_quarantines_its_pack_and_the_run_regenerates_it() {
    let dir = temp_dir("bad-envelope");
    sampled(Some(&dir));
    let store = CheckpointStore::open(&dir).unwrap();
    let rows_before = store.manifest.entries.len();
    let pack = files_ending(&dir, ".vprsnap").remove(0);
    let mut offsets: Vec<u64> = store
        .manifest
        .entries
        .iter()
        .filter(|e| e.file == pack)
        .map(|e| e.offset)
        .collect();
    offsets.sort_unstable();
    // `warm@W` and `interval@W` share the first envelope.
    offsets.dedup();
    assert_eq!(offsets[0], 0, "a pack starts with its first envelope");
    // One payload byte of the second envelope.
    let path = dir.join(&pack);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = offsets[1] as usize + 28 + 100;
    assert!(at < offsets[2] as usize, "inside the second envelope");
    bytes[at] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let rerun = sampled(Some(&dir));
    assert_eq!(results(&rerun), results(&sampled(None)));
    let notes: Vec<_> = rerun
        .failures
        .iter()
        .map(|f| (f.stage, f.recovered))
        .collect();
    assert_eq!(notes, [("checkpoint-load", true)], "{:?}", rerun.failures);
    assert_eq!(
        warm_pass_misses(&rerun.telemetry),
        1,
        "only that pass reran"
    );
    assert_eq!(
        std::fs::read(dir.join(format!("{pack}.corrupt"))).unwrap(),
        bytes,
        "the whole pack is quarantined"
    );
    assert!(path.exists(), "the regenerated pack takes its name");

    // Repair then verify: nothing to drop, and every row loads.
    let mut store = CheckpointStore::open(&dir).unwrap();
    let checks = store.prune();
    assert_eq!(checks.len(), rows_before);
    assert!(
        checks.iter().all(|(_, c)| *c == RowCheck::Valid),
        "{checks:?}"
    );
    store.flush().unwrap();
    let store = CheckpointStore::open(&dir).unwrap();
    for e in &store.manifest.entries {
        let hash = key_config_hash(&e.key).unwrap();
        if let Err(err) = store.load(&e.key, hash) {
            panic!("{}: {err}", e.file);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repair_drops_every_row_of_a_torn_pack() {
    let exp = ExperimentConfig::quick();
    let plan = SamplingPlan::for_experiment(&exp);
    let dir = temp_dir("torn");
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
    let packs = files_ending(&dir, ".vprsnap");
    assert_eq!(packs.len(), 2, "one pack per configuration");
    // A torn final write: each pack loses its last 3 bytes, which belong
    // to its last envelope only.
    for pack in &packs {
        let path = dir.join(pack);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
    }

    let mut store = CheckpointStore::open(&dir).unwrap();
    let checks = store.prune();
    assert_eq!(checks.len(), 98);
    assert!(
        checks
            .iter()
            .all(|(_, c)| matches!(c, RowCheck::Dropped(_))),
        "every row of a quarantined pack goes: {checks:?}"
    );
    assert!(store.manifest.entries.is_empty());
    store.flush().unwrap();
    assert!(files_ending(&dir, ".vprsnap").is_empty());
    assert_eq!(files_ending(&dir, ".corrupt").len(), 2);
    assert!(CheckpointStore::open(&dir)
        .unwrap()
        .manifest
        .entries
        .is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_directory_with_one_envelope_per_file_still_seeds_a_sampled_run() {
    let exp = ExperimentConfig::quick();
    let plan = SamplingPlan::for_experiment(&exp);
    let dir = temp_dir("one-per-file");
    std::fs::create_dir_all(&dir).unwrap();
    // The layout written before packs: one envelope per file, named after
    // its key, and manifest rows without `offset`.
    let mut rows = Vec::new();
    for workload in swim_go() {
        for scheme in [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ] {
            for g in generate_checkpoints(workload, scheme, 64, &exp, Some(&plan)).checkpoints {
                let k = &g.key;
                let file = format!(
                    "{}_{}_{}r_s{}_mp{}_w{}_{}{}.vprsnap",
                    k.benchmark,
                    k.scheme,
                    k.physical_regs,
                    k.seed,
                    k.miss_penalty,
                    k.warmup,
                    k.kind,
                    k.target
                );
                g.snapshot.write_to(&dir.join(&file)).unwrap();
                rows.push(g.manifest_entry(file, 0));
            }
        }
    }
    let manifest = vpr_snap::manifest::Manifest { entries: rows };
    let json = manifest.to_json().replace(", \"offset\": 0", "");
    assert!(!json.contains("offset"));
    std::fs::write(dir.join(MANIFEST_FILE), json).unwrap();

    let before = listing(&dir);
    let seeded = sampled(Some(&dir));
    assert!(seeded.failures.is_empty(), "{:?}", seeded.failures);
    assert_eq!(warm_pass_misses(&seeded.telemetry), 0);
    assert!(seeded
        .to_json()
        .contains("\"seeded_from\": \"checkpoint-dir\""));
    assert_eq!(listing(&dir), before, "a seeded run writes no file");
    assert_eq!(results(&seeded), results(&sampled(None)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sampled_run_deletes_the_warm_only_packs_it_supersedes() {
    let dir = temp_dir("exact-then-sampled");
    let swim = [Workload::from(Benchmark::Swim)];
    let exp = ExperimentConfig::quick();
    let exact = table2_for(&swim, &exp, &SweepContext::new(false, Some(&dir)));
    assert!(exact.failures.is_empty(), "{:?}", exact.failures);
    let warm_only = files_ending(&dir, ".vprsnap");
    assert_eq!(warm_only.len(), 2, "conventional and vp-wb-nrr32");

    let cold = sampled_swim(&dir, &exp);
    let packs = files_ending(&dir, ".vprsnap");
    assert_eq!(packs.len(), 2, "no orphan pack: {packs:?}");
    assert!(packs.iter().all(|p| !warm_only.contains(p)), "{packs:?}");
    let store = CheckpointStore::open(&dir).unwrap();
    assert_eq!(store.manifest.entries.len(), 2 * 49);
    assert!(store
        .manifest
        .entries
        .iter()
        .all(|e| packs.contains(&e.file)));
    // The exact run's warm rows moved into the sampled packs, so a rerun
    // still seeds from the directory alone.
    let warm = sampled_swim(&dir, &exp);
    assert!(warm
        .to_json()
        .contains("\"seeded_from\": \"checkpoint-dir\""));
    assert_eq!(results(&warm), results(&cold));

    // Repair's sweep: a pack no row points at goes; the others stay.
    let stray = dir.join("stray.vprsnap");
    std::fs::copy(dir.join(&packs[0]), &stray).unwrap();
    assert_eq!(store.sweep_unreferenced(), [stray]);
    assert_eq!(files_ending(&dir, ".vprsnap"), packs);
    let _ = std::fs::remove_dir_all(&dir);
}

fn sampled_swim(dir: &Path, exp: &ExperimentConfig) -> Table2 {
    let table = table2_for(
        &[Benchmark::Swim.into()],
        exp,
        &SweepContext::new(true, Some(dir)),
    );
    assert!(table.failures.is_empty(), "{:?}", table.failures);
    table
}

#[test]
fn an_older_builds_directory_is_refused_as_stale_and_regenerated() {
    let dir = temp_dir("older-build");
    let exp = ExperimentConfig::quick();
    let fresh = sampled_swim(&dir, &exp);
    // Put every envelope and row one snapshot format behind, as an older
    // build left them: an envelope this build cannot even decode.
    let (current, older) = (FORMAT_VERSION, FORMAT_VERSION - 1);
    let store = CheckpointStore::open(&dir).unwrap();
    for pack in files_ending(&dir, ".vprsnap") {
        let path = dir.join(&pack);
        let mut bytes = std::fs::read(&path).unwrap();
        for e in store.manifest.entries.iter().filter(|e| e.file == pack) {
            let at = e.offset as usize + 8;
            bytes[at..at + 4].copy_from_slice(&older.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let row_version = |v: u32| format!("\"format_version\": {v}");
    assert_eq!(manifest.matches(&row_version(current)).count(), 2 * 49);
    let manifest = manifest.replace(&row_version(current), &row_version(older));
    std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();

    // Verify keeps every row as stale and condemns no pack.
    let mut store = CheckpointStore::open(&dir).unwrap();
    let checks = store.prune();
    assert_eq!(checks.len(), 2 * 49);
    assert!(
        checks.iter().all(|(_, c)| *c == RowCheck::Stale),
        "{checks:?}"
    );
    assert!(files_ending(&dir, ".corrupt").is_empty());

    // A run refuses the stale packs, quarantines nothing and regenerates
    // both passes, bit-identically.
    let rerun = table2_for(
        &[Benchmark::Swim.into()],
        &exp,
        &SweepContext::new(true, Some(&dir)),
    );
    assert_eq!(warm_pass_misses(&rerun.telemetry), 2);
    assert_eq!(rerun.failures.len(), 2, "{:?}", rerun.failures);
    for f in &rerun.failures {
        assert_eq!((f.stage, f.recovered), ("checkpoint-load", true));
        assert!(f.error.contains("stale checkpoint"), "{}", f.error);
    }
    assert!(
        files_ending(&dir, ".corrupt").is_empty(),
        "stale is not corrupt"
    );
    assert_eq!(results(&rerun), results(&fresh));
    let seeded = sampled_swim(&dir, &exp);
    assert!(seeded
        .to_json()
        .contains("\"seeded_from\": \"checkpoint-dir\""));
    let _ = std::fs::remove_dir_all(&dir);
}
