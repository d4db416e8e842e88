//! The corruption matrix: every structural region of a `.vprsnap`
//! artefact — magic, format version, checksum, payload length, payload
//! bytes — plus the manifest itself is deliberately damaged, and every
//! damaged load must come back as a **typed error**, never a panic. A
//! corrupt artefact is additionally quarantined (renamed to `*.corrupt`)
//! so a regenerated replacement can be written under the original name,
//! and regeneration restores a loadable store — the quarantine-and-
//! regenerate half of the crash-safety contract (`docs/robustness.md`).

use std::path::PathBuf;
use vpr_bench::checkpoints::{
    checkpoint_key, config_hash, generate_checkpoints, sim_config, CheckpointLoadError,
    CheckpointStore, KIND_WARM,
};
use vpr_bench::ExperimentConfig;
use vpr_core::RenameScheme;
use vpr_snap::manifest::MANIFEST_FILE;
use vpr_trace::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-corruption-matrix-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_exp() -> ExperimentConfig {
    ExperimentConfig {
        warmup: 300,
        measure: 1_500,
        ..ExperimentConfig::quick()
    }
}

/// Builds a one-artefact store and returns `(dir, artefact path, key,
/// config hash)`.
fn seeded_store(tag: &str) -> (PathBuf, PathBuf, vpr_snap::manifest::CheckpointKey, u64) {
    let exp = quick_exp();
    let dir = temp_dir(tag);
    let benchmark = Benchmark::Li;
    let scheme = RenameScheme::Conventional;
    let generated = generate_checkpoints(benchmark, scheme, 64, &exp, None).checkpoints;
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.save_all(&generated).unwrap();
    store.flush().unwrap();
    let key = checkpoint_key(benchmark, scheme, 64, &exp, KIND_WARM, exp.warmup);
    let hash = config_hash(benchmark, &sim_config(scheme, 64, &exp), exp.seed);
    let file = dir.join(&store.manifest.find(&key).unwrap().file);
    (dir, file, key, hash)
}

/// Every structural region of the envelope, bit-flipped and truncated:
/// typed `Corrupt` error + quarantine, never a panic, and a regenerated
/// artefact loads cleanly afterwards.
#[test]
fn every_envelope_region_fails_typed_and_quarantines() {
    // [8B magic][4B version][8B checksum][8B payload len][payload...]
    let regions: &[(&str, usize)] = &[
        ("magic", 0),
        ("version", 8),
        ("checksum", 12),
        ("payload-len", 20),
        ("payload-first", 28),
    ];
    let (dir, file, key, hash) = seeded_store("regions");
    let pristine = std::fs::read(&file).unwrap();
    assert!(
        pristine.len() > 28,
        "artefact too small to exercise the matrix"
    );
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for &(name, offset) in regions {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x01;
        cases.push((format!("flip:{name}"), bytes));
    }
    // The final payload byte (checksum coverage reaches the end).
    let mut tail = pristine.clone();
    *tail.last_mut().unwrap() ^= 0x80;
    cases.push(("flip:payload-last".into(), tail));
    // Truncations: empty file, mid-magic, header-only, mid-payload.
    for &cut in &[0usize, 5, 28, pristine.len() - 3] {
        cases.push((format!("truncate:{cut}"), pristine[..cut].to_vec()));
    }

    let store = CheckpointStore::open(&dir).unwrap();
    for (case, bytes) in cases {
        std::fs::write(&file, &bytes).unwrap();
        match store.load(&key, hash) {
            Err(CheckpointLoadError::Corrupt {
                path,
                quarantined_to,
                detail,
            }) => {
                assert_eq!(path, file, "{case}");
                let q = quarantined_to.unwrap_or_else(|| panic!("{case}: no quarantine"));
                assert!(q.exists(), "{case}: quarantined file must survive");
                assert!(!file.exists(), "{case}: corrupt file must be moved away");
                assert!(!detail.is_empty(), "{case}: empty detail");
                std::fs::remove_file(&q).unwrap();
            }
            Err(other) => panic!("{case}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{case}: corrupt artefact loaded"),
        }
    }

    // Quarantine-and-regenerate: write the artefact set afresh and the
    // store serves it again under the original name.
    let exp = quick_exp();
    let generated =
        generate_checkpoints(Benchmark::Li, RenameScheme::Conventional, 64, &exp, None).checkpoints;
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.save_all(&generated).unwrap();
    store.flush().unwrap();
    assert!(
        store.load(&key, hash).is_ok(),
        "regenerated artefact must load"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest whose *entry* lies about its artefact (tampered payload
/// checksum) is a typed corruption, not a panic, and the artefact is
/// quarantined for regeneration.
#[test]
fn tampered_manifest_entry_is_typed_corruption() {
    let (dir, file, key, hash) = seeded_store("entry");
    let manifest_path = dir.join(MANIFEST_FILE);
    let json = std::fs::read_to_string(&manifest_path).unwrap();
    // Nudge the recorded payload checksum: the envelope still validates,
    // the manifest row no longer matches it.
    let store = CheckpointStore::open(&dir).unwrap();
    let recorded = store.manifest.find(&key).unwrap().payload_checksum;
    let tampered = json.replace(
        &format!("\"payload_checksum\": {recorded}"),
        &format!("\"payload_checksum\": {}", recorded.wrapping_add(1)),
    );
    assert_ne!(json, tampered, "tamper target not found in manifest JSON");
    std::fs::write(&manifest_path, tampered).unwrap();
    let store = CheckpointStore::open(&dir).unwrap();
    match store.load(&key, hash) {
        Err(CheckpointLoadError::Corrupt { quarantined_to, .. }) => {
            assert!(quarantined_to.is_some_and(|q| q.exists()));
            assert!(!file.exists());
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("tampered entry loaded"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A syntactically destroyed or truncated manifest: `open` reports a
/// typed I/O error naming the path, and `open_resilient` quarantines it
/// and opens the store empty with a degradation note.
#[test]
fn corrupt_manifest_opens_resilient_and_quarantines() {
    for (case, damage) in [
        ("garbage", b"{not json at all".to_vec()),
        ("truncated", b"{\"schema\": \"vpr-snap-ch".to_vec()),
        ("empty", Vec::new()),
    ] {
        let (dir, _file, _key, _hash) = seeded_store(&format!("manifest-{case}"));
        let manifest_path = dir.join(MANIFEST_FILE);
        std::fs::write(&manifest_path, &damage).unwrap();
        let err = CheckpointStore::open(&dir).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{case}: wrong error kind"
        );
        assert!(
            err.to_string().contains(MANIFEST_FILE),
            "{case}: error must name the manifest: {err}"
        );
        let (store, note) = CheckpointStore::open_resilient(&dir);
        assert!(store.manifest.entries.is_empty(), "{case}: store not empty");
        let note = note.unwrap_or_else(|| panic!("{case}: no degradation note"));
        assert!(note.contains("quarantined"), "{case}: note: {note}");
        assert!(!manifest_path.exists(), "{case}: manifest left in place");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
