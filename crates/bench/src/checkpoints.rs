//! `.vprsnap` checkpoint artefacts: creation, storage, validated loading.
//!
//! A checkpoint directory turns warm-up work into a shared artefact: one
//! **warm** checkpoint per (workload, scheme, warm-up length) lets every
//! exact experiment skip its warm-up, and one **interval** checkpoint per
//! sampling-interval start — all taken during a *single warm serial pass*
//! per configuration — lets `--sampled` experiment runs seed each detailed
//! window from the exact machine state of the uninterrupted run instead of
//! functional re-warming (see [`crate::sampling`]).
//!
//! On disk, a directory holds one `.vprsnap` file per checkpoint (the
//! `vpr-snap` envelope, unchanged) plus a `checkpoints.json` manifest
//! ([`vpr_snap::manifest`]) recording for each artefact its experiment
//! key, the configuration hash it was taken under, its trace cursor, and
//! its payload checksum. Loading re-derives the configuration hash from
//! the configuration *about to run* and rejects any mismatch — stale
//! artefacts fail loudly at load, never silently skew an experiment.
//!
//! Every artefact is filed under the scheme label of the configuration
//! its pass ran. A sampled NRR sweep restores its family's pass at the
//! maximum NRR ([`pass_scheme`]), so `vp-wb-nrr16@64r` reads the
//! `vp-wb-nrr32` set — the same files `checkpoint create` and an exact
//! `vp-wb-nrr32` run write. One pass, one name.
//!
//! This module stores and validates artefacts; it runs no measurement.
//! Exact points restore (or deposit) their warm checkpoint through the
//! one job executor, [`crate::jobs::execute_job`], and sampled sweeps
//! seed their windows through [`crate::sampling`].
//!
//! The `checkpoint` binary is the user-facing face of this module:
//! `checkpoint create` populates a directory, `checkpoint inspect` lists
//! it, `checkpoint verify` re-validates every artefact (optionally
//! continuing each restored machine and comparing against a fresh
//! uninterrupted run).

use crate::sampling::SamplingPlan;
use crate::workloads::scheme_label;
use crate::workloads::Workload;
use crate::ExperimentConfig;
use std::path::{Path, PathBuf};
use vpr_core::{Processor, RenameScheme, SimConfig};
use vpr_snap::manifest::{CheckpointKey, Manifest, ManifestEntry, ManifestError};
use vpr_snap::{Snap as _, Snapshot};

/// Checkpoint kind label: taken at the end of warm-up.
pub const KIND_WARM: &str = "warm";
/// Checkpoint kind label: taken at a sampling-interval start.
pub const KIND_INTERVAL: &str = "interval";

/// The scheme whose warm serial pass a point restores — and so the
/// scheme every checkpoint of that pass is filed under. For a
/// virtual-physical scheme that shares its family's pass
/// ([`shares_group_pass`]), that is the same scheme at the
/// configuration's **maximum** NRR ([`SimConfig::max_nrr`]): the NRR is
/// an allocation-policy parameter only, so one warm pass per (benchmark,
/// seed, scheme family) serves every NRR value via
/// `Processor::retarget_nrr`. Every other scheme runs its own pass.
///
/// The shared NRR must be the maximum because re-targeting is only
/// sound *downward*: the §3.3 invariant `free ≥ NRR − Used` survives
/// shrinking the reserved set (removing a reserved slot removes at most
/// one allocated one) but not growing it — a machine warmed under a
/// small NRR may hold too few free registers to honour a larger reserved
/// set's guarantee.
pub fn pass_scheme(
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
) -> RenameScheme {
    if !shares_group_pass(scheme, physical_regs, exp) {
        return scheme;
    }
    let nrr = sim_config(scheme, physical_regs, exp).max_nrr();
    match scheme {
        RenameScheme::VirtualPhysicalIssue { .. } => RenameScheme::VirtualPhysicalIssue { nrr },
        RenameScheme::VirtualPhysicalWriteback { .. } => {
            RenameScheme::VirtualPhysicalWriteback { nrr }
        }
        other => other,
    }
}

/// Whether a point restores its family's shared canonical-NRR pass
/// instead of paying its own: true for NRR values within 4× of the
/// canonical (maximum) NRR. Deeper downshifts leave the canonical
/// trajectory's operating regime entirely — a machine re-targeted from
/// NRR 32 to NRR 1 settles into a register-re-execution equilibrium a
/// from-scratch NRR-1 run never enters, and no affordable re-warm span
/// escapes it (observed ≈ 22 % IPC bias on wave5) — so such points keep
/// their own serial pass and stay exact-seeded.
pub fn shares_group_pass(
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
) -> bool {
    match scheme.nrr() {
        Some(nrr) => nrr * 4 >= sim_config(scheme, physical_regs, exp).max_nrr(),
        None => false,
    }
}

/// True when two schemes belong to the same sharing family (equal up to
/// the NRR parameter).
pub fn same_family(a: RenameScheme, b: RenameScheme) -> bool {
    matches!(
        (a, b),
        (RenameScheme::Conventional, RenameScheme::Conventional)
            | (
                RenameScheme::ConventionalEarlyRelease,
                RenameScheme::ConventionalEarlyRelease
            )
            | (
                RenameScheme::VirtualPhysicalIssue { .. },
                RenameScheme::VirtualPhysicalIssue { .. }
            )
            | (
                RenameScheme::VirtualPhysicalWriteback { .. },
                RenameScheme::VirtualPhysicalWriteback { .. }
            )
    )
}

/// Builds the simulator configuration for one sweep point (the same
/// construction every experiment path uses).
pub fn sim_config(scheme: RenameScheme, physical_regs: usize, exp: &ExperimentConfig) -> SimConfig {
    SimConfig::builder()
        .scheme(scheme)
        .physical_regs(physical_regs)
        .miss_penalty(exp.miss_penalty)
        .build()
}

/// FNV-1a hash of everything a checkpoint's validity depends on besides
/// its position: the full serialised simulator configuration (scheme,
/// register files, cache geometry, latencies, …), the workload identity,
/// and the trace seed. Any change to any of those produces a different
/// hash, and the manifest's staleness gate refuses the artefact.
pub fn config_hash(workload: impl Into<Workload>, config: &SimConfig, seed: u64) -> u64 {
    let mut enc = vpr_snap::Encoder::new();
    config.save(&mut enc);
    enc.put_u64(seed);
    let mut bytes = enc.into_bytes();
    bytes.extend_from_slice(workload.into().name().as_bytes());
    vpr_snap::fnv1a(&bytes)
}

/// The manifest key of one checkpoint.
pub fn checkpoint_key(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    kind: &str,
    target: u64,
) -> CheckpointKey {
    CheckpointKey {
        benchmark: workload.into().name(),
        scheme: scheme_label(scheme),
        physical_regs: physical_regs as u64,
        seed: exp.seed,
        miss_penalty: exp.miss_penalty,
        warmup: exp.warmup,
        kind: kind.to_string(),
        target,
    }
}

/// File name a checkpoint is stored under (unique per key). Workload
/// names can contain `:` (`asm:matmul`), which is not portable in file
/// names — it becomes `-` on disk; the manifest key keeps the real name.
pub fn checkpoint_file_name(key: &CheckpointKey) -> String {
    format!(
        "{}_{}_{}r_s{}_mp{}_w{}_{}{}.vprsnap",
        key.benchmark.replace(':', "-"),
        key.scheme,
        key.physical_regs,
        key.seed,
        key.miss_penalty,
        key.warmup,
        key.kind,
        key.target
    )
}

/// One checkpoint produced by [`generate_checkpoints`]: its manifest key,
/// position metadata, and the snapshot itself (not yet on disk).
#[derive(Debug, Clone)]
pub struct GeneratedCheckpoint {
    /// The manifest key.
    pub key: CheckpointKey,
    /// Achieved committed-instruction position.
    pub committed: u64,
    /// Machine cycle at the snapshot.
    pub cycle: u64,
    /// Trace-generator cursor (instructions emitted).
    pub trace_cursor: u64,
    /// Hash of the configuration the pass ran under.
    pub config_hash: u64,
    /// The snapshot.
    pub snapshot: Snapshot,
}

impl GeneratedCheckpoint {
    /// The manifest row describing this checkpoint once written to `file`.
    pub fn manifest_entry(&self, file: String) -> ManifestEntry {
        ManifestEntry {
            key: self.key.clone(),
            file,
            committed: self.committed,
            cycle: self.cycle,
            trace_cursor: self.trace_cursor,
            config_hash: self.config_hash,
            payload_checksum: self.snapshot.checksum(),
            format_version: vpr_snap::FORMAT_VERSION,
        }
    }
}

/// Runs **one warm serial pass** for `(workload, scheme)` and checkpoints
/// it at every requested position: always at the end of warm-up
/// (`exp.warmup`, kind [`KIND_WARM`]) and — when a sampling plan is given —
/// at each of the plan's interval starts (kind [`KIND_INTERVAL`]).
///
/// The pass is the plain uninterrupted simulation, paused via
/// [`Processor::checkpoint_at_commits`]; restored continuations are
/// therefore bit-identical to never having paused (the contract
/// `tests/snapshot_roundtrip.rs` pins).
pub fn generate_checkpoints(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: Option<&SamplingPlan>,
) -> Vec<GeneratedCheckpoint> {
    let workload = workload.into();
    let config = sim_config(scheme, physical_regs, exp);
    let hash = config_hash(workload, &config, exp.seed);
    // Sorted unique targets, each mapping to the kinds checkpointed there.
    let mut targets: Vec<(u64, Vec<&str>)> = vec![(exp.warmup, vec![KIND_WARM])];
    if let Some(plan) = plan {
        for start in plan.starts() {
            match targets.iter_mut().find(|(t, _)| *t == start) {
                Some((_, kinds)) => kinds.push(KIND_INTERVAL),
                None => targets.push((start, vec![KIND_INTERVAL])),
            }
        }
    }
    targets.sort_by_key(|(t, _)| *t);
    let positions: Vec<u64> = targets.iter().map(|(t, _)| *t).collect();

    let mut cpu = Processor::new(config, workload.stream(exp.seed));
    let mut out = Vec::new();
    let mut at = 0usize;
    cpu.checkpoint_at_commits(&positions, |cpu, target| {
        let snapshot = cpu.snapshot();
        for kind in &targets[at].1 {
            out.push(GeneratedCheckpoint {
                key: checkpoint_key(workload, scheme, physical_regs, exp, kind, target),
                committed: cpu.absolute_committed(),
                cycle: cpu.cycle(),
                trace_cursor: cpu.trace().emitted(),
                config_hash: hash,
                snapshot: snapshot.clone(),
            });
        }
        at += 1;
    });
    out
}

/// A checkpoint directory opened for reading: the manifest plus the path
/// the `.vprsnap` files resolve against.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Directory the artefacts live in.
    pub dir: PathBuf,
    /// Its parsed manifest.
    pub manifest: Manifest,
}

/// Moves a torn/corrupt artefact out of the way by renaming it to
/// `<name>.corrupt` next to itself, so a regenerated replacement can take
/// its place and the evidence survives for post-mortem. Returns the
/// quarantine path, or `None` when the rename itself failed (read-only
/// directory, file already gone) — quarantine is best-effort and never
/// blocks recovery.
pub fn quarantine_artefact(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name()?.to_os_string();
    name.push(".corrupt");
    let dest = path.with_file_name(name);
    std::fs::rename(path, &dest).ok()?;
    Some(dest)
}

/// Why a checkpoint could not be loaded from a store.
#[derive(Debug)]
pub enum CheckpointLoadError {
    /// The manifest has no (valid) entry for the key.
    Manifest(ManifestError),
    /// The `.vprsnap` file could not be read (the error names the path).
    Io(std::io::Error),
    /// The `.vprsnap` file is torn, truncated, or corrupt — it failed
    /// envelope validation or disagrees with its manifest row — and has
    /// been quarantined (renamed to `*.corrupt`) so a regenerated artefact
    /// can take its place.
    Corrupt {
        /// The artefact that failed validation.
        path: PathBuf,
        /// Where it was moved, when the quarantine rename succeeded.
        quarantined_to: Option<PathBuf>,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointLoadError::Manifest(e) => write!(f, "{e}"),
            CheckpointLoadError::Io(e) => write!(f, "{e}"),
            CheckpointLoadError::Corrupt {
                path,
                quarantined_to,
                detail,
            } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())?;
                match quarantined_to {
                    Some(q) => write!(f, " (quarantined to {})", q.display()),
                    None => write!(f, " (quarantine failed; file left in place)"),
                }
            }
        }
    }
}

impl std::error::Error for CheckpointLoadError {}

impl CheckpointStore {
    /// Opens a checkpoint directory (an absent manifest reads as empty).
    ///
    /// # Errors
    ///
    /// I/O failures and malformed manifests.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest: Manifest::load(dir)?,
        })
    }

    /// Opens a checkpoint directory for a sweep that must survive a
    /// damaged store: a torn/corrupt `checkpoints.json` is quarantined
    /// (renamed to `checkpoints.json.corrupt`) and the store opens empty —
    /// every load then misses, callers regenerate from warm passes, and
    /// the degradation is reported through the returned note instead of
    /// aborting the sweep. Other I/O failures (permissions, not a
    /// directory) likewise degrade to an empty store with a note.
    pub fn open_resilient(dir: &Path) -> (Self, Option<String>) {
        match Self::open(dir) {
            Ok(store) => (store, None),
            Err(e) => {
                let note = if e.kind() == std::io::ErrorKind::InvalidData {
                    let manifest_path = dir.join(vpr_snap::manifest::MANIFEST_FILE);
                    match quarantine_artefact(&manifest_path) {
                        Some(q) => format!(
                            "corrupt manifest quarantined to {}; regenerating checkpoints: {e}",
                            q.display()
                        ),
                        None => format!(
                            "corrupt manifest (quarantine failed); regenerating checkpoints: {e}"
                        ),
                    }
                } else {
                    format!("checkpoint dir unusable; regenerating checkpoints: {e}")
                };
                (
                    Self {
                        dir: dir.to_path_buf(),
                        manifest: Manifest::default(),
                    },
                    Some(note),
                )
            }
        }
    }

    /// Writes generated checkpoints into the directory and records them in
    /// the in-memory manifest. Call [`CheckpointStore::flush`] afterwards
    /// to persist the manifest itself.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn save_all(&mut self, generated: &[GeneratedCheckpoint]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        for g in generated {
            let file = checkpoint_file_name(&g.key);
            g.snapshot.write_to(&self.dir.join(&file))?;
            self.manifest.upsert(g.manifest_entry(file));
        }
        Ok(())
    }

    /// Persists the manifest (`checkpoints.json`).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.manifest.store(&self.dir)
    }

    /// Loads and validates the checkpoint under `key` for a run whose
    /// configuration hashes to `expected_hash`: the manifest entry must
    /// exist, match the hash and snapshot format version, and the file's
    /// payload checksum must equal the manifest's record.
    ///
    /// # Errors
    ///
    /// [`CheckpointLoadError::Manifest`] for missing/stale entries,
    /// [`CheckpointLoadError::Io`] for unreadable files, and
    /// [`CheckpointLoadError::Corrupt`] for torn/corrupt artefacts —
    /// which are **quarantined** (renamed to `*.corrupt`) as a side
    /// effect, so the caller's regenerated replacement can be written
    /// under the original name.
    pub fn load(
        &self,
        key: &CheckpointKey,
        expected_hash: u64,
    ) -> Result<(ManifestEntry, Snapshot), CheckpointLoadError> {
        let entry = self.manifest.find(key).ok_or_else(|| {
            CheckpointLoadError::Manifest(ManifestError::NotFound(format!(
                "{}/{} {}@{}",
                key.benchmark, key.scheme, key.kind, key.target
            )))
        })?;
        let path = self.dir.join(&entry.file);
        let snapshot = Snapshot::read_from(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                // Torn or corrupt envelope: move it out of the way so the
                // caller's warm-pass regeneration replaces it cleanly.
                // The read error already names the path; Corrupt's
                // Display re-adds it, so strip the duplicate prefix.
                let msg = e.to_string();
                let prefix = format!("{}: ", path.display());
                let detail = msg.strip_prefix(&prefix).map(str::to_string).unwrap_or(msg);
                CheckpointLoadError::Corrupt {
                    quarantined_to: quarantine_artefact(&path),
                    path: path.clone(),
                    detail,
                }
            } else {
                CheckpointLoadError::Io(e)
            }
        })?;
        match Manifest::validate(entry, expected_hash, snapshot.checksum()) {
            Ok(()) => Ok((entry.clone(), snapshot)),
            // The envelope is internally consistent but does not hold the
            // payload the manifest row promised — same quarantine-and-
            // regenerate treatment as a torn file.
            Err(e @ ManifestError::ChecksumMismatch { .. }) => Err(CheckpointLoadError::Corrupt {
                quarantined_to: quarantine_artefact(&path),
                path,
                detail: e.to_string(),
            }),
            // Stale (config/format) entries are *valid* artefacts for a
            // different experiment: refuse them but leave them on disk.
            Err(e) => Err(CheckpointLoadError::Manifest(e)),
        }
    }

    /// Loads the full set of `scheme`'s interval checkpoints, in interval
    /// order — what a sampled sweep restores (for a family's shared pass,
    /// pass [`pass_scheme`]; the windows re-target it).
    ///
    /// # Errors
    ///
    /// The first checkpoint that is missing, stale or corrupt (see
    /// [`CheckpointStore::load`]); callers then fall back to generating
    /// the serial pass.
    pub fn load_interval_set(
        &self,
        workload: impl Into<Workload>,
        scheme: RenameScheme,
        physical_regs: usize,
        exp: &ExperimentConfig,
        plan: &SamplingPlan,
    ) -> Result<Vec<(u64, Snapshot)>, CheckpointLoadError> {
        let workload = workload.into();
        let config = sim_config(scheme, physical_regs, exp);
        let hash = config_hash(workload, &config, exp.seed);
        plan.starts()
            .into_iter()
            .map(|start| {
                let key =
                    checkpoint_key(workload, scheme, physical_regs, exp, KIND_INTERVAL, start);
                Ok((start, self.load(&key, hash)?.1))
            })
            .collect()
    }
}

/// How one sweep point's warm-up was satisfied — the raw material for the
/// run-telemetry checkpoint hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointOutcome {
    /// A valid warm checkpoint was restored.
    Hit,
    /// A store was available but held no usable artefact for this point;
    /// the warm-up was simulated.
    Miss,
    /// No checkpoint store was configured.
    NoStore,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::run_job;
    use crate::sweep::SweepPoint;
    use std::sync::Mutex;
    use vpr_core::NoObs;
    use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            warmup: 500,
            measure: 3_000,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn config_hash_tracks_configuration_and_workload() {
        let exp = quick();
        let base = sim_config(RenameScheme::Conventional, 64, &exp);
        let h = config_hash(Benchmark::Swim, &base, exp.seed);
        assert_eq!(h, config_hash(Benchmark::Swim, &base, exp.seed));
        assert_ne!(h, config_hash(Benchmark::Go, &base, exp.seed));
        assert_ne!(h, config_hash(Benchmark::Swim, &base, exp.seed + 1));
        let other = sim_config(RenameScheme::VirtualPhysicalWriteback { nrr: 32 }, 64, &exp);
        assert_ne!(h, config_hash(Benchmark::Swim, &other, exp.seed));
        let mp = sim_config(
            RenameScheme::Conventional,
            64,
            &ExperimentConfig {
                miss_penalty: 20,
                ..exp
            },
        );
        assert_ne!(h, config_hash(Benchmark::Swim, &mp, exp.seed));
    }

    #[test]
    fn warm_checkpoint_restores_to_the_uninterrupted_run() {
        let exp = quick();
        let generated =
            generate_checkpoints(Benchmark::Swim, RenameScheme::Conventional, 64, &exp, None);
        assert_eq!(generated.len(), 1);
        assert_eq!(generated[0].key.kind, KIND_WARM);
        assert!(generated[0].committed >= exp.warmup);

        let fresh = TraceBuilder::new(Benchmark::Swim).seed(exp.seed).build();
        let mut restored: Processor<TraceGen> =
            Processor::restore(&generated[0].snapshot, fresh).unwrap();
        restored.reset_window();
        let from_checkpoint = restored.run(exp.measure);
        let reference = crate::run_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp);
        assert_eq!(from_checkpoint, reference);
    }

    #[test]
    fn store_round_trips_and_rejects_stale_configs() {
        let exp = quick();
        let dir = std::env::temp_dir().join("vpr-bench-ckpt-store-test");
        let _ = std::fs::remove_dir_all(&dir);
        let generated =
            generate_checkpoints(Benchmark::Go, RenameScheme::Conventional, 64, &exp, None);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save_all(&generated).unwrap();
        store.flush().unwrap();

        let reopened = CheckpointStore::open(&dir).unwrap();
        let config = sim_config(RenameScheme::Conventional, 64, &exp);
        let hash = config_hash(Benchmark::Go, &config, exp.seed);
        let key = checkpoint_key(
            Benchmark::Go,
            RenameScheme::Conventional,
            64,
            &exp,
            KIND_WARM,
            exp.warmup,
        );
        let (entry, snapshot) = reopened.load(&key, hash).unwrap();
        assert_eq!(snapshot, generated[0].snapshot);
        assert_eq!(entry.committed, generated[0].committed);

        // A different configuration must be refused as stale.
        let stale = reopened.load(&key, hash ^ 1);
        assert!(matches!(
            stale,
            Err(CheckpointLoadError::Manifest(
                ManifestError::StaleConfig { .. }
            ))
        ));

        // A missing key is NotFound, not a panic.
        let mut other = key.clone();
        other.target += 1;
        assert!(matches!(
            reopened.load(&other, hash),
            Err(CheckpointLoadError::Manifest(ManifestError::NotFound(_)))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artefact_is_quarantined_and_run_degrades_to_exact() {
        let exp = quick();
        let dir = std::env::temp_dir().join("vpr-bench-ckpt-quarantine-test");
        let _ = std::fs::remove_dir_all(&dir);
        let generated =
            generate_checkpoints(Benchmark::Swim, RenameScheme::Conventional, 64, &exp, None);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save_all(&generated).unwrap();
        store.flush().unwrap();

        // Flip one payload byte on disk.
        let file = dir.join(checkpoint_file_name(&generated[0].key));
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&file, &bytes).unwrap();

        let reopened = CheckpointStore::open(&dir).unwrap();
        let config = sim_config(RenameScheme::Conventional, 64, &exp);
        let hash = config_hash(Benchmark::Swim, &config, exp.seed);
        let err = reopened.load(&generated[0].key, hash).unwrap_err();
        let CheckpointLoadError::Corrupt {
            path,
            quarantined_to,
            ..
        } = err
        else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert_eq!(path, file);
        let quarantined = quarantined_to.expect("rename succeeded");
        assert!(quarantined.to_string_lossy().ends_with(".corrupt"));
        assert!(quarantined.exists());
        assert!(!file.exists(), "corrupt file moved aside");

        // Re-plant the corrupt artefact: the job path must quarantine it
        // itself, degrade to the exact run with a note, and stay
        // bit-identical to never having had a checkpoint directory.
        std::fs::write(&file, &bytes).unwrap();
        let run = run_job(
            &SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional).job(&exp),
            Some(&Mutex::new(reopened)),
            NoObs,
        );
        assert!(run
            .load_note
            .expect("degradation surfaced")
            .contains("corrupt"));
        let reference = crate::run_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp);
        assert_eq!(run.stats, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_opens_resilient_as_empty_with_note() {
        let dir = std::env::temp_dir().join("vpr-bench-ckpt-resilient-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest_path = dir.join(vpr_snap::manifest::MANIFEST_FILE);
        std::fs::write(&manifest_path, b"{ this is not json").unwrap();

        assert!(CheckpointStore::open(&dir).is_err(), "strict open refuses");
        let (store, note) = CheckpointStore::open_resilient(&dir);
        assert!(store.manifest.entries.is_empty());
        assert!(note.expect("note recorded").contains("quarantined"));
        assert!(!manifest_path.exists(), "corrupt manifest moved aside");
        assert!(dir
            .join(format!("{}.corrupt", vpr_snap::manifest::MANIFEST_FILE))
            .exists());

        // A healthy (absent-manifest) directory opens with no note.
        let (_, no_note) = CheckpointStore::open_resilient(&dir);
        assert!(no_note.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_exact_run_falls_back_without_artifacts() {
        let exp = quick();
        let dir = std::env::temp_dir().join("vpr-bench-ckpt-fallback-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Mutex::new(CheckpointStore::open(&dir).unwrap());
        let with = run_job(
            &SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional).job(&exp),
            Some(&store),
            NoObs,
        );
        let without = crate::run_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp);
        assert_eq!(with.stats, without);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
