//! The `checkpoints.json` manifest of a checkpoint directory.
//!
//! A checkpoint directory holds `.vprsnap` files — each one or more
//! serialised [`Snapshot`] envelopes written back to back — plus one
//! `checkpoints.json` describing every checkpoint: which
//! workload/configuration produced it, the file and byte offset its
//! envelope sits at, where in the committed instruction stream it stands,
//! the FNV-1a hash of the configuration it was taken under, and the
//! payload checksum of the envelope it points at.
//!
//! The manifest is the staleness gate: a loader looks an artefact up by
//! its experiment key ([`CheckpointKey`]), re-derives the configuration
//! hash from the configuration it is *about* to simulate, and rejects the
//! entry on any mismatch ([`ManifestError::StaleConfig`]) — a checkpoint
//! written under a different machine description, trace seed, or snapshot
//! format version is refused at load rather than silently reused. The
//! payload checksum likewise ties the manifest row to the exact bytes on
//! disk, so a regenerated `.vprsnap` with a stale manifest row (or vice
//! versa) is caught before a restore is attempted.
//!
//! The JSON schema (`vpr-snap-checkpoints/v1`) is hand-rolled like every
//! other artefact in this workspace, through [`crate::json`].
//!
//! [`Snapshot`]: crate::Snapshot

use crate::json::{self, Value};
use crate::FORMAT_VERSION;
use std::fmt;
use std::path::Path;

/// The experiment coordinates a checkpoint is filed under.
///
/// Two checkpoints are interchangeable only when **every** field agrees;
/// the benchmark and scheme are the human-readable labels the experiment
/// harness already uses in its JSON artefacts (e.g. `"swim"`,
/// `"vp-wb-nrr32"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointKey {
    /// Workload name (`Benchmark::name`).
    pub benchmark: String,
    /// Renaming-scheme label (`scheme_label`).
    pub scheme: String,
    /// Physical registers per class.
    pub physical_regs: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// L1 miss penalty in cycles.
    pub miss_penalty: u64,
    /// Warm-up length the checkpoint sits at the end of (committed
    /// instructions; for interval checkpoints, the warm-up of the run the
    /// serial pass started from).
    pub warmup: u64,
    /// Checkpoint kind: `"warm"` (one per configuration, at the end of
    /// warm-up) or `"interval"` (one per sampling-interval start).
    pub kind: String,
    /// Target committed-instruction position of the checkpoint (equals
    /// `warmup` for warm checkpoints; the interval start otherwise).
    pub target: u64,
}

/// One manifest row: a [`CheckpointKey`] plus the provenance needed to
/// validate the artefact it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The experiment coordinates.
    pub key: CheckpointKey,
    /// File name of the `.vprsnap` artefact, relative to the manifest.
    pub file: String,
    /// Byte position of the checkpoint's envelope inside `file` (`0` for a
    /// file holding one envelope; a row written without it reads as `0`).
    pub offset: u64,
    /// Achieved committed-instruction count at the snapshot (a run may
    /// overshoot its target by up to commit-width − 1).
    pub committed: u64,
    /// Machine cycle at the snapshot.
    pub cycle: u64,
    /// Trace-generator cursor (instructions emitted, including in-flight
    /// ones not yet committed) — the stream position the restore resumes
    /// from.
    pub trace_cursor: u64,
    /// FNV-1a hash of the serialised simulator configuration + workload
    /// identity the checkpoint was taken under.
    pub config_hash: u64,
    /// [`crate::payload_checksum`] of the artefact's snapshot payload
    /// (must match both the envelope on disk and the manifest to be
    /// loadable).
    pub payload_checksum: u64,
    /// Snapshot [`FORMAT_VERSION`] the artefact was written with.
    pub format_version: u32,
}

/// Why a manifest could not be read or an entry could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The manifest file is not parseable as the expected schema.
    Parse(String),
    /// The manifest names a schema this build does not understand.
    Schema(String),
    /// No entry matches the requested key.
    NotFound(String),
    /// An entry exists but was written under a different configuration.
    StaleConfig {
        /// Hash recorded in the manifest.
        recorded: u64,
        /// Hash derived from the configuration about to run.
        expected: u64,
    },
    /// An entry exists but was written by a different snapshot format.
    StaleFormat {
        /// Version recorded in the manifest.
        recorded: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The artefact's payload checksum disagrees with the manifest row.
    ChecksumMismatch {
        /// Checksum recorded in the manifest.
        recorded: u64,
        /// Checksum of the payload actually on disk.
        actual: u64,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Parse(what) => write!(f, "checkpoints.json: {what}"),
            ManifestError::Schema(s) => write!(f, "unsupported manifest schema {s:?}"),
            ManifestError::NotFound(key) => write!(f, "no checkpoint for {key}"),
            ManifestError::StaleConfig { recorded, expected } => write!(
                f,
                "stale checkpoint: manifest config hash {recorded:#018x} does not match \
                 the current configuration ({expected:#018x}) — regenerate with `checkpoint create`"
            ),
            ManifestError::StaleFormat { recorded, expected } => write!(
                f,
                "stale checkpoint: written by snapshot format v{recorded}, this build is v{expected}"
            ),
            ManifestError::ChecksumMismatch { recorded, actual } => write!(
                f,
                "checkpoint file does not match its manifest row \
                 (payload checksum {actual:#018x}, manifest says {recorded:#018x})"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// The parsed `checkpoints.json` of one checkpoint directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// All recorded artefacts, in creation order.
    pub entries: Vec<ManifestEntry>,
}

/// Schema identifier written into (and required of) every manifest.
pub const MANIFEST_SCHEMA: &str = "vpr-snap-checkpoints/v1";

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "checkpoints.json";

impl Manifest {
    /// Looks an entry up by key.
    pub fn find(&self, key: &CheckpointKey) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| &e.key == key)
    }

    /// Inserts or replaces the entry for `entry.key`.
    pub fn upsert(&mut self, entry: ManifestEntry) {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.key == entry.key) {
            *slot = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// Checks an entry against the configuration about to run, before its
    /// envelope is read: a row written by another snapshot format, or
    /// under another configuration, is stale — a valid artefact of a
    /// different build or experiment — whatever its envelope holds (an
    /// older build's envelope would not even decode).
    ///
    /// # Errors
    ///
    /// [`ManifestError::StaleFormat`] / [`ManifestError::StaleConfig`].
    pub fn check_fresh(
        entry: &ManifestEntry,
        expected_config_hash: u64,
    ) -> Result<(), ManifestError> {
        if entry.format_version != FORMAT_VERSION {
            return Err(ManifestError::StaleFormat {
                recorded: entry.format_version,
                expected: FORMAT_VERSION,
            });
        }
        if entry.config_hash != expected_config_hash {
            return Err(ManifestError::StaleConfig {
                recorded: entry.config_hash,
                expected: expected_config_hash,
            });
        }
        Ok(())
    }

    /// Validates an entry against the configuration about to run
    /// ([`Manifest::check_fresh`]) and the snapshot that was just read
    /// from disk.
    ///
    /// # Errors
    ///
    /// [`ManifestError::StaleConfig`] / [`ManifestError::StaleFormat`] /
    /// [`ManifestError::ChecksumMismatch`] as appropriate.
    pub fn validate(
        entry: &ManifestEntry,
        expected_config_hash: u64,
        payload_checksum: u64,
    ) -> Result<(), ManifestError> {
        Self::check_fresh(entry, expected_config_hash)?;
        if entry.payload_checksum != payload_checksum {
            return Err(ManifestError::ChecksumMismatch {
                recorded: entry.payload_checksum,
                actual: payload_checksum,
            });
        }
        Ok(())
    }

    /// Renders the manifest as `vpr-snap-checkpoints/v1` JSON.
    pub fn to_json(&self) -> String {
        let rows = json::row_array(self.entries.iter().map(|e| {
            format!(
                "{{\"benchmark\": \"{}\", \"scheme\": \"{}\", \"physical_regs\": {}, \
                 \"seed\": {}, \"miss_penalty\": {}, \"warmup\": {}, \"kind\": \"{}\", \
                 \"target\": {}, \"file\": \"{}\", \"offset\": {}, \"committed\": {}, \"cycle\": {}, \
                 \"trace_cursor\": {}, \"config_hash\": {}, \"payload_checksum\": {}, \
                 \"format_version\": {}}}",
                json::escape(&e.key.benchmark),
                json::escape(&e.key.scheme),
                e.key.physical_regs,
                e.key.seed,
                e.key.miss_penalty,
                e.key.warmup,
                json::escape(&e.key.kind),
                e.key.target,
                json::escape(&e.file),
                e.offset,
                e.committed,
                e.cycle,
                e.trace_cursor,
                e.config_hash,
                e.payload_checksum,
                e.format_version
            )
        }));
        format!("{{\n  \"schema\": \"{MANIFEST_SCHEMA}\",\n  \"checkpoints\": {rows}\n}}\n")
    }

    /// Parses a manifest previously written by [`Manifest::to_json`].
    ///
    /// # Errors
    ///
    /// [`ManifestError::Parse`] on malformed JSON,
    /// [`ManifestError::Schema`] on an unknown schema string.
    pub fn from_json(text: &str) -> Result<Self, ManifestError> {
        let value = json::parse(text).map_err(ManifestError::Parse)?;
        let obj = value
            .as_object()
            .ok_or_else(|| ManifestError::Parse("top level is not an object".into()))?;
        let schema = obj
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| ManifestError::Parse("missing schema".into()))?;
        if schema != MANIFEST_SCHEMA {
            return Err(ManifestError::Schema(schema.to_string()));
        }
        let rows = obj
            .get("checkpoints")
            .and_then(Value::as_array)
            .ok_or_else(|| ManifestError::Parse("missing checkpoints array".into()))?;
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let row = row
                .as_object()
                .ok_or_else(|| ManifestError::Parse("checkpoint row is not an object".into()))?;
            let str_field = |name: &str| -> Result<String, ManifestError> {
                row.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| ManifestError::Parse(format!("missing string field {name}")))
            };
            let num_field = |name: &str| -> Result<u64, ManifestError> {
                row.get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ManifestError::Parse(format!("missing numeric field {name}")))
            };
            entries.push(ManifestEntry {
                key: CheckpointKey {
                    benchmark: str_field("benchmark")?,
                    scheme: str_field("scheme")?,
                    physical_regs: num_field("physical_regs")?,
                    seed: num_field("seed")?,
                    miss_penalty: num_field("miss_penalty")?,
                    warmup: num_field("warmup")?,
                    kind: str_field("kind")?,
                    target: num_field("target")?,
                },
                file: str_field("file")?,
                offset: match row.get("offset") {
                    None => 0,
                    Some(_) => num_field("offset")?,
                },
                committed: num_field("committed")?,
                cycle: num_field("cycle")?,
                trace_cursor: num_field("trace_cursor")?,
                config_hash: num_field("config_hash")?,
                payload_checksum: num_field("payload_checksum")?,
                format_version: u32::try_from(num_field("format_version")?)
                    .map_err(|_| ManifestError::Parse("format_version overflows u32".into()))?,
            });
        }
        Ok(Self { entries })
    }

    /// Reads `checkpoints.json` from a checkpoint directory. A missing
    /// file is an empty manifest (the directory is merely not populated
    /// yet); a present-but-malformed file is an error.
    ///
    /// # Errors
    ///
    /// I/O errors other than `NotFound` (naming the path), plus
    /// [`ManifestError`] wrapped as `InvalidData`.
    pub fn load(dir: &Path) -> std::io::Result<Self> {
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("reading {}: {e}", path.display()),
                ))
            }
        };
        crate::faults::on_read(&path, &mut bytes)?;
        let text = String::from_utf8(bytes).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: {}",
                    path.display(),
                    ManifestError::Parse("not UTF-8".into())
                ),
            )
        })?;
        Self::from_json(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Writes `checkpoints.json` into a checkpoint directory (creating the
    /// directory if needed), crash-safely (see [`crate::atomic_write`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        crate::atomic_write(&dir.join(MANIFEST_FILE), self.to_json().as_bytes())
    }
}

/// [`crate::json::parse`] and [`crate::json::Value`] under the names the
/// benchmark harness in `perfbench/` imports.
pub use crate::json::{parse as parse_json, Value as JsonValue};

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &str, kind: &str, target: u64) -> ManifestEntry {
        ManifestEntry {
            key: CheckpointKey {
                benchmark: bench.into(),
                scheme: "vp-wb-nrr32".into(),
                physical_regs: 64,
                seed: 42,
                miss_penalty: 50,
                warmup: 2_000,
                kind: kind.into(),
                target,
            },
            file: format!("{bench}_vp-wb-nrr32_{kind}_{target}.vprsnap"),
            offset: 0,
            committed: target + 3,
            cycle: 12_345,
            trace_cursor: target + 40,
            config_hash: 0xdead_beef_cafe_f00d,
            payload_checksum: 0x0123_4567_89ab_cdef,
            format_version: FORMAT_VERSION,
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = Manifest::default();
        m.upsert(entry("swim", "warm", 2_000));
        m.upsert(entry("swim", "interval", 2_625));
        m.upsert(entry("go", "warm", 2_000));
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert!(back.find(&entry("swim", "interval", 2_625).key).is_some());
        assert!(back.find(&entry("swim", "interval", 9_999).key).is_none());
    }

    #[test]
    fn a_row_without_offset_reads_as_offset_zero() {
        let mut m = Manifest::default();
        let mut packed = entry("swim", "interval", 2_625);
        packed.offset = 21_467;
        m.upsert(entry("swim", "warm", 2_000));
        m.upsert(packed);
        let json = m.to_json();
        assert!(json.contains("\"offset\": 21467"), "{json}");
        let old_layout = json.replace(", \"offset\": 0", "");
        assert_eq!(old_layout.matches("\"offset\"").count(), 1);
        assert_eq!(Manifest::from_json(&old_layout).unwrap(), m);
    }

    #[test]
    fn upsert_replaces_by_key() {
        let mut m = Manifest::default();
        m.upsert(entry("swim", "warm", 2_000));
        let mut replacement = entry("swim", "warm", 2_000);
        replacement.payload_checksum = 7;
        m.upsert(replacement.clone());
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.entries[0], replacement);
    }

    #[test]
    fn validation_rejects_stale_entries() {
        let e = entry("swim", "warm", 2_000);
        assert_eq!(
            Manifest::validate(&e, e.config_hash, e.payload_checksum),
            Ok(())
        );
        assert!(matches!(
            Manifest::validate(&e, e.config_hash ^ 1, e.payload_checksum),
            Err(ManifestError::StaleConfig { .. })
        ));
        assert!(matches!(
            Manifest::validate(&e, e.config_hash, e.payload_checksum ^ 1),
            Err(ManifestError::ChecksumMismatch { .. })
        ));
        let mut old = e.clone();
        old.format_version = FORMAT_VERSION + 1;
        assert!(matches!(
            Manifest::validate(&old, e.config_hash, e.payload_checksum),
            Err(ManifestError::StaleFormat { .. })
        ));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Manifest::from_json("").is_err());
        assert!(Manifest::from_json("{}").is_err());
        assert!(
            Manifest::from_json("{\"schema\": \"something-else/v9\", \"checkpoints\": []}")
                .is_err()
        );
        assert!(Manifest::from_json(
            "{\"schema\": \"vpr-snap-checkpoints/v1\", \"checkpoints\": [{\"benchmark\": 3}]}"
        )
        .is_err());
        let empty =
            Manifest::from_json("{\"schema\": \"vpr-snap-checkpoints/v1\", \"checkpoints\": []}")
                .unwrap();
        assert!(empty.entries.is_empty());
    }

    #[test]
    fn load_of_missing_manifest_is_empty() {
        let dir = std::env::temp_dir().join("vpr-snap-manifest-test-absent");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Manifest::load(&dir).unwrap().entries.is_empty());
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = std::env::temp_dir().join("vpr-snap-manifest-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Manifest::default();
        m.upsert(entry("compress", "warm", 2_000));
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
