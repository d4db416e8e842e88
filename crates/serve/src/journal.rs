//! The write-ahead job journal (`jobs.wal`).
//!
//! Every job the daemon **acknowledges** is already on disk: `submit`
//! appends a `job` record and fsyncs before the acknowledgement leaves
//! the process, and every terminal outcome appends a `done`/`failed`
//! record the same way. On startup the daemon replays the journal:
//! records with a terminal outcome are served from the journal without
//! recomputation, everything else re-enters the queue. A crash —
//! SIGTERM, SIGKILL, power loss — therefore loses no accepted work and
//! recomputes no finished work.
//!
//! ### Append discipline
//!
//! The journal is append-only, one JSON record per line. Unlike the
//! artefact files (whole-file [`vpr_snap::atomic_write`]), a log cannot
//! be atomically replaced on every append, so it borrows the other half
//! of that discipline: write at a known offset, `fdatasync`, then **read
//! the tail back** and compare against the intended bytes. Only a
//! verified append is acknowledged; a torn or corrupted append (the
//! [`vpr_snap::faults::on_journal_append`] hook injects exactly these)
//! is truncated away and retried. An acknowledgement can therefore never
//! cover a record that would be unreadable on replay.
//!
//! ### Replay discipline
//!
//! Replay parses the journal line by line and keeps the longest valid
//! prefix. A torn tail — the one shape a crash between `write` and
//! `fsync` can leave, since appends are verified — is truncated off;
//! whatever it contained was never acknowledged.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vpr_bench::jobs::{JobOutput, JobSpec};
use vpr_snap::faults;
use vpr_snap::json::{self, Value};

/// File name of the journal inside the daemon's working directory.
pub const JOURNAL_FILE: &str = "jobs.wal";

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was accepted. Written (and fsynced) before the submit
    /// acknowledgement.
    Job {
        /// The daemon-assigned job id.
        id: u64,
        /// What to run.
        spec: JobSpec,
    },
    /// A job completed successfully.
    Done {
        /// The job id.
        id: u64,
        /// Its output (full round-trip precision).
        output: JobOutput,
    },
    /// A job exhausted its retry budget and degraded to a structured
    /// failure.
    Failed {
        /// The job id.
        id: u64,
        /// The terminal error.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl Record {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Record::Job { id, spec } => {
                format!(
                    "{{\"rec\": \"job\", \"id\": {id}, \"spec\": {}}}",
                    spec.to_json()
                )
            }
            Record::Done { id, output } => {
                format!(
                    "{{\"rec\": \"done\", \"id\": {id}, \"output\": {}}}",
                    output.to_json()
                )
            }
            Record::Failed {
                id,
                error,
                attempts,
            } => format!(
                "{{\"rec\": \"failed\", \"id\": {id}, \"attempts\": {attempts}, \
                 \"error\": \"{}\"}}",
                json::escape(error)
            ),
        }
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// Describes the malformed field; replay treats any error as the
    /// start of a torn tail.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let obj = v.as_object().ok_or("record must be a JSON object")?;
        let id = obj
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("record needs a numeric `id`")?;
        match obj.get("rec").and_then(Value::as_str) {
            Some("job") => Ok(Record::Job {
                id,
                spec: JobSpec::from_json(obj.get("spec").ok_or("job record needs `spec`")?)?,
            }),
            Some("done") => Ok(Record::Done {
                id,
                output: JobOutput::from_json(
                    obj.get("output").ok_or("done record needs `output`")?,
                )?,
            }),
            Some("failed") => Ok(Record::Failed {
                id,
                error: obj
                    .get("error")
                    .and_then(Value::as_str)
                    .ok_or("failed record needs `error`")?
                    .to_string(),
                attempts: obj
                    .get("attempts")
                    .and_then(Value::as_u64)
                    .ok_or("failed record needs `attempts`")? as u32,
            }),
            other => Err(format!("unknown record type {other:?}")),
        }
    }
}

/// The open journal: an append handle plus the verified length.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Bytes of verified (replayable) content; everything beyond is
    /// unacknowledged garbage to truncate.
    len: u64,
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// The valid records, in append order.
    pub records: Vec<Record>,
    /// Bytes of torn tail truncated away (0 on a clean journal).
    pub torn_bytes: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal in `dir` and replays it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the file. Torn content
    /// is not an error — it is truncated and reported in the [`Replay`].
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // Longest valid prefix: complete lines that parse as records.
        let mut replay = Replay::default();
        let mut good = 0usize;
        let mut cursor = 0usize;
        while cursor < bytes.len() {
            let Some(nl) = bytes[cursor..].iter().position(|&b| b == b'\n') else {
                break; // incomplete final line: torn
            };
            let line = &bytes[cursor..cursor + nl];
            match std::str::from_utf8(line)
                .ok()
                .and_then(|s| Record::parse(s).ok())
            {
                Some(rec) => {
                    replay.records.push(rec);
                    cursor += nl + 1;
                    good = cursor;
                }
                None => break, // torn or corrupt: cut here
            }
        }
        replay.torn_bytes = (bytes.len() - good) as u64;
        if replay.torn_bytes > 0 {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                path,
                file,
                len: good as u64,
            },
            replay,
        ))
    }

    /// The journal's path (fault plans target its name).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record durably: write, `fdatasync`, read back and
    /// verify. A corrupted or failed append (injected or real) is
    /// truncated away and retried once; only a verified append returns
    /// `Ok`.
    ///
    /// # Errors
    ///
    /// The append that could not be verified after the retry.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let canonical = {
            let mut l = record.to_line();
            l.push('\n');
            l.into_bytes()
        };
        let mut last_err: Option<std::io::Error> = None;
        for _attempt in 0..2 {
            // The fault hook sees (and may corrupt) the bytes about to be
            // written — the verification below must catch exactly that.
            let mut bytes = canonical.clone();
            if let Err(e) = faults::on_journal_append(&self.path, &mut bytes) {
                last_err = Some(e);
                continue;
            }
            let write = (|| -> std::io::Result<()> {
                self.file.seek(SeekFrom::Start(self.len))?;
                self.file.write_all(&bytes)?;
                self.file.sync_data()?;
                Ok(())
            })();
            if let Err(e) = write {
                let _ = self.rewind_to_len();
                last_err = Some(e);
                continue;
            }
            match self.tail_matches(&canonical) {
                Ok(true) => {
                    self.len += canonical.len() as u64;
                    return Ok(());
                }
                Ok(false) => {
                    self.rewind_to_len()?;
                    last_err = Some(std::io::Error::other(
                        "journal append verification failed (torn or corrupt tail)",
                    ));
                }
                Err(e) => {
                    let _ = self.rewind_to_len();
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("journal append failed")))
    }

    /// Truncates unverified bytes off the tail.
    fn rewind_to_len(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// Reads the tail back from disk and compares it to `expected`.
    fn tail_matches(&mut self, expected: &[u8]) -> std::io::Result<bool> {
        // A fresh handle, so the comparison sees what replay would see,
        // not this handle's buffered view.
        let mut reread = File::open(&self.path)?;
        reread.seek(SeekFrom::Start(self.len))?;
        let mut tail = Vec::new();
        reread.read_to_end(&mut tail)?;
        Ok(tail == expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_bench::checkpoints::CheckpointOutcome;
    use vpr_bench::sweep::PointMetrics;
    use vpr_bench::ExperimentConfig;
    use vpr_core::RenameScheme;
    use vpr_snap::faults::{FaultKind, FaultOp, FaultPlan};
    use vpr_trace::Benchmark;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Benchmark::Swim.into(),
            scheme: RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            physical_regs: 64,
            exp: ExperimentConfig::quick(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vpr-serve-journal-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip_through_lines() {
        let records = [
            Record::Job {
                id: 3,
                spec: spec(),
            },
            Record::Done {
                id: 3,
                output: vpr_bench::execute_job(
                    &JobSpec {
                        exp: ExperimentConfig {
                            warmup: 100,
                            measure: 500,
                            ..ExperimentConfig::quick()
                        },
                        ..spec()
                    },
                    None,
                ),
            },
            Record::Failed {
                id: 4,
                error: "injected fault: worker kill (swim/vp-wb-nrr32@64r)".into(),
                attempts: 4,
            },
        ];
        for r in &records {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            let parsed = Record::parse(&line).unwrap();
            // JobOutput carries f64s; compare through the line rendering,
            // which is the round-trip representation itself.
            assert_eq!(parsed.to_line(), line);
        }
    }

    #[test]
    fn non_ascii_and_escaped_text_round_trips() {
        let text = "café → résumé: \"quoted\"\tC:\\tmp\nnext line";
        let records = [
            Record::Failed {
                id: 5,
                error: text.into(),
                attempts: 2,
            },
            Record::Done {
                id: 6,
                output: JobOutput {
                    metrics: PointMetrics {
                        ipc: 1.25,
                        miss_ratio: 0.0625,
                        executions_per_commit: 1.0,
                    },
                    outcome: CheckpointOutcome::Miss,
                    note: Some(text.into()),
                },
            },
        ];
        for r in &records {
            assert_eq!(Record::parse(&r.to_line()).unwrap(), *r);
        }
    }

    #[test]
    fn journal_replays_what_it_acknowledged() {
        let dir = tmp("replay");
        let (mut j, replay) = Journal::open(&dir).unwrap();
        assert!(replay.records.is_empty());
        j.append(&Record::Job {
            id: 1,
            spec: spec(),
        })
        .unwrap();
        j.append(&Record::Job {
            id: 2,
            spec: spec(),
        })
        .unwrap();
        j.append(&Record::Failed {
            id: 1,
            error: "x".into(),
            attempts: 2,
        })
        .unwrap();
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        assert!(matches!(replay.records[0], Record::Job { id: 1, .. }));
        assert!(matches!(replay.records[2], Record::Failed { id: 1, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        let (mut j, _) = Journal::open(&dir).unwrap();
        j.append(&Record::Job {
            id: 1,
            spec: spec(),
        })
        .unwrap();
        drop(j);
        // Simulate a crash mid-append: garbage with no newline.
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rec\": \"job\", \"id\": 9, \"sp").unwrap();
        drop(f);
        let (mut j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_bytes > 0);
        // The journal stays appendable after truncation.
        j.append(&Record::Job {
            id: 2,
            spec: spec(),
        })
        .unwrap();
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_faults_never_ack_a_lie() {
        let _x = faults::exclusive();
        let dir = tmp("faults");
        let (mut j, _) = Journal::open(&dir).unwrap();
        for kind in [FaultKind::IoError, FaultKind::Truncate, FaultKind::BitFlip] {
            faults::arm(FaultPlan {
                kind,
                op: FaultOp::JournalAppend,
                target: JOURNAL_FILE.into(),
                nth: 0,
                seed: 13,
            });
            // The single-shot fault hits the first attempt; the retry
            // verifies clean. Either way `Ok` means durable.
            j.append(&Record::Job {
                id: 7,
                spec: spec(),
            })
            .unwrap();
            assert!(faults::disarm().is_some(), "{kind:?} fired");
        }
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.torn_bytes, 0);
        for r in &replay.records {
            assert!(matches!(r, Record::Job { id: 7, .. }));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
