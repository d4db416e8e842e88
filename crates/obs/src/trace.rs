//! Ring-buffered per-instruction pipeline lifecycle trace.
//!
//! Each pipeline event is one fixed-size [`TraceRec`] pushed into a
//! bounded ring ([`PipelineTrace`]); when the ring is full the oldest
//! record is dropped (and counted), so a trace of any length costs a
//! fixed amount of memory and the *last* N events — the ones an anomaly
//! post-mortem needs — are always retained. Two renderings:
//!
//! * **JSONL** — one compact JSON object per line (`{"c": cycle,
//!   "s": seq, "k": kind, ...}`), machine-checkable (see
//!   [`validate_jsonl_line`]);
//! * **Konata-compatible text** — the `Kanata\t0004` pipeline-viewer
//!   format, one instruction lane per sequence number.
//!
//! Operation-class names are injected as plain strings at construction
//! ([`PipelineTrace::new`]) so this crate stays ISA-agnostic.

use std::collections::VecDeque;
use std::io::{self, Write};
use vpr_snap::json;

/// Lifecycle event kinds, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Instruction entered the fetch buffer.
    Fetch,
    /// Instruction renamed into ROB/IQ.
    Rename,
    /// Instruction issued to a functional unit.
    Issue,
    /// Instruction completed (result broadcast).
    Complete,
    /// Instruction committed.
    Commit,
    /// Instruction re-dispatched (`flag` = register-pressure re-execution,
    /// else memory-order).
    Reexec,
    /// VP physical register allocated (`op` = class, `flag` = at issue).
    VpAlloc,
    /// VP virtual tag bound to its physical register (`op` = class).
    VpBind,
    /// Completion deferred on exhausted write ports.
    WbStall,
}

impl TraceKind {
    /// The JSONL `k` field value.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Fetch => "fetch",
            TraceKind::Rename => "rename",
            TraceKind::Issue => "issue",
            TraceKind::Complete => "complete",
            TraceKind::Commit => "commit",
            TraceKind::Reexec => "reexec",
            TraceKind::VpAlloc => "vp-alloc",
            TraceKind::VpBind => "vp-bind",
            TraceKind::WbStall => "wb-stall",
        }
    }

    /// All kind labels a valid JSONL line may carry.
    pub const LABELS: [&'static str; 9] = [
        "fetch", "rename", "issue", "complete", "commit", "reexec", "vp-alloc", "vp-bind",
        "wb-stall",
    ];
}

/// One fixed-size trace record. Field meaning varies slightly by kind
/// (see [`TraceKind`]): `pc` is only meaningful for fetch/rename, `op`
/// is an operation-class index for rename/issue/commit and a register
/// class (0 = int, 1 = fp) for the VP events, `flag` is a kind-specific
/// boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRec {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// Dynamic sequence number (0 for fetch — seq is assigned at rename).
    pub seq: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Program counter (fetch/rename only).
    pub pc: u64,
    /// Operation-class or register-class index, per kind.
    pub op: u8,
    /// Kind-specific boolean flag.
    pub flag: u8,
}

impl TraceRec {
    /// Builds a record.
    pub fn new(cycle: u64, seq: u64, kind: TraceKind, pc: u64, op: u8, flag: u8) -> Self {
        TraceRec {
            cycle,
            seq,
            kind,
            pc,
            op,
            flag,
        }
    }
}

/// The bounded lifecycle-event ring plus its rendering tables.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    recs: VecDeque<TraceRec>,
    cap: usize,
    dropped: u64,
    op_names: Vec<String>,
}

impl PipelineTrace {
    /// A ring holding the last `cap` records. `op_names` maps the dense
    /// operation-class index to its display name (pass the ISA's
    /// `OpClass::ALL` names); unknown indices render as `op<N>`.
    pub fn new(cap: usize, op_names: Vec<String>) -> Self {
        PipelineTrace {
            recs: VecDeque::with_capacity(cap.min(1 << 20)),
            cap: cap.max(1),
            dropped: 0,
            op_names,
        }
    }

    /// Appends a record, evicting (and counting) the oldest when full.
    #[inline]
    pub fn push(&mut self, rec: TraceRec) {
        if self.recs.len() == self.cap {
            self.recs.pop_front();
            self.dropped += 1;
        }
        self.recs.push_back(rec);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drops all retained records and the eviction count.
    pub fn clear(&mut self) {
        self.recs.clear();
        self.dropped = 0;
    }

    /// Iterates retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRec> {
        self.recs.iter()
    }

    fn op_name(&self, idx: u8) -> String {
        self.op_names
            .get(usize::from(idx))
            .cloned()
            .unwrap_or_else(|| format!("op{idx}"))
    }

    /// Renders one record as a compact JSON object (no trailing newline).
    pub fn rec_to_json(&self, r: &TraceRec) -> String {
        let mut s = format!(
            "{{\"c\": {}, \"s\": {}, \"k\": \"{}\"",
            r.cycle,
            r.seq,
            r.kind.label()
        );
        match r.kind {
            TraceKind::Fetch => {
                s.push_str(&format!(", \"pc\": \"{:#x}\"", r.pc));
            }
            TraceKind::Rename => {
                s.push_str(&format!(
                    ", \"pc\": \"{:#x}\", \"op\": \"{}\"",
                    r.pc,
                    json::escape(&self.op_name(r.op))
                ));
            }
            TraceKind::Issue | TraceKind::Commit => {
                s.push_str(&format!(
                    ", \"op\": \"{}\"",
                    json::escape(&self.op_name(r.op))
                ));
            }
            TraceKind::Reexec => {
                s.push_str(&format!(
                    ", \"why\": \"{}\"",
                    if r.flag != 0 { "reg" } else { "mem" }
                ));
            }
            TraceKind::VpAlloc => {
                s.push_str(&format!(
                    ", \"cls\": \"{}\", \"at\": \"{}\"",
                    if r.op == 0 { "int" } else { "fp" },
                    if r.flag != 0 { "issue" } else { "wb" }
                ));
            }
            TraceKind::VpBind => {
                s.push_str(&format!(
                    ", \"cls\": \"{}\"",
                    if r.op == 0 { "int" } else { "fp" }
                ));
            }
            TraceKind::Complete | TraceKind::WbStall => {}
        }
        s.push('}');
        s
    }

    /// Writes every retained record as JSONL, oldest first.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn emit_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for r in &self.recs {
            writeln!(w, "{}", self.rec_to_json(r))?;
        }
        Ok(())
    }

    /// Writes the last `n` retained records as JSONL — the anomaly dump.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn dump_last(&self, n: usize, w: &mut impl Write) -> io::Result<()> {
        let skip = self.recs.len().saturating_sub(n);
        for r in self.recs.iter().skip(skip) {
            writeln!(w, "{}", self.rec_to_json(r))?;
        }
        Ok(())
    }

    /// Writes the retained records as Konata-compatible pipeline-viewer
    /// text (`Kanata 0004` format). One lane per sequence number;
    /// instructions open at their rename record (where `seq` is
    /// assigned), progress through `R`/`Is`/`Cp` stages, and retire at
    /// commit.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn emit_konata(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "Kanata\t0004")?;
        let mut cur_cycle: Option<u64> = None;
        let mut retired: u64 = 0;
        for r in &self.recs {
            match cur_cycle {
                None => {
                    writeln!(w, "C=\t{}", r.cycle)?;
                    cur_cycle = Some(r.cycle);
                }
                Some(c) if r.cycle > c => {
                    writeln!(w, "C\t{}", r.cycle - c)?;
                    cur_cycle = Some(r.cycle);
                }
                _ => {}
            }
            match r.kind {
                TraceKind::Fetch => {} // seq not assigned yet — lane opens at rename
                TraceKind::Rename => {
                    writeln!(w, "I\t{}\t{}\t0", r.seq, r.seq)?;
                    writeln!(w, "L\t{}\t0\t{:#x}: {}", r.seq, r.pc, self.op_name(r.op))?;
                    writeln!(w, "S\t{}\t0\tR", r.seq)?;
                }
                TraceKind::Issue => writeln!(w, "S\t{}\t0\tIs", r.seq)?,
                TraceKind::Complete => writeln!(w, "S\t{}\t0\tCp", r.seq)?,
                TraceKind::Commit => {
                    retired += 1;
                    writeln!(w, "R\t{}\t{}\t0", r.seq, retired)?;
                }
                TraceKind::Reexec => writeln!(w, "S\t{}\t0\tRx", r.seq)?,
                TraceKind::VpAlloc => writeln!(w, "L\t{}\t1\tvp-alloc", r.seq)?,
                TraceKind::VpBind => writeln!(w, "L\t{}\t1\tvp-bind", r.seq)?,
                TraceKind::WbStall => writeln!(w, "L\t{}\t1\twb-stall", r.seq)?,
            }
        }
        Ok(())
    }
}

/// Checks one JSONL trace line for schema conformance: one JSON object
/// (nothing after it) with integer `"c"` and `"s"` fields and a known
/// `"k"` kind. Returns a description of the first problem found, if any.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    let obj = v.as_object().ok_or("line is not a JSON object")?;
    for key in ["c", "s"] {
        let field = obj.get(key).ok_or(format!("missing {key:?} field"))?;
        if field.as_u64().is_none() {
            return Err(format!("{key:?} is not an integer: {field}"));
        }
    }
    let k = obj.get("k").ok_or("missing \"k\" field")?;
    match k.as_str() {
        Some(k) if TraceKind::LABELS.contains(&k) => Ok(()),
        _ => Err(format!("unknown kind {k}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["int.alu".into(), "load".into()]
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = PipelineTrace::new(2, names());
        for i in 0..5u64 {
            t.push(TraceRec::new(i, i, TraceKind::Commit, 0, 0, 0));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let cycles: Vec<u64> = t.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
    }

    #[test]
    fn jsonl_lines_validate() {
        let mut t = PipelineTrace::new(64, names());
        t.push(TraceRec::new(1, 0, TraceKind::Fetch, 0x40, 0, 0));
        t.push(TraceRec::new(2, 7, TraceKind::Rename, 0x40, 1, 0));
        t.push(TraceRec::new(3, 7, TraceKind::Issue, 0, 1, 0));
        t.push(TraceRec::new(5, 7, TraceKind::Complete, 0, 0, 0));
        t.push(TraceRec::new(6, 7, TraceKind::Commit, 0, 1, 0));
        t.push(TraceRec::new(7, 9, TraceKind::Reexec, 0, 0, 1));
        t.push(TraceRec::new(7, 9, TraceKind::VpAlloc, 0, 1, 1));
        t.push(TraceRec::new(8, 9, TraceKind::VpBind, 0, 0, 0));
        t.push(TraceRec::new(9, 9, TraceKind::WbStall, 0, 0, 0));
        let mut out = Vec::new();
        t.emit_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 9);
        for line in text.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(text.contains("\"op\": \"load\""));
        assert!(text.contains("\"why\": \"reg\""));
        assert!(text.contains("\"at\": \"issue\""));
        // Shapes a substring scan would accept: a malformed value after
        // the required fields, content after the object, and a `"c"`
        // that only appears inside a string value.
        let first = text.lines().next().unwrap();
        for bad in [
            "{\"c\": 1, \"s\": 2, \"k\": \"fetch\", \"pc\": [}".to_string(),
            format!("{first} trailing }}"),
            "{\"s\": 2, \"k\": \"fetch\", \"pc\": \"\\\"c\": 7, \"}".to_string(),
        ] {
            assert!(validate_jsonl_line(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line("{\"c\": 1, \"s\": 2}").is_err());
        assert!(validate_jsonl_line("{\"c\": 1, \"s\": 2, \"k\": \"bogus\"}").is_err());
        assert!(validate_jsonl_line("{\"c\": -1, \"s\": 2, \"k\": \"fetch\"}").is_err());
    }

    #[test]
    fn dump_last_takes_the_tail() {
        let mut t = PipelineTrace::new(16, names());
        for i in 0..6u64 {
            t.push(TraceRec::new(i, i, TraceKind::Complete, 0, 0, 0));
        }
        let mut out = Vec::new();
        t.dump_last(2, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"c\": 4") && text.contains("\"c\": 5"));
    }

    #[test]
    fn konata_has_header_and_retire_lines() {
        let mut t = PipelineTrace::new(16, names());
        t.push(TraceRec::new(2, 7, TraceKind::Rename, 0x40, 0, 0));
        t.push(TraceRec::new(3, 7, TraceKind::Issue, 0, 0, 0));
        t.push(TraceRec::new(6, 7, TraceKind::Commit, 0, 0, 0));
        let mut out = Vec::new();
        t.emit_konata(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("Kanata\t0004\n"));
        assert!(text.contains("C=\t2"));
        assert!(text.contains("I\t7\t7\t0"));
        assert!(text.contains("R\t7\t1\t0"));
    }
}
