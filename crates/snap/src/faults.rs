//! Deterministic fault injection for the artefact and sweep layers.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, so this module gives the workspace a **seeded, dependency-free
//! fault plan** that the storage layer ([`crate::atomic_write`],
//! [`crate::Snapshot::read_at`]) and the sweep engine
//! (`vpr_bench::sweep`) consult at well-defined hook points. A test arms
//! exactly one [`FaultPlan`]; the next matching operation suffers the
//! planned fault (an injected I/O error, a truncated or bit-flipped byte
//! stream, a rename that "crashes" half-way, or a job panic), every later
//! operation proceeds untouched, and [`disarm`] reports what fired.
//!
//! The design constraints, in order:
//!
//! 1. **Deterministic.** A plan is a pure function of its fields (and its
//!    `seed` for the corruption position), and it fires on the `nth`
//!    operation whose path/label contains `target` — never on wall-clock
//!    time or randomness at fire time. Armed plans fire **at most once**.
//! 2. **Inert when disarmed.** The hooks are a single relaxed atomic load
//!    on the fast path; production binaries never arm a plan.
//! 3. **Scoped.** Matching is by substring, so a test arms a plan whose
//!    `target` names its own temp directory (or job label) and cannot
//!    perturb unrelated I/O in the same process.
//!
//! Arming is process-global (worker threads must observe it), so tests
//! that arm plans serialise themselves on the mutex returned by
//! [`exclusive`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What the injected fault does at its hook point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The file operation fails with an injected [`io::Error`].
    IoError,
    /// The byte stream loses its tail (the kept length is derived from the
    /// plan's seed, so it is deterministic but arbitrary).
    Truncate,
    /// One bit of the byte stream flips (position derived from the seed).
    BitFlip,
    /// A write completes its temp file but "crashes" before the atomic
    /// rename: the destination keeps its old content (or stays absent) and
    /// the caller sees an error — the torn-write shape
    /// [`crate::atomic_write`] exists to protect against.
    PartialRename,
    /// The job with a matching label panics at its start
    /// ([`maybe_panic_job`]).
    JobPanic,
    /// The service drops a client connection mid-exchange
    /// ([`client_disconnects`]); the client must reconnect and re-poll.
    ClientDisconnect,
    /// A service worker dies (panics) at the start of a job attempt
    /// ([`maybe_kill_worker`]); the worker's retry loop must run the job
    /// again.
    WorkerKill,
}

impl FaultKind {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::IoError => "io-error",
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::PartialRename => "partial-rename",
            FaultKind::JobPanic => "job-panic",
            FaultKind::ClientDisconnect => "client-disconnect",
            FaultKind::WorkerKill => "worker-kill",
        }
    }
}

/// Which hook a fault arms against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// File reads ([`crate::Snapshot::read_at`], manifest loads).
    Read,
    /// File writes ([`crate::atomic_write`]).
    Write,
    /// Sweep jobs ([`maybe_panic_job`]).
    Job,
    /// Service journal appends ([`on_journal_append`]).
    JournalAppend,
    /// Service client-connection exchanges ([`client_disconnects`]).
    Client,
    /// Service worker job starts ([`maybe_kill_worker`]).
    Worker,
}

impl FaultOp {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Job => "job",
            FaultOp::JournalAppend => "journal-append",
            FaultOp::Client => "client",
            FaultOp::Worker => "worker",
        }
    }
}

/// One planned fault: fire `kind` on the `nth` `op` whose path or job
/// label contains `target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The effect.
    pub kind: FaultKind,
    /// The hook it arms against.
    pub op: FaultOp,
    /// Substring the operation's path (or job label) must contain.
    pub target: String,
    /// Zero-based index among matching operations: `0` fires on the first
    /// match, `1` on the second, …
    pub nth: u32,
    /// Drives the corruption position for [`FaultKind::Truncate`] and
    /// [`FaultKind::BitFlip`]; ignored by the other kinds.
    pub seed: u64,
}

impl FaultPlan {
    /// A single-fault plan with `nth = 0` and `seed = 0`.
    pub fn new(kind: FaultKind, op: FaultOp, target: impl Into<String>) -> Self {
        Self {
            kind,
            op,
            target: target.into(),
            nth: 0,
            seed: 0,
        }
    }

    /// Derives one fault of the full matrix from a seed: kind, hook, and
    /// position are all functions of `seed`, so a property test sweeping
    /// seeds sweeps the matrix. `target` scopes the plan as usual.
    pub fn from_seed(seed: u64, target: impl Into<String>) -> Self {
        // Splitmix-style scramble so neighbouring seeds pick unrelated
        // faults.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let (kind, op) = match z % 8 {
            0 => (FaultKind::IoError, FaultOp::Read),
            1 => (FaultKind::IoError, FaultOp::Write),
            2 => (FaultKind::Truncate, FaultOp::Read),
            3 => (FaultKind::Truncate, FaultOp::Write),
            4 => (FaultKind::BitFlip, FaultOp::Read),
            5 => (FaultKind::BitFlip, FaultOp::Write),
            6 => (FaultKind::PartialRename, FaultOp::Write),
            _ => (FaultKind::JobPanic, FaultOp::Job),
        };
        Self {
            kind,
            op,
            target: target.into(),
            nth: ((z >> 8) % 3) as u32,
            seed: z,
        }
    }

    /// Derives one fault of the **service** matrix from a seed — the three
    /// daemon hook points ([`on_journal_append`], [`client_disconnects`],
    /// [`maybe_kill_worker`]) with every effect
    /// each supports. Kept separate from [`FaultPlan::from_seed`] so the
    /// storage-layer matrix (and the tests pinning it) stay unchanged.
    pub fn from_seed_service(seed: u64, target: impl Into<String>) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let (kind, op) = match z % 5 {
            0 => (FaultKind::IoError, FaultOp::JournalAppend),
            1 => (FaultKind::Truncate, FaultOp::JournalAppend),
            2 => (FaultKind::BitFlip, FaultOp::JournalAppend),
            3 => (FaultKind::ClientDisconnect, FaultOp::Client),
            _ => (FaultKind::WorkerKill, FaultOp::Worker),
        };
        Self {
            kind,
            op,
            target: target.into(),
            nth: ((z >> 8) % 2) as u32,
            seed: z,
        }
    }
}

/// What an armed plan did, reported by [`disarm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The effect that fired.
    pub kind: FaultKind,
    /// The hook it fired at.
    pub op: FaultOp,
    /// The path or job label it fired on.
    pub site: String,
}

struct Armed {
    plan: FaultPlan,
    matched: u32,
    fired: Option<FaultRecord>,
}

// The fast-path gate: hooks only take the mutex when a plan is armed.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armed>> = Mutex::new(None);
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn state() -> MutexGuard<'static, Option<Armed>> {
    // A panic while holding the state lock (JobPanic fires outside it, but
    // be safe) must not cascade into every later hook.
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serialises tests that arm fault plans: hold the guard for the whole
/// armed section. (Arming is process-global; two concurrently armed plans
/// would race for the same hooks.)
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `plan`. Exactly one plan can be armed at a time.
///
/// # Panics
///
/// Panics if a plan is already armed (tests must [`disarm`] — and hold
/// [`exclusive`] — around every armed section).
pub fn arm(plan: FaultPlan) {
    let mut s = state();
    assert!(s.is_none(), "a fault plan is already armed");
    *s = Some(Armed {
        plan,
        matched: 0,
        fired: None,
    });
    ANY_ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the current plan and reports what fired, if anything.
pub fn disarm() -> Option<FaultRecord> {
    let mut s = state();
    ANY_ARMED.store(false, Ordering::SeqCst);
    s.take().and_then(|a| a.fired)
}

/// True when a plan is armed and has not fired yet.
pub fn armed_pending() -> bool {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return false;
    }
    state().as_ref().is_some_and(|a| a.fired.is_none())
}

/// Checks whether the armed plan fires on this `(op, site)` operation;
/// consumes the plan's single shot when it does.
fn fire(op: FaultOp, site: &str) -> Option<FaultPlan> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut s = state();
    let armed = s.as_mut()?;
    if armed.fired.is_some() || armed.plan.op != op || !site.contains(&armed.plan.target) {
        return None;
    }
    let index = armed.matched;
    armed.matched += 1;
    if index != armed.plan.nth {
        return None;
    }
    armed.fired = Some(FaultRecord {
        kind: armed.plan.kind,
        op,
        site: site.to_string(),
    });
    Some(armed.plan.clone())
}

/// Applies a byte-stream corruption deterministically derived from the
/// plan seed. Truncation keeps a seed-chosen prefix (possibly empty); a
/// bit flip inverts one seed-chosen bit.
fn corrupt(kind: FaultKind, seed: u64, bytes: &mut Vec<u8>) {
    match kind {
        FaultKind::Truncate => {
            let keep = if bytes.is_empty() {
                0
            } else {
                (seed % bytes.len() as u64) as usize
            };
            bytes.truncate(keep);
        }
        FaultKind::BitFlip if !bytes.is_empty() => {
            let bit = (seed % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {}
    }
}

/// What [`on_write`] tells [`crate::atomic_write`] to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDisposition {
    /// Write (possibly corrupted) bytes and rename as usual.
    Proceed,
    /// Complete the temp file, then simulate a crash before the rename:
    /// leave the temp file behind and return an error.
    CrashBeforeRename,
}

/// Write-side hook: may corrupt `bytes` in place, demand a simulated
/// pre-rename crash, or fail outright.
///
/// # Errors
///
/// The injected [`FaultKind::IoError`].
pub fn on_write(path: &Path, bytes: &mut Vec<u8>) -> io::Result<WriteDisposition> {
    let Some(plan) = fire(FaultOp::Write, &path.display().to_string()) else {
        return Ok(WriteDisposition::Proceed);
    };
    match plan.kind {
        FaultKind::IoError => Err(io::Error::other(format!(
            "injected write fault at {}",
            path.display()
        ))),
        FaultKind::PartialRename => Ok(WriteDisposition::CrashBeforeRename),
        kind => {
            corrupt(kind, plan.seed, bytes);
            Ok(WriteDisposition::Proceed)
        }
    }
}

/// Read-side hook: may corrupt the just-read `bytes` in place (the parser
/// then sees a torn artefact) or fail outright.
///
/// # Errors
///
/// The injected [`FaultKind::IoError`].
pub fn on_read(path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
    let Some(plan) = fire(FaultOp::Read, &path.display().to_string()) else {
        return Ok(());
    };
    match plan.kind {
        FaultKind::IoError => Err(io::Error::other(format!(
            "injected read fault at {}",
            path.display()
        ))),
        kind => {
            corrupt(kind, plan.seed, bytes);
            Ok(())
        }
    }
}

/// Job hook: panics when the armed plan is a [`FaultKind::JobPanic`]
/// matching `label`. Callers place this at the start of each isolated
/// job; the panic-isolated pool contains and retries it.
pub fn maybe_panic_job(label: &str) {
    if let Some(plan) = fire(FaultOp::Job, label) {
        if plan.kind == FaultKind::JobPanic {
            panic!("injected fault: job panic ({label})");
        }
    }
}

/// Journal-append hook: may corrupt the record bytes about to be written
/// (the appender's read-back verification then sees a torn record) or
/// fail the append outright. The service's journal must either durably
/// store the exact bytes or report failure — never acknowledge a lie.
///
/// # Errors
///
/// The injected [`FaultKind::IoError`].
pub fn on_journal_append(path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
    let Some(plan) = fire(FaultOp::JournalAppend, &path.display().to_string()) else {
        return Ok(());
    };
    match plan.kind {
        FaultKind::IoError => Err(io::Error::other(format!(
            "injected journal-append fault at {}",
            path.display()
        ))),
        kind => {
            corrupt(kind, plan.seed, bytes);
            Ok(())
        }
    }
}

/// Client-connection hook: returns `true` when the service should drop
/// the connection with a matching label before responding — the client
/// must survive by reconnecting and re-polling (results are keyed by job
/// id, so nothing is lost).
pub fn client_disconnects(label: &str) -> bool {
    matches!(
        fire(FaultOp::Client, label),
        Some(FaultPlan {
            kind: FaultKind::ClientDisconnect,
            ..
        })
    )
}

/// Worker hook: panics when the armed plan kills the worker starting the
/// job with a matching label. The worker's retry loop catches the unwind,
/// treats the attempt as dead, and runs the job again.
pub fn maybe_kill_worker(label: &str) {
    if let Some(plan) = fire(FaultOp::Worker, label) {
        if plan.kind == FaultKind::WorkerKill {
            panic!("injected fault: worker kill ({label})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn disarmed_hooks_are_inert() {
        let _x = exclusive();
        let mut bytes = vec![1, 2, 3];
        assert_eq!(
            on_write(&PathBuf::from("/tmp/x"), &mut bytes).unwrap(),
            WriteDisposition::Proceed
        );
        on_read(&PathBuf::from("/tmp/x"), &mut bytes).unwrap();
        maybe_panic_job("anything");
        assert_eq!(bytes, vec![1, 2, 3]);
        assert!(!armed_pending());
    }

    #[test]
    fn fires_once_on_the_nth_match_only() {
        let _x = exclusive();
        arm(FaultPlan {
            kind: FaultKind::IoError,
            op: FaultOp::Read,
            target: "match-me".into(),
            nth: 1,
            seed: 0,
        });
        let mut bytes = Vec::new();
        // Non-matching path: untouched, does not advance the count.
        on_read(&PathBuf::from("/tmp/other"), &mut bytes).unwrap();
        // First match: counted, not fired (nth = 1).
        on_read(&PathBuf::from("/tmp/match-me/a"), &mut bytes).unwrap();
        assert!(armed_pending());
        // Second match: fires.
        let err = on_read(&PathBuf::from("/tmp/match-me/b"), &mut bytes).unwrap_err();
        assert!(err.to_string().contains("injected read fault"));
        // Third match: single-shot, inert again.
        on_read(&PathBuf::from("/tmp/match-me/c"), &mut bytes).unwrap();
        let fired = disarm().expect("fired");
        assert_eq!(fired.kind, FaultKind::IoError);
        assert!(fired.site.contains("match-me/b"));
    }

    #[test]
    fn corruptions_are_deterministic() {
        let _x = exclusive();
        for kind in [FaultKind::Truncate, FaultKind::BitFlip] {
            let run = |seed| {
                arm(FaultPlan {
                    kind,
                    op: FaultOp::Write,
                    target: "det".into(),
                    nth: 0,
                    seed,
                });
                let mut bytes: Vec<u8> = (0..64).collect();
                on_write(&PathBuf::from("/tmp/det"), &mut bytes).unwrap();
                disarm().expect("fired");
                bytes
            };
            assert_eq!(run(7), run(7), "{kind:?} must be seed-deterministic");
            assert_ne!(run(7), (0..64).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn job_panic_fires_and_is_recorded() {
        let _x = exclusive();
        arm(FaultPlan::new(FaultKind::JobPanic, FaultOp::Job, "swim"));
        let caught = std::panic::catch_unwind(|| maybe_panic_job("swim/conventional"));
        assert!(caught.is_err());
        let fired = disarm().expect("fired");
        assert_eq!(fired.kind, FaultKind::JobPanic);
        assert_eq!(fired.site, "swim/conventional");
    }

    #[test]
    fn seeded_plans_cover_the_matrix() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64 {
            kinds.insert(FaultPlan::from_seed(seed, "t").kind.label());
        }
        assert_eq!(kinds.len(), 5, "all five fault kinds reachable: {kinds:?}");
    }

    #[test]
    fn service_seeded_plans_cover_the_service_matrix() {
        let mut combos = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let p = FaultPlan::from_seed_service(seed, "t");
            combos.insert((p.kind.label(), p.op.label()));
            assert!(p.nth < 2, "service plans keep nth small");
        }
        let expected: std::collections::BTreeSet<_> = [
            ("io-error", "journal-append"),
            ("truncate", "journal-append"),
            ("bit-flip", "journal-append"),
            ("client-disconnect", "client"),
            ("worker-kill", "worker"),
        ]
        .into_iter()
        .collect();
        assert_eq!(combos, expected, "all five service combos reachable");
    }

    #[test]
    fn journal_append_hook_corrupts_or_fails_once() {
        let _x = exclusive();
        // IoError: append must fail, bytes untouched.
        arm(FaultPlan::new(
            FaultKind::IoError,
            FaultOp::JournalAppend,
            "jobs.wal",
        ));
        let mut bytes = vec![1u8, 2, 3, 4];
        let err = on_journal_append(&PathBuf::from("/tmp/d/jobs.wal"), &mut bytes).unwrap_err();
        assert!(err.to_string().contains("injected journal-append fault"));
        assert_eq!(bytes, vec![1, 2, 3, 4]);
        // Single-shot: the next append is clean.
        on_journal_append(&PathBuf::from("/tmp/d/jobs.wal"), &mut bytes).unwrap();
        assert_eq!(disarm().expect("fired").op, FaultOp::JournalAppend);

        // BitFlip: bytes corrupted deterministically, append "succeeds".
        arm(FaultPlan {
            kind: FaultKind::BitFlip,
            op: FaultOp::JournalAppend,
            target: "jobs.wal".into(),
            nth: 0,
            seed: 11,
        });
        let mut corrupted = vec![0u8; 16];
        on_journal_append(&PathBuf::from("/tmp/d/jobs.wal"), &mut corrupted).unwrap();
        assert_ne!(corrupted, vec![0u8; 16]);
        disarm().expect("fired");
    }

    #[test]
    fn client_and_worker_hooks_fire_once() {
        let _x = exclusive();
        arm(FaultPlan::new(
            FaultKind::ClientDisconnect,
            FaultOp::Client,
            "conn",
        ));
        assert!(client_disconnects("conn-7"));
        assert!(!client_disconnects("conn-7"));
        assert_eq!(disarm().expect("fired").kind, FaultKind::ClientDisconnect);

        arm(FaultPlan::new(
            FaultKind::WorkerKill,
            FaultOp::Worker,
            "swim",
        ));
        maybe_kill_worker("hydro2d/conventional@64r");
        let caught = std::panic::catch_unwind(|| maybe_kill_worker("swim/conventional@64r"));
        assert!(caught.is_err());
        maybe_kill_worker("swim/conventional@64r"); // single-shot: inert now
        assert_eq!(disarm().expect("fired").kind, FaultKind::WorkerKill);
    }
}
