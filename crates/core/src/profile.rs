//! Per-subsystem host-cost attribution for the simulator kernel.
//!
//! The step loop (`Processor::step_probed` / `run_phases`) is generic
//! over a `PhaseProbe` that brackets every pipeline phase.
//! [`Processor::step`](crate::Processor::step) passes the disabled probe
//! ([`NoObs`]), whose `ENABLED = false` compiles every probe site out;
//! [`Processor::run_profiled`](crate::Processor::run_profiled) passes a
//! [`StageProfile`], which times each phase and counts the simulation
//! events it processed. There is one step loop, so the profile always
//! covers exactly the phases a plain run executes. The result answers
//! *where the host cycles go* — which is what gates data-layout work like
//! the hot/cold reorder-buffer split: a layout regression shows up as one
//! stage's ns/event drifting, long before the aggregate sim-MIPS figure
//! moves outside shared-host noise.
//!
//! Attribution is wall-clock (`std::time::Instant`) around each phase
//! call. Per-phase timing costs two monotonic-clock reads per stage per
//! active cycle, so profiled runs are *slower* than plain runs — the
//! per-stage ns figures are for comparing stages against each other and
//! against their own history, not for deriving absolute sim-MIPS. The
//! event counts, by contrast, are exact and deterministic (they come
//! from the same architectural counters the goldens pin).

use std::time::Instant;
use vpr_obs::NoObs;

/// One pipeline phase of [`Processor::step`](crate::Processor::step), in
/// execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Next-event cycle governor (`governor_skip`): events counted are
    /// *skipped cycles*.
    Governor,
    /// In-order commit: events are committed instructions.
    Commit,
    /// Store-buffer drain tick: events are stores written to the cache.
    StoreDrain,
    /// Cache-port retry sweep: events are retry candidates swept.
    MemRetry,
    /// Completion/write-back event drain: events are calendar-queue
    /// events handled.
    Events,
    /// Issue selection: events are instructions sent to functional units.
    Issue,
    /// Rename/dispatch: events are instructions dispatched.
    Rename,
    /// Fetch: events are instructions fetched into the fetch buffer.
    Fetch,
}

impl Stage {
    /// Every stage, in pipeline-phase execution order.
    pub const ALL: [Stage; 8] = [
        Stage::Governor,
        Stage::Commit,
        Stage::StoreDrain,
        Stage::MemRetry,
        Stage::Events,
        Stage::Issue,
        Stage::Rename,
        Stage::Fetch,
    ];

    /// Stable lower-case label (the benchmark's `core.<stage>.*` metric
    /// keys and the exact-count table's column heads).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Governor => "governor",
            Stage::Commit => "commit",
            Stage::StoreDrain => "store_drain",
            Stage::MemRetry => "mem_retry",
            Stage::Events => "events",
            Stage::Issue => "issue",
            Stage::Rename => "rename",
            Stage::Fetch => "fetch",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated host cost and event count for one [`Stage`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StageRec {
    /// Host nanoseconds spent inside the phase.
    pub ns: u64,
    /// Simulation events the phase processed (stage-specific unit, see
    /// [`Stage`]).
    pub events: u64,
}

/// A per-stage host-cost profile accumulated over many active cycles of
/// [`Processor::run_profiled`](crate::Processor::run_profiled).
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    recs: [StageRec; 8],
    /// Number of profiled steps (active cycles) accumulated.
    pub steps: u64,
}

impl StageProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one phase measurement.
    #[inline]
    pub fn record(&mut self, stage: Stage, elapsed: std::time::Duration, events: u64) {
        let rec = &mut self.recs[stage.index()];
        rec.ns += elapsed.as_nanos() as u64;
        rec.events += events;
    }

    /// The accumulated record for `stage`.
    #[inline]
    pub fn stage(&self, stage: Stage) -> StageRec {
        self.recs[stage.index()]
    }

    /// Total host nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.recs.iter().map(|r| r.ns).sum()
    }

    /// Total events across all stages.
    pub fn total_events(&self) -> u64 {
        self.recs.iter().map(|r| r.events).sum()
    }
}

/// Per-phase hooks of the step loop: `begin` before a phase runs, `end`
/// after it with the events it processed, `end_step` once per active
/// cycle. With `ENABLED = false` the loop skips the event-counter reads
/// ([`PhaseProbe::count`]) and the calls inline to nothing.
pub(crate) trait PhaseProbe {
    /// Whether the step loop needs to feed this probe at all.
    const ENABLED: bool;
    /// What `begin` hands to the matching `end` (a start time, or nothing).
    type Mark;
    /// Called before a phase runs.
    fn begin(&self) -> Self::Mark;
    /// Called after `stage` ran, with the events it processed.
    fn end(&mut self, stage: Stage, mark: Self::Mark, events: u64);
    /// Called once after every active cycle's phases.
    fn end_step(&mut self);

    /// Reads a phase's event counter, only when the probe is enabled.
    #[inline(always)]
    fn count(read: impl FnOnce() -> u64) -> u64 {
        if Self::ENABLED {
            read()
        } else {
            0
        }
    }
}

/// The disabled probe: what [`Processor::step`](crate::Processor::step)
/// runs with.
impl PhaseProbe for NoObs {
    const ENABLED: bool = false;
    type Mark = ();

    #[inline(always)]
    fn begin(&self) {}

    #[inline(always)]
    fn end(&mut self, _: Stage, _: (), _: u64) {}

    #[inline(always)]
    fn end_step(&mut self) {}
}

impl PhaseProbe for StageProfile {
    const ENABLED: bool = true;
    type Mark = Instant;

    #[inline]
    fn begin(&self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn end(&mut self, stage: Stage, mark: Instant, events: u64) {
        self.record(stage, mark.elapsed(), events);
    }

    #[inline]
    fn end_step(&mut self) {
        self.steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn record_accumulates_per_stage() {
        let mut p = StageProfile::new();
        p.record(Stage::Commit, Duration::from_nanos(100), 4);
        p.record(Stage::Commit, Duration::from_nanos(50), 2);
        p.record(Stage::Fetch, Duration::from_nanos(25), 8);
        assert_eq!(p.stage(Stage::Commit).ns, 150);
        assert_eq!(p.stage(Stage::Commit).events, 6);
        assert_eq!(p.stage(Stage::Fetch).events, 8);
        assert_eq!(p.total_ns(), 175);
        assert_eq!(p.total_events(), 14);
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "stage names must be unique");
        assert_eq!(names[0], "governor");
        assert_eq!(names[7], "fetch");
    }
}
