//! The cycle-accurate out-of-order pipeline.
//!
//! One [`Processor`] simulates the paper's machine (§4.1): 8-wide fetch,
//! rename, issue and commit around a 128-entry reorder buffer, with the
//! configured renaming scheme deciding *when* destination physical
//! registers are claimed:
//!
//! | scheme | claim point | out-of-registers behaviour |
//! |--------|-------------|----------------------------|
//! | conventional | rename | rename stalls in order |
//! | VP, issue allocation | issue | instruction waits in the queue |
//! | VP, write-back allocation | completion | instruction squashed, re-executed |
//!
//! Intra-cycle phase order is commit → memory retries → completion events
//! → issue → rename/dispatch → fetch → store-buffer drain. Results
//! broadcast in the completion phase can therefore feed an issue in the
//! same cycle (full bypass), and a value produced with latency *L* reaches
//! a dependent *L* cycles after issue.
//!
//! ## Kernel architecture (simulator throughput)
//!
//! The cycle loop is engineered so that steady-state simulation performs
//! no allocation and no comparison-tree walks:
//!
//! * **Calendar event queue** — completion/EA/memory-data events live in a
//!   [`CalendarQueue`] with a [`EVENT_HORIZON`]-cycle ring (power of two,
//!   chosen to cover every latency the machine can schedule: the longest
//!   functional-unit latency and the cache miss path with bus queueing).
//!   Schedule and drain are O(1); drained buckets keep their capacity.
//!   Events beyond the horizon — impossible on the stock configuration,
//!   possible with exotic user latencies — spill to an overflow map
//!   without loss of correctness.
//! * **Indexed instruction-queue wakeup** — the [`Iq`] keeps
//!   per-`(RegClass, tag)` consumer lists, so a result broadcast touches
//!   only the operands actually waiting on that tag, and an age-sorted
//!   ready index so issue selection iterates exactly the eligible
//!   entries, oldest first, without allocating (see `iq.rs`).
//! * **Next-event cycle governor** — before running any phase, the step
//!   loop computes the earliest cycle at which *anything* can change,
//!   from each subsystem's half of the `next_activity()` contract
//!   (calendar-queue head, earliest functional-unit release, earliest
//!   MSHR fill, fetch-stall expiry, IQ ready index + NRR allocation
//!   gates; see `docs/kernel.md`), and jumps straight to it instead of
//!   ticking through dead cycles one by one — the common shape of a
//!   window stalled behind a 50-cycle miss, or a store buffer pinned on
//!   a full MSHR file. The per-cycle statistics a stalled machine keeps
//!   accumulating (the blocking rename-stall counter, fetch stall
//!   cycles, bounced-probe retries, register-occupancy integrals) are
//!   constant during quiescence, so the skip replays them in closed
//!   form; simulated behaviour stays **bit-identical** to the
//!   cycle-by-cycle kernel ([`Processor::step_single_cycle`]), which
//!   the exact-count gate (`tests/exact_counts.rs`) and the governor
//!   equivalence proptest pin down.

use crate::config::{RenameScheme, SimConfig};
use crate::event_queue::CalendarQueue;
use crate::fu::FuPool;
use crate::iq::{Iq, IqEntry};
use crate::profile::{PhaseProbe, Stage, StageProfile};
use crate::rename::{
    ConventionalRenamer, EarlyReleaseRenamer, PhysReg, RenamedDest, SrcState, VpRenamer,
};
use crate::rob::{MemPhase, Rob, RobEntry};
use crate::stats::SimStats;
use std::collections::VecDeque;
use vpr_frontend::{BranchHistoryTable, FetchUnit, FetchedInst};
use vpr_isa::{InstStream, OpClass, RegClass};
use vpr_mem::{
    AccessKind, AccessOutcome, DataCache, LoadDisposition, Lsq, PendingStore, StoreBuffer,
};
use vpr_obs::{NoObs, PipeObserver};

/// Ring size of the calendar event queue, in cycles. Must exceed the
/// longest deterministically-scheduled delay: the unpipelined integer
/// divide (67 cycles) and the cache miss path (miss penalty plus bus
/// queueing) both fit comfortably; anything larger (user-configured
/// latencies) falls back to the queue's overflow map.
const EVENT_HORIZON: usize = 256;

/// Outcome of presenting a waiting load to the cache (`probe_cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheProbe {
    /// Data return scheduled, or the retry record is stale.
    Settled,
    /// Bounced: all MSHRs busy (persists until a fill completes).
    BouncedNoMshr,
    /// Bounced: out of ports this cycle (clears next cycle).
    BouncedNoPort,
}

/// Scheduled pipeline events, keyed by the cycle they fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Execution finishes (non-memory ops; also deferred write-backs).
    Complete { seq: u64, gen: u64 },
    /// Effective-address computation finishes (loads and stores).
    EaDone { seq: u64, gen: u64 },
    /// Load data arrives (cache or forward).
    MemData { seq: u64, gen: u64 },
}

impl Event {
    fn seq(&self) -> u64 {
        match *self {
            Event::Complete { seq, .. }
            | Event::EaDone { seq, .. }
            | Event::MemData { seq, .. } => seq,
        }
    }
}

impl vpr_snap::Snap for Event {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        let (tag, seq, gen) = match *self {
            Event::Complete { seq, gen } => (0u8, seq, gen),
            Event::EaDone { seq, gen } => (1, seq, gen),
            Event::MemData { seq, gen } => (2, seq, gen),
        };
        enc.put_u8(tag);
        enc.put_u64(seq);
        enc.put_u64(gen);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let tag = dec.take_u8();
        let seq = dec.take_u64();
        let gen = dec.take_u64();
        match tag {
            0 => Event::Complete { seq, gen },
            1 => Event::EaDone { seq, gen },
            2 => Event::MemData { seq, gen },
            other => panic!("snapshot Event tag {other}: layout mismatch"),
        }
    }
}

// One renamer lives per processor; the size spread between variants is
// irrelevant next to the indirection a `Box` would add on every rename.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Renamer {
    Conventional(ConventionalRenamer),
    EarlyRelease(EarlyReleaseRenamer),
    Vp(VpRenamer),
}

/// Which per-cycle stall counter a fully-quiescent machine keeps
/// incrementing while it waits (see `Processor::try_fast_forward`): the
/// skip must replay exactly the increments the skipped cycles would have
/// performed.
#[derive(Debug, Clone, Copy)]
enum IdleTick {
    /// Nothing ticks (front end drained, rename idle).
    Nothing,
    /// Fetch stalls every cycle (unresolved branch / redirect shadow).
    FetchStall,
    /// Rename blocked: reorder buffer full.
    RobFull,
    /// Rename blocked: instruction queue full.
    IqFull,
    /// Rename blocked: load/store queue full.
    LsqFull,
    /// Rename blocked: this class's free list is empty.
    FreeList(RegClass),
}

/// A cycle-accurate, trace-driven out-of-order processor.
///
/// Drive it with [`Processor::run`] (commit budget) or
/// [`Processor::run_to_completion`]; read results with
/// [`Processor::stats`]. A warm-up window can be excluded
/// from measurement with [`Processor::reset_window`].
///
/// ```
/// use vpr_core::{Processor, RenameScheme, SimConfig};
/// use vpr_isa::{DynInst, Inst, LogicalReg, OpClass};
///
/// // A tiny trace: two dependent integer adds.
/// let trace = vec![
///     DynInst::new(0x0, Inst::new(OpClass::IntAlu)
///         .with_dest(LogicalReg::int(1)).with_src1(LogicalReg::int(2))),
///     DynInst::new(0x4, Inst::new(OpClass::IntAlu)
///         .with_dest(LogicalReg::int(3)).with_src1(LogicalReg::int(1))),
/// ];
/// let cfg = SimConfig::builder().scheme(RenameScheme::Conventional).build();
/// let mut cpu = Processor::new(cfg, trace.into_iter());
/// let stats = cpu.run_to_completion();
/// assert_eq!(stats.committed, 2);
/// ```
///
/// ## Observation
///
/// The second type parameter is a [`PipeObserver`] receiving lifecycle
/// hooks (fetch, rename, issue, complete, commit, VP allocation
/// events, occupancy samples). It defaults to [`NoObs`]; every hook site
/// is guarded by the observer's `ENABLED` associated constant, so the
/// default monomorphises to exactly the unobserved pipeline. Observers
/// receive copies of primitive values and cannot influence simulation —
/// `SimStats` are bit-identical with any observer attached. The observer
/// is **not** part of the snapshot format ([`Processor::snapshot`]
/// ignores it; restoring starts a fresh observer).
#[derive(Debug)]
pub struct Processor<S, O = NoObs> {
    config: SimConfig,
    trace: S,
    fetch: FetchUnit,
    bht: BranchHistoryTable,
    cache: DataCache,
    lsq: Lsq,
    store_buffer: StoreBuffer,
    renamer: Renamer,
    rob: Rob,
    iq: Iq,
    fus: FuPool,
    events: CalendarQueue<Event>,
    fetch_buffer: VecDeque<FetchedInst>,
    /// Loads waiting for a cache port / MSHR, retried every cycle.
    /// Kept sorted ascending (retry order = age order).
    cache_retry: Vec<u64>,
    /// `(blocked count, cache state token)` from the last retry sweep in
    /// which every pending load bounced for lack of an MSHR — see
    /// `mem_retry_phase`.
    retry_memo: Option<(u64, (u64, u64))>,
    /// Issue-stage register allocations to record after the issue loop
    /// (separated to satisfy borrow rules during queue iteration).
    pending_issue_allocs: Vec<(u64, PhysReg)>,
    /// Reusable buffer for the events drained each cycle.
    event_scratch: Vec<Event>,
    /// Reusable list of sequence numbers selected by the issue stage.
    issued_scratch: Vec<u64>,
    /// In-flight instructions with a register destination, per class, in
    /// program order — the O(log n) replacement for scanning the reorder
    /// buffer on every commit to find the NRR pointer's next entrant.
    dest_seqs: [VecDeque<u64>; 2],
    cycle: u64,
    next_seq: u64,
    /// Monotonic execution-generation counter; entries and events carry a
    /// generation so stale events (from executions squashed for
    /// re-execution) are dropped.
    gen_counter: u64,
    /// Write-back ports consumed this cycle, per register class.
    wb_ports_used: [u32; 2],
    /// Cycle of the most recent commit (deadlock watchdog).
    last_commit_cycle: u64,
    raw: SimStats,
    base: SimStats,
    /// Lifecycle observer (never serialised; [`NoObs`] costs nothing).
    obs: O,
}

impl<S: InstStream> Processor<S> {
    /// Builds an unobserved processor over `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`SimConfig::validate`]).
    pub fn new(config: SimConfig, trace: S) -> Self {
        Self::with_observer(config, trace, NoObs)
    }
}

impl<S: InstStream, O: PipeObserver> Processor<S, O> {
    /// Builds a processor over `trace` with lifecycle observer `obs`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`SimConfig::validate`]).
    pub fn with_observer(config: SimConfig, trace: S, obs: O) -> Self {
        config.validate().expect("invalid simulator configuration");
        let renamer = match config.scheme {
            RenameScheme::Conventional => {
                Renamer::Conventional(ConventionalRenamer::new(config.physical_regs))
            }
            RenameScheme::ConventionalEarlyRelease => {
                Renamer::EarlyRelease(EarlyReleaseRenamer::new(config.physical_regs))
            }
            RenameScheme::VirtualPhysicalIssue { nrr }
            | RenameScheme::VirtualPhysicalWriteback { nrr } => Renamer::Vp(VpRenamer::new(
                config.physical_regs,
                config.virtual_regs(),
                nrr,
            )),
        };
        Self {
            fetch: FetchUnit::new(config.fetch_width),
            bht: BranchHistoryTable::new(config.bht_entries),
            cache: DataCache::new(config.cache),
            lsq: Lsq::new(config.lsq_size),
            store_buffer: StoreBuffer::new(config.store_buffer_size),
            rob: Rob::new(config.rob_size),
            iq: Iq::new(config.iq_size),
            fus: FuPool::new(&config),
            events: CalendarQueue::with_horizon(EVENT_HORIZON),
            fetch_buffer: VecDeque::with_capacity(config.fetch_width * 2),
            cache_retry: Vec::new(),
            retry_memo: None,
            pending_issue_allocs: Vec::new(),
            event_scratch: Vec::new(),
            issued_scratch: Vec::new(),
            dest_seqs: [VecDeque::new(), VecDeque::new()],
            cycle: 0,
            next_seq: 0,
            gen_counter: 0,
            wb_ports_used: [0, 0],
            last_commit_cycle: 0,
            raw: SimStats::default(),
            base: SimStats::default(),
            renamer,
            config,
            trace,
            obs,
        }
    }

    /// The attached lifecycle observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Mutable access to the observer (e.g. to reset its window).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consumes the processor, returning the observer and its
    /// accumulated observations.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Counters for the current measurement window.
    pub fn stats(&self) -> SimStats {
        self.absolute().minus(&self.base)
    }

    /// Ends the warm-up phase: subsequent [`Processor::stats`] cover only
    /// what happens from here on. Microarchitectural state (caches,
    /// predictor, in-flight instructions) is untouched.
    pub fn reset_window(&mut self) {
        self.base = self.absolute();
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True when the trace is exhausted and the machine has drained.
    pub fn is_done(&self) -> bool {
        self.fetch.is_done()
            && self.fetch_buffer.is_empty()
            && self.rob.is_empty()
            && self.store_buffer.is_empty()
    }

    /// Runs until `commits` instructions have committed inside the current
    /// measurement window (or the trace drains). Returns the window stats.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops committing for 100 000 cycles — the
    /// renaming schemes are deadlock-free by construction, so a stall that
    /// long is a logic error worth crashing loudly on.
    pub fn run(&mut self, commits: u64) -> SimStats {
        // Loop on the raw counter: rebuilding full window stats (a deep
        // clone) every cycle would dominate the cycle loop itself.
        let target = self.raw.committed + commits;
        while self.raw.committed < target && !self.is_done() {
            self.step();
        }
        self.stats()
    }

    /// [`Processor::run`] with per-phase host-cost attribution (see
    /// [`crate::profile`]): the same step loop with a [`StageProfile`]
    /// probe instead of the disabled one — same commit target, same
    /// statistics — accumulating into `prof`.
    pub fn run_profiled(&mut self, commits: u64, prof: &mut StageProfile) -> SimStats {
        let target = self.raw.committed + commits;
        while self.raw.committed < target && !self.is_done() {
            self.step_probed(prof);
        }
        self.stats()
    }

    /// Runs until the trace is exhausted and the pipeline drains.
    pub fn run_to_completion(&mut self) -> SimStats {
        while !self.is_done() {
            self.step();
        }
        self.stats()
    }

    /// Committed instructions since construction, warm-up included — the
    /// absolute stream position checkpoints are keyed by (unlike
    /// [`Processor::stats`], which covers only the current measurement
    /// window).
    pub fn absolute_committed(&self) -> u64 {
        self.raw.committed
    }

    /// Runs until the **absolute** committed count
    /// ([`Processor::absolute_committed`]) reaches `target` (or the trace
    /// drains); a no-op when the machine is already at or past it. Like
    /// [`Processor::run`], the achieved count may overshoot the target by
    /// up to commit-width − 1. Returns the window stats.
    pub fn run_to_commit(&mut self, target: u64) -> SimStats {
        while self.raw.committed < target && !self.is_done() {
            self.step();
        }
        self.stats()
    }

    /// The instruction stream driving this processor.
    pub fn trace(&self) -> &S {
        &self.trace
    }

    /// Runs `warmup` commits and then resets the measurement window: the
    /// standard skip-then-measure methodology (the paper skips 100 M and
    /// measures 50 M instructions).
    pub fn warm_up(&mut self, warmup: u64) {
        self.run(warmup);
        self.reset_window();
    }

    /// Advances the machine by one *active* cycle. The next-event cycle
    /// governor first computes the earliest cycle at which *anything* can
    /// change (the governor, `governor_skip`); if that lies in the future,
    /// the cycle counter jumps straight to it (statistics included,
    /// bit-identically), so `cycle()` may advance by more than one.
    pub fn step(&mut self) {
        self.step_probed(&mut NoObs);
    }

    /// Advances the machine by exactly one cycle, running every pipeline
    /// phase — the **governor-free reference mode**. Behaviour is
    /// bit-identical to [`Processor::step`] by the governor's closed-form
    /// replay contract, which `tests/governor_equivalence.rs` pins down;
    /// this mode exists for that suite (and for debugging the skip
    /// machinery), not for speed.
    pub fn step_single_cycle(&mut self) {
        self.run_phases(&mut NoObs);
    }

    /// [`Processor::step`] with every phase bracketed by `probe`.
    fn step_probed<P: PhaseProbe>(&mut self, probe: &mut P) {
        let mark = probe.begin();
        let cycle_before = P::count(|| self.cycle);
        self.governor_skip();
        probe.end(Stage::Governor, mark, self.cycle - cycle_before);
        self.run_phases(probe);
    }

    /// One full cycle of pipeline phases at the current cycle. `probe`
    /// sees each phase with its event count (see [`crate::profile`]); the
    /// counters are only read when `P::ENABLED`, so the disabled probe
    /// leaves exactly the bare phase sequence.
    fn run_phases<P: PhaseProbe>(&mut self, probe: &mut P) {
        let now = self.cycle;
        self.wb_ports_used = [0, 0];

        let mark = probe.begin();
        let committed_before = P::count(|| self.raw.committed);
        self.commit_phase(now);
        probe.end(Stage::Commit, mark, self.raw.committed - committed_before);

        // Committed stores drain right after commit so they claim cache
        // ports ahead of demand loads: the commit path must always make
        // progress, or re-executing loads could starve it (livelock).
        let mark = probe.begin();
        let drained_before = if O::ENABLED || P::ENABLED {
            self.store_buffer.drained()
        } else {
            0
        };
        self.store_buffer.tick(now, &mut self.cache);
        if O::ENABLED {
            self.obs.on_store_drain(
                self.store_buffer.drained() - drained_before,
                self.store_buffer.len(),
            );
        }
        probe.end(
            Stage::StoreDrain,
            mark,
            self.store_buffer.drained() - drained_before,
        );

        let mark = probe.begin();
        let retry_candidates = P::count(|| self.cache_retry.len() as u64);
        self.mem_retry_phase(now);
        probe.end(Stage::MemRetry, mark, retry_candidates);

        let mark = probe.begin();
        let drained = self.event_phase(now);
        probe.end(Stage::Events, mark, drained as u64);

        let mark = probe.begin();
        let executions_before = P::count(|| self.raw.executions);
        self.issue_phase(now);
        probe.end(Stage::Issue, mark, self.raw.executions - executions_before);

        let mark = probe.begin();
        let seq_before = P::count(|| self.next_seq);
        self.rename_phase(now);
        probe.end(
            Stage::Rename,
            mark,
            self.next_seq.saturating_sub(seq_before),
        );

        let mark = probe.begin();
        let fetched_before = P::count(|| self.fetch_buffer.len() as u64);
        self.fetch_phase(now);
        probe.end(
            Stage::Fetch,
            mark,
            (self.fetch_buffer.len() as u64).saturating_sub(fetched_before),
        );

        if O::ENABLED {
            // Change-driven occupancy sampling: every *active* cycle is
            // sampled; the governor reports skipped quiescent stretches
            // through `on_idle_skip` instead of replaying samples.
            self.obs.on_occupancy(
                self.rob.len(),
                self.iq.len(),
                self.events.len(),
                self.store_buffer.len(),
                self.cache.inflight_fills(),
            );
        }
        probe.end_step();
        self.cycle = now + 1;
        assert!(
            self.rob.is_empty() || now - self.last_commit_cycle < 100_000,
            "no commit for 100000 cycles at cycle {now}: head={:?} scheme={:?}",
            self.rob
                .head_hot()
                .map(|h| (self.rob.head_seq(), h.op, h.completed(), h.mem_phase)),
            self.config.scheme,
        );
    }

    /// The **next-event cycle governor**: computes the earliest cycle at
    /// which *anything* can change and jumps `cycle` straight to it,
    /// replaying the per-cycle counters the skipped stall cycles would
    /// have accumulated in closed form. Each pipeline subsystem
    /// contributes through its half of the `next_activity()` contract
    /// (see `docs/kernel.md`): a lower bound on the next cycle it can act
    /// on its own —
    ///
    /// * [`CalendarQueue::next_activity`] — the next scheduled event;
    /// * [`FuPool::earliest_accept`] — the earliest release for a
    ///   ready-but-FU-blocked instruction;
    /// * [`vpr_mem::DataCache::next_activity`] — the earliest MSHR fill,
    ///   bounding MSHR-blocked cache retries *and* a blocked store-buffer
    ///   head ([`vpr_mem::StoreBuffer::next_activity`]);
    /// * [`vpr_frontend::FetchUnit::next_activity`] — the fetch-stall /
    ///   redirect-shadow expiry;
    /// * the IQ ready index plus the renamers' NRR allocation gates —
    ///   whether any issue-eligible instruction could leave the queue.
    ///
    /// Quiescence (no subsystem can act at `now`) requires *all* of:
    ///
    /// * commit blocked on an incomplete head (a completed head commits);
    /// * the store buffer empty, or its head MSHR-bounced until the next
    ///   fill completes (which bounds the skip; each skipped cycle
    ///   replays the head's one bounced probe);
    /// * every issue-eligible instruction provably stuck for the whole
    ///   window: its functional units all busy (the earliest release
    ///   bounds the skip), the NRR rule denying its issue-time register
    ///   (issue-allocation scheme; re-evaluated only when an event or
    ///   commit changes register state, both of which end the window), or
    ///   its read-port needs exceeding the configuration outright;
    /// * every pending cache retry provably MSHR-bounced until the next
    ///   fill completes (which bounds the skip);
    /// * the front end frozen: rename blocked by a full structure or an
    ///   empty free list, or an empty fetch buffer with fetch drained,
    ///   stalled behind an unresolved branch, or inside a redirect shadow.
    ///
    /// Under those conditions the machine state is constant from cycle to
    /// cycle, so each skipped cycle contributes exactly one increment of
    /// one known front-end stall counter, one `issue_allocation_stalls`
    /// increment per denied candidate, one `mshr_retries` increment per
    /// blocked retry and per blocked store-buffer head, plus the
    /// occupancy sampling — replayed here in closed form. Behaviour is
    /// bit-identical to stepping cycle by cycle, which the exact-count
    /// gate (`tests/exact_counts.rs`, which also pins the skipped-cycle
    /// count) and the governor equivalence proptest pin down.
    fn governor_skip(&mut self) {
        if self.rob.head_hot().is_some_and(|h| h.completed()) {
            return;
        }
        let now = self.cycle;
        // An event firing this cycle makes it active (even a stale one
        // would cap the skip target at `now`): bail before the quiescence
        // sweeps below spend time proving what cannot pay off.
        if self.events.has_at(now) {
            return;
        }
        // Store-buffer quiescence: an empty buffer is idle; a non-empty
        // one is quiescent only while its head store stays MSHR-bounced,
        // which the next fill completion bounds.
        let mut blocked_stores: u64 = 0;
        let mut store_bound: Option<u64> = None;
        if !self.store_buffer.is_empty() {
            match self.store_buffer.next_activity(now, &self.cache) {
                Some(at) if at > now => {
                    blocked_stores = 1;
                    store_bound = Some(at);
                }
                _ => return, // the head drains (or a fill lands) this cycle
            }
        }
        // Issue-stage quiescence: every ready entry must be unable to
        // issue now *and* until some bound. Functional-unit occupancy
        // gives a time bound; an NRR denial persists until register state
        // changes, which only events (completions) or commits do — and
        // commits are blocked, completions scheduled.
        let mut issue_bound: Option<u64> = None;
        // Denied-ready candidates, split by register class so the
        // observer's per-class NRR-denial counters replay exactly.
        let mut denied_class: [u64; 2] = [0, 0];
        if self.iq.ready_len() != 0 {
            // §3.3 rule snapshots, built lazily on the first candidate
            // that needs a register grant: only the issue-allocation
            // scheme ever has such candidates, so the other schemes never
            // pay for the gates.
            let mut gates: Option<[crate::rename::AllocGate; 2]> = None;
            for e in self.iq.ready_iter() {
                let (int_reads, fp_reads) = e.read_port_needs();
                if int_reads > self.config.regfile_read_ports
                    || fp_reads > self.config.regfile_read_ports
                {
                    // Exceeds the whole per-cycle budget: skipped silently
                    // by the issue loop every cycle, no bound needed.
                    continue;
                }
                if let Some(class) = e.alloc_class() {
                    let gates = gates.get_or_insert_with(|| {
                        let Renamer::Vp(vp) = &self.renamer else {
                            unreachable!("alloc_class is set only under the VP issue scheme")
                        };
                        [vp.alloc_gate(RegClass::Int), vp.alloc_gate(RegClass::Fp)]
                    });
                    if !gates[class.index()].allows(e.seq) {
                        // Ticks issue_allocation_stalls every idle cycle.
                        denied_class[class.index()] += 1;
                        continue;
                    }
                }
                let at = self.fus.earliest_accept(e.op, now);
                if at <= now {
                    return; // issuable right now: the cycle is active
                }
                issue_bound = Some(issue_bound.map_or(at, |b| b.min(at)));
            }
        }
        // Cache-retry quiescence: every pending retry must bounce for
        // lack of an MSHR, and keep bouncing until the next fill
        // completes. (Port bounces cannot occur in an idle window — no
        // access is granted, so ports stay free.)
        let mut retry_bound: Option<u64> = None;
        let mut blocked_retries: u64 = 0;
        if !self.cache_retry.is_empty() {
            match self.cache.next_activity() {
                // A fill installs this cycle: outcomes are about to change.
                Some(t) if t <= now => return,
                t => retry_bound = t,
            }
            for &seq in &self.cache_retry {
                let Some(entry) = self.rob.hot(seq) else {
                    // Stale record: the sweep removes it this cycle.
                    return;
                };
                if entry.mem_phase != MemPhase::AwaitCache {
                    return;
                }
                let addr = entry.addr();
                if !self.cache.would_bounce_for_mshr(addr) {
                    return; // this retry would be granted: active cycle
                }
                blocked_retries += 1;
            }
            debug_assert!(
                retry_bound.is_some(),
                "MSHR-blocked retries imply an in-flight fill"
            );
        }
        // Decide what the frozen front end ticks each idle cycle; bail if
        // rename or fetch would actually make progress.
        let mut resume_bound = None;
        let tick = if let Some(fi) = self.fetch_buffer.front() {
            // Rename examines the front instruction every cycle; mirror
            // its blocking checks in order. (Fetch itself is idle while
            // the buffer is non-empty.)
            let op = fi.di.op();
            if self.rob.is_full() {
                IdleTick::RobFull
            } else if op != OpClass::Nop && self.iq.is_full() {
                IdleTick::IqFull
            } else if op.is_mem() && self.lsq.is_full() {
                IdleTick::LsqFull
            } else if let Some(dl) = fi.di.inst().dest() {
                let free = match &self.renamer {
                    Renamer::Conventional(conv) => Some(conv.free_count(dl.class())),
                    Renamer::EarlyRelease(er) => Some(er.free_count(dl.class())),
                    Renamer::Vp(_) => None,
                };
                if free == Some(0) {
                    IdleTick::FreeList(dl.class())
                } else {
                    return;
                }
            } else {
                return;
            }
        } else {
            // Empty fetch buffer: ask the fetch unit for its own next
            // activity. `None` means it never acts on its own — either
            // drained (nothing ticks) or stalled behind an unresolved
            // branch (stall counter ticks until an event resolves it).
            match self.fetch.next_activity(now) {
                None if self.fetch.is_done() => IdleTick::Nothing,
                None => IdleTick::FetchStall,
                Some(at) if at > now => {
                    // Redirect shadow: fetch stalls until `at`.
                    resume_bound = Some(at);
                    IdleTick::FetchStall
                }
                // Fetch delivers this cycle: the cycle is active.
                Some(_) => return,
            }
        };
        let target = [
            self.events.next_activity(now),
            resume_bound,
            issue_bound,
            retry_bound,
            store_bound,
        ]
        .into_iter()
        .flatten()
        .min();
        // Nothing pending at all: no skip target. (A genuinely stuck
        // machine reaches the deadlock watchdog exactly as before.)
        let Some(target) = target else { return };
        if target <= self.cycle {
            return;
        }
        let skipped = target - self.cycle;
        match tick {
            IdleTick::Nothing => {}
            IdleTick::FetchStall => self.fetch.add_stall_cycles(skipped),
            IdleTick::RobFull => self.raw.rob_full_stalls += skipped,
            IdleTick::IqFull => self.raw.iq_full_stalls += skipped,
            IdleTick::LsqFull => self.raw.lsq_full_stalls += skipped,
            IdleTick::FreeList(class) => self.raw.class_mut(class).rename_stalls += skipped,
        }
        // Ready-but-denied issue candidates, MSHR-blocked retries and a
        // blocked store-buffer head tick their counters every skipped
        // cycle, exactly as the issue loop, the retry sweep and the store
        // drain would have.
        self.raw.issue_allocation_stalls += (denied_class[0] + denied_class[1]) * skipped;
        let blocked_probes = blocked_retries + blocked_stores;
        if blocked_probes > 0 {
            self.cache
                .note_skipped_mshr_retries(blocked_probes * skipped);
        }
        if O::ENABLED {
            self.obs.on_idle_skip(skipped);
            for (c, &denied) in denied_class.iter().enumerate() {
                if denied > 0 {
                    self.obs.on_nrr_denial(c as u8, denied * skipped);
                }
            }
        }
        self.cycle = target;
    }

    fn absolute(&self) -> SimStats {
        let mut s = self.raw.clone();
        s.cycles = self.cycle;
        // Occupancy statistics come from the free lists' change-driven
        // integrals (equivalent to sampling every cycle, without the
        // per-cycle work).
        for class in [RegClass::Int, RegClass::Fp] {
            let (occ, empty) = match &self.renamer {
                Renamer::Conventional(conv) => conv.occupancy_integrals(class, self.cycle),
                Renamer::EarlyRelease(er) => er.occupancy_integrals(class, self.cycle),
                Renamer::Vp(vp) => vp.occupancy_integrals(class, self.cycle),
            };
            let cs = s.class_mut(class);
            cs.occupancy_sum = occ;
            cs.empty_free_list_cycles = empty;
        }
        s.fetch = *self.fetch.stats();
        s.bht = *self.bht.stats();
        s.cache = *self.cache.stats();
        s.lsq = *self.lsq.stats();
        if let Renamer::EarlyRelease(er) = &self.renamer {
            // Releases are event-driven inside the renamer rather than
            // counted at commit; fold them in here.
            for class in [RegClass::Int, RegClass::Fp] {
                let rs = er.release_stats(class);
                let cs = s.class_mut(class);
                cs.frees += rs.frees;
                cs.hold_cycles += rs.hold_cycles;
                s.early_releases += rs.early;
            }
        }
        s
    }

    fn fresh_gen(&mut self) -> u64 {
        self.gen_counter += 1;
        self.gen_counter
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        self.events.schedule(self.cycle, at, ev);
    }

    /// Adds `seq` to the cache-retry set (sorted; duplicates ignored).
    fn retry_insert(&mut self, seq: u64) {
        self.retry_memo = None;
        if let Err(pos) = self.cache_retry.binary_search(&seq) {
            self.cache_retry.insert(pos, seq);
        }
    }

    /// Drops `seq` from the cache-retry set if present.
    fn retry_remove(&mut self, seq: u64) {
        self.retry_memo = None;
        if let Ok(pos) = self.cache_retry.binary_search(&seq) {
            self.cache_retry.remove(pos);
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit_phase(&mut self, now: u64) {
        for _ in 0..self.config.commit_width {
            let Some(&head) = self.rob.head_hot() else {
                break;
            };
            if !head.completed() {
                break;
            }
            // Optional PMT-lookup commit delay of the VP schemes (§3.2.2):
            // commit runs before the event phase, so a head that completed
            // last cycle would otherwise commit with no delay at all.
            if self.config.vp_commit_delay
                && self.config.scheme.is_virtual_physical()
                && head.completed_at + 1 >= now
            {
                break;
            }
            // The 32-byte hot record carries everything commit needs —
            // the store's access is hoisted into it — so the cold ring is
            // never touched and head-drop only advances ring indices.
            let seq = self.rob.head_seq().expect("head checked above");
            let op = head.op;
            if op == OpClass::Store {
                let store = PendingStore {
                    seq,
                    access: head.mem_access(),
                };
                if !self.store_buffer.push(store) {
                    self.raw.store_buffer_stalls += 1;
                    break;
                }
            }
            let dest = self.rob.dest(seq);
            self.rob.drop_head();
            self.commit_entry(seq, op, dest, now);
            if O::ENABLED {
                self.obs.on_commit(now, seq, op.index() as u8);
            }
            self.last_commit_cycle = now;
        }
    }

    fn commit_entry(&mut self, seq: u64, op: OpClass, dest: Option<RenamedDest>, now: u64) {
        self.raw.committed += 1;
        if op.is_mem() {
            self.lsq.remove(seq);
        }
        let Some(dest) = dest else { return };
        self.raw.committed_with_dest += 1;
        let class = dest.class();
        let popped = self.dest_seqs[class.index()].pop_front();
        debug_assert_eq!(popped, Some(seq), "dest commits are in order");
        match &mut self.renamer {
            Renamer::EarlyRelease(er) => {
                // No explicit freeing: committing the producer just opens
                // the last release gate for its own register.
                let preg = dest.preg.expect("early release allocates at rename");
                er.on_producer_commit(class, preg, now);
            }
            Renamer::Conventional(conv) => {
                let prev = dest
                    .prev_preg
                    .expect("conventional rename records prev mapping");
                let held = conv.on_commit_dest(class, prev, now);
                let cs = self.raw.class_mut(class);
                cs.frees += 1;
                cs.hold_cycles += held;
            }
            Renamer::Vp(vp) => {
                // Slide the PRR pointer (§3.3) before freeing anything.
                let pointer = vp
                    .nrr(class)
                    .pointer()
                    .expect("committing a destination implies a reserved set");
                // The oldest in-flight producer of this class younger than
                // the pointer: a partition-point lookup in the per-class
                // program-order index instead of an O(window) ROB scan.
                let seqs = &self.dest_seqs[class.index()];
                let entrant = seqs
                    .get(seqs.partition_point(|&s| s <= pointer))
                    .map(|&seq| {
                        let d = self.rob.dest(seq).expect("indexed on dest");
                        (seq, d.preg.is_some())
                    });
                vp.nrr_on_commit(class, seq, entrant);
                let prev = dest.prev_vp.expect("VP rename records prev mapping");
                let held = vp.on_commit_dest(class, prev, now);
                let cs = self.raw.class_mut(class);
                cs.frees += 1;
                cs.hold_cycles += held;
            }
        }
    }

    // ------------------------------------------------------------------
    // Memory pipeline
    // ------------------------------------------------------------------

    fn mem_retry_phase(&mut self, now: u64) {
        if self.cache_retry.is_empty() {
            return;
        }
        // Bounce memo: if the last sweep found every pending retry
        // MSHR-bounced, and since then line residency and MSHR occupancy
        // are provably unchanged (state token), no fill is due this
        // cycle, and ports are not exhausted (a store drain can eat all
        // of them, turning MSHR bounces into port bounces), this cycle's
        // sweep would produce the identical bounces. Replay the counters
        // without probing.
        if let Some((blocked, token)) = self.retry_memo {
            if self.cache.state_token() == token
                && self.cache.earliest_fill().is_some_and(|t| t > now)
                && !self.cache.ports_exhausted_at(now)
            {
                self.cache.note_skipped_mshr_retries(blocked);
                return;
            }
            self.retry_memo = None;
        }
        // Positional sweep in age order: a settled load is removed in
        // place (the next element slides into `i`), a bounced one stays.
        // No scratch copy, no per-element binary searches.
        let mut port_bounce = false;
        let mut i = 0;
        while i < self.cache_retry.len() {
            let seq = self.cache_retry[i];
            match self.probe_cache(seq, now) {
                CacheProbe::Settled => {
                    self.cache_retry.remove(i);
                }
                CacheProbe::BouncedNoMshr => i += 1,
                CacheProbe::BouncedNoPort => {
                    port_bounce = true;
                    i += 1;
                }
            }
        }
        // Port bounces can clear next cycle (ports reset); MSHR bounces
        // persist until a fill completes or someone else touches the
        // cache — exactly what the memo's validity token watches.
        if !port_bounce && !self.cache_retry.is_empty() {
            self.retry_memo = Some((self.cache_retry.len() as u64, self.cache.state_token()));
        }
    }

    /// Presents load `seq` to the cache. [`CacheProbe::Settled`] means the
    /// load no longer needs retrying — its data return is scheduled, or
    /// the record is stale (squashed / re-executed instruction).
    fn probe_cache(&mut self, seq: u64, now: u64) -> CacheProbe {
        let Some(entry) = self.rob.hot(seq) else {
            return CacheProbe::Settled;
        };
        if entry.mem_phase != MemPhase::AwaitCache {
            return CacheProbe::Settled;
        }
        let gen = entry.gen;
        let addr = entry.addr();
        match self.cache.access(now, addr, AccessKind::Load) {
            AccessOutcome::Hit { ready_at } | AccessOutcome::Miss { ready_at, .. } => {
                self.rob.hot_mut(seq).expect("checked above").mem_phase = MemPhase::InFlight;
                self.schedule(ready_at, Event::MemData { seq, gen });
                CacheProbe::Settled
            }
            AccessOutcome::Retry { reason } => match reason {
                vpr_mem::RetryReason::NoMshr => CacheProbe::BouncedNoMshr,
                vpr_mem::RetryReason::NoPort => CacheProbe::BouncedNoPort,
            },
        }
    }

    // ------------------------------------------------------------------
    // Completion / write-back
    // ------------------------------------------------------------------

    /// Returns the number of events drained (profile-mode attribution).
    fn event_phase(&mut self, now: u64) -> usize {
        let mut events = std::mem::take(&mut self.event_scratch);
        debug_assert!(events.is_empty());
        self.events.drain_at(now, &mut events);
        let drained = events.len();
        // Oldest instructions get write ports and cache ports first. A
        // single event (the common case during mispredict shadows) is
        // trivially in order.
        if events.len() > 1 {
            events.sort_by_key(Event::seq);
        }
        for ev in events.drain(..) {
            match ev {
                Event::EaDone { seq, gen } => self.handle_ea_done(seq, gen, now),
                Event::MemData { seq, gen } | Event::Complete { seq, gen } => {
                    self.handle_completion(seq, gen, now)
                }
            }
        }
        self.event_scratch = events;
        drained
    }

    fn handle_ea_done(&mut self, seq: u64, gen: u64, now: u64) {
        let Some(&entry) = self.rob.hot(seq) else {
            return;
        };
        if entry.gen != gen {
            return;
        }
        let access = entry.mem_access();
        if entry.op == OpClass::Store {
            // The store's address is known: detect younger loads that
            // already read stale data (PA-8000 style) and re-execute them.
            let victims = self.lsq.resolve_store(seq, access);
            for victim in victims {
                self.raw.memory_reexecutions += 1;
                if O::ENABLED {
                    self.obs.on_reexecute(now, victim, false);
                }
                self.reexecute(victim, now);
            }
            let e = self.rob.hot_mut(seq).expect("checked above");
            e.mem_phase = MemPhase::Done;
            e.set_completed(true);
            e.completed_at = now;
            if O::ENABLED {
                self.obs.on_complete(now, seq);
            }
            return;
        }
        // Load: decide between forwarding and a cache access.
        let disposition = self.lsq.resolve_load(seq, access);
        let forwarded = matches!(disposition, LoadDisposition::Forward { .. })
            || self.store_buffer.forwards(&access);
        if forwarded {
            self.rob.hot_mut(seq).expect("checked above").mem_phase = MemPhase::InFlight;
            self.schedule(now + 1, Event::MemData { seq, gen });
        } else {
            self.rob.hot_mut(seq).expect("checked above").mem_phase = MemPhase::AwaitCache;
            if self.probe_cache(seq, now) != CacheProbe::Settled {
                self.retry_insert(seq);
            }
        }
    }

    fn handle_completion(&mut self, seq: u64, gen: u64, now: u64) {
        // The whole happy path runs off the 32-byte hot record plus the
        // destination array; the cold ring is consulted only for branch
        // resolution (the one case that needs the PC and outcome).
        let Some(&entry) = self.rob.hot(seq) else {
            return;
        };
        if entry.gen != gen || entry.completed() {
            return;
        }
        let op = entry.op;
        let mispredicted = entry.mispredicted();
        let mut dest = self.rob.dest(seq);

        // Late allocation: the write-back scheme claims the physical
        // register in the last execution cycle (§3.2.2) — or squashes.
        if let Some(d) = dest {
            if d.preg.is_none() {
                debug_assert!(matches!(
                    self.config.scheme,
                    RenameScheme::VirtualPhysicalWriteback { .. }
                ));
                let Renamer::Vp(vp) = &mut self.renamer else {
                    unreachable!("unallocated destination implies the VP renamer")
                };
                match vp.try_allocate(d.class(), seq, now) {
                    Some(preg) => {
                        self.raw.class_mut(d.class()).allocations += 1;
                        if O::ENABLED {
                            self.obs
                                .on_vp_alloc(now, seq, d.class().index() as u8, false);
                        }
                        // Recorded immediately: the grant must stick even
                        // if a write-port stall defers the broadcast.
                        let slot = self.rob.dest_mut(seq).as_mut().expect("dest checked above");
                        slot.preg = Some(preg);
                        dest = Some(*slot);
                    }
                    None => {
                        // Out of registers: squash and re-execute (§3.3).
                        self.raw.register_reexecutions += 1;
                        if O::ENABLED {
                            self.obs.on_reexecute(now, seq, true);
                        }
                        self.reexecute(seq, now);
                        return;
                    }
                }
            }
        }

        // Register-file write ports: 8 per file per cycle; excess
        // completions retry next cycle.
        if let Some(d) = dest {
            let c = d.class().index();
            if self.wb_ports_used[c] >= self.config.regfile_write_ports {
                self.raw.writeback_port_stalls += 1;
                if O::ENABLED {
                    self.obs.on_wb_port_stall(now, seq);
                }
                self.schedule(now + 1, Event::Complete { seq, gen });
                return;
            }
            self.wb_ports_used[c] += 1;
            // Broadcast the result tag to the queue and the map tables.
            let preg = d.preg.expect("allocated above or at rename/issue");
            match &mut self.renamer {
                Renamer::Conventional(conv) => {
                    conv.on_writeback(d.class(), preg);
                    self.iq.wakeup_phys(d.class(), preg);
                }
                Renamer::EarlyRelease(er) => {
                    er.on_writeback(d.class(), preg);
                    self.iq.wakeup_phys(d.class(), preg);
                }
                Renamer::Vp(vp) => {
                    let tag = d.vp.expect("VP rename assigns a tag");
                    // A load re-executed after a memory-order violation has
                    // already bound its tag; the binding stands.
                    if vp.pmt_entry(d.class(), tag).is_none() {
                        vp.bind(d.class(), tag, preg);
                        self.iq.wakeup_vp(d.class(), tag, preg);
                        if O::ENABLED {
                            self.obs.on_vp_bind(now, seq, d.class().index() as u8);
                        }
                    }
                }
            }
        }

        let entry = self.rob.hot_mut(seq).expect("checked above");
        entry.set_completed(true);
        entry.completed_at = now;
        if op.is_mem() {
            entry.mem_phase = MemPhase::Done;
        }
        if O::ENABLED {
            self.obs.on_complete(now, seq);
        }

        if op == OpClass::BranchCond {
            // Branch resolution needs the PC and the recorded outcome — the
            // one completion case that reads the cold ring.
            let di = self.rob.di(seq);
            let (pc, taken) = (di.pc(), di.branch().expect("trace records outcomes").taken);
            self.bht.update(pc, taken);
            if mispredicted {
                self.fetch.resolve_branch(now);
            }
        }
    }

    /// Squashes an instruction back to the instruction queue for
    /// re-execution (register denial in the write-back scheme, or a
    /// memory-ordering violation). Its operands are still ready — sources
    /// cannot be freed before this instruction commits — so it re-enters
    /// the queue ready to issue.
    fn reexecute(&mut self, seq: u64, _now: u64) {
        let gen = self.fresh_gen();
        let entry = self
            .rob
            .hot_mut(seq)
            .expect("re-executed instruction is in flight");
        entry.gen = gen;
        entry.set_issued(false);
        entry.set_completed(false);
        entry.mem_phase = MemPhase::Idle;
        let op = entry.op;
        let srcs = self.rob.srcs(seq);
        self.retry_remove(seq);
        if op == OpClass::Load && self.lsq.address_of(seq).is_some() {
            self.lsq.mark_unperformed(seq);
        }
        if let Renamer::EarlyRelease(er) = &mut self.renamer {
            // The re-executed instruction will read its sources again:
            // re-arm their pending-read counters so none frees early.
            for src in srcs.iter().flatten() {
                if let SrcState::Ready(preg) = src.state {
                    er.on_reread(src.class, preg);
                }
            }
        }
        let alloc_class = self.issue_alloc_class(seq);
        self.iq.insert(IqEntry {
            seq,
            op,
            srcs,
            alloc_class,
        });
    }

    /// The register class instruction `seq` must be granted a physical
    /// register in before issue — `Some` only under the issue-allocation
    /// scheme for a still-unallocated destination (cached in the
    /// [`IqEntry`] so the selection loop stays out of the reorder buffer).
    fn issue_alloc_class(&self, seq: u64) -> Option<RegClass> {
        if !matches!(
            self.config.scheme,
            RenameScheme::VirtualPhysicalIssue { .. }
        ) {
            return None;
        }
        self.rob
            .dest(seq)
            .filter(|d| d.preg.is_none())
            .map(|d| d.class())
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    fn issue_phase(&mut self, now: u64) {
        if self.iq.ready_len() == 0 {
            return;
        }
        let mut budget = self.config.issue_width;
        let mut read_ports = [self.config.regfile_read_ports; 2];
        let mut issued = std::mem::take(&mut self.issued_scratch);
        debug_assert!(issued.is_empty());
        // Issue-allocation scheme: snapshot the §3.3 rule per class once,
        // so the selection loop evaluates denied candidates from two
        // registers' worth of state instead of re-deriving the rule each
        // time. Built lazily on the first candidate that needs a grant
        // (only the issue-allocation scheme has such candidates) and
        // refreshed after every grant below — the only thing that changes
        // the rule mid-loop.
        let mut gates: Option<[crate::rename::AllocGate; 2]> = None;
        // The ready index holds exactly the issue-eligible entries, oldest
        // first — no need to scan the waiting remainder of the window.
        for e in self.iq.ready_iter() {
            if budget == 0 {
                break;
            }
            let (int_reads, fp_reads) = e.read_port_needs();
            if int_reads > read_ports[0] || fp_reads > read_ports[1] {
                continue;
            }
            // Issue-allocation scheme: a destination needs a register
            // grant before the instruction may leave the queue (§3.4).
            // The needed class is cached in the entry, so denied
            // candidates cost no reorder-buffer traffic.
            let alloc_class = e.alloc_class();
            debug_assert_eq!(alloc_class, self.issue_alloc_class(e.seq));
            if let Some(class) = alloc_class {
                let gates = gates.get_or_insert_with(|| {
                    let Renamer::Vp(vp) = &self.renamer else {
                        unreachable!("alloc_class is set only under the VP issue scheme")
                    };
                    [vp.alloc_gate(RegClass::Int), vp.alloc_gate(RegClass::Fp)]
                });
                debug_assert!({
                    let Renamer::Vp(vp) = &self.renamer else {
                        unreachable!()
                    };
                    gates[class.index()].allows(e.seq) == vp.may_allocate(class, e.seq)
                });
                if !gates[class.index()].allows(e.seq) {
                    self.raw.issue_allocation_stalls += 1;
                    if O::ENABLED {
                        self.obs.on_nrr_denial(class.index() as u8, 1);
                    }
                    continue;
                }
            }
            if self.fus.try_issue(e.op, now).is_none() {
                continue;
            }
            read_ports[0] -= int_reads;
            read_ports[1] -= fp_reads;
            budget -= 1;
            issued.push(e.seq);
            if let Some(class) = alloc_class {
                let Renamer::Vp(vp) = &mut self.renamer else {
                    unreachable!()
                };
                let preg = vp
                    .try_allocate(class, e.seq, now)
                    .expect("may_allocate checked above");
                // The grant changed the free count and possibly `Used`:
                // refresh the rule snapshot.
                gates.as_mut().expect("built when this candidate was gated")[class.index()] =
                    vp.alloc_gate(class);
                self.raw.class_mut(class).allocations += 1;
                if O::ENABLED {
                    self.obs.on_vp_alloc(now, e.seq, class.index() as u8, true);
                }
                // The destination is recorded after the loop (needs &mut).
                self.pending_issue_allocs.push((e.seq, preg));
            }
        }
        for seq in issued.drain(..) {
            let iq_entry = self.iq.remove(seq).expect("issued from the queue");
            if let Renamer::EarlyRelease(er) = &mut self.renamer {
                // Sources are read now: their pending-read counters drop.
                for src in iq_entry.srcs.iter().flatten() {
                    if let SrcState::Ready(preg) = src.state {
                        er.on_read(src.class, preg, now);
                    }
                }
            }
            let entry = self.rob.hot_mut(seq).expect("in flight");
            entry.set_issued(true);
            entry.executions += 1;
            let gen = entry.gen;
            let op = entry.op;
            // Final (all-ready) source state, kept for re-execution.
            self.rob.set_srcs(seq, iq_entry.srcs);
            self.raw.executions += 1;
            if O::ENABLED {
                self.obs.on_issue(now, seq, op.index() as u8);
            }
            let finish = now + self.config.latencies.of(op);
            if op.is_mem() {
                self.schedule(finish, Event::EaDone { seq, gen });
            } else {
                self.schedule(finish, Event::Complete { seq, gen });
            }
        }
        self.issued_scratch = issued;
        let mut allocs = std::mem::take(&mut self.pending_issue_allocs);
        for (seq, preg) in allocs.drain(..) {
            self.rob
                .dest_mut(seq)
                .as_mut()
                .expect("allocation implies a destination")
                .preg = Some(preg);
        }
        self.pending_issue_allocs = allocs;
    }

    // ------------------------------------------------------------------
    // Rename / dispatch
    // ------------------------------------------------------------------

    fn rename_phase(&mut self, now: u64) {
        let issue_allocates = matches!(
            self.config.scheme,
            RenameScheme::VirtualPhysicalIssue { .. }
        );
        for _ in 0..self.config.rename_width {
            let Some(fi) = self.fetch_buffer.front() else {
                break;
            };
            if self.rob.is_full() {
                self.raw.rob_full_stalls += 1;
                break;
            }
            let op = fi.di.op();
            if op != OpClass::Nop && self.iq.is_full() {
                self.raw.iq_full_stalls += 1;
                break;
            }
            if op.is_mem() && self.lsq.is_full() {
                self.raw.lsq_full_stalls += 1;
                break;
            }
            // The conventional scheme allocates here and stalls in order
            // when the class's free list is empty — the exact behaviour
            // the paper's schemes defer.
            if let Some(dl) = fi.di.inst().dest() {
                let free = match &self.renamer {
                    Renamer::Conventional(conv) => Some(conv.free_count(dl.class())),
                    Renamer::EarlyRelease(er) => Some(er.free_count(dl.class())),
                    Renamer::Vp(_) => None,
                };
                if free == Some(0) {
                    self.raw.class_mut(dl.class()).rename_stalls += 1;
                    break;
                }
            }
            let fi = self.fetch_buffer.pop_front().expect("peeked above");
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut entry = RobEntry::new(seq, fi.di, fi.mispredicted);
            entry.gen = self.fresh_gen();
            let inst = fi.di.inst();
            let srcs = [
                inst.src1().map(|l| self.rename_src(l)),
                inst.src2().map(|l| self.rename_src(l)),
            ];
            entry.srcs = srcs;
            if let Some(dl) = inst.dest() {
                entry.dest = Some(match &mut self.renamer {
                    Renamer::Conventional(conv) => {
                        let (new, prev) = conv
                            .try_rename_dest(dl, now)
                            .expect("free list checked above");
                        self.raw.class_mut(dl.class()).allocations += 1;
                        RenamedDest {
                            logical: dl,
                            vp: None,
                            preg: Some(new),
                            prev_vp: None,
                            prev_preg: Some(prev),
                        }
                    }
                    Renamer::EarlyRelease(er) => {
                        let (new, prev) = er
                            .try_rename_dest(dl, now)
                            .expect("free list checked above");
                        self.raw.class_mut(dl.class()).allocations += 1;
                        RenamedDest {
                            logical: dl,
                            vp: None,
                            preg: Some(new),
                            prev_vp: None,
                            prev_preg: Some(prev),
                        }
                    }
                    Renamer::Vp(vp) => {
                        let (new_vp, prev_vp) = vp.rename_dest(dl, seq, now);
                        RenamedDest {
                            logical: dl,
                            vp: Some(new_vp),
                            preg: None,
                            prev_vp: Some(prev_vp),
                            prev_preg: None,
                        }
                    }
                });
            }
            match op {
                OpClass::Load => self.lsq.insert_load(seq),
                OpClass::Store => self.lsq.insert_store(seq),
                OpClass::Nop => {
                    entry.completed = true;
                    entry.completed_at = now;
                }
                _ => {}
            }
            // Derived from the entry at hand rather than looked back up
            // through the reorder buffer (`issue_alloc_class` agrees, as
            // the debug assertion checks).
            let alloc_class = if issue_allocates {
                entry.dest.filter(|d| d.preg.is_none()).map(|d| d.class())
            } else {
                None
            };
            self.rob.push(entry);
            if let Some(dl) = inst.dest() {
                self.dest_seqs[dl.class().index()].push_back(seq);
            }
            if op != OpClass::Nop {
                debug_assert_eq!(alloc_class, self.issue_alloc_class(seq));
                self.iq.insert(IqEntry {
                    seq,
                    op,
                    srcs,
                    alloc_class,
                });
            }
            if O::ENABLED {
                self.obs.on_rename(now, seq, fi.di.pc(), op.index() as u8);
            }
        }
    }

    fn rename_src(&mut self, logical: vpr_isa::LogicalReg) -> crate::rename::RenamedSrc {
        match &mut self.renamer {
            Renamer::Conventional(conv) => conv.rename_src(logical),
            Renamer::EarlyRelease(er) => er.rename_src(logical),
            Renamer::Vp(vp) => vp.rename_src(logical),
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch_phase(&mut self, now: u64) {
        if self.fetch_buffer.is_empty() && !self.fetch.is_done() {
            let buffer = &mut self.fetch_buffer;
            let obs = &mut self.obs;
            self.fetch.fetch_block_into(
                now,
                &mut self.trace,
                &self.bht,
                self.config.fetch_width,
                &mut |fi| {
                    if O::ENABLED {
                        obs.on_fetch(now, fi.di.pc());
                    }
                    buffer.push_back(fi);
                },
            );
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore
// ----------------------------------------------------------------------

impl vpr_snap::Snap for Renamer {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        match self {
            Renamer::Conventional(r) => {
                enc.put_u8(0);
                r.save(enc);
            }
            Renamer::EarlyRelease(r) => {
                enc.put_u8(1);
                r.save(enc);
            }
            Renamer::Vp(r) => {
                enc.put_u8(2);
                r.save(enc);
            }
        }
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        match dec.take_u8() {
            0 => Renamer::Conventional(ConventionalRenamer::load(dec)),
            1 => Renamer::EarlyRelease(EarlyReleaseRenamer::load(dec)),
            2 => Renamer::Vp(VpRenamer::load(dec)),
            other => panic!("snapshot Renamer tag {other}: layout mismatch"),
        }
    }
}

impl<S: InstStream + vpr_snap::Resumable, O: PipeObserver> Processor<S, O> {
    /// Captures the complete microarchitectural state — pipeline, reorder
    /// buffer, instruction queue, functional units, renamer (map tables,
    /// free lists, NRR counters), cache/MSHRs/LSQ/store buffer, branch
    /// state, scheduled events, statistics, and the trace generator's
    /// position — into a versioned [`vpr_snap::Snapshot`]. The observer
    /// is **not** captured: the snapshot payload is identical whether or
    /// not a run is observed, and a restored machine starts with a fresh
    /// observer.
    ///
    /// A processor restored from the snapshot ([`Processor::restore`])
    /// continues **bit-identically** to this one: every subsequent
    /// [`SimStats`] counter matches an uninterrupted run. Snapshots are
    /// taken at cycle boundaries (between [`Processor::step`]s), which is
    /// the only machine state this type ever exposes.
    pub fn snapshot(&self) -> vpr_snap::Snapshot {
        use vpr_snap::Snap as _;
        let mut enc = vpr_snap::Encoder::new();
        self.config.save(&mut enc);
        enc.put_u64(self.cycle);
        enc.put_u64(self.next_seq);
        enc.put_u64(self.gen_counter);
        enc.put_u64(self.last_commit_cycle);
        self.wb_ports_used.save(&mut enc);
        self.raw.save(&mut enc);
        self.base.save(&mut enc);
        self.trace.save_state(&mut enc);
        self.fetch.save(&mut enc);
        self.bht.save(&mut enc);
        self.cache.save(&mut enc);
        self.lsq.save(&mut enc);
        self.store_buffer.save(&mut enc);
        self.renamer.save(&mut enc);
        self.rob.save(&mut enc);
        self.iq.save(&mut enc);
        self.fus.save(&mut enc);
        self.fetch_buffer.save(&mut enc);
        self.cache_retry.save(&mut enc);
        self.retry_memo.save(&mut enc);
        self.dest_seqs.save(&mut enc);
        // Events re-key on restore relative to the restored cycle; saving
        // them in per-cycle drain order makes re-scheduling reproduce the
        // exact drain behaviour (see `CalendarQueue::collect_pending`).
        self.events.collect_pending(self.cycle).save(&mut enc);
        vpr_snap::Snapshot::new(enc.into_bytes())
    }

    /// Rebuilds a processor from a snapshot taken by
    /// [`Processor::snapshot`], attaching lifecycle observer `obs` (which
    /// starts empty — observers are never serialised): a machine built
    /// for the snapshot's configuration, then [`Processor::restore_into`].
    /// The unobserved form is [`Processor::restore`].
    ///
    /// `trace` must be a freshly built generator of the **same workload**
    /// the snapshotted processor ran (same program, same seed); its
    /// position is restored from the snapshot, so where it currently
    /// stands does not matter. The machine configuration travels inside
    /// the snapshot.
    ///
    /// # Errors
    ///
    /// [`vpr_snap::SnapError::Mismatch`] when the payload is inconsistent
    /// (e.g. a renamer that disagrees with the serialised configuration,
    /// or trailing bytes).
    ///
    /// # Panics
    ///
    /// Panics if the payload is malformed at the field level — the
    /// envelope's checksum makes that a logic error, not an input error.
    pub fn restore_with(
        snapshot: &vpr_snap::Snapshot,
        trace: S,
        obs: O,
    ) -> Result<Self, vpr_snap::SnapError> {
        use vpr_snap::Snap as _;
        let config = SimConfig::load(&mut vpr_snap::Decoder::new(snapshot.payload()));
        let mut cpu = Processor::with_observer(config, trace, obs);
        cpu.restore_into(snapshot)?;
        Ok(cpu)
    }

    /// Restores a snapshot taken by [`Processor::snapshot`] into this
    /// machine — the one decode path, which [`Processor::restore_with`]
    /// runs on a new machine. A sampled run restores each of its windows
    /// into one machine this way, every window a checkpoint of the
    /// point's own configuration.
    ///
    /// Nothing of what the machine ran before survives but allocated
    /// capacity: the configuration comes from the payload (the machine
    /// may have run any other one before), every component and the trace
    /// position are decoded, the event calendar is rebuilt from the
    /// snapshot's events, the per-cycle scratch buffers are emptied and
    /// the observer is reset. The machine's trace must be a generator of
    /// the **same workload** the snapshotted processor ran; it may stand
    /// anywhere. The continuation is bit-identical to the uninterrupted
    /// run, as from a new machine.
    ///
    /// # Errors
    ///
    /// [`vpr_snap::SnapError::Mismatch`] when the payload is inconsistent
    /// (an invalid configuration, a renamer that disagrees with it, an
    /// event not after the snapshot's cycle, or trailing bytes). The
    /// machine is then half-restored and must be restored again before
    /// it runs.
    ///
    /// # Panics
    ///
    /// Panics if the payload is malformed at the field level — the
    /// envelope's checksum makes that a logic error, not an input error.
    pub fn restore_into(
        &mut self,
        snapshot: &vpr_snap::Snapshot,
    ) -> Result<(), vpr_snap::SnapError> {
        use vpr_snap::Snap as _;
        let dec = &mut vpr_snap::Decoder::new(snapshot.payload());
        self.config = SimConfig::load(dec);
        self.config
            .validate()
            .map_err(|e| vpr_snap::SnapError::Mismatch(format!("configuration: {e}")))?;
        self.cycle = dec.take_u64();
        self.next_seq = dec.take_u64();
        self.gen_counter = dec.take_u64();
        self.last_commit_cycle = dec.take_u64();
        self.wb_ports_used.load_into(dec);
        self.raw.load_into(dec);
        self.base.load_into(dec);
        self.trace.restore_state(dec);
        self.fetch.load_into(dec);
        self.bht.load_into(dec);
        self.cache.load_into(dec);
        self.lsq.load_into(dec);
        self.store_buffer.load_into(dec);
        self.renamer.load_into(dec);
        let renamer_fits = matches!(
            (&self.renamer, self.config.scheme),
            (Renamer::Conventional(_), RenameScheme::Conventional)
                | (
                    Renamer::EarlyRelease(_),
                    RenameScheme::ConventionalEarlyRelease
                )
                | (Renamer::Vp(_), RenameScheme::VirtualPhysicalIssue { .. })
                | (
                    Renamer::Vp(_),
                    RenameScheme::VirtualPhysicalWriteback { .. }
                )
        );
        if !renamer_fits {
            return Err(vpr_snap::SnapError::Mismatch(format!(
                "renamer does not match scheme {:?}",
                self.config.scheme
            )));
        }
        self.rob.load_into(dec);
        self.iq.load_into(dec);
        self.fus.load_into(dec);
        self.fetch_buffer.load_into(dec);
        self.cache_retry.load_into(dec);
        self.retry_memo.load_into(dec);
        self.dest_seqs.load_into(dec);
        // The events, as `snapshot` saved them (a `Vec<(u64, Event)>`),
        // scheduled straight into the emptied calendar.
        self.events.clear();
        let before = self.cycle.saturating_sub(1);
        for _ in 0..dec.take_usize() {
            let (at, ev) = <(u64, Event)>::load(dec);
            if at <= before {
                return Err(vpr_snap::SnapError::Mismatch(format!(
                    "event scheduled at cycle {at}, not after cycle {before}"
                )));
            }
            self.events.schedule(before, at, ev);
        }
        if dec.remaining() != 0 {
            return Err(vpr_snap::SnapError::Mismatch(format!(
                "{} trailing payload bytes",
                dec.remaining()
            )));
        }
        self.pending_issue_allocs.clear();
        self.event_scratch.clear();
        self.issued_scratch.clear();
        self.obs.reset();
        Ok(())
    }
}

impl<S: InstStream + vpr_snap::Resumable> Processor<S> {
    /// Rebuilds an unobserved processor from a snapshot taken by
    /// [`Processor::snapshot`] — [`Processor::restore_with`] with
    /// [`NoObs`].
    ///
    /// # Errors
    ///
    /// [`vpr_snap::SnapError::Mismatch`] when the payload is inconsistent
    /// (e.g. a renamer that disagrees with the serialised configuration,
    /// or trailing bytes).
    ///
    /// # Panics
    ///
    /// Panics if the payload is malformed at the field level — the
    /// envelope's checksum makes that a logic error, not an input error.
    pub fn restore(snapshot: &vpr_snap::Snapshot, trace: S) -> Result<Self, vpr_snap::SnapError> {
        Self::restore_with(snapshot, trace, NoObs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_isa::{BranchInfo, DynInst, Inst, LogicalReg, MemAccess};

    fn alu(pc: u64, dest: usize, src: usize) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(OpClass::IntAlu)
                .with_dest(LogicalReg::int(dest))
                .with_src1(LogicalReg::int(src)),
        )
    }

    fn fp_chain_inst(pc: u64, op: OpClass) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(op)
                .with_dest(LogicalReg::fp(2))
                .with_src1(LogicalReg::fp(2))
                .with_src2(LogicalReg::fp(10)),
        )
    }

    fn load(pc: u64, dest: usize, addr: u64) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(OpClass::Load)
                .with_dest(LogicalReg::int(dest))
                .with_src1(LogicalReg::int(30)),
        )
        .with_mem(MemAccess::word(addr))
    }

    fn store(pc: u64, data: usize, addr: u64) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(OpClass::Store)
                .with_src1(LogicalReg::int(data))
                .with_src2(LogicalReg::int(30)),
        )
        .with_mem(MemAccess::word(addr))
    }

    fn cfg(scheme: RenameScheme) -> SimConfig {
        SimConfig::builder().scheme(scheme).build()
    }

    fn all_schemes() -> [RenameScheme; 3] {
        [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalIssue { nrr: 32 },
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ]
    }

    #[test]
    fn straight_line_commits_everything() {
        for scheme in all_schemes() {
            let trace: Vec<DynInst> = (0..200)
                .map(|i| alu(i * 4, (i % 8 + 1) as usize, 0))
                .collect();
            let mut cpu = Processor::new(cfg(scheme), trace.into_iter());
            let stats = cpu.run_to_completion();
            assert_eq!(stats.committed, 200, "{scheme:?}");
            assert!(
                stats.ipc() > 1.0,
                "{scheme:?}: independent ALUs reach IPC {}",
                stats.ipc()
            );
        }
    }

    #[test]
    fn dependent_chain_serialises() {
        // r1 <- r1 chains: one per cycle at best.
        for scheme in all_schemes() {
            let trace: Vec<DynInst> = (0..100).map(|i| alu(i * 4, 1, 1)).collect();
            let mut cpu = Processor::new(cfg(scheme), trace.into_iter());
            let stats = cpu.run_to_completion();
            assert_eq!(stats.committed, 100);
            assert!(
                stats.ipc() <= 1.05,
                "{scheme:?}: dependent chain cannot beat 1 IPC, got {}",
                stats.ipc()
            );
        }
    }

    #[test]
    fn load_hits_and_misses_complete() {
        for scheme in all_schemes() {
            // Two loads to the same line (miss + merge/hit), one far away.
            let trace = vec![
                load(0x0, 1, 0x1000),
                load(0x4, 2, 0x1008),
                load(0x8, 3, 0x20000),
                alu(0xc, 4, 1),
            ];
            let mut cpu = Processor::new(cfg(scheme), trace.into_iter());
            let stats = cpu.run_to_completion();
            assert_eq!(stats.committed, 4, "{scheme:?}");
            assert!(stats.cache.misses >= 2, "{scheme:?}");
            assert!(stats.cycles > 50, "{scheme:?}: a miss costs 50 cycles");
        }
    }

    #[test]
    fn store_load_forwarding_avoids_cache() {
        for scheme in all_schemes() {
            let trace = vec![
                store(0x0, 1, 0x4000),
                load(0x4, 2, 0x4000), // same address: forwards
            ];
            let mut cpu = Processor::new(cfg(scheme), trace.into_iter());
            let stats = cpu.run_to_completion();
            assert_eq!(stats.committed, 2, "{scheme:?}");
            assert!(
                stats.lsq.forwards >= 1 || stats.cache.hits + stats.cache.misses <= 1,
                "{scheme:?}: the load should forward, not read the cache"
            );
        }
    }

    #[test]
    fn memory_violation_triggers_reexecution() {
        // The store's data register r9 is produced by a slow divide, so
        // the load to the same address races ahead and must re-execute.
        let div = DynInst::new(
            0x0,
            Inst::new(OpClass::IntDiv)
                .with_dest(LogicalReg::int(9))
                .with_src1(LogicalReg::int(1)),
        );
        // Store address depends on the divide too (base r9), so the store
        // cannot resolve before the load performs.
        let slow_store = DynInst::new(
            0x4,
            Inst::new(OpClass::Store)
                .with_src1(LogicalReg::int(9))
                .with_src2(LogicalReg::int(9)),
        )
        .with_mem(MemAccess::word(0x4000));
        let racy_load = load(0x8, 2, 0x4000);
        for scheme in all_schemes() {
            let trace = vec![div, slow_store, racy_load];
            let mut cpu = Processor::new(cfg(scheme), trace.into_iter());
            let stats = cpu.run_to_completion();
            assert_eq!(stats.committed, 3, "{scheme:?}");
            assert_eq!(stats.memory_reexecutions, 1, "{scheme:?}");
            assert_eq!(stats.lsq.violations, 1, "{scheme:?}");
        }
    }

    #[test]
    fn conventional_stalls_when_registers_scarce() {
        // 34 physical registers = 2 spare. A long fdiv chain holds
        // registers; rename must stall.
        let mut trace = vec![fp_chain_inst(0, OpClass::FpDiv)];
        for i in 1..40 {
            trace.push(fp_chain_inst(i * 4, OpClass::FpAdd));
        }
        let c = SimConfig::builder()
            .scheme(RenameScheme::Conventional)
            .physical_regs(34)
            .build();
        let mut cpu = Processor::new(c, trace.into_iter());
        let stats = cpu.run_to_completion();
        assert_eq!(stats.committed, 40);
        assert!(stats.fp.rename_stalls > 0, "expected rename stalls");
    }

    #[test]
    fn vp_writeback_reexecutes_when_registers_scarce() {
        // 34 physical registers, NRR 1: plenty of completions will find
        // no register and re-execute — but everything still commits.
        let mut trace = Vec::new();
        for i in 0..64 {
            // Independent FP adds writing different registers: they all
            // complete around the same time and fight for 2 spare regs.
            trace.push(DynInst::new(
                i * 4,
                Inst::new(OpClass::FpAdd)
                    .with_dest(LogicalReg::fp((i % 32) as usize))
                    .with_src1(LogicalReg::fp(0)),
            ));
        }
        let c = SimConfig::builder()
            .scheme(RenameScheme::VirtualPhysicalWriteback { nrr: 1 })
            .physical_regs(34)
            .build();
        let mut cpu = Processor::new(c, trace.into_iter());
        let stats = cpu.run_to_completion();
        assert_eq!(stats.committed, 64);
        assert!(
            stats.register_reexecutions > 0,
            "scarce registers must cause re-executions"
        );
        assert!(stats.executions_per_commit() > 1.0);
    }

    #[test]
    fn vp_issue_waits_instead_of_reexecuting() {
        let mut trace = Vec::new();
        for i in 0..64 {
            trace.push(DynInst::new(
                i * 4,
                Inst::new(OpClass::FpAdd)
                    .with_dest(LogicalReg::fp((i % 32) as usize))
                    .with_src1(LogicalReg::fp(0)),
            ));
        }
        let c = SimConfig::builder()
            .scheme(RenameScheme::VirtualPhysicalIssue { nrr: 1 })
            .physical_regs(34)
            .build();
        let mut cpu = Processor::new(c, trace.into_iter());
        let stats = cpu.run_to_completion();
        assert_eq!(stats.committed, 64);
        assert_eq!(
            stats.register_reexecutions, 0,
            "issue allocation never squashes"
        );
        assert!(
            stats.issue_allocation_stalls > 0,
            "it stalls in the queue instead"
        );
        assert!((stats.executions_per_commit() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mispredicted_branch_stalls_fetch() {
        // A not-taken-trained predictor meets a taken branch.
        let b = DynInst::new(0x100, Inst::new(OpClass::BranchCond)).with_branch(BranchInfo {
            taken: true,
            next_pc: 0x4000,
        });
        let trace = vec![alu(0xfc, 1, 0), b, alu(0x4000, 2, 0), alu(0x4004, 3, 0)];
        for scheme in all_schemes() {
            let mut cpu = Processor::new(cfg(scheme), trace.clone().into_iter());
            let stats = cpu.run_to_completion();
            assert_eq!(stats.committed, 4, "{scheme:?}");
            assert_eq!(stats.fetch.mispredictions, 1, "{scheme:?}");
            assert!(stats.fetch.stall_cycles > 0, "{scheme:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        for scheme in all_schemes() {
            let mk = || {
                let mut t = Vec::new();
                for i in 0..300u64 {
                    match i % 5 {
                        0 => t.push(load(i * 4, (i % 7 + 1) as usize, 0x1000 + (i * 24) % 65536)),
                        1 => t.push(store(i * 4, 1, 0x2000 + (i * 40) % 65536)),
                        2 => t.push(fp_chain_inst(i * 4, OpClass::FpMul)),
                        _ => t.push(alu(i * 4, (i % 8 + 9) as usize, (i % 3) as usize)),
                    }
                }
                t
            };
            let a = Processor::new(cfg(scheme), mk().into_iter()).run_to_completion();
            let b = Processor::new(cfg(scheme), mk().into_iter()).run_to_completion();
            assert_eq!(a, b, "{scheme:?}: simulation must be deterministic");
        }
    }

    #[test]
    fn warm_up_resets_the_window() {
        let trace: Vec<DynInst> = (0..400).map(|i| alu(i * 4, 1, 1)).collect();
        let mut cpu = Processor::new(cfg(RenameScheme::Conventional), trace.into_iter());
        cpu.warm_up(100);
        let s0 = cpu.stats();
        assert_eq!(s0.committed, 0);
        let s = cpu.run_to_completion();
        assert_eq!(s.committed, 300);
        assert!(s.cycles > 0 && s.cycles < cpu.cycle());
    }

    #[test]
    fn vp_commit_delay_costs_cycles() {
        let trace: Vec<DynInst> = (0..500).map(|i| alu(i * 4, 1, 1)).collect();
        let base = cfg(RenameScheme::VirtualPhysicalWriteback { nrr: 32 });
        let mut delayed = base.clone();
        delayed.vp_commit_delay = true;
        let fast = Processor::new(base, trace.clone().into_iter()).run_to_completion();
        let slow = Processor::new(delayed, trace.into_iter()).run_to_completion();
        assert!(
            slow.cycles > fast.cycles,
            "the PMT look-up delay must cost cycles"
        );
    }

    #[test]
    fn paper_motivating_example_register_pressure() {
        // §3.1: load f2; fdiv f2,f2,f10; fmul f2,f2,f12; fadd f2,f2,f1 —
        // with late allocation each register is held far shorter. Compare
        // total FP hold cycles between conventional and VP write-back.
        let mk = || {
            vec![
                DynInst::new(
                    0x0,
                    Inst::new(OpClass::Load)
                        .with_dest(LogicalReg::fp(2))
                        .with_src1(LogicalReg::int(6)),
                )
                .with_mem(MemAccess::word(0x20000)),
                fp_chain_inst(0x4, OpClass::FpDiv),
                fp_chain_inst(0x8, OpClass::FpMul),
                fp_chain_inst(0xc, OpClass::FpAdd),
            ]
        };
        let conv =
            Processor::new(cfg(RenameScheme::Conventional), mk().into_iter()).run_to_completion();
        let vp = Processor::new(
            cfg(RenameScheme::VirtualPhysicalWriteback { nrr: 32 }),
            mk().into_iter(),
        )
        .run_to_completion();
        assert_eq!(conv.committed, 4);
        assert_eq!(vp.committed, 4);
        assert!(
            vp.fp.hold_cycles * 2 < conv.fp.hold_cycles,
            "late allocation must slash register pressure: vp={} conv={}",
            vp.fp.hold_cycles,
            conv.fp.hold_cycles
        );
    }

    #[test]
    fn observer_never_perturbs_stats() {
        // A mixed trace (ALU chains, loads, stores, branches) must produce
        // bit-identical SimStats with and without a live observer attached —
        // the observer only copies primitives out of the pipeline.
        use vpr_obs::SimObserver;
        let mut trace = Vec::new();
        for i in 0..120u64 {
            trace.push(alu(i * 32, (i % 8 + 1) as usize, (i % 4) as usize));
            trace.push(load(i * 32 + 4, 9, 0x1000 + (i % 16) * 8));
            trace.push(store(i * 32 + 8, 9, 0x8000 + (i % 8) * 64));
            trace.push(
                DynInst::new(
                    i * 32 + 12,
                    Inst::new(OpClass::BranchCond).with_src1(LogicalReg::int(9)),
                )
                .with_branch(BranchInfo {
                    taken: i % 3 == 0,
                    next_pc: (i + 1) * 32,
                }),
            );
        }
        for scheme in all_schemes() {
            let plain = Processor::new(cfg(scheme), trace.clone().into_iter()).run_to_completion();
            let mut observed = Processor::with_observer(
                cfg(scheme),
                trace.clone().into_iter(),
                SimObserver::with_trace(vpr_obs::PipelineTrace::new(
                    256,
                    OpClass::ALL.iter().map(|o| o.to_string()).collect(),
                )),
            );
            let traced = observed.run_to_completion();
            assert_eq!(plain, traced, "{scheme:?}: observer must be invisible");
            let obs = observed.into_observer();
            assert_eq!(obs.metrics.committed, traced.committed, "{scheme:?}");
            assert!(!obs.trace.as_ref().unwrap().is_empty(), "{scheme:?}");
        }
    }
}

#[cfg(test)]
mod early_release_tests {
    use super::*;
    use vpr_isa::{DynInst, Inst, LogicalReg, MemAccess};

    fn chain_trace(n: u64) -> Vec<DynInst> {
        // load f2 (missing), then a dependent FP chain rewriting f2 — the
        // §3.1 pattern that exposes both waste intervals.
        (0..n)
            .flat_map(|i| {
                let pc = 0x1000 + 16 * i;
                vec![
                    DynInst::new(
                        pc,
                        Inst::new(OpClass::Load)
                            .with_dest(LogicalReg::fp(2))
                            .with_src1(LogicalReg::int(6)),
                    )
                    .with_mem(MemAccess::word(0x10_0000 + 64 * i)),
                    DynInst::new(
                        pc + 4,
                        Inst::new(OpClass::FpDiv)
                            .with_dest(LogicalReg::fp(2))
                            .with_src1(LogicalReg::fp(2))
                            .with_src2(LogicalReg::fp(10)),
                    ),
                    DynInst::new(
                        pc + 8,
                        Inst::new(OpClass::FpMul)
                            .with_dest(LogicalReg::fp(2))
                            .with_src1(LogicalReg::fp(2))
                            .with_src2(LogicalReg::fp(12)),
                    ),
                ]
            })
            .collect()
    }

    fn run(scheme: RenameScheme) -> SimStats {
        let config = SimConfig::builder().scheme(scheme).build();
        Processor::new(config, chain_trace(64).into_iter()).run_to_completion()
    }

    #[test]
    fn early_release_commits_everything() {
        let s = run(RenameScheme::ConventionalEarlyRelease);
        assert_eq!(s.committed, 192);
        assert!(s.early_releases > 0, "superseded+read registers free early");
    }

    #[test]
    fn early_release_cuts_pressure_vs_conventional() {
        let conv = run(RenameScheme::Conventional);
        let er = run(RenameScheme::ConventionalEarlyRelease);
        assert_eq!(conv.committed, er.committed);
        assert!(
            er.fp.hold_cycles < conv.fp.hold_cycles,
            "early release must shrink the pressure integral: {} vs {}",
            er.fp.hold_cycles,
            conv.fp.hold_cycles
        );
        // Conservation: every allocation is eventually released (the
        // trace drains completely, so only the 32 architectural mappings
        // remain live — which were boot-allocated, not counted).
        assert_eq!(er.fp.allocations, er.fp.frees);
    }

    #[test]
    fn vp_writeback_still_holds_least() {
        // The paper's two waste intervals: early release removes the
        // read-to-next-writer-commit tail; VP write-back removes the
        // decode-to-writeback head, which dominates for long-latency
        // chains like this one.
        let er = run(RenameScheme::ConventionalEarlyRelease);
        let vp = run(RenameScheme::VirtualPhysicalWriteback { nrr: 32 });
        assert!(
            vp.fp.hold_cycles < er.fp.hold_cycles,
            "VP write-back should beat early release here: {} vs {}",
            vp.fp.hold_cycles,
            er.fp.hold_cycles
        );
    }

    #[test]
    fn early_release_survives_memory_reexecution() {
        // A violated load re-executes and re-reads its sources: counters
        // must re-arm rather than underflow or double free.
        let div = DynInst::new(
            0x0,
            Inst::new(OpClass::IntDiv)
                .with_dest(LogicalReg::int(9))
                .with_src1(LogicalReg::int(1)),
        );
        let slow_store = DynInst::new(
            0x4,
            Inst::new(OpClass::Store)
                .with_src1(LogicalReg::int(9))
                .with_src2(LogicalReg::int(9)),
        )
        .with_mem(MemAccess::word(0x4000));
        let racy_load = DynInst::new(
            0x8,
            Inst::new(OpClass::Load)
                .with_dest(LogicalReg::int(2))
                .with_src1(LogicalReg::int(30)),
        )
        .with_mem(MemAccess::word(0x4000));
        let consumer = DynInst::new(
            0xc,
            Inst::new(OpClass::IntAlu)
                .with_dest(LogicalReg::int(3))
                .with_src1(LogicalReg::int(2)),
        );
        let config = SimConfig::builder()
            .scheme(RenameScheme::ConventionalEarlyRelease)
            .build();
        let trace = vec![div, slow_store, racy_load, consumer];
        let s = Processor::new(config, trace.into_iter()).run_to_completion();
        assert_eq!(s.committed, 4);
        assert_eq!(s.memory_reexecutions, 1);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use vpr_isa::{DynInst, Inst, LogicalReg, MemAccess};
    use vpr_mem::CacheConfig;

    fn alu(pc: u64, dest: usize, src: usize) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(OpClass::IntAlu)
                .with_dest(LogicalReg::int(dest))
                .with_src1(LogicalReg::int(src)),
        )
    }

    fn store(pc: u64, addr: u64) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(OpClass::Store)
                .with_src1(LogicalReg::int(1))
                .with_src2(LogicalReg::int(30)),
        )
        .with_mem(MemAccess::word(addr))
    }

    fn all_schemes() -> [RenameScheme; 4] {
        [
            RenameScheme::Conventional,
            RenameScheme::ConventionalEarlyRelease,
            RenameScheme::VirtualPhysicalIssue { nrr: 1 },
            RenameScheme::VirtualPhysicalWriteback { nrr: 1 },
        ]
    }

    #[test]
    fn width_one_machine_works() {
        for scheme in all_schemes() {
            let cfg = SimConfig::builder().scheme(scheme).width(1).build();
            let trace: Vec<DynInst> = (0..50).map(|i| alu(i * 4, 1, 1)).collect();
            let stats = Processor::new(cfg, trace.into_iter()).run_to_completion();
            assert_eq!(stats.committed, 50, "{scheme:?}");
            assert!(stats.cycles >= 50, "{scheme:?}: at most 1 IPC");
        }
    }

    #[test]
    fn tiny_rob_works() {
        for scheme in all_schemes() {
            let cfg = SimConfig::builder().scheme(scheme).rob_size(4).build();
            let trace: Vec<DynInst> = (0..100)
                .map(|i| alu(i * 4, (i % 8 + 1) as usize, 0))
                .collect();
            let stats = Processor::new(cfg, trace.into_iter()).run_to_completion();
            assert_eq!(stats.committed, 100, "{scheme:?}");
            assert!(
                stats.rob_full_stalls > 0,
                "{scheme:?}: a 4-entry ROB must stall"
            );
        }
    }

    #[test]
    fn minimal_register_file_works() {
        // 33 physical registers: a single spare.
        for scheme in [
            RenameScheme::Conventional,
            RenameScheme::ConventionalEarlyRelease,
            RenameScheme::VirtualPhysicalIssue { nrr: 1 },
            RenameScheme::VirtualPhysicalWriteback { nrr: 1 },
        ] {
            let cfg = SimConfig::builder()
                .scheme(scheme)
                .physical_regs(33)
                .build();
            let trace: Vec<DynInst> = (0..60).map(|i| alu(i * 4, (i % 5) as usize, 2)).collect();
            let stats = Processor::new(cfg, trace.into_iter()).run_to_completion();
            assert_eq!(
                stats.committed, 60,
                "{scheme:?}: single-spare file must not deadlock"
            );
        }
    }

    #[test]
    fn store_buffer_full_stalls_commit_but_progresses() {
        // A tiny store buffer + all-miss stores: commit must stall on the
        // buffer yet everything drains.
        let mut cfg = SimConfig::builder()
            .scheme(RenameScheme::Conventional)
            .build();
        cfg.store_buffer_size = 1;
        cfg.cache = CacheConfig {
            mshrs: 1,
            ..CacheConfig::default()
        };
        let trace: Vec<DynInst> = (0..30).map(|i| store(i * 4, 0x4000 + i * 4096)).collect();
        let stats = Processor::new(cfg, trace.into_iter()).run_to_completion();
        assert_eq!(stats.committed, 30);
        assert!(
            stats.store_buffer_stalls > 0,
            "1-entry buffer must stall commit"
        );
    }

    #[test]
    fn class_independence_one_file_exhausted() {
        // §3.3: "if the processor runs out of a type of registers, the
        // processor is allowed to continue executing instructions of the
        // other type". Saturate the FP file with slow dividers while int
        // work flows.
        let mut trace = Vec::new();
        for i in 0..40u64 {
            trace.push(DynInst::new(
                i * 8,
                Inst::new(OpClass::FpDiv)
                    .with_dest(LogicalReg::fp((i % 32) as usize))
                    .with_src1(LogicalReg::fp(0)),
            ));
            trace.push(alu(i * 8 + 4, (i % 8 + 1) as usize, 0));
        }
        let cfg = SimConfig::builder()
            .scheme(RenameScheme::VirtualPhysicalWriteback { nrr: 2 })
            .physical_regs(36)
            .build();
        let stats = Processor::new(cfg, trace.into_iter()).run_to_completion();
        assert_eq!(stats.committed, 80);
        // The int side must not suffer register re-executions.
        assert!(stats.fp.allocations > 0 && stats.int.allocations > 0);
    }

    #[test]
    fn write_port_saturation_defers_completions() {
        // 16 independent 1-cycle ALUs complete in a burst wider than the
        // 8 write ports when issue width allows; shrink ports to force
        // deferrals.
        let mut cfg = SimConfig::builder()
            .scheme(RenameScheme::Conventional)
            .build();
        cfg.regfile_write_ports = 1;
        let trace: Vec<DynInst> = (0..64)
            .map(|i| alu(i * 4, (i % 8 + 1) as usize, 0))
            .collect();
        let stats = Processor::new(cfg, trace.into_iter()).run_to_completion();
        assert_eq!(stats.committed, 64);
        assert!(
            stats.writeback_port_stalls > 0,
            "a single write port must defer parallel completions"
        );
    }

    #[test]
    fn nops_commit_without_executing() {
        let trace: Vec<DynInst> = (0..20)
            .map(|i| DynInst::new(i * 4, Inst::new(OpClass::Nop)))
            .collect();
        for scheme in all_schemes() {
            let cfg = SimConfig::builder().scheme(scheme).build();
            let stats = Processor::new(cfg, trace.clone().into_iter()).run_to_completion();
            assert_eq!(stats.committed, 20, "{scheme:?}");
            assert_eq!(stats.executions, 0, "{scheme:?}: nops never issue");
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        for scheme in all_schemes() {
            let cfg = SimConfig::builder().scheme(scheme).build();
            let stats = Processor::new(cfg, std::iter::empty()).run_to_completion();
            assert_eq!(stats.committed, 0, "{scheme:?}");
        }
    }

    #[test]
    fn unconditional_jumps_flow_through() {
        use vpr_isa::BranchInfo;
        let mut trace = Vec::new();
        let mut pc = 0u64;
        for i in 0..30u64 {
            trace.push(alu(pc, (i % 8 + 1) as usize, 0));
            pc += 4;
            let target = pc + 0x100;
            trace.push(
                DynInst::new(pc, Inst::new(OpClass::BranchUncond)).with_branch(BranchInfo {
                    taken: true,
                    next_pc: target,
                }),
            );
            pc = target;
        }
        for scheme in all_schemes() {
            let cfg = SimConfig::builder().scheme(scheme).build();
            let stats = Processor::new(cfg, trace.clone().into_iter()).run_to_completion();
            assert_eq!(stats.committed, 60, "{scheme:?}");
            assert_eq!(
                stats.fetch.mispredictions, 0,
                "{scheme:?}: jumps never mispredict"
            );
        }
    }
}
