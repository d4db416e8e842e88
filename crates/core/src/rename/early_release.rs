//! Early register release via pending-read counters.
//!
//! The paper (§3.1) divides the conventional scheme's register waste into
//! two intervals: (1) decode → write-back, which virtual-physical
//! registers eliminate, and (2) last read → commit of the *next* writer,
//! which prior work eliminated "by associating a counter with each
//! physical register that keeps track of the pending read operations —
//! a register is freed whenever the counter is zero, provided that the
//! corresponding [logical] register has been subsequently renamed"
//! (Moudgill, Pingali & Vassiliadis; Smith & Sohi — the paper's [8] and
//! [10]). This module implements that complementary scheme on top of
//! decode-time allocation, giving the repository a fourth point of
//! comparison.
//!
//! A register is released when **all three** hold:
//!
//! 1. *superseded* — a later writer of the same logical register has been
//!    renamed, so no future instruction can name this register;
//! 2. *pending reads are zero* — every renamed consumer has actually read
//!    the value (re-executed consumers re-arm the counter);
//! 3. *the producer has committed* — the value can no longer be
//!    re-created, so the storage is genuinely dead. This gate is what
//!    makes early release safe alongside load re-execution. The model
//!    relies on committed-path simulation (fetch stalls at a
//!    misprediction, so no consumer is ever discarded): squashed
//!    wrong-path consumers would need checkpointed counters, which the
//!    referenced designs handle with extra hardware this model does not
//!    reproduce.

use super::{FreeList, PhysReg, RenamedSrc, SrcState};
use vpr_isa::{LogicalReg, RegClass, NUM_LOGICAL_PER_CLASS};

#[derive(Debug, Clone, Copy)]
struct RegState {
    /// Outstanding reads by renamed-but-not-yet-issued consumers.
    pending_reads: u32,
    /// A younger writer of the same logical register has been renamed.
    superseded: bool,
    /// The producing instruction has committed.
    producer_committed: bool,
    /// The value has been produced (write-back happened).
    ready: bool,
    /// Already returned to the free list (guards double release).
    freed: bool,
}

impl RegState {
    fn boot() -> Self {
        Self {
            pending_reads: 0,
            superseded: false,
            producer_committed: true,
            ready: true,
            freed: false,
        }
    }

    fn fresh() -> Self {
        Self {
            pending_reads: 0,
            superseded: false,
            producer_committed: false,
            ready: false,
            freed: false,
        }
    }

    fn releasable(&self) -> bool {
        !self.freed && self.superseded && self.pending_reads == 0 && self.producer_committed
    }
}

/// Per-class release accounting, surfaced into
/// [`SimStats`](crate::SimStats) by the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReleaseStats {
    /// Registers released.
    pub frees: u64,
    /// Sum of allocation→release intervals (register pressure integral).
    pub hold_cycles: u64,
    /// Releases that happened strictly before the next writer committed —
    /// the wins over the conventional policy.
    pub early: u64,
}

/// Conventional decode-time allocation plus counter-based early release.
///
/// ```
/// use vpr_core::rename::EarlyReleaseRenamer;
/// use vpr_isa::{LogicalReg, RegClass};
///
/// let mut r = EarlyReleaseRenamer::new(40);
/// let l = LogicalReg::int(3);
/// // A consumer renames the boot mapping of r3, then a new writer
/// // supersedes it; once the consumer reads, the old register frees
/// // without waiting for the new writer to commit.
/// let src = r.rename_src(l);
/// let free_before = r.free_count(RegClass::Int);
/// let (_new, prev) = r.try_rename_dest(l, 0).unwrap();
/// r.on_read(RegClass::Int, prev, 5);
/// assert_eq!(r.free_count(RegClass::Int), free_before, "alloc+release net zero");
/// let _ = src;
/// ```
#[derive(Debug, Clone)]
pub struct EarlyReleaseRenamer {
    map: [Vec<PhysReg>; 2],
    state: [Vec<RegState>; 2],
    free: [FreeList; 2],
    stats: [ReleaseStats; 2],
}

impl EarlyReleaseRenamer {
    /// Creates the boot state (logical `i` → physical `i`, ready,
    /// committed).
    ///
    /// # Panics
    ///
    /// Panics if `phys_per_class <= NUM_LOGICAL_PER_CLASS`.
    pub fn new(phys_per_class: usize) -> Self {
        assert!(
            phys_per_class > NUM_LOGICAL_PER_CLASS,
            "need more physical than logical registers"
        );
        let map = || {
            (0..NUM_LOGICAL_PER_CLASS)
                .map(|i| PhysReg(i as u16))
                .collect()
        };
        let state = || {
            (0..phys_per_class)
                .map(|i| {
                    if i < NUM_LOGICAL_PER_CLASS {
                        RegState::boot()
                    } else {
                        RegState::fresh()
                    }
                })
                .collect()
        };
        Self {
            map: [map(), map()],
            state: [state(), state()],
            free: [
                FreeList::new(phys_per_class, NUM_LOGICAL_PER_CLASS),
                FreeList::new(phys_per_class, NUM_LOGICAL_PER_CLASS),
            ],
            stats: [ReleaseStats::default(), ReleaseStats::default()],
        }
    }

    fn try_release(&mut self, class: RegClass, preg: PhysReg, now: u64, at_commit: bool) {
        let c = class.index();
        let s = self.state[c][preg.0 as usize];
        if !s.releasable() {
            return;
        }
        self.state[c][preg.0 as usize].freed = true;
        let held = self.free[c].release(preg.0, now);
        let st = &mut self.stats[c];
        st.frees += 1;
        st.hold_cycles += held;
        if !at_commit {
            st.early += 1;
        }
    }

    /// Renames a source operand and arms its pending-read counter (the
    /// consumer will read the register at issue).
    pub fn rename_src(&mut self, logical: LogicalReg) -> RenamedSrc {
        let c = logical.class();
        let preg = self.map[c.index()][logical.index()];
        let s = &mut self.state[c.index()][preg.0 as usize];
        s.pending_reads += 1;
        let state = if s.ready {
            SrcState::Ready(preg)
        } else {
            SrcState::WaitPhys(preg)
        };
        RenamedSrc { class: c, state }
    }

    /// Renames a destination at decode: allocates a register and marks
    /// the previous mapping superseded (possibly releasing it on the
    /// spot). Returns `(new, previous)` or `None` on an empty free list.
    pub fn try_rename_dest(&mut self, logical: LogicalReg, now: u64) -> Option<(PhysReg, PhysReg)> {
        let c = logical.class().index();
        let new = PhysReg(self.free[c].allocate(now)?);
        self.state[c][new.0 as usize] = RegState::fresh();
        let prev = std::mem::replace(&mut self.map[c][logical.index()], new);
        self.state[c][prev.0 as usize].superseded = true;
        self.try_release(logical.class(), prev, now, false);
        Some((new, prev))
    }

    /// A consumer read `preg` at issue: the counter drops and the
    /// register may become dead.
    pub fn on_read(&mut self, class: RegClass, preg: PhysReg, now: u64) {
        let s = &mut self.state[class.index()][preg.0 as usize];
        assert!(
            s.pending_reads > 0,
            "read of {preg} without a renamed consumer"
        );
        s.pending_reads -= 1;
        self.try_release(class, preg, now, false);
    }

    /// A squashed consumer will re-issue and read again: re-arm the
    /// counter (virtual-physical write-back squashes don't exist under
    /// this scheme, but memory-ordering re-executions do).
    pub fn on_reread(&mut self, class: RegClass, preg: PhysReg) {
        let s = &mut self.state[class.index()][preg.0 as usize];
        debug_assert!(!s.freed, "re-read of a freed register");
        s.pending_reads += 1;
    }

    /// The value for `preg` has been produced.
    pub fn on_writeback(&mut self, class: RegClass, preg: PhysReg) {
        self.state[class.index()][preg.0 as usize].ready = true;
    }

    /// The producing instruction committed: the last gate opens (and for
    /// values whose consumers/supersession are already done, the register
    /// frees here — no earlier than the conventional scheme would for a
    /// *read-after-supersede* pattern, but usually much earlier than the
    /// next writer's commit).
    pub fn on_producer_commit(&mut self, class: RegClass, preg: PhysReg, now: u64) {
        self.state[class.index()][preg.0 as usize].producer_committed = true;
        self.try_release(class, preg, now, true);
    }

    /// Free registers in `class`.
    #[inline]
    pub fn free_count(&self, class: RegClass) -> usize {
        self.free[class.index()].free_count()
    }

    /// Allocated registers in `class`.
    #[inline]
    pub fn allocated_count(&self, class: RegClass) -> usize {
        self.free[class.index()].allocated_count()
    }

    /// `(occupancy, empty-cycles)` integrals of the physical file of
    /// `class` over cycles `0..end` (see [`FreeList::occupancy_integral`]).
    pub fn occupancy_integrals(&self, class: RegClass, end: u64) -> (u64, u64) {
        let fl = &self.free[class.index()];
        (fl.occupancy_integral(end), fl.empty_integral(end))
    }

    /// Release accounting for `class`.
    pub fn release_stats(&self, class: RegClass) -> ReleaseStats {
        self.stats[class.index()]
    }

    /// The current physical mapping of a logical register.
    pub fn mapping(&self, logical: LogicalReg) -> PhysReg {
        self.map[logical.class().index()][logical.index()]
    }
}

impl vpr_snap::Snap for RegState {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u32(self.pending_reads);
        enc.put_bool(self.superseded);
        enc.put_bool(self.producer_committed);
        enc.put_bool(self.ready);
        enc.put_bool(self.freed);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            pending_reads: dec.take_u32(),
            superseded: dec.take_bool(),
            producer_committed: dec.take_bool(),
            ready: dec.take_bool(),
            freed: dec.take_bool(),
        }
    }
}

impl vpr_snap::Snap for ReleaseStats {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.frees);
        enc.put_u64(self.hold_cycles);
        enc.put_u64(self.early);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            frees: dec.take_u64(),
            hold_cycles: dec.take_u64(),
            early: dec.take_u64(),
        }
    }
}

impl vpr_snap::Snap for EarlyReleaseRenamer {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.map.save(enc);
        self.state.save(enc);
        self.free.save(enc);
        self.stats.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            map: <[Vec<PhysReg>; 2]>::load(dec),
            state: <[Vec<RegState>; 2]>::load(dec),
            free: <[FreeList; 2]>::load(dec),
            stats: <[ReleaseStats; 2]>::load(dec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_is_ready_and_unsuperseded() {
        let mut r = EarlyReleaseRenamer::new(64);
        let s = r.rename_src(LogicalReg::int(4));
        assert_eq!(s.state, SrcState::Ready(PhysReg(4)));
        assert_eq!(r.free_count(RegClass::Int), 32);
    }

    #[test]
    fn release_waits_for_all_three_gates() {
        let mut r = EarlyReleaseRenamer::new(64);
        let l = LogicalReg::fp(1);
        // Writer W allocates p; consumer C renames it; writer W2
        // supersedes it.
        let (p, _boot) = r.try_rename_dest(l, 0).unwrap();
        r.on_writeback(RegClass::Fp, p);
        let _c = r.rename_src(l);
        let free0 = r.free_count(RegClass::Fp);
        let (_p2, prev) = r.try_rename_dest(l, 1).unwrap();
        assert_eq!(prev, p);
        assert_eq!(
            r.free_count(RegClass::Fp),
            free0 - 1,
            "superseded but read pending"
        );
        // Consumer reads: still held (producer not committed).
        r.on_read(RegClass::Fp, p, 5);
        assert_eq!(r.free_count(RegClass::Fp), free0 - 1);
        // Producer commits: all gates open.
        r.on_producer_commit(RegClass::Fp, p, 6);
        assert_eq!(r.free_count(RegClass::Fp), free0);
        let st = r.release_stats(RegClass::Fp);
        assert!(st.frees >= 1);
    }

    #[test]
    fn early_release_beats_next_writer_commit() {
        let mut r = EarlyReleaseRenamer::new(64);
        let l = LogicalReg::int(2);
        // Superseding the never-read boot mapping frees it on the spot
        // (first early release).
        let (p, _) = r.try_rename_dest(l, 0).unwrap();
        assert_eq!(r.release_stats(RegClass::Int).early, 1);
        r.on_writeback(RegClass::Int, p);
        r.on_producer_commit(RegClass::Int, p, 3);
        let _c = r.rename_src(l); // one consumer
        let free0 = r.free_count(RegClass::Int);
        let (_p2, _) = r.try_rename_dest(l, 4).unwrap(); // superseded
                                                         // The consumer reads at cycle 10 — release happens NOW, long
                                                         // before the superseding writer would commit (second early
                                                         // release).
        r.on_read(RegClass::Int, p, 10);
        assert_eq!(
            r.free_count(RegClass::Int),
            free0,
            "net zero before any commit"
        );
        assert_eq!(r.release_stats(RegClass::Int).early, 2);
    }

    #[test]
    fn reread_rearms_the_counter() {
        let mut r = EarlyReleaseRenamer::new(64);
        let l = LogicalReg::int(2);
        let (p, _) = r.try_rename_dest(l, 0).unwrap();
        r.on_writeback(RegClass::Int, p);
        r.on_producer_commit(RegClass::Int, p, 1);
        let _c = r.rename_src(l);
        let (_p2, _) = r.try_rename_dest(l, 2).unwrap();
        // The consumer issues (reads), then gets squashed by a memory
        // violation and re-arms before the release conditions re-check.
        r.on_reread(RegClass::Int, p);
        r.on_read(RegClass::Int, p, 5);
        let free_mid = r.free_count(RegClass::Int);
        r.on_read(RegClass::Int, p, 9);
        assert_eq!(r.free_count(RegClass::Int), free_mid + 1);
    }

    #[test]
    fn unread_unsuperseded_values_stay_allocated() {
        let mut r = EarlyReleaseRenamer::new(34);
        // Arm readers on the boot mappings so superseding cannot free
        // them (their values are still wanted).
        let _ = r.rename_src(LogicalReg::int(0));
        let _ = r.rename_src(LogicalReg::int(1));
        let (p, _) = r.try_rename_dest(LogicalReg::int(0), 0).unwrap();
        r.on_writeback(RegClass::Int, p);
        r.on_producer_commit(RegClass::Int, p, 1);
        // p is the current (unsuperseded) mapping: must never free.
        assert_eq!(r.free_count(RegClass::Int), 1);
        assert!(r.try_rename_dest(LogicalReg::int(1), 2).is_some());
        assert!(
            r.try_rename_dest(LogicalReg::int(2), 3).is_none(),
            "exhausted"
        );
    }

    #[test]
    #[should_panic(expected = "without a renamed consumer")]
    fn read_without_rename_panics() {
        let mut r = EarlyReleaseRenamer::new(64);
        r.on_read(RegClass::Int, PhysReg(0), 1);
    }
}
