//! Deadlock avoidance: the reserved-register machinery of paper §3.3.
//!
//! With late allocation the machine can run out of physical registers at
//! completion time. Squashing alone would deadlock (the oldest instruction
//! would also find no register). The paper's fix guarantees the `NRR`
//! oldest destination-having instructions of each class a register:
//!
//! * a pointer (`PRRint`/`PRRfp`) marks the youngest of the oldest `NRR`
//!   such instructions — everything at or older than it is *reserved*;
//! * `Reg` counts the currently-reserved instructions (≤ `NRR`);
//! * `Used` counts how many of the reserved have already allocated.
//!
//! A completing instruction may allocate iff it is reserved, or there are
//! *more* free registers than `NRR − Used` (leaving enough for the
//! reserved ones still to come).

/// Per-class reserved-register state.
///
/// One instance exists per register class inside the
/// [`VpRenamer`](crate::VpRenamer). The pipeline reports decode, allocate
/// and commit events; [`NrrState::may_allocate`] implements the paper's
/// allocation rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrrState {
    /// Sequence number of the youngest reserved instruction ([`NO_SEQ`]
    /// when none was ever set): anything at or below it (and with a
    /// destination of this class) is reserved.
    prr_seq: u64,
    nrr: u32,
    /// Number of reserved instructions currently in the window (`Reg`).
    reg: u32,
    /// Reserved instructions that have already allocated (`Used`).
    used: u32,
}

/// Packed "no pointer" sentinel in [`NrrState`] (sequence numbers count
/// up from zero and never reach it).
const NO_SEQ: u64 = u64::MAX;

// Layout-regression guard: both classes' NRR rows share a cache line.
const _: () = assert!(
    std::mem::size_of::<NrrState>() <= 24,
    "NrrState must stay within 24 bytes (both classes on one cache line)"
);

impl NrrState {
    /// Creates the state for a class with `nrr` reserved registers.
    ///
    /// # Panics
    ///
    /// Panics if `nrr` is zero — the deadlock-freedom argument requires at
    /// least one reserved register.
    pub fn new(nrr: usize) -> Self {
        assert!(nrr > 0, "NRR must be at least 1");
        Self {
            prr_seq: NO_SEQ,
            nrr: u32::try_from(nrr).expect("NRR bounded by the physical file"),
            reg: 0,
            used: 0,
        }
    }

    /// The configured NRR.
    #[inline]
    pub fn nrr(&self) -> usize {
        self.nrr as usize
    }

    /// Current `Reg` counter (reserved instructions in the window).
    #[inline]
    pub fn reserved_in_window(&self) -> usize {
        self.reg as usize
    }

    /// Current `Used` counter (reserved instructions that allocated).
    #[inline]
    pub fn used(&self) -> usize {
        self.used as usize
    }

    /// The PRR pointer: sequence number of the youngest reserved
    /// instruction, if any are reserved. The commit logic scans the
    /// reorder buffer *past* this pointer for the entrant that becomes
    /// reserved next.
    #[inline]
    pub fn pointer(&self) -> Option<u64> {
        (self.reg > 0 && self.prr_seq != NO_SEQ).then_some(self.prr_seq)
    }

    /// True when `seq` is one of the reserved oldest instructions.
    #[inline]
    pub fn is_reserved(&self, seq: u64) -> bool {
        self.reg > 0 && self.prr_seq != NO_SEQ && seq <= self.prr_seq
    }

    /// Decode of an instruction with a destination of this class: if fewer
    /// than `NRR` instructions are reserved, the new one becomes reserved
    /// and the pointer moves to it.
    pub fn on_decode(&mut self, seq: u64) {
        debug_assert!(seq != NO_SEQ);
        if self.reg < self.nrr {
            self.reg += 1;
            debug_assert!(
                self.prr_seq == NO_SEQ || self.prr_seq < seq,
                "decode must see monotonically increasing sequence numbers"
            );
            self.prr_seq = seq;
        }
    }

    /// The paper's allocation rule: a completing (or, in the
    /// issue-allocation variant, issuing) instruction may take a register
    /// iff it is reserved or strictly more registers are free than
    /// `NRR − Used`.
    #[inline]
    pub fn may_allocate(&self, seq: u64, free_regs: usize) -> bool {
        self.is_reserved(seq) || self.may_allocate_young(free_regs)
    }

    /// The young-instruction half of the allocation rule: true when
    /// strictly more registers are free than `NRR − Used`, so even a
    /// non-reserved instruction may take one. With [`NrrState::pointer`]
    /// this is a complete per-cycle snapshot of the rule — callers that
    /// scan many candidates evaluate `pointer / may_allocate_young` once
    /// instead of re-deriving both per candidate.
    #[inline]
    pub fn may_allocate_young(&self, free_regs: usize) -> bool {
        free_regs > (self.nrr - self.used) as usize
    }

    /// Records an allocation by instruction `seq`.
    pub fn on_allocate(&mut self, seq: u64) {
        if self.is_reserved(seq) {
            self.used += 1;
            debug_assert!(self.used <= self.reg, "Used cannot exceed Reg");
        }
    }

    /// Commit of a (reserved, completed) instruction with a destination of
    /// this class. `entrant` is the next-younger instruction with a
    /// destination of this class still in the window, with a flag for
    /// whether it has already allocated its register; `None` when no such
    /// instruction exists.
    ///
    /// Mirrors §3.3: the pointer moves up to the entrant; `Used` drops by
    /// one (for the committer) unless the entrant already allocated; if no
    /// entrant exists, `Reg` shrinks instead.
    ///
    /// # Panics
    ///
    /// Panics if the committing instruction is not reserved — the oldest
    /// destination-having instruction is always reserved, so this
    /// indicates pointer corruption.
    pub fn on_commit(&mut self, committing_seq: u64, entrant: Option<(u64, bool)>) {
        assert!(
            self.is_reserved(committing_seq),
            "committing instruction {committing_seq} must be reserved (PRR={:?}, Reg={})",
            self.pointer(),
            self.reg
        );
        debug_assert!(self.used >= 1, "committer had allocated, Used >= 1");
        match entrant {
            Some((entrant_seq, entrant_allocated)) => {
                debug_assert!(
                    entrant_seq != NO_SEQ && self.prr_seq != NO_SEQ && entrant_seq > self.prr_seq,
                    "entrant must be younger than the current pointer"
                );
                self.prr_seq = entrant_seq;
                if !entrant_allocated {
                    self.used -= 1;
                }
            }
            None => {
                self.reg -= 1;
                self.used -= 1;
            }
        }
    }
}

impl vpr_snap::Snap for NrrState {
    /// Serialised at the original `usize`/`Option<u64>` widths: the packed
    /// in-memory counters are an implementation detail and must not leak
    /// into the format (see `docs/snapshot-format.md`).
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_usize(self.nrr as usize);
        // Canonical form: with an empty reserved set the pointer is
        // semantically dead (`pointer()` guards on `reg > 0`), but the
        // incremental updates leave the last value behind. Serialising
        // the *live* pointer instead makes equal states encode
        // byte-equal.
        self.pointer().save(enc);
        enc.put_usize(self.reg as usize);
        enc.put_usize(self.used as usize);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let nrr = dec.take_usize();
        let prr_seq = Option::<u64>::load(dec).unwrap_or(NO_SEQ);
        let reg = dec.take_usize();
        let used = dec.take_usize();
        Self {
            prr_seq,
            nrr: nrr as u32,
            reg: reg as u32,
            used: used as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_reserves_up_to_nrr() {
        let mut n = NrrState::new(2);
        n.on_decode(1);
        n.on_decode(2);
        n.on_decode(3); // beyond NRR: not reserved
        assert_eq!(n.reserved_in_window(), 2);
        assert!(n.is_reserved(1));
        assert!(n.is_reserved(2));
        assert!(!n.is_reserved(3));
    }

    #[test]
    fn reserved_always_may_allocate() {
        let mut n = NrrState::new(2);
        n.on_decode(1);
        n.on_decode(2);
        assert!(
            n.may_allocate(1, 0),
            "reserved allocate regardless of free count"
        );
        assert!(n.may_allocate(2, 0));
        assert!(!n.may_allocate(3, 2), "needs free > NRR - Used = 2");
        assert!(n.may_allocate(3, 3));
    }

    #[test]
    fn used_tracks_reserved_allocations_only() {
        let mut n = NrrState::new(2);
        n.on_decode(1);
        n.on_decode(2);
        n.on_decode(3);
        n.on_allocate(3); // not reserved: Used unchanged
        assert_eq!(n.used(), 0);
        n.on_allocate(1);
        assert_eq!(n.used(), 1);
        // With Used = 1, a young instruction needs free > 1.
        assert!(!n.may_allocate(4, 1));
        assert!(n.may_allocate(4, 2));
    }

    #[test]
    fn commit_slides_pointer_to_entrant() {
        let mut n = NrrState::new(2);
        n.on_decode(1);
        n.on_decode(2);
        n.on_allocate(1);
        n.on_allocate(2);
        // Instruction 3 decoded beyond NRR, not yet allocated.
        n.on_commit(1, Some((3, false)));
        assert!(n.is_reserved(3), "entrant becomes reserved");
        assert_eq!(n.used(), 1, "committer leaves, entrant unallocated");
        assert_eq!(n.reserved_in_window(), 2);
    }

    #[test]
    fn commit_with_allocated_entrant_keeps_used() {
        let mut n = NrrState::new(1);
        n.on_decode(1);
        n.on_allocate(1);
        // Instruction 5 allocated while young (free registers abounded).
        n.on_commit(1, Some((5, true)));
        assert_eq!(n.used(), 1);
        assert!(n.is_reserved(5));
    }

    #[test]
    fn commit_without_entrant_shrinks_reg() {
        let mut n = NrrState::new(2);
        n.on_decode(1);
        n.on_allocate(1);
        n.on_commit(1, None);
        assert_eq!(n.reserved_in_window(), 0);
        assert_eq!(n.used(), 0);
        // A later decode re-establishes the pointer.
        n.on_decode(9);
        assert!(n.is_reserved(9));
    }

    #[test]
    #[should_panic(expected = "must be reserved")]
    fn committing_unreserved_panics() {
        let mut n = NrrState::new(1);
        n.on_decode(1);
        n.on_allocate(1);
        n.on_commit(7, None);
    }

    #[test]
    #[should_panic(expected = "NRR must be at least 1")]
    fn zero_nrr_rejected() {
        let _ = NrrState::new(0);
    }
}
