//! The virtual-physical renaming scheme (paper §3.2).
//!
//! Destinations are renamed at decode to *virtual-physical* (VP) tags,
//! which occupy no storage; dependences are tracked through the tags. A
//! physical register is bound to the tag only when the value is actually
//! produced (write-back allocation) or when the instruction issues
//! (issue allocation) — the pipeline decides *when* to call
//! [`VpRenamer::try_allocate`]; this type implements the two map tables:
//!
//! * **GMT** (general map table), indexed by logical register: the current
//!   VP mapping, plus the physical register and a valid bit once the value
//!   exists;
//! * **PMT** (physical map table), indexed by VP tag: the physical
//!   register bound to the tag, if any.
//!
//! Deadlock avoidance (§3.3) lives in the embedded per-class
//! [`NrrState`].

use super::{FreeList, NrrState, PhysReg, RenamedSrc, SrcState, VpReg};
use vpr_isa::{LogicalReg, RegClass, NUM_LOGICAL_PER_CLASS};

/// One general-map-table entry: the paper's (VP register, P register,
/// V bit) triple, packed into four bytes — the (P, V) pair is a `u16`
/// with an in-band sentinel standing in for "V bit clear", so a class's whole
/// GMT row set (32 logical registers) spans two cache lines instead of
/// four and every source rename touches exactly one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmtEntry {
    vp: VpReg,
    preg: u16,
}

/// Packed "V bit clear" sentinel in [`GmtEntry`] (physical register
/// numbers are bounded far below `u16::MAX` by `SimConfig`).
const NO_PREG: u16 = u16::MAX;

// Layout-regression guard: sixteen GMT entries per cache line.
const _: () = assert!(
    std::mem::size_of::<GmtEntry>() == 4,
    "GmtEntry must stay 4 bytes (sixteen entries per cache line)"
);

impl GmtEntry {
    /// Builds an entry from the logical (tag, optional binding) view.
    pub fn new(vp: VpReg, preg: Option<PhysReg>) -> Self {
        debug_assert!(preg.is_none_or(|p| p.0 != NO_PREG));
        Self {
            vp,
            preg: preg.map_or(NO_PREG, |p| p.0),
        }
    }

    /// Last virtual-physical tag mapped to this logical register.
    #[inline]
    pub fn vp(&self) -> VpReg {
        self.vp
    }

    /// Physical register holding the value, once produced (`V` bit set).
    #[inline]
    pub fn preg(&self) -> Option<PhysReg> {
        (self.preg != NO_PREG).then_some(PhysReg(self.preg))
    }

    /// Sets the binding (the write-back broadcast's valid-bit update).
    #[inline]
    fn set_preg(&mut self, preg: PhysReg) {
        debug_assert!(preg.0 != NO_PREG);
        self.preg = preg.0;
    }
}

/// The virtual-physical renamer: GMT + PMT + free pools + NRR state, one
/// of each per register class.
///
/// ```
/// use vpr_core::rename::VpRenamer;
/// use vpr_isa::LogicalReg;
///
/// let mut r = VpRenamer::new(64, 160, 32);
/// let f2 = LogicalReg::fp(2);
/// // A new writer of f2 gets a tag immediately; no physical register yet.
/// let (vp, _prev) = r.rename_dest(f2, /*seq=*/0, /*now=*/0);
/// assert!(!r.rename_src(f2).state.is_ready());
/// // At completion the pipeline allocates and binds a physical register.
/// let preg = r.try_allocate(f2.class(), 0, 1).unwrap();
/// r.bind(f2.class(), vp, preg);
/// assert!(r.rename_src(f2).state.is_ready());
/// ```
#[derive(Debug, Clone)]
pub struct VpRenamer {
    gmt: [Vec<GmtEntry>; 2],
    pmt: [Vec<Option<PhysReg>>; 2],
    /// Per-tag inverse of the GMT: `vp_owner[c][vp]` is the logical
    /// register whose *current* mapping is tag `vp`, or [`NO_OWNER`].
    /// Tags are uniquely owned (renaming only hands out free tags), so
    /// the write-back broadcast of [`VpRenamer::bind`] updates the GMT
    /// valid bit in O(1) instead of scanning the whole table per event.
    vp_owner: [Vec<u16>; 2],
    vp_free: [FreeList; 2],
    preg_free: [FreeList; 2],
    nrr: [NrrState; 2],
}

/// Sentinel for "no logical register currently maps to this tag".
const NO_OWNER: u16 = u16::MAX;

/// A per-class, per-cycle snapshot of the §3.3 allocation rule (see
/// [`VpRenamer::alloc_gate`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocGate {
    /// Sequence number of the youngest reserved instruction, if any —
    /// anything at or below it is always granted.
    pub reserved_upto: Option<u64>,
    /// Whether non-reserved instructions may allocate (free > NRR − Used).
    pub young_ok: bool,
}

impl AllocGate {
    /// The rule's verdict for instruction `seq`.
    #[inline]
    pub fn allows(&self, seq: u64) -> bool {
        self.reserved_upto.is_some_and(|p| seq <= p) || self.young_ok
    }
}

impl VpRenamer {
    /// Creates the boot state: logical `i` maps to VP tag `i`, which is
    /// bound to physical register `i`.
    ///
    /// # Panics
    ///
    /// Panics if the physical file is not larger than the logical one, if
    /// there are fewer VP tags than logical registers, or if
    /// `nrr` is not in `1..=phys_per_class - NUM_LOGICAL_PER_CLASS`.
    pub fn new(phys_per_class: usize, virtual_per_class: usize, nrr: usize) -> Self {
        assert!(
            phys_per_class > NUM_LOGICAL_PER_CLASS,
            "need more physical than logical registers"
        );
        assert!(
            virtual_per_class >= NUM_LOGICAL_PER_CLASS,
            "need at least one VP tag per logical register"
        );
        assert!(
            (1..=phys_per_class - NUM_LOGICAL_PER_CLASS).contains(&nrr),
            "NRR {nrr} out of range 1..={}",
            phys_per_class - NUM_LOGICAL_PER_CLASS
        );
        let gmt = || {
            (0..NUM_LOGICAL_PER_CLASS)
                .map(|i| GmtEntry::new(VpReg(i as u16), Some(PhysReg(i as u16))))
                .collect()
        };
        let pmt = || {
            (0..virtual_per_class)
                .map(|i| {
                    if i < NUM_LOGICAL_PER_CLASS {
                        Some(PhysReg(i as u16))
                    } else {
                        None
                    }
                })
                .collect()
        };
        let owner = || {
            (0..virtual_per_class)
                .map(|i| {
                    if i < NUM_LOGICAL_PER_CLASS {
                        i as u16
                    } else {
                        NO_OWNER
                    }
                })
                .collect()
        };
        Self {
            gmt: [gmt(), gmt()],
            pmt: [pmt(), pmt()],
            vp_owner: [owner(), owner()],
            vp_free: [
                FreeList::new(virtual_per_class, NUM_LOGICAL_PER_CLASS),
                FreeList::new(virtual_per_class, NUM_LOGICAL_PER_CLASS),
            ],
            preg_free: [
                FreeList::new(phys_per_class, NUM_LOGICAL_PER_CLASS),
                FreeList::new(phys_per_class, NUM_LOGICAL_PER_CLASS),
            ],
            nrr: [NrrState::new(nrr), NrrState::new(nrr)],
        }
    }

    /// Renames a source operand (paper §3.2.2): if the GMT entry's valid
    /// bit is set the operand is the physical register and ready;
    /// otherwise the operand waits on the VP tag.
    pub fn rename_src(&self, logical: LogicalReg) -> RenamedSrc {
        let c = logical.class();
        let e = self.gmt[c.index()][logical.index()];
        let state = match e.preg() {
            Some(p) => SrcState::Ready(p),
            None => SrcState::WaitVp(e.vp()),
        };
        RenamedSrc { class: c, state }
    }

    /// Renames a destination at decode: takes a free VP tag, updates the
    /// GMT (new tag, valid bit reset) and registers the instruction with
    /// the NRR machinery. Returns `(new_vp, previous_vp)`; the previous
    /// tag goes to the reorder buffer for commit-time freeing.
    ///
    /// # Panics
    ///
    /// Panics if no VP tag is free. With `NVR = NLR + window size` (the
    /// sizing rule of §3.2.1, enforced by `SimConfig`) this cannot happen,
    /// so exhaustion indicates a leak rather than a recoverable stall.
    pub fn rename_dest(&mut self, logical: LogicalReg, seq: u64, now: u64) -> (VpReg, VpReg) {
        let c = logical.class().index();
        let new = VpReg(
            self.vp_free[c]
                .allocate(now)
                .expect("VP tags sized to never run out (NVR = NLR + window)"),
        );
        debug_assert!(self.pmt[c][new.0 as usize].is_none(), "stale PMT binding");
        debug_assert_eq!(
            self.vp_owner[c][new.0 as usize], NO_OWNER,
            "tag still owned"
        );
        let prev =
            std::mem::replace(&mut self.gmt[c][logical.index()], GmtEntry::new(new, None)).vp();
        debug_assert_eq!(
            self.vp_owner[c][prev.0 as usize],
            logical.index() as u16,
            "inverse map out of sync with the GMT"
        );
        self.vp_owner[c][prev.0 as usize] = NO_OWNER;
        self.vp_owner[c][new.0 as usize] = logical.index() as u16;
        self.nrr[c].on_decode(seq);
        (new, prev)
    }

    /// The paper's §3.3 allocation rule for instruction `seq` of `class`.
    pub fn may_allocate(&self, class: RegClass, seq: u64) -> bool {
        self.nrr[class.index()].may_allocate(seq, self.preg_free[class.index()].free_count())
    }

    /// Snapshot of the §3.3 rule for `class`, valid until the next
    /// allocation, release, decode or commit of this class:
    /// [`AllocGate::allows`] then equals [`VpRenamer::may_allocate`] per
    /// candidate without touching the counters again.
    pub fn alloc_gate(&self, class: RegClass) -> AllocGate {
        let c = class.index();
        AllocGate {
            reserved_upto: self.nrr[c].pointer(),
            young_ok: self.nrr[c].may_allocate_young(self.preg_free[c].free_count()),
        }
    }

    /// Attempts to allocate a physical register for instruction `seq`
    /// under the NRR rule. Returns `None` when the rule denies the
    /// allocation (write-back scheme: squash and re-execute; issue scheme:
    /// keep waiting in the queue).
    ///
    /// # Panics
    ///
    /// Panics if the rule *grants* the allocation but no register is free:
    /// the NRR invariant (`free ≥ NRR − Used`) guarantees reserved
    /// instructions a register, so this indicates corrupted accounting.
    pub fn try_allocate(&mut self, class: RegClass, seq: u64, now: u64) -> Option<PhysReg> {
        let c = class.index();
        if !self.nrr[c].may_allocate(seq, self.preg_free[c].free_count()) {
            return None;
        }
        let preg = PhysReg(
            self.preg_free[c]
                .allocate(now)
                .expect("NRR invariant guarantees a free register once granted"),
        );
        self.nrr[c].on_allocate(seq);
        Some(preg)
    }

    /// Binds physical register `preg` to tag `vp` (the write-back
    /// broadcast of §3.2.2): updates the PMT, and sets the GMT entry's
    /// (P, V) fields if `vp` is still the current mapping of its logical
    /// register.
    ///
    /// # Panics
    ///
    /// Panics if the tag is already bound.
    pub fn bind(&mut self, class: RegClass, vp: VpReg, preg: PhysReg) {
        let c = class.index();
        let slot = &mut self.pmt[c][vp.0 as usize];
        assert!(slot.is_none(), "tag {vp} already bound to {:?}", *slot);
        *slot = Some(preg);
        // O(1) valid-bit update through the inverse map: only the logical
        // register whose current mapping is `vp` (if any) learns the
        // binding; superseded mappings are reached through the PMT at
        // commit time instead.
        let owner = self.vp_owner[c][vp.0 as usize];
        if owner != NO_OWNER {
            let e = &mut self.gmt[c][owner as usize];
            debug_assert_eq!(e.vp(), vp, "inverse map out of sync with the GMT");
            debug_assert!(e.preg().is_none(), "GMT valid bit set before binding");
            e.set_preg(preg);
        }
    }

    /// Commit of an instruction that superseded `prev_vp`: frees the
    /// previous writer's VP tag and, through the PMT, its physical
    /// register (paper §3.2.2). Returns the cycles the physical register
    /// was held, for pressure accounting (0 when the previous tag holds
    /// no physical register).
    pub fn on_commit_dest(&mut self, class: RegClass, prev_vp: VpReg, now: u64) -> u64 {
        let c = class.index();
        self.vp_free[c].release(prev_vp.0, now);
        match self.pmt[c][prev_vp.0 as usize].take() {
            Some(p) => self.preg_free[c].release(p.0, now),
            None => 0,
        }
    }

    /// Advances the NRR pointer at commit of a destination-having
    /// instruction (see [`NrrState::on_commit`]).
    pub fn nrr_on_commit(
        &mut self,
        class: RegClass,
        committing_seq: u64,
        entrant: Option<(u64, bool)>,
    ) {
        self.nrr[class.index()].on_commit(committing_seq, entrant);
    }

    /// Free physical registers in `class`.
    #[inline]
    pub fn free_count(&self, class: RegClass) -> usize {
        self.preg_free[class.index()].free_count()
    }

    /// Allocated physical registers in `class`.
    #[inline]
    pub fn allocated_count(&self, class: RegClass) -> usize {
        self.preg_free[class.index()].allocated_count()
    }

    /// `(occupancy, empty-cycles)` integrals of the physical file of
    /// `class` over cycles `0..end` (see [`FreeList::occupancy_integral`]).
    pub fn occupancy_integrals(&self, class: RegClass, end: u64) -> (u64, u64) {
        let fl = &self.preg_free[class.index()];
        (fl.occupancy_integral(end), fl.empty_integral(end))
    }

    /// Free VP tags in `class`.
    #[inline]
    pub fn free_vp_count(&self, class: RegClass) -> usize {
        self.vp_free[class.index()].free_count()
    }

    /// The current GMT entry for a logical register (diagnostics and
    /// tests).
    pub fn gmt_entry(&self, logical: LogicalReg) -> GmtEntry {
        self.gmt[logical.class().index()][logical.index()]
    }

    /// The PMT binding of a VP tag.
    pub fn pmt_entry(&self, class: RegClass, vp: VpReg) -> Option<PhysReg> {
        self.pmt[class.index()][vp.0 as usize]
    }

    /// The per-class NRR state (read-only).
    pub fn nrr(&self, class: RegClass) -> &NrrState {
        &self.nrr[class.index()]
    }
}

impl vpr_snap::Snap for GmtEntry {
    /// Serialised in the original `(VpReg, Option<PhysReg>)` field order:
    /// the packed in-memory sentinel is an implementation detail and must
    /// not leak into the format (see `docs/snapshot-format.md`).
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.vp().save(enc);
        self.preg().save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let vp = VpReg::load(dec);
        let preg = Option::<PhysReg>::load(dec);
        Self::new(vp, preg)
    }
}

impl vpr_snap::Snap for VpRenamer {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.gmt.save(enc);
        self.pmt.save(enc);
        self.vp_owner.save(enc);
        self.vp_free.save(enc);
        self.preg_free.save(enc);
        self.nrr.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            gmt: <[Vec<GmtEntry>; 2]>::load(dec),
            pmt: <[Vec<Option<PhysReg>>; 2]>::load(dec),
            vp_owner: <[Vec<u16>; 2]>::load(dec),
            vp_free: <[FreeList; 2]>::load(dec),
            preg_free: <[FreeList; 2]>::load(dec),
            nrr: <[NrrState; 2]>::load(dec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn renamer() -> VpRenamer {
        VpRenamer::new(64, 160, 32)
    }

    #[test]
    fn boot_state_mirrors_conventional() {
        let r = renamer();
        for i in 0..NUM_LOGICAL_PER_CLASS {
            let s = r.rename_src(LogicalReg::int(i));
            assert_eq!(s.state, SrcState::Ready(PhysReg(i as u16)));
        }
        assert_eq!(r.free_count(RegClass::Int), 32);
        assert_eq!(r.free_vp_count(RegClass::Int), 160 - 32);
    }

    #[test]
    fn rename_dest_never_stalls_for_pregs() {
        let mut r = renamer();
        // Rename 100 destinations without a single allocation: the
        // conventional scheme would have stalled after 32.
        for seq in 0..100 {
            let l = LogicalReg::int((seq % 32) as usize);
            let _ = r.rename_dest(l, seq as u64, seq as u64);
        }
        assert_eq!(
            r.free_count(RegClass::Int),
            32,
            "no physical register consumed"
        );
    }

    #[test]
    fn src_waits_on_tag_until_bound() {
        let mut r = renamer();
        let f2 = LogicalReg::fp(2);
        let (vp, _) = r.rename_dest(f2, 0, 0);
        assert_eq!(r.rename_src(f2).state, SrcState::WaitVp(vp));
        let p = r.try_allocate(RegClass::Fp, 0, 5).unwrap();
        r.bind(RegClass::Fp, vp, p);
        assert_eq!(r.rename_src(f2).state, SrcState::Ready(p));
        assert_eq!(r.pmt_entry(RegClass::Fp, vp), Some(p));
    }

    #[test]
    fn binding_does_not_update_superseded_gmt_entry() {
        let mut r = renamer();
        let f2 = LogicalReg::fp(2);
        let (vp1, _) = r.rename_dest(f2, 0, 0);
        let (vp2, prev) = r.rename_dest(f2, 1, 0);
        assert_eq!(prev, vp1);
        // The older writer completes after being superseded.
        let p = r.try_allocate(RegClass::Fp, 0, 5).unwrap();
        r.bind(RegClass::Fp, vp1, p);
        // New readers still wait on the younger tag.
        assert_eq!(r.rename_src(f2).state, SrcState::WaitVp(vp2));
        // But the PMT knows the binding (commit will free through it).
        assert_eq!(r.pmt_entry(RegClass::Fp, vp1), Some(p));
    }

    #[test]
    fn commit_frees_previous_tag_and_register() {
        let mut r = renamer();
        let f2 = LogicalReg::fp(2);
        let (vp1, prev_boot) = r.rename_dest(f2, 0, 0);
        let p1 = r.try_allocate(RegClass::Fp, 0, 3).unwrap();
        r.bind(RegClass::Fp, vp1, p1);
        let before = r.free_count(RegClass::Fp);
        // Commit frees the *boot* mapping (tag 2 / preg 2).
        let held = r.on_commit_dest(RegClass::Fp, prev_boot, 10);
        assert_eq!(held, 10);
        assert_eq!(r.free_count(RegClass::Fp), before + 1);
        assert_eq!(r.pmt_entry(RegClass::Fp, prev_boot), None);
    }

    #[test]
    fn allocation_rule_denies_young_instructions_when_scarce() {
        let mut r = VpRenamer::new(34, 160, 2); // 2 spare registers, NRR=2
        let l = LogicalReg::int(0);
        let (_vp0, _) = r.rename_dest(l, 0, 0); // reserved (Reg=1)
        let (_vp1, _) = r.rename_dest(LogicalReg::int(1), 1, 0); // reserved (Reg=2)
        let (_vp2, _) = r.rename_dest(LogicalReg::int(2), 2, 0); // not reserved
                                                                 // free=2, NRR-Used=2: the young instruction is denied.
        assert!(!r.may_allocate(RegClass::Int, 2));
        assert!(r.try_allocate(RegClass::Int, 2, 1).is_none());
        // Reserved instructions always get one.
        let p = r.try_allocate(RegClass::Int, 0, 1);
        assert!(p.is_some());
        // Now free=1, Used=1 -> NRR-Used=1: still denied; reserved 1 OK.
        assert!(!r.may_allocate(RegClass::Int, 2));
        assert!(r.try_allocate(RegClass::Int, 1, 2).is_some());
    }

    #[test]
    fn plentiful_registers_allow_young_allocations() {
        let mut r = renamer(); // 32 spare, NRR=32
        let (_vp, _) = r.rename_dest(LogicalReg::int(0), 0, 0);
        let (_vp, _) = r.rename_dest(LogicalReg::int(1), 77, 0);
        // Instruction 77 is reserved too (Reg=2 < NRR), but even a
        // hypothetical young one would pass: free=32 > NRR-Used=32? No!
        // 32 > 32 is false — with Used=0 the rule needs free > 32. Verify
        // the reserved path is what grants it.
        assert!(r.may_allocate(RegClass::Int, 77));
        assert!(!r.nrr(RegClass::Int).may_allocate(999, 32));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut r = renamer();
        let (vp, _) = r.rename_dest(LogicalReg::int(0), 0, 0);
        let p = r.try_allocate(RegClass::Int, 0, 1).unwrap();
        r.bind(RegClass::Int, vp, p);
        r.bind(RegClass::Int, vp, PhysReg(60));
    }

    #[test]
    fn nrr_commit_flow() {
        let mut r = VpRenamer::new(40, 160, 1);
        let (vp0, prev0) = r.rename_dest(LogicalReg::int(0), 0, 0);
        let (_vp1, _) = r.rename_dest(LogicalReg::int(1), 1, 0);
        let p0 = r.try_allocate(RegClass::Int, 0, 1).unwrap();
        r.bind(RegClass::Int, vp0, p0);
        // Instruction 0 commits; instruction 1 (unallocated) becomes the
        // reserved one.
        r.nrr_on_commit(RegClass::Int, 0, Some((1, false)));
        r.on_commit_dest(RegClass::Int, prev0, 5);
        assert!(r.nrr(RegClass::Int).is_reserved(1));
        assert!(r.try_allocate(RegClass::Int, 1, 6).is_some());
    }
}
