//! The baseline renaming scheme (paper §2).
//!
//! A map table translates each logical register to a physical register.
//! The destination of every decoded instruction takes a *free* physical
//! register immediately — rename stalls when the free list is empty — and
//! the register held by the previous writer of the same logical register
//! is released when the new writer commits. This is the MIPS R10000 / DEC
//! 21264 organisation the paper compares against.

use super::{FreeList, PhysReg, RenamedSrc, SrcState};
use vpr_isa::{LogicalReg, RegClass, NUM_LOGICAL_PER_CLASS};

/// Conventional map-table renamer with decode-time allocation.
///
/// ```
/// use vpr_core::rename::ConventionalRenamer;
/// use vpr_isa::LogicalReg;
///
/// let mut r = ConventionalRenamer::new(40);
/// // Boot state: r5 maps to p5 and is ready.
/// assert!(r.rename_src(LogicalReg::int(5)).state.is_ready());
/// // A new writer of r5 takes a fresh register.
/// let (new, prev) = r.try_rename_dest(LogicalReg::int(5), 0).unwrap();
/// assert_eq!(prev.0, 5);
/// assert_ne!(new, prev);
/// // Until it writes back, readers wait on the new register.
/// assert!(!r.rename_src(LogicalReg::int(5)).state.is_ready());
/// ```
#[derive(Debug, Clone)]
pub struct ConventionalRenamer {
    map: [Vec<PhysReg>; 2],
    /// Per physical register: has the value been produced?
    ready: [Vec<bool>; 2],
    free: [FreeList; 2],
}

impl ConventionalRenamer {
    /// Creates the boot state: logical register `i` of each class maps to
    /// physical register `i`, whose value is architecturally present.
    ///
    /// # Panics
    ///
    /// Panics if `phys_per_class` does not exceed the logical register
    /// count — renaming would be impossible.
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
        let ready = || {
            let mut v = vec![false; phys_per_class];
            v[..NUM_LOGICAL_PER_CLASS].fill(true);
            v
        };
        Self {
            map: [map(), map()],
            ready: [ready(), ready()],
            free: [
                FreeList::new(phys_per_class, NUM_LOGICAL_PER_CLASS),
                FreeList::new(phys_per_class, NUM_LOGICAL_PER_CLASS),
            ],
        }
    }

    /// Renames a source operand: the last mapping of the logical register,
    /// ready if its value has been written back.
    pub fn rename_src(&self, logical: LogicalReg) -> RenamedSrc {
        let c = logical.class();
        let preg = self.map[c.index()][logical.index()];
        let state = if self.ready[c.index()][preg.0 as usize] {
            SrcState::Ready(preg)
        } else {
            SrcState::WaitPhys(preg)
        };
        RenamedSrc { class: c, state }
    }

    /// Renames a destination at decode: takes a free physical register and
    /// installs it in the map table. Returns `(new, previous)` mappings,
    /// or `None` when the free list is empty (rename must stall — the
    /// behaviour whose cost the paper eliminates).
    pub fn try_rename_dest(&mut self, logical: LogicalReg, now: u64) -> Option<(PhysReg, PhysReg)> {
        let c = logical.class().index();
        let new = PhysReg(self.free[c].allocate(now)?);
        self.ready[c][new.0 as usize] = false;
        let prev = std::mem::replace(&mut self.map[c][logical.index()], new);
        Some((new, prev))
    }

    /// Write-back of the value for `preg`: wake readers renamed after this
    /// point directly to a ready source.
    pub fn on_writeback(&mut self, class: RegClass, preg: PhysReg) {
        self.ready[class.index()][preg.0 as usize] = true;
    }

    /// Commit of an instruction whose destination superseded `prev_preg`:
    /// the previous writer's register is finally dead. Returns the cycles
    /// it was held (register-pressure accounting).
    pub fn on_commit_dest(&mut self, class: RegClass, prev_preg: PhysReg, now: u64) -> u64 {
        self.free[class.index()].release(prev_preg.0, now)
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

    /// The current physical mapping of a logical register (diagnostics and
    /// tests).
    pub fn mapping(&self, logical: LogicalReg) -> PhysReg {
        self.map[logical.class().index()][logical.index()]
    }
}

impl vpr_snap::Snap for ConventionalRenamer {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.map.save(enc);
        self.ready.save(enc);
        self.free.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            map: <[Vec<PhysReg>; 2]>::load(dec),
            ready: <[Vec<bool>; 2]>::load(dec),
            free: <[FreeList; 2]>::load(dec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_mappings_are_identity_and_ready() {
        let r = ConventionalRenamer::new(64);
        for i in 0..NUM_LOGICAL_PER_CLASS {
            let s = r.rename_src(LogicalReg::int(i));
            assert_eq!(s.state, SrcState::Ready(PhysReg(i as u16)));
            let s = r.rename_src(LogicalReg::fp(i));
            assert_eq!(s.state, SrcState::Ready(PhysReg(i as u16)));
        }
        assert_eq!(r.free_count(RegClass::Int), 32);
    }

    #[test]
    fn dest_then_writeback_then_ready() {
        let mut r = ConventionalRenamer::new(64);
        let (new, _prev) = r.try_rename_dest(LogicalReg::fp(2), 0).unwrap();
        let s = r.rename_src(LogicalReg::fp(2));
        assert_eq!(s.state, SrcState::WaitPhys(new));
        r.on_writeback(RegClass::Fp, new);
        let s = r.rename_src(LogicalReg::fp(2));
        assert_eq!(s.state, SrcState::Ready(new));
    }

    #[test]
    fn exhaustion_stalls() {
        let mut r = ConventionalRenamer::new(34);
        assert!(r.try_rename_dest(LogicalReg::int(0), 0).is_some());
        assert!(r.try_rename_dest(LogicalReg::int(1), 0).is_some());
        assert!(r.try_rename_dest(LogicalReg::int(2), 0).is_none());
        // The FP file is independent.
        assert!(r.try_rename_dest(LogicalReg::fp(0), 0).is_some());
    }

    #[test]
    fn commit_frees_previous_writer() {
        let mut r = ConventionalRenamer::new(34);
        let (_n1, p1) = r.try_rename_dest(LogicalReg::int(7), 0).unwrap();
        let (_n2, p2) = r.try_rename_dest(LogicalReg::int(7), 1).unwrap();
        assert!(r.try_rename_dest(LogicalReg::int(8), 2).is_none());
        // First writer commits: frees the boot register p7.
        assert_eq!(p1, PhysReg(7));
        r.on_commit_dest(RegClass::Int, p1, 10);
        assert_eq!(r.free_count(RegClass::Int), 1);
        // Second writer commits: frees the first writer's register.
        r.on_commit_dest(RegClass::Int, p2, 11);
        assert_eq!(r.free_count(RegClass::Int), 2);
    }

    #[test]
    fn hold_cycles_reported_at_commit() {
        let mut r = ConventionalRenamer::new(64);
        let (_n, prev) = r.try_rename_dest(LogicalReg::int(1), 0).unwrap();
        // The boot register was allocated at cycle 0 and dies at 42.
        assert_eq!(r.on_commit_dest(RegClass::Int, prev, 42), 42);
    }
}
