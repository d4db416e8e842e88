//! A register free list with double-free detection and hold-time
//! accounting.

use std::collections::VecDeque;

/// FIFO free list over register identifiers `0..capacity`.
///
/// Beyond allocation/release, the list records the cycle at which each
/// register was allocated so the paper's *register pressure* metric — the
/// number of cycles a register is held per produced value (§3.1) — falls
/// out of the release call.
///
/// The list enforces the central renaming invariants: a register is never
/// handed out twice without an intervening release and never released
/// twice (see DESIGN.md §7).
#[derive(Debug, Clone)]
pub struct FreeList {
    free: VecDeque<u16>,
    allocated: Vec<bool>,
    alloc_cycle: Vec<u64>,
    capacity: usize,
    /// Σ over completed cycles of the end-of-cycle allocated count, up to
    /// (exclusive) `last_change`. Occupancy only moves on allocate and
    /// release, so the per-cycle occupancy statistics fall out of these
    /// integrals in O(changes) instead of O(cycles) — see
    /// [`FreeList::occupancy_integral`].
    occ_accum: u64,
    /// Σ over the same span of cycles whose end found the list empty.
    empty_accum: u64,
    /// Cycle of the most recent allocate/release.
    last_change: u64,
}

impl FreeList {
    /// Creates a list in which registers `0..initially_allocated` are
    /// already allocated (the boot-time logical-register mappings) and the
    /// rest are free.
    ///
    /// # Panics
    ///
    /// Panics if `initially_allocated > capacity` or `capacity` exceeds
    /// `u16::MAX + 1`.
    pub fn new(capacity: usize, initially_allocated: usize) -> Self {
        assert!(
            initially_allocated <= capacity,
            "cannot pre-allocate more than capacity"
        );
        assert!(capacity <= u16::MAX as usize + 1, "register ids are u16");
        Self {
            free: (initially_allocated..capacity).map(|i| i as u16).collect(),
            allocated: (0..capacity).map(|i| i < initially_allocated).collect(),
            alloc_cycle: vec![0; capacity],
            capacity,
            occ_accum: 0,
            empty_accum: 0,
            last_change: 0,
        }
    }

    /// Folds the constant-occupancy stretch `[last_change, now)` into the
    /// integrals; cycle `now` itself is accounted by whatever state holds
    /// at its end (sampling is end-of-cycle).
    #[inline]
    fn integrate_to(&mut self, now: u64) {
        debug_assert!(now >= self.last_change, "free-list time went backwards");
        let span = now - self.last_change;
        if span > 0 {
            self.occ_accum += self.allocated_count() as u64 * span;
            if self.free.is_empty() {
                self.empty_accum += span;
            }
            self.last_change = now;
        }
    }

    /// Σ over cycles `0..end` of the end-of-cycle allocated count —
    /// equivalent to sampling `allocated_count` at the end of every
    /// simulated cycle, without per-cycle work.
    pub fn occupancy_integral(&self, end: u64) -> u64 {
        self.occ_accum + self.allocated_count() as u64 * (end - self.last_change)
    }

    /// Σ over cycles `0..end` whose end found the free list empty.
    pub fn empty_integral(&self, end: u64) -> u64 {
        self.empty_accum
            + if self.free.is_empty() {
                end - self.last_change
            } else {
                0
            }
    }

    /// Number of free registers.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of allocated registers.
    #[inline]
    pub fn allocated_count(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// True when nothing is free.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.free.is_empty()
    }

    /// Whether `id` is currently allocated.
    #[inline]
    pub fn is_allocated(&self, id: u16) -> bool {
        self.allocated[id as usize]
    }

    /// Takes a free register at cycle `now`, or `None` when exhausted.
    pub fn allocate(&mut self, now: u64) -> Option<u16> {
        self.integrate_to(now);
        let id = self.free.pop_front()?;
        debug_assert!(
            !self.allocated[id as usize],
            "free list held an allocated register"
        );
        self.allocated[id as usize] = true;
        self.alloc_cycle[id as usize] = now;
        Some(id)
    }

    /// Releases `id` at cycle `now`, returning how many cycles it was held
    /// (the register-pressure contribution of this value).
    ///
    /// # Panics
    ///
    /// Panics on double free — releasing a register that is not allocated
    /// indicates a renaming logic error, never a recoverable condition.
    pub fn release(&mut self, id: u16, now: u64) -> u64 {
        self.integrate_to(now);
        assert!(
            self.allocated[id as usize],
            "double free of register {id} at cycle {now}"
        );
        self.allocated[id as usize] = false;
        self.free.push_back(id);
        now.saturating_sub(self.alloc_cycle[id as usize])
    }
}

impl vpr_snap::Snap for FreeList {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        // The free deque's *order* is state: it is the future allocation
        // order, so it must survive a round trip exactly.
        self.free.save(enc);
        self.allocated.save(enc);
        self.alloc_cycle.save(enc);
        enc.put_usize(self.capacity);
        enc.put_u64(self.occ_accum);
        enc.put_u64(self.empty_accum);
        enc.put_u64(self.last_change);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            free: std::collections::VecDeque::<u16>::load(dec),
            allocated: Vec::<bool>::load(dec),
            alloc_cycle: Vec::<u64>::load(dec),
            capacity: dec.take_usize(),
            occ_accum: dec.take_u64(),
            empty_accum: dec.take_u64(),
            last_change: dec.take_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_preallocates_low_ids() {
        let fl = FreeList::new(8, 3);
        assert_eq!(fl.free_count(), 5);
        assert_eq!(fl.allocated_count(), 3);
        assert!(fl.is_allocated(0));
        assert!(fl.is_allocated(2));
        assert!(!fl.is_allocated(3));
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut fl = FreeList::new(4, 0);
        let a = fl.allocate(10).unwrap();
        let b = fl.allocate(10).unwrap();
        assert_ne!(a, b);
        assert_eq!(fl.release(a, 25), 15, "held 15 cycles");
        assert_eq!(fl.free_count(), 3);
        // Freed register becomes available again (FIFO order).
        let ids: Vec<u16> = (0..3).map(|_| fl.allocate(30).unwrap()).collect();
        assert!(ids.contains(&a));
        assert!(!ids.contains(&b));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fl = FreeList::new(2, 0);
        assert!(fl.allocate(0).is_some());
        assert!(fl.allocate(0).is_some());
        assert!(fl.allocate(0).is_none());
        assert!(fl.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fl = FreeList::new(2, 0);
        let a = fl.allocate(0).unwrap();
        fl.release(a, 1);
        fl.release(a, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_never_allocated_panics() {
        let mut fl = FreeList::new(4, 0);
        fl.release(3, 1);
    }

    #[test]
    fn unique_ids_under_churn() {
        let mut fl = FreeList::new(16, 4);
        let mut live: Vec<u16> = Vec::new();
        for round in 0..100u64 {
            if round % 3 == 0 && !live.is_empty() {
                let id = live.remove((round as usize * 7) % live.len());
                fl.release(id, round);
            } else if let Some(id) = fl.allocate(round) {
                assert!(!live.contains(&id), "id {id} handed out twice");
                live.push(id);
            }
        }
        assert_eq!(fl.allocated_count(), live.len() + 4);
    }
}
