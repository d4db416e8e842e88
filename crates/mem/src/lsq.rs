//! PA-8000-style memory disambiguation.
//!
//! The paper's simulator adopts "the memory disambiguation scheme
//! implemented in the PA-8000" (§4.1): an address-reorder-buffer in which
//! loads are allowed to issue even when older stores have not yet computed
//! their addresses. When a store address resolves and overlaps a younger
//! load that already performed, the load is *squashed and re-executed*;
//! when an older store with a known overlapping address holds the data, the
//! load forwards from it instead of accessing the cache.
//!
//! The [`Lsq`] tracks loads and stores by the core's global sequence
//! numbers, which encode program order.
//!
//! ### Age-map layout (audit note)
//!
//! The queue is an age map: every operation beside disambiguation walks it
//! relative to program order. It is stored as a `VecDeque` of
//! `(seq, entry)` pairs kept sorted by sequence number, not a search tree:
//! dispatch appends at the tail (sequence numbers arrive in program
//! order), commit removes at or near the head, and the disambiguation
//! scans ([`Lsq::resolve_load`] walking older stores
//! youngest→oldest, [`Lsq::resolve_store`] walking younger loads
//! oldest→youngest) are contiguous slice traversals from a binary-searched
//! pivot. Those scans are inherently O(older/younger entries) — that *is*
//! the associative address-reorder-buffer search the PA-8000 performs in
//! hardware — so the win over a `BTreeMap` is constant-factor (no pointer
//! chasing, no per-node allocation), which matters because `resolve_load`
//! sits on the hot path of every load.

use std::collections::VecDeque;
use vpr_isa::MemAccess;

/// What an address-resolved load should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDisposition {
    /// An older store with a resolved, overlapping address supplies the
    /// data; no cache access is needed.
    Forward {
        /// Sequence number of the forwarding store.
        store_seq: u64,
        /// True when an unresolved older store sits between the load and
        /// the forwarding store — the forward may later prove wrong.
        speculative: bool,
    },
    /// No forwarding store: access the data cache.
    Cache {
        /// True when at least one older store has an unresolved address,
        /// i.e. the load bypasses it speculatively (PA-8000 behaviour).
        speculative: bool,
    },
}

/// Disambiguation outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Loads that forwarded from an older store.
    pub forwards: u64,
    /// Loads that issued past at least one unresolved older store.
    pub speculative_loads: u64,
    /// Load re-executions caused by ordering violations.
    pub violations: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    is_store: bool,
    access: Option<MemAccess>,
    /// Load: has performed (result obtained, possibly speculatively).
    /// Store: unused.
    performed: bool,
    /// Load: sequence of the store it forwarded from, if any.
    forwarded_from: Option<u64>,
}

/// The stores-only secondary index record: `(seq, resolved address)`
/// packed into 24 bytes by folding the address's presence flag into the
/// size field ([`Lsq::resolve_load`] walks many of these per load, so
/// record density is walk bandwidth).
#[derive(Debug, Clone, Copy)]
struct StoreRec {
    seq: u64,
    /// Resolved effective address (valid only when `size != 0`).
    addr: u64,
    /// Access size in bytes; 0 while the address is unresolved.
    size: u8,
}

// Layout-regression guard: the store walk streams these.
const _: () = assert!(
    std::mem::size_of::<StoreRec>() <= 24,
    "StoreRec must stay within 24 bytes"
);

impl StoreRec {
    fn unresolved(seq: u64) -> Self {
        Self {
            seq,
            addr: 0,
            size: 0,
        }
    }

    #[inline]
    fn access(&self) -> Option<MemAccess> {
        (self.size != 0).then_some(MemAccess {
            addr: self.addr,
            size: self.size,
        })
    }

    #[inline]
    fn set_access(&mut self, access: MemAccess) {
        debug_assert!(access.size != 0, "a real access has nonzero size");
        self.addr = access.addr;
        self.size = access.size;
    }
}

/// The loads-only secondary index record: the fields
/// [`Lsq::resolve_store`]'s younger-load scan needs, duplicated (and kept
/// in sync by every load-state transition) so the walk never looks back
/// into the age map — the mirror of the stores-only index the load path
/// uses. Packed into 32 bytes the same way as [`StoreRec`], with
/// [`NO_FORWARD`] folding away the forwarding field's presence flag.
#[derive(Debug, Clone, Copy)]
struct LoadRec {
    seq: u64,
    /// Resolved effective address (valid only when `size != 0`).
    addr: u64,
    /// Sequence of the store this load forwarded from ([`NO_FORWARD`]
    /// when it did not forward).
    forwarded_from: u64,
    /// Access size in bytes; 0 while the address is unresolved.
    size: u8,
    /// Has performed (result obtained, possibly speculatively).
    performed: bool,
}

/// Packed "did not forward" sentinel in [`LoadRec`] (sequence numbers
/// count up from zero and never reach it).
const NO_FORWARD: u64 = u64::MAX;

// Layout-regression guard: two load records per cache line.
const _: () = assert!(
    std::mem::size_of::<LoadRec>() <= 32,
    "LoadRec must stay within 32 bytes (two records per cache line)"
);

impl LoadRec {
    fn unresolved(seq: u64) -> Self {
        Self {
            seq,
            addr: 0,
            forwarded_from: NO_FORWARD,
            size: 0,
            performed: false,
        }
    }

    #[inline]
    fn access(&self) -> Option<MemAccess> {
        (self.size != 0).then_some(MemAccess {
            addr: self.addr,
            size: self.size,
        })
    }
}

/// The load/store queue: program-ordered memory operations in flight.
///
/// Entries are inserted at dispatch (program order), updated when effective
/// addresses resolve, and removed at commit. The queue has a
/// finite capacity; dispatch must stall when [`Lsq::is_full`].
///
/// ```
/// use vpr_isa::MemAccess;
/// use vpr_mem::{LoadDisposition, Lsq};
///
/// let mut lsq = Lsq::new(8);
/// lsq.insert_store(1);
/// lsq.insert_load(2);
/// // The load resolves first: it must speculatively bypass store #1.
/// let d = lsq.resolve_load(2, MemAccess::word(0x100));
/// assert_eq!(d, LoadDisposition::Cache { speculative: true });
/// // The store turns out to overlap: the load is flagged for re-execution.
/// let victims = lsq.resolve_store(1, MemAccess::word(0x100));
/// assert_eq!(victims, vec![2]);
/// ```
#[derive(Debug, Clone)]
pub struct Lsq {
    /// `(seq, entry)` sorted ascending by `seq` (program order).
    entries: VecDeque<(u64, Entry)>,
    /// Stores only, sorted ascending by `seq` — the secondary index
    /// [`Lsq::resolve_load`] walks, so a load's older-store scan skips
    /// every load entry outright. The address is duplicated here (kept in
    /// sync by [`Lsq::resolve_store`]) so the walk never has to look back
    /// into the age map.
    stores: VecDeque<StoreRec>,
    /// Loads only, sorted ascending by `seq` — the mirror index
    /// [`Lsq::resolve_store`] walks for violation victims, so a store's
    /// younger-load scan skips every store entry outright.
    loads: VecDeque<LoadRec>,
    capacity: usize,
    stats: LsqStats,
}

impl Lsq {
    /// Creates a queue holding at most `capacity` memory operations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ needs at least one entry");
        Self {
            entries: VecDeque::with_capacity(capacity),
            stores: VecDeque::with_capacity(capacity),
            loads: VecDeque::with_capacity(capacity),
            capacity,
            stats: LsqStats::default(),
        }
    }

    /// Index of `seq` in the stores index, if it is a tracked store.
    #[inline]
    fn store_position(&self, seq: u64) -> Option<usize> {
        self.stores.binary_search_by_key(&seq, |r| r.seq).ok()
    }

    /// Index of `seq` in the loads index, if it is a tracked load.
    #[inline]
    fn load_position(&self, seq: u64) -> Option<usize> {
        self.loads.binary_search_by_key(&seq, |r| r.seq).ok()
    }

    /// Index of `seq` in the age map, if tracked.
    #[inline]
    fn position(&self, seq: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }

    /// Current number of tracked memory operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the queue tracks nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when dispatch must stall.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Outcome counters.
    #[inline]
    pub fn stats(&self) -> &LsqStats {
        &self.stats
    }

    /// Registers a load at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is already present.
    pub fn insert_load(&mut self, seq: u64) {
        self.insert(seq, false)
    }

    /// Registers a store at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is already present.
    pub fn insert_store(&mut self, seq: u64) {
        self.insert(seq, true)
    }

    fn insert(&mut self, seq: u64, is_store: bool) {
        assert!(!self.is_full(), "LSQ overflow: dispatch must stall first");
        let entry = Entry {
            is_store,
            access: None,
            performed: false,
            forwarded_from: None,
        };
        if is_store {
            let rec = StoreRec::unresolved(seq);
            if self.stores.back().is_none_or(|r| r.seq < seq) {
                self.stores.push_back(rec);
            } else {
                match self.stores.binary_search_by_key(&seq, |r| r.seq) {
                    Ok(_) => panic!("sequence {seq} inserted twice"),
                    Err(pos) => self.stores.insert(pos, rec),
                }
            }
        } else {
            let rec = LoadRec::unresolved(seq);
            if self.loads.back().is_none_or(|r| r.seq < seq) {
                self.loads.push_back(rec);
            } else {
                match self.loads.binary_search_by_key(&seq, |r| r.seq) {
                    Ok(_) => panic!("sequence {seq} inserted twice"),
                    Err(pos) => self.loads.insert(pos, rec),
                }
            }
        }
        // Dispatch order is program order, so this is almost always a
        // plain append; the binary search keeps arbitrary orders correct.
        if self.entries.back().is_none_or(|&(s, _)| s < seq) {
            self.entries.push_back((seq, entry));
            return;
        }
        match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(_) => panic!("sequence {seq} inserted twice"),
            Err(pos) => self.entries.insert(pos, (seq, entry)),
        }
    }

    /// Resolves a load's effective address and decides how it obtains its
    /// data. Marks the load as performed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a tracked load.
    pub fn resolve_load(&mut self, seq: u64, access: MemAccess) -> LoadDisposition {
        let idx = self.position(seq).expect("unknown load");
        {
            let (_, e) = &mut self.entries[idx];
            assert!(!e.is_store, "sequence {seq} is a store");
            e.access = Some(access);
            e.performed = true;
            e.forwarded_from = None;
        }
        {
            let lpos = self.load_position(seq).expect("load is indexed");
            self.loads[lpos] = LoadRec {
                seq,
                addr: access.addr,
                forwarded_from: NO_FORWARD,
                size: access.size,
                performed: true,
            };
        }
        // Walk older stores from youngest to oldest — on the stores-only
        // index, so intervening loads cost nothing.
        let mut speculative = false;
        let mut forward: Option<u64> = None;
        let older = self.stores.partition_point(|r| r.seq < seq);
        for rec in self.stores.range(..older).rev() {
            match rec.access() {
                None => speculative = true,
                Some(sa) if sa.overlaps(&access) => {
                    forward = Some(rec.seq);
                    break;
                }
                Some(_) => {}
            }
        }
        if speculative {
            self.stats.speculative_loads += 1;
        }
        match forward {
            Some(store_seq) => {
                self.stats.forwards += 1;
                self.entries[idx].1.forwarded_from = Some(store_seq);
                let lpos = self.load_position(seq).expect("load is indexed");
                self.loads[lpos].forwarded_from = store_seq;
                LoadDisposition::Forward {
                    store_seq,
                    speculative,
                }
            }
            None => LoadDisposition::Cache { speculative },
        }
    }

    /// Resolves a store's effective address. Returns the sequence numbers
    /// of younger loads that already performed with an overlapping address
    /// and did **not** forward from a store younger than this one: those
    /// loads consumed stale data and must re-execute (they are marked
    /// not-performed here; the core re-runs them and calls
    /// [`Lsq::resolve_load`] again).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a tracked store.
    pub fn resolve_store(&mut self, seq: u64, access: MemAccess) -> Vec<u64> {
        let idx = self.position(seq).expect("unknown store");
        {
            let (_, e) = &mut self.entries[idx];
            assert!(e.is_store, "sequence {seq} is a load");
            e.access = Some(access);
        }
        let spos = self.store_position(seq).expect("store is indexed");
        self.stores[spos].set_access(access);
        // Walk younger loads from oldest to youngest — on the loads-only
        // index, so intervening stores cost nothing (mirror of the
        // stores-only walk in `resolve_load`).
        let mut victims = Vec::new();
        let younger = self.loads.partition_point(|r| r.seq < seq);
        for l in self.loads.range(younger..) {
            if !l.performed {
                continue;
            }
            let Some(la) = l.access() else { continue };
            if !la.overlaps(&access) {
                continue;
            }
            // A forward from a store younger than us is still correct.
            if l.forwarded_from != NO_FORWARD && l.forwarded_from > seq {
                continue;
            }
            victims.push(l.seq);
        }
        for &v in &victims {
            let vi = self.position(v).expect("victim exists");
            let (_, e) = &mut self.entries[vi];
            e.performed = false;
            e.forwarded_from = None;
            let li = self.load_position(v).expect("victim is indexed");
            let l = &mut self.loads[li];
            l.performed = false;
            l.forwarded_from = NO_FORWARD;
            self.stats.violations += 1;
        }
        victims
    }

    /// Marks a performed load as not performed (e.g. the virtual-physical
    /// write-back scheme squashed it for lack of a free register). Its next
    /// execution will call [`Lsq::resolve_load`] again.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a tracked load.
    pub fn mark_unperformed(&mut self, seq: u64) {
        let idx = self.position(seq).expect("unknown load");
        let (_, e) = &mut self.entries[idx];
        assert!(!e.is_store, "sequence {seq} is a store");
        e.performed = false;
        e.forwarded_from = None;
        let li = self.load_position(seq).expect("load is indexed");
        let l = &mut self.loads[li];
        l.performed = false;
        l.forwarded_from = NO_FORWARD;
    }

    /// Removes an operation at commit. Unknown sequence numbers are
    /// ignored. Commit removes at (or near) the head, so the shift is O(1)
    /// in the common case.
    pub fn remove(&mut self, seq: u64) {
        if let Some(idx) = self.position(seq) {
            if self.entries[idx].1.is_store {
                let spos = self.store_position(seq).expect("store is indexed");
                self.stores.remove(spos);
            } else {
                let lpos = self.load_position(seq).expect("load is indexed");
                self.loads.remove(lpos);
            }
            self.entries.remove(idx);
        }
    }

    /// The resolved address of a tracked operation, if known.
    pub fn address_of(&self, seq: u64) -> Option<MemAccess> {
        self.position(seq)
            .and_then(|idx| self.entries[idx].1.access)
    }
}

impl vpr_snap::Snap for LsqStats {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.forwards);
        enc.put_u64(self.speculative_loads);
        enc.put_u64(self.violations);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            forwards: dec.take_u64(),
            speculative_loads: dec.take_u64(),
            violations: dec.take_u64(),
        }
    }
}

impl vpr_snap::Snap for Entry {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_bool(self.is_store);
        self.access.save(enc);
        enc.put_bool(self.performed);
        self.forwarded_from.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            is_store: dec.take_bool(),
            access: Option::<MemAccess>::load(dec),
            performed: dec.take_bool(),
            forwarded_from: Option::<u64>::load(dec),
        }
    }
}

impl vpr_snap::Snap for Lsq {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        // The age map is authoritative; both secondary indexes are
        // derivable, so only the map travels.
        self.entries.save(enc);
        enc.put_usize(self.capacity);
        self.stats.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let entries = VecDeque::<(u64, Entry)>::load(dec);
        let mut lsq = Lsq::new(dec.take_usize());
        lsq.stats = LsqStats::load(dec);
        for &(seq, e) in &entries {
            if e.is_store {
                let mut rec = StoreRec::unresolved(seq);
                if let Some(a) = e.access {
                    rec.set_access(a);
                }
                lsq.stores.push_back(rec);
            } else {
                lsq.loads.push_back(LoadRec {
                    seq,
                    addr: e.access.map_or(0, |a| a.addr),
                    forwarded_from: e.forwarded_from.unwrap_or(NO_FORWARD),
                    size: e.access.map_or(0, |a| a.size),
                    performed: e.performed,
                });
            }
        }
        lsq.entries = entries;
        lsq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_with_no_older_stores_is_nonspeculative() {
        let mut lsq = Lsq::new(8);
        lsq.insert_load(5);
        let d = lsq.resolve_load(5, MemAccess::word(0x100));
        assert_eq!(d, LoadDisposition::Cache { speculative: false });
        assert_eq!(lsq.stats().speculative_loads, 0);
    }

    #[test]
    fn forward_from_resolved_overlapping_store() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1);
        lsq.insert_load(2);
        lsq.resolve_store(1, MemAccess::word(0x100));
        let d = lsq.resolve_load(2, MemAccess::word(0x100));
        assert_eq!(
            d,
            LoadDisposition::Forward {
                store_seq: 1,
                speculative: false
            }
        );
        assert_eq!(lsq.stats().forwards, 1);
    }

    #[test]
    fn nearest_store_wins_forwarding() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1);
        lsq.insert_store(2);
        lsq.insert_load(3);
        lsq.resolve_store(1, MemAccess::word(0x100));
        lsq.resolve_store(2, MemAccess::word(0x100));
        let d = lsq.resolve_load(3, MemAccess::word(0x100));
        assert_eq!(
            d,
            LoadDisposition::Forward {
                store_seq: 2,
                speculative: false
            }
        );
    }

    #[test]
    fn violation_detected_when_store_resolves_late() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1);
        lsq.insert_load(2);
        let d = lsq.resolve_load(2, MemAccess::word(0x100));
        assert_eq!(d, LoadDisposition::Cache { speculative: true });
        let victims = lsq.resolve_store(1, MemAccess::word(0x100));
        assert_eq!(victims, vec![2]);
        assert_eq!(lsq.stats().violations, 1);
        // Re-execution resolves again; the store address is now known.
        let d = lsq.resolve_load(2, MemAccess::word(0x100));
        assert_eq!(
            d,
            LoadDisposition::Forward {
                store_seq: 1,
                speculative: false
            }
        );
    }

    #[test]
    fn disjoint_store_causes_no_violation() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1);
        lsq.insert_load(2);
        lsq.resolve_load(2, MemAccess::word(0x100));
        let victims = lsq.resolve_store(1, MemAccess::word(0x200));
        assert!(victims.is_empty());
    }

    #[test]
    fn forward_from_younger_store_survives_older_store_resolution() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1); // unresolved
        lsq.insert_store(2);
        lsq.insert_load(3);
        lsq.resolve_store(2, MemAccess::word(0x100));
        let d = lsq.resolve_load(3, MemAccess::word(0x100));
        // Store 1 is unresolved but *older* than the forwarding store, so
        // it cannot invalidate the forward: not speculative.
        assert_eq!(
            d,
            LoadDisposition::Forward {
                store_seq: 2,
                speculative: false
            }
        );
        // Store 1 resolves to the same address, but store 2 already
        // supplied the architecturally correct (younger) value.
        let victims = lsq.resolve_store(1, MemAccess::word(0x100));
        assert!(victims.is_empty());
    }

    #[test]
    fn unperformed_loads_are_not_victims() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1);
        lsq.insert_load(2);
        let victims = lsq.resolve_store(1, MemAccess::word(0x100));
        assert!(victims.is_empty(), "load has not performed yet");
    }

    #[test]
    fn commit_removes_entries() {
        let mut lsq = Lsq::new(2);
        lsq.insert_load(1);
        lsq.insert_store(2);
        assert!(lsq.is_full());
        lsq.remove(1);
        lsq.remove(2);
        assert!(lsq.is_empty());
        lsq.remove(99); // unknown: ignored
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut lsq = Lsq::new(1);
        lsq.insert_load(1);
        lsq.insert_load(2);
    }

    #[test]
    fn stores_index_survives_commit() {
        let mut lsq = Lsq::new(16);
        lsq.insert_store(1);
        lsq.insert_load(2);
        lsq.insert_store(3);
        lsq.insert_load(4);
        lsq.insert_store(5);
        lsq.resolve_store(3, MemAccess::word(0x100));
        // Commit the oldest store: the index must drop it too, so the
        // load's walk sees only store 3 (resolved) and skips the loads.
        lsq.remove(1);
        let d = lsq.resolve_load(4, MemAccess::word(0x100));
        assert_eq!(
            d,
            LoadDisposition::Forward {
                store_seq: 3,
                speculative: false
            }
        );
    }

    #[test]
    fn loads_between_stores_do_not_hide_forwarding() {
        let mut lsq = Lsq::new(16);
        lsq.insert_store(0);
        for seq in 1..8 {
            lsq.insert_load(seq);
        }
        lsq.resolve_store(0, MemAccess::word(0x40));
        let d = lsq.resolve_load(7, MemAccess::word(0x40));
        assert_eq!(
            d,
            LoadDisposition::Forward {
                store_seq: 0,
                speculative: false
            }
        );
    }

    #[test]
    fn mark_unperformed_clears_forwarding() {
        let mut lsq = Lsq::new(8);
        lsq.insert_store(1);
        lsq.insert_load(2);
        lsq.resolve_store(1, MemAccess::word(0x100));
        lsq.resolve_load(2, MemAccess::word(0x100));
        lsq.mark_unperformed(2);
        // A later, disjoint store resolution must not see it as performed.
        lsq.insert_store(0);
        let victims = lsq.resolve_store(0, MemAccess::word(0x100));
        assert!(victims.is_empty());
    }
}
