//! The instruction queue (issue window).
//!
//! ### Kernel layout
//!
//! The queue sits on the hottest per-cycle paths of the simulator (issue
//! selection and result-broadcast wakeup), so it is built for constant
//! per-event cost rather than map lookups:
//!
//! * entries live in a dense **slab** of reusable slots; a generation
//!   counter per slot lets stale index records be recognised in O(1)
//!   instead of being eagerly cleaned up;
//! * sequence-number lookup goes through a direct-mapped, slab-verified
//!   hint table (collision-free on the stock geometry, slab-scan
//!   fallback otherwise), so insert and remove never maintain a sorted
//!   age vector; only the *ready* entries are kept age-sorted, and the
//!   issue stage touches exactly those, oldest first, through the
//!   non-allocating [`Iq::ready_iter`];
//! * wake-up is **consumer-indexed**: each waiting operand registers
//!   itself in a per-`(RegClass, tag)` list at insert, so a broadcast
//!   ([`Iq::wakeup_phys`] / [`Iq::wakeup_vp`]) touches only the actual
//!   consumers of that tag instead of scanning the whole window.

use crate::rename::{PhysReg, RenamedSrc, SrcState, VpReg};
use vpr_isa::{OpClass, RegClass};

/// One waiting instruction: its operation class and up to two renamed
/// source operands (the paper's `Op code | D | Src1 R1 | Src2 R2` entry,
/// §3.2.2 Figure 2 — the destination tag lives in the reorder buffer
/// here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqEntry {
    /// Global sequence number (issue priority: oldest first).
    pub seq: u64,
    /// Operation class (selects the functional unit).
    pub op: OpClass,
    /// Renamed sources; `None` slots are absent operands.
    pub srcs: [Option<RenamedSrc>; 2],
    /// Register class this instruction must be *granted a physical
    /// register in* before it may leave the queue — `Some` only under the
    /// issue-allocation scheme for a destination not yet allocated. Cached
    /// here so the issue stage's selection loop never touches the reorder
    /// buffer for candidates it ends up skipping. Invariant: while the
    /// entry is queued, this equals "destination present with no physical
    /// register" of its reorder-buffer entry (a queued instruction's
    /// allocation state only changes at issue, which removes it).
    pub alloc_class: Option<RegClass>,
}

impl IqEntry {
    /// True when every present operand is ready (the issue condition:
    /// "an instruction can be issued when the R fields of both operands
    /// are set").
    pub fn is_ready(&self) -> bool {
        self.srcs.iter().flatten().all(|s| s.state.is_ready())
    }

    /// Number of ready register sources per class, for read-port
    /// accounting at issue: `(int_reads, fp_reads)`.
    pub fn read_port_needs(&self) -> (u32, u32) {
        let mut int = 0;
        let mut fp = 0;
        for s in self.srcs.iter().flatten() {
            match s.class {
                RegClass::Int => int += 1,
                RegClass::Fp => fp += 1,
            }
        }
        (int, fp)
    }
}

/// One issue-eligible instruction in the ready index: the hot fields the
/// selection loop needs, packed into 16 bytes next to the age key so
/// scanning many blocked candidates (FU-starved or register-denied)
/// touches four records per cache line — the slab is consulted only for
/// entries that actually issue.
#[derive(Debug, Clone, Copy)]
pub struct ReadyRec {
    /// Global sequence number (issue priority: oldest first).
    pub seq: u64,
    /// Operation class (selects the functional unit).
    pub op: OpClass,
    /// [`IqEntry::alloc_class`], packed: 0 = none, 1 = int, 2 = fp.
    alloc_class: u8,
    /// Ready register sources per class `[int, fp]`.
    read_ports: [u8; 2],
}

// Layout-regression guard: four ready records per cache line.
const _: () = assert!(
    std::mem::size_of::<ReadyRec>() == 16,
    "ReadyRec must stay 16 bytes (four records per cache line)"
);

impl ReadyRec {
    /// Builds the packed record for `entry`.
    fn of(entry: &IqEntry) -> Self {
        let (int, fp) = entry.read_port_needs();
        Self {
            seq: entry.seq,
            op: entry.op,
            alloc_class: match entry.alloc_class {
                None => 0,
                Some(RegClass::Int) => 1,
                Some(RegClass::Fp) => 2,
            },
            read_ports: [int as u8, fp as u8],
        }
    }

    /// See [`IqEntry::alloc_class`].
    #[inline]
    pub fn alloc_class(&self) -> Option<RegClass> {
        match self.alloc_class {
            0 => None,
            1 => Some(RegClass::Int),
            _ => Some(RegClass::Fp),
        }
    }

    /// Ready register sources per class `(int, fp)`, for read-port
    /// accounting at issue.
    #[inline]
    pub fn read_port_needs(&self) -> (u32, u32) {
        (u32::from(self.read_ports[0]), u32::from(self.read_ports[1]))
    }
}

/// A consumer-list record: operand `src` of the entry in `slot` (valid
/// only while the slot's generation still equals `gen`).
#[derive(Debug, Clone, Copy)]
struct Waiter {
    slot: u32,
    src: u8,
    gen: u32,
}

/// Per-slot bookkeeping, split off from the entry payload so the paths
/// that only test slot *state* (generation checks on stale waiters and
/// lookup hints, liveness scans) stream through a dense 8-byte-per-slot
/// array instead of striding over full entries. `gen` increments on
/// every removal, invalidating any [`Waiter`] records (and lookup-table
/// hints) that still point here.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    gen: u32,
    /// Present operands still waiting on a broadcast (0 ⇒ ready).
    /// Invariant: a live slot with `waiting == 0` has a record in the
    /// ready index, and vice versa.
    waiting: u8,
    /// False once the entry leaves the queue (the slot is on the free
    /// list and its entry payload is stale).
    live: bool,
}

// Layout-regression guard: eight slot-state records per cache line.
const _: () = assert!(
    std::mem::size_of::<SlotMeta>() <= 8,
    "SlotMeta must stay within 8 bytes (eight records per cache line)"
);

/// Vacant marker in the seq → slot lookup table.
const VACANT: u32 = u32::MAX;

/// The out-of-order issue window: entries ordered by age, woken by tag
/// broadcasts at write-back.
///
/// Two broadcast channels exist because the schemes differ in what a
/// waiting operand names: the conventional scheme broadcasts the physical
/// register being written ([`Iq::wakeup_phys`]); the virtual-physical
/// scheme broadcasts a (VP tag → physical register) binding
/// ([`Iq::wakeup_vp`]), after which the operand knows its physical
/// register (paper §3.2.2).
#[derive(Debug, Clone)]
pub struct Iq {
    /// Slot entry payloads (parallel to `meta`; stale when not live).
    entries: Vec<IqEntry>,
    /// Slot state records (parallel to `entries`).
    meta: Vec<SlotMeta>,
    free_slots: Vec<u32>,
    /// Direct-mapped `seq & lookup_mask → slot` hint table. A hit is
    /// verified against the slab (live + matching sequence number), so a
    /// collided or stale hint is never wrong — it just falls back to a
    /// slab scan. The table is sized at four times the capacity: live
    /// sequence numbers all come from one reorder-buffer window, so on
    /// the stock geometry (window ≤ 4 × queue capacity) two live entries
    /// never alias and the fallback scan is dead code.
    lookup: Vec<u32>,
    lookup_mask: u64,
    /// Live entry count.
    live: usize,
    /// Issue-eligible instructions, sorted by `seq` (see [`ReadyRec`]).
    ready: Vec<ReadyRec>,
    /// Consumer lists for physical-register broadcasts, `[class][preg]`.
    phys_waiters: [Vec<Vec<Waiter>>; 2],
    /// Consumer lists for VP-tag broadcasts, `[class][vp]`.
    vp_waiters: [Vec<Vec<Waiter>>; 2],
    capacity: usize,
}

impl Iq {
    /// Creates an empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "IQ needs at least one entry");
        let lookup_len = capacity.next_power_of_two() * 4;
        Self {
            entries: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity),
            free_slots: Vec::new(),
            lookup: vec![VACANT; lookup_len],
            lookup_mask: (lookup_len - 1) as u64,
            live: 0,
            ready: Vec::with_capacity(capacity),
            phys_waiters: [Vec::new(), Vec::new()],
            vp_waiters: [Vec::new(), Vec::new()],
            capacity,
        }
    }

    /// Number of waiting instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no instruction waits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True when dispatch must stall.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.live == self.capacity
    }

    /// Slot index of the live entry with sequence number `seq`, if any:
    /// verified lookup-table hit, or (for a collided/stale hint — never
    /// on the stock geometry) a slab scan.
    fn find_slot(&self, seq: u64) -> Option<u32> {
        let hint = self.lookup[(seq & self.lookup_mask) as usize];
        if hint != VACANT {
            if let Some(m) = self.meta.get(hint as usize) {
                if m.live && self.entries[hint as usize].seq == seq {
                    return Some(hint);
                }
            }
        }
        self.meta
            .iter()
            .zip(&self.entries)
            .position(|(m, e)| m.live && e.seq == seq)
            .map(|i| i as u32)
    }

    /// Number of currently issue-eligible instructions (the idle-skip
    /// quiescence check: 0 means the issue stage cannot make progress
    /// until some broadcast arrives).
    #[inline]
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Inserts a dispatched (or re-executing) instruction.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full. Inserting a sequence number that is
    /// already present is a caller bug (debug-asserted; the pipeline
    /// never does it — an instruction re-enters the queue only after
    /// leaving it).
    pub fn insert(&mut self, entry: IqEntry) {
        assert!(!self.is_full(), "IQ overflow: dispatch must stall first");
        debug_assert!(
            self.find_slot(entry.seq).is_none(),
            "sequence {} inserted twice",
            entry.seq
        );
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                let m = &mut self.meta[slot as usize];
                m.waiting = 0;
                m.live = true;
                slot
            }
            None => {
                self.entries.push(entry);
                self.meta.push(SlotMeta {
                    gen: 0,
                    waiting: 0,
                    live: true,
                });
                (self.entries.len() - 1) as u32
            }
        };
        let gen = self.meta[slot as usize].gen;
        let mut waiting = 0u8;
        for (i, src) in entry.srcs.iter().enumerate() {
            let Some(src) = src else { continue };
            let waiter = Waiter {
                slot,
                src: i as u8,
                gen,
            };
            match src.state {
                SrcState::Ready(_) => {}
                SrcState::WaitPhys(preg) => {
                    waiting += 1;
                    push_waiter(
                        &mut self.phys_waiters[src.class.index()],
                        preg.0 as usize,
                        waiter,
                    );
                }
                SrcState::WaitVp(vp) => {
                    waiting += 1;
                    push_waiter(
                        &mut self.vp_waiters[src.class.index()],
                        vp.0 as usize,
                        waiter,
                    );
                }
            }
        }
        self.meta[slot as usize].waiting = waiting;
        self.lookup[(entry.seq & self.lookup_mask) as usize] = slot;
        self.live += 1;
        if waiting == 0 {
            let rpos = self
                .ready
                .binary_search_by_key(&entry.seq, |r| r.seq)
                .expect_err("live sequence numbers are unique");
            self.ready.insert(rpos, ReadyRec::of(&entry));
        }
    }

    /// Removes an instruction (at issue). Returns `None` for a sequence
    /// number not in the queue.
    pub fn remove(&mut self, seq: u64) -> Option<IqEntry> {
        let slot = self.find_slot(seq)?;
        let lookup_at = (seq & self.lookup_mask) as usize;
        if self.lookup[lookup_at] == slot {
            self.lookup[lookup_at] = VACANT;
        }
        let m = &mut self.meta[slot as usize];
        // Invalidate any consumer-list records still pointing at the slot.
        m.gen = m.gen.wrapping_add(1);
        m.live = false;
        let was_ready = m.waiting == 0;
        let entry = self.entries[slot as usize];
        self.free_slots.push(slot);
        self.live -= 1;
        if was_ready {
            // The waiting == 0 ⇔ in-ready-index invariant makes the
            // search unconditional-hit; entries still waiting skip it.
            let rpos = self
                .ready
                .binary_search_by_key(&seq, |r| r.seq)
                .expect("ready invariant: waiting == 0 entries are indexed");
            self.ready.remove(rpos);
        }
        Some(entry)
    }

    /// Conventional-scheme wake-up: physical register `preg` of `class`
    /// now holds its value. Returns how many operands woke.
    pub fn wakeup_phys(&mut self, class: RegClass, preg: PhysReg) -> usize {
        let Some(list) = self.phys_waiters[class.index()].get_mut(preg.0 as usize) else {
            return 0;
        };
        let mut list = std::mem::take(list);
        let mut woken = 0;
        for w in list.drain(..) {
            let slot = w.slot as usize;
            if self.meta[slot].gen != w.gen {
                continue; // the instruction left the queue; record is stale
            }
            let src = self.entries[slot].srcs[w.src as usize]
                .as_mut()
                .expect("waiter recorded for a present operand");
            debug_assert_eq!(src.class, class);
            if src.state != SrcState::WaitPhys(preg) {
                continue;
            }
            src.state = SrcState::Ready(preg);
            woken += 1;
            self.meta[slot].waiting -= 1;
            if self.meta[slot].waiting == 0 {
                let rec = ReadyRec::of(&self.entries[slot]);
                let rpos = self
                    .ready
                    .binary_search_by_key(&rec.seq, |r| r.seq)
                    .expect_err("was not ready before its last operand woke");
                self.ready.insert(rpos, rec);
            }
        }
        // Hand the (now empty) list's allocation back for reuse.
        self.phys_waiters[class.index()][preg.0 as usize] = list;
        woken
    }

    /// Virtual-physical wake-up: tag `vp` of `class` was bound to `preg`.
    /// Matching operands become ready *and learn their physical register*
    /// (the broadcast carries both identifiers, §3.2.2). Returns how many
    /// operands woke.
    pub fn wakeup_vp(&mut self, class: RegClass, vp: VpReg, preg: PhysReg) -> usize {
        let Some(list) = self.vp_waiters[class.index()].get_mut(vp.0 as usize) else {
            return 0;
        };
        let mut list = std::mem::take(list);
        let mut woken = 0;
        for w in list.drain(..) {
            let slot = w.slot as usize;
            if self.meta[slot].gen != w.gen {
                continue;
            }
            let src = self.entries[slot].srcs[w.src as usize]
                .as_mut()
                .expect("waiter recorded for a present operand");
            debug_assert_eq!(src.class, class);
            if src.state != SrcState::WaitVp(vp) {
                continue;
            }
            src.state = SrcState::Ready(preg);
            woken += 1;
            self.meta[slot].waiting -= 1;
            if self.meta[slot].waiting == 0 {
                let rec = ReadyRec::of(&self.entries[slot]);
                let rpos = self
                    .ready
                    .binary_search_by_key(&rec.seq, |r| r.seq)
                    .expect_err("was not ready before its last operand woke");
                self.ready.insert(rpos, rec);
            }
        }
        self.vp_waiters[class.index()][vp.0 as usize] = list;
        woken
    }

    /// Iterates entries oldest → youngest (age order). Cold path
    /// (snapshots, tests): the age order is derived by sorting
    /// the live slab entries rather than being maintained per operation —
    /// the hot insert/remove paths pay nothing for it.
    pub fn iter(&self) -> impl Iterator<Item = &IqEntry> {
        let mut live: Vec<&IqEntry> = self
            .meta
            .iter()
            .zip(&self.entries)
            .filter(|(m, _)| m.live)
            .map(|(_, e)| e)
            .collect();
        live.sort_unstable_by_key(|e| e.seq);
        live.into_iter()
    }

    /// Iterates the *issue-eligible* entries' `ReadyRec`s oldest →
    /// youngest, without allocating and without touching the slab — the
    /// issue stage's selection order.
    pub fn ready_iter(&self) -> impl Iterator<Item = &ReadyRec> {
        self.ready.iter()
    }

    /// Sequence numbers of all currently-ready entries, oldest first
    /// (convenience for tests; the issue stage uses [`Iq::ready_iter`]).
    pub fn ready_seqs(&self) -> Vec<u64> {
        self.ready.iter().map(|r| r.seq).collect()
    }
}

impl vpr_snap::Snap for IqEntry {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.seq);
        self.op.save(enc);
        self.srcs.save(enc);
        self.alloc_class.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            seq: dec.take_u64(),
            op: OpClass::load(dec),
            srcs: <[Option<RenamedSrc>; 2]>::load(dec),
            alloc_class: Option::<RegClass>::load(dec),
        }
    }
}

impl vpr_snap::Snap for Iq {
    /// The canonical queue state is the entry set in age order; the slab
    /// layout, consumer lists and ready index are all derived. Restore
    /// rebuilds them by re-inserting each entry, which is behaviourally
    /// identical: wake-ups process consumer lists in an order that only
    /// affects *which* order already-deterministic updates happen in, and
    /// the age-sorted ready index is order-independent by construction.
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_usize(self.capacity);
        enc.put_usize(self.len());
        for e in self.iter() {
            e.save(enc);
        }
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let mut iq = Iq::new(1);
        iq.load_into(dec);
        iq
    }

    /// Rebuilds the exact slab, free list, lookup table, consumer lists
    /// and ready index a fresh load makes, keeping the allocations
    /// (the lookup table is rebuilt only for a different capacity).
    fn load_into(&mut self, dec: &mut vpr_snap::Decoder<'_>) {
        let capacity = dec.take_usize();
        if capacity == self.capacity {
            self.entries.clear();
            self.meta.clear();
            self.free_slots.clear();
            self.lookup.fill(VACANT);
            self.live = 0;
            self.ready.clear();
            for lists in self.phys_waiters.iter_mut().chain(&mut self.vp_waiters) {
                lists.iter_mut().for_each(Vec::clear);
            }
        } else {
            *self = Iq::new(capacity);
        }
        let n = dec.take_usize();
        for _ in 0..n {
            self.insert(IqEntry::load(dec));
        }
    }
}

/// Appends `waiter` to `lists[tag]`, growing the table on first use of a
/// tag index.
fn push_waiter(lists: &mut Vec<Vec<Waiter>>, tag: usize, waiter: Waiter) {
    if lists.len() <= tag {
        lists.resize_with(tag + 1, Vec::new);
    }
    lists[tag].push(waiter);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_src(class: RegClass, p: u16) -> RenamedSrc {
        RenamedSrc {
            class,
            state: SrcState::Ready(PhysReg(p)),
        }
    }

    fn wait_vp(class: RegClass, v: u16) -> RenamedSrc {
        RenamedSrc {
            class,
            state: SrcState::WaitVp(VpReg(v)),
        }
    }

    fn wait_phys(class: RegClass, p: u16) -> RenamedSrc {
        RenamedSrc {
            class,
            state: SrcState::WaitPhys(PhysReg(p)),
        }
    }

    #[test]
    fn readiness() {
        let e = IqEntry {
            seq: 0,
            op: OpClass::IntAlu,
            srcs: [Some(ready_src(RegClass::Int, 1)), None],
            alloc_class: None,
        };
        assert!(e.is_ready());
        let e = IqEntry {
            seq: 1,
            op: OpClass::FpAdd,
            srcs: [
                Some(ready_src(RegClass::Fp, 1)),
                Some(wait_vp(RegClass::Fp, 9)),
            ],
            alloc_class: None,
        };
        assert!(!e.is_ready());
        let e = IqEntry {
            seq: 2,
            op: OpClass::Nop,
            srcs: [None, None],
            alloc_class: None,
        };
        assert!(e.is_ready(), "no operands = trivially ready");
    }

    #[test]
    fn vp_wakeup_sets_physical_register() {
        let mut iq = Iq::new(8);
        iq.insert(IqEntry {
            seq: 0,
            op: OpClass::FpMul,
            srcs: [
                Some(wait_vp(RegClass::Fp, 40)),
                Some(wait_vp(RegClass::Fp, 41)),
            ],
            alloc_class: None,
        });
        assert_eq!(iq.wakeup_vp(RegClass::Fp, VpReg(40), PhysReg(7)), 1);
        let e = *iq.iter().next().unwrap();
        assert_eq!(e.srcs[0].unwrap().state, SrcState::Ready(PhysReg(7)));
        assert!(!e.is_ready());
        assert_eq!(iq.ready_len(), 0);
        assert_eq!(iq.wakeup_vp(RegClass::Fp, VpReg(41), PhysReg(9)), 1);
        assert_eq!(iq.ready_seqs(), vec![0]);
        assert_eq!(iq.ready_len(), 1);
    }

    #[test]
    fn wakeup_respects_class() {
        let mut iq = Iq::new(8);
        iq.insert(IqEntry {
            seq: 0,
            op: OpClass::IntAlu,
            srcs: [Some(wait_vp(RegClass::Int, 5)), None],
            alloc_class: None,
        });
        // Same tag number in the FP class: no wake-up.
        assert_eq!(iq.wakeup_vp(RegClass::Fp, VpReg(5), PhysReg(1)), 0);
        assert_eq!(iq.wakeup_vp(RegClass::Int, VpReg(5), PhysReg(1)), 1);
    }

    #[test]
    fn phys_wakeup_conventional() {
        let mut iq = Iq::new(8);
        iq.insert(IqEntry {
            seq: 3,
            op: OpClass::IntAlu,
            srcs: [
                Some(wait_phys(RegClass::Int, 33)),
                Some(ready_src(RegClass::Int, 2)),
            ],
            alloc_class: None,
        });
        iq.insert(IqEntry {
            seq: 4,
            op: OpClass::IntMul,
            srcs: [Some(wait_phys(RegClass::Int, 33)), None],
            alloc_class: None,
        });
        // One broadcast wakes both consumers.
        assert_eq!(iq.wakeup_phys(RegClass::Int, PhysReg(33)), 2);
        assert_eq!(iq.ready_seqs(), vec![3, 4]);
    }

    #[test]
    fn iteration_is_oldest_first() {
        let mut iq = Iq::new(8);
        for seq in [5u64, 2, 9, 1] {
            iq.insert(IqEntry {
                seq,
                op: OpClass::IntAlu,
                srcs: [None, None],
                alloc_class: None,
            });
        }
        let order: Vec<u64> = iq.iter().map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 5, 9]);
        let ready: Vec<u64> = iq.ready_iter().map(|e| e.seq).collect();
        assert_eq!(
            ready,
            vec![1, 2, 5, 9],
            "operand-free entries are all ready"
        );
    }

    #[test]
    fn read_port_needs_count_classes() {
        let e = IqEntry {
            seq: 0,
            op: OpClass::Store,
            srcs: [
                Some(ready_src(RegClass::Int, 1)),
                Some(ready_src(RegClass::Fp, 2)),
            ],
            alloc_class: None,
        };
        assert_eq!(e.read_port_needs(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "IQ overflow")]
    fn overflow_panics() {
        let mut iq = Iq::new(1);
        iq.insert(IqEntry {
            seq: 0,
            op: OpClass::IntAlu,
            srcs: [None, None],
            alloc_class: None,
        });
        iq.insert(IqEntry {
            seq: 1,
            op: OpClass::IntAlu,
            srcs: [None, None],
            alloc_class: None,
        });
    }

    #[test]
    fn stale_waiters_do_not_wake_slot_reusers() {
        let mut iq = Iq::new(4);
        // Entry 0 waits on p7, then leaves the queue (issue) before the
        // broadcast; its slot is reused by entry 1 waiting on p8.
        iq.insert(IqEntry {
            seq: 0,
            op: OpClass::IntAlu,
            srcs: [Some(wait_phys(RegClass::Int, 7)), None],
            alloc_class: None,
        });
        assert!(iq.remove(0).is_some());
        iq.insert(IqEntry {
            seq: 1,
            op: OpClass::IntAlu,
            srcs: [Some(wait_phys(RegClass::Int, 8)), None],
            alloc_class: None,
        });
        // The stale record for p7 must not touch the reused slot.
        assert_eq!(iq.wakeup_phys(RegClass::Int, PhysReg(7)), 0);
        assert_eq!(iq.ready_len(), 0);
        assert_eq!(iq.wakeup_phys(RegClass::Int, PhysReg(8)), 1);
        assert_eq!(iq.ready_seqs(), vec![1]);
    }

    #[test]
    fn reinserted_seq_after_removal_works() {
        // Re-execution path: an issued instruction returns to the queue
        // with the same sequence number and all-ready operands.
        let mut iq = Iq::new(4);
        iq.insert(IqEntry {
            seq: 9,
            op: OpClass::Load,
            srcs: [Some(ready_src(RegClass::Int, 3)), None],
            alloc_class: None,
        });
        let e = iq.remove(9).expect("present");
        assert_eq!(iq.len(), 0);
        iq.insert(e);
        assert_eq!(iq.ready_seqs(), vec![9]);
        assert_eq!(iq.len(), 1);
    }

    #[test]
    fn remove_unknown_is_ignored() {
        let mut iq = Iq::new(2);
        assert!(iq.remove(42).is_none());
    }

    #[test]
    fn double_wakeup_is_idempotent() {
        let mut iq = Iq::new(4);
        iq.insert(IqEntry {
            seq: 0,
            op: OpClass::IntAlu,
            srcs: [Some(wait_phys(RegClass::Int, 5)), None],
            alloc_class: None,
        });
        assert_eq!(iq.wakeup_phys(RegClass::Int, PhysReg(5)), 1);
        assert_eq!(
            iq.wakeup_phys(RegClass::Int, PhysReg(5)),
            0,
            "no waiter left"
        );
        assert_eq!(iq.ready_seqs(), vec![0]);
    }
}
