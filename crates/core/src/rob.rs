//! The reorder buffer, split into a **hot struct-of-arrays kernel** and a
//! cold per-entry store.
//!
//! The monolithic `RobEntry` is ~200 bytes — four cache lines — yet the
//! per-event hot paths (event handlers, the issue loop, commit, the
//! governor's retry sweep) only ever need a handful of its fields. The
//! buffer therefore keeps three ring-indexed parallel arrays:
//!
//! * [`RobHot`] — one packed 32-byte record (two entries per cache line)
//!   with everything the per-event paths touch: the status flags, the
//!   execution generation, the memory phase and hoisted address/size,
//!   `completed_at`, and the execution count;
//! * `dests` — the renamed destination (`Option<RenamedDest>`), read at
//!   completion/commit and written at dispatch and late allocation;
//! * cold — the full [`DynInst`] plus the re-execution `srcs`, touched
//!   only at dispatch, issue (the source refresh), branch resolution,
//!   squash-for-re-execution, and diagnostics.
//!
//! [`RobEntry`] survives as the assembly/disassembly carrier for dispatch
//! (`push`), tests, and — crucially — serialisation: `Snap for Rob`
//! encodes assembled entries in the **monolithic field order**, so the
//! on-disk `.vprsnap` layout does not depend on the hot/cold split (see
//! `docs/snapshot-format.md`).

use crate::rename::{RenamedDest, RenamedSrc};
use vpr_isa::{DynInst, Inst, MemAccess, OpClass};

/// Progress of a load or store through the memory pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemPhase {
    /// Not yet issued (or squashed back for re-execution).
    #[default]
    Idle,
    /// Effective address computed; waiting for a cache port / MSHR.
    AwaitCache,
    /// A data-return event is scheduled.
    InFlight,
    /// Data obtained (loads) or address resolved (stores).
    Done,
}

const F_COMPLETED: u8 = 1 << 0;
const F_ISSUED: u8 = 1 << 1;
const F_MISPREDICTED: u8 = 1 << 2;

/// The hot per-entry record: everything the per-event paths read or
/// write, packed into 32 bytes so two in-flight instructions share a
/// cache line. The sequence number is implicit (ring index), and the
/// memory address/size are hoisted out of the cold [`DynInst`] so commit
/// of a store, the EA handler, and the governor's retry sweep never leave
/// the hot array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobHot {
    /// Execution generation: a globally unique token refreshed on every
    /// squash-for-re-execution so stale completion events can be
    /// recognised and dropped.
    pub gen: u64,
    /// Cycle at which the completed flag was set (drives the optional VP
    /// commit delay and diagnostics).
    pub completed_at: u64,
    /// Effective byte address — meaningful only for loads and stores.
    addr: u64,
    /// Times this instruction began execution (1 = no re-executions).
    pub executions: u32,
    /// The operation class (hoisted from the cold instruction).
    pub op: OpClass,
    /// Status bits: completed / issued / mispredicted.
    flags: u8,
    /// Memory-pipeline progress for loads and stores.
    pub mem_phase: MemPhase,
    /// Access size in bytes — meaningful only for loads and stores.
    mem_size: u8,
}

// Layout-regression guards: a field added carelessly to the hot record
// blows the two-entries-per-line budget and fails `cargo test` (in fact,
// `cargo build`) here, not a future bench run.
const _: () = assert!(
    std::mem::size_of::<RobHot>() == 32,
    "RobHot must stay exactly 32 bytes (two entries per cache line)"
);
const _: () = assert!(std::mem::align_of::<RobHot>() == 8);

impl RobHot {
    fn from_entry(e: &RobEntry) -> Self {
        let mut flags = 0;
        if e.completed {
            flags |= F_COMPLETED;
        }
        if e.issued {
            flags |= F_ISSUED;
        }
        if e.mispredicted {
            flags |= F_MISPREDICTED;
        }
        let (addr, mem_size) = e.di.mem().map_or((0, 0), |m| (m.addr, m.size));
        Self {
            gen: e.gen,
            completed_at: e.completed_at,
            addr,
            executions: e.executions,
            op: e.di.op(),
            flags,
            mem_phase: e.mem_phase,
            mem_size,
        }
    }

    /// The paper's `C` flag: execution has completed.
    #[inline]
    pub fn completed(&self) -> bool {
        self.flags & F_COMPLETED != 0
    }

    /// Sets or clears the `C` flag.
    #[inline]
    pub fn set_completed(&mut self, v: bool) {
        if v {
            self.flags |= F_COMPLETED;
        } else {
            self.flags &= !F_COMPLETED;
        }
    }

    /// Currently out of the instruction queue (issued or executing).
    #[inline]
    pub fn issued(&self) -> bool {
        self.flags & F_ISSUED != 0
    }

    /// Sets or clears the issued flag (cleared on re-execution).
    #[inline]
    pub fn set_issued(&mut self, v: bool) {
        if v {
            self.flags |= F_ISSUED;
        } else {
            self.flags &= !F_ISSUED;
        }
    }

    /// True for a conditional branch whose predicted direction was wrong.
    #[inline]
    pub fn mispredicted(&self) -> bool {
        self.flags & F_MISPREDICTED != 0
    }

    /// The effective address (loads and stores only).
    #[inline]
    pub fn addr(&self) -> u64 {
        debug_assert!(self.op.is_mem(), "only memory ops carry an address");
        self.addr
    }

    /// The memory access, reassembled from the hoisted address and size.
    #[inline]
    pub fn mem_access(&self) -> MemAccess {
        debug_assert!(self.op.is_mem(), "only memory ops carry an access");
        MemAccess {
            addr: self.addr,
            size: self.mem_size,
        }
    }
}

/// The cold per-entry state: needed at dispatch, issue (source refresh),
/// branch resolution, and squash-for-re-execution — never on the
/// per-event fast paths.
#[derive(Debug, Clone)]
struct RobCold {
    di: DynInst,
    srcs: [Option<RenamedSrc>; 2],
}

/// One in-flight instruction, from dispatch to commit — the
/// **assembled** view of one ring slot.
///
/// Besides the dynamic instruction itself, the entry holds exactly the
/// recovery state the paper requires (§3.2.2): the destination logical
/// register and the previous mapping(s), plus the completion flag `C`.
/// In memory the buffer stores these fields split across the hot/cold
/// arrays; this carrier exists for dispatch, tests and the serialiser.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global program-order sequence number.
    pub seq: u64,
    /// The fetched instruction.
    pub di: DynInst,
    /// True for a conditional branch whose predicted direction was wrong.
    pub mispredicted: bool,
    /// Renamed destination, if the instruction writes a register.
    pub dest: Option<RenamedDest>,
    /// Renamed sources, refreshed with their final (all-ready) state at
    /// issue so a squashed instruction can be re-inserted into the
    /// instruction queue for re-execution.
    pub srcs: [Option<RenamedSrc>; 2],
    /// The paper's `C` flag: execution has completed.
    pub completed: bool,
    /// Cycle at which `completed` was set (drives the optional VP commit
    /// delay and diagnostics).
    pub completed_at: u64,
    /// Currently out of the instruction queue (issued or executing).
    pub issued: bool,
    /// Execution generation: a globally unique token refreshed on every
    /// squash-for-re-execution so stale completion events can be
    /// recognised and dropped.
    pub gen: u64,
    /// Memory-pipeline progress for loads and stores.
    pub mem_phase: MemPhase,
    /// Times this instruction began execution (1 = no re-executions).
    pub executions: u32,
}

impl RobEntry {
    /// Creates a fresh entry at dispatch.
    pub fn new(seq: u64, di: DynInst, mispredicted: bool) -> Self {
        Self {
            seq,
            di,
            mispredicted,
            dest: None,
            srcs: [None, None],
            completed: false,
            completed_at: 0,
            issued: false,
            gen: 0,
            mem_phase: MemPhase::Idle,
            executions: 0,
        }
    }
}

/// The reorder buffer: a bounded ring of in-flight instructions
/// addressable by sequence number, stored hot/cold split (see the module
/// documentation).
///
/// Dispatch pushes at the tail and commit drops from the head — so the
/// live sequence numbers are always contiguous, and lookup is O(1)
/// arithmetic on the head sequence. Head drops advance ring indices only;
/// cold state never moves.
#[derive(Debug, Clone)]
pub struct Rob {
    hot: Vec<RobHot>,
    dests: Vec<Option<RenamedDest>>,
    cold: Vec<RobCold>,
    capacity: usize,
    /// Ring index of the head entry.
    head_idx: usize,
    /// Number of in-flight instructions.
    len: usize,
    /// Sequence number of the entry at the head (valid when non-empty).
    head_seq: u64,
}

impl Rob {
    /// Creates an empty buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs at least one entry");
        let filler = RobEntry::new(0, DynInst::new(0, Inst::new(OpClass::Nop)), false);
        Self {
            hot: vec![RobHot::from_entry(&filler); capacity],
            dests: vec![None; capacity],
            cold: vec![
                RobCold {
                    di: filler.di,
                    srcs: [None, None],
                };
                capacity
            ],
            capacity,
            head_idx: 0,
            len: 0,
            head_seq: 0,
        }
    }

    /// Number of in-flight instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when dispatch must stall.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Wraps a ring index into `0..capacity` (the capacity is not
    /// necessarily a power of two, so this is a conditional subtract, not
    /// a mask; `idx < 2 * capacity` always holds for the callers).
    #[inline]
    fn wrap(&self, idx: usize) -> usize {
        if idx >= self.capacity {
            idx - self.capacity
        } else {
            idx
        }
    }

    /// Ring slot of in-flight sequence number `seq`, or `None`.
    #[inline]
    fn slot_of(&self, seq: u64) -> Option<usize> {
        let off = seq.wrapping_sub(self.head_seq);
        if off >= self.len as u64 {
            return None;
        }
        Some(self.wrap(self.head_idx + off as usize))
    }

    /// Appends an entry at the tail.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full or the sequence number is not the
    /// successor of the current tail.
    pub fn push(&mut self, entry: RobEntry) {
        assert!(!self.is_full(), "ROB overflow: dispatch must stall first");
        if self.len == 0 {
            self.head_seq = entry.seq;
        } else {
            assert_eq!(
                entry.seq,
                self.head_seq + self.len as u64,
                "sequence numbers must be contiguous"
            );
        }
        let idx = self.wrap(self.head_idx + self.len);
        self.hot[idx] = RobHot::from_entry(&entry);
        self.dests[idx] = entry.dest;
        self.cold[idx] = RobCold {
            di: entry.di,
            srcs: entry.srcs,
        };
        self.len += 1;
    }

    /// The hot record of in-flight instruction `seq`.
    #[inline]
    pub fn hot(&self, seq: u64) -> Option<&RobHot> {
        self.slot_of(seq).map(|i| &self.hot[i])
    }

    /// Mutable hot record of in-flight instruction `seq`.
    #[inline]
    pub fn hot_mut(&mut self, seq: u64) -> Option<&mut RobHot> {
        self.slot_of(seq).map(|i| &mut self.hot[i])
    }

    /// The hot record of the oldest in-flight instruction.
    #[inline]
    pub fn head_hot(&self) -> Option<&RobHot> {
        (self.len > 0).then(|| &self.hot[self.head_idx])
    }

    /// Sequence number of the oldest in-flight instruction.
    #[inline]
    pub fn head_seq(&self) -> Option<u64> {
        (self.len > 0).then_some(self.head_seq)
    }

    /// Sequence number of the youngest in-flight instruction.
    #[inline]
    pub fn tail_seq(&self) -> Option<u64> {
        (self.len > 0).then(|| self.head_seq + self.len as u64 - 1)
    }

    /// The renamed destination of in-flight instruction `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight — every caller indexes a
    /// known-live window.
    #[inline]
    pub fn dest(&self, seq: u64) -> Option<RenamedDest> {
        let i = self.slot_of(seq).expect("sequence not in flight");
        self.dests[i]
    }

    /// Mutable renamed destination of in-flight instruction `seq` (late
    /// allocation writes the granted register here).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    #[inline]
    pub fn dest_mut(&mut self, seq: u64) -> &mut Option<RenamedDest> {
        let i = self.slot_of(seq).expect("sequence not in flight");
        &mut self.dests[i]
    }

    /// The cold dynamic instruction of in-flight instruction `seq`
    /// (branch resolution, diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    #[inline]
    pub fn di(&self, seq: u64) -> &DynInst {
        let i = self.slot_of(seq).expect("sequence not in flight");
        &self.cold[i].di
    }

    /// The recovery sources of in-flight instruction `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    #[inline]
    pub fn srcs(&self, seq: u64) -> [Option<RenamedSrc>; 2] {
        let i = self.slot_of(seq).expect("sequence not in flight");
        self.cold[i].srcs
    }

    /// Refreshes the recovery sources at issue (their final, all-ready
    /// state — what a squash-for-re-execution re-inserts).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    #[inline]
    pub fn set_srcs(&mut self, seq: u64, srcs: [Option<RenamedSrc>; 2]) {
        let i = self.slot_of(seq).expect("sequence not in flight");
        self.cold[i].srcs = srcs;
    }

    /// Assembles the full entry view of one ring slot.
    fn assemble(&self, idx: usize, seq: u64) -> RobEntry {
        let h = &self.hot[idx];
        let c = &self.cold[idx];
        RobEntry {
            seq,
            di: c.di,
            mispredicted: h.mispredicted(),
            dest: self.dests[idx],
            srcs: c.srcs,
            completed: h.completed(),
            completed_at: h.completed_at,
            issued: h.issued(),
            gen: h.gen,
            mem_phase: h.mem_phase,
            executions: h.executions,
        }
    }

    /// Assembled view of in-flight instruction `seq` (diagnostics, tests
    /// — the hot paths use the split accessors instead).
    pub fn entry(&self, seq: u64) -> Option<RobEntry> {
        self.slot_of(seq).map(|i| self.assemble(i, seq))
    }

    /// Removes and returns the oldest instruction, assembled (tests and
    /// diagnostics; commit uses [`Rob::drop_head`]).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.assemble(self.head_idx, self.head_seq);
        self.drop_head();
        Some(e)
    }

    /// Removes the oldest instruction — commit's hot path: ring indices
    /// advance, and neither the hot record nor the cold state moves.
    pub fn drop_head(&mut self) {
        if self.len == 0 {
            return;
        }
        self.head_idx = self.wrap(self.head_idx + 1);
        self.len -= 1;
        self.head_seq += 1;
    }

    /// Iterates assembled entries oldest → youngest (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = RobEntry> + '_ {
        (0..self.len)
            .map(move |k| self.assemble(self.wrap(self.head_idx + k), self.head_seq + k as u64))
    }
}

impl vpr_snap::Snap for MemPhase {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u8(match self {
            MemPhase::Idle => 0,
            MemPhase::AwaitCache => 1,
            MemPhase::InFlight => 2,
            MemPhase::Done => 3,
        });
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        match dec.take_u8() {
            0 => MemPhase::Idle,
            1 => MemPhase::AwaitCache,
            2 => MemPhase::InFlight,
            3 => MemPhase::Done,
            other => panic!("snapshot MemPhase tag {other}: layout mismatch"),
        }
    }
}

impl vpr_snap::Snap for RobEntry {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.seq);
        self.di.save(enc);
        enc.put_bool(self.mispredicted);
        self.dest.save(enc);
        self.srcs.save(enc);
        enc.put_bool(self.completed);
        enc.put_u64(self.completed_at);
        enc.put_bool(self.issued);
        enc.put_u64(self.gen);
        self.mem_phase.save(enc);
        enc.put_u32(self.executions);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            seq: dec.take_u64(),
            di: DynInst::load(dec),
            mispredicted: dec.take_bool(),
            dest: Option::<RenamedDest>::load(dec),
            srcs: <[Option<RenamedSrc>; 2]>::load(dec),
            completed: dec.take_bool(),
            completed_at: dec.take_u64(),
            issued: dec.take_bool(),
            gen: dec.take_u64(),
            mem_phase: MemPhase::load(dec),
            executions: dec.take_u32(),
        }
    }
}

impl vpr_snap::Snap for Rob {
    /// Serialises in the **monolithic layout** — a `VecDeque`-style
    /// length prefix followed by assembled entries in age order, then the
    /// capacity and the head sequence — so the hot/cold split is invisible
    /// on disk.
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_usize(self.len);
        for entry in self.iter() {
            entry.save(enc);
        }
        enc.put_usize(self.capacity);
        enc.put_u64(self.head_seq);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let n = dec.take_usize();
        let entries: Vec<RobEntry> = (0..n).map(|_| RobEntry::load(dec)).collect();
        let capacity = dec.take_usize();
        let head_seq = dec.take_u64();
        let mut rob = Rob::new(capacity);
        for entry in entries {
            rob.push(entry);
        }
        // An empty buffer still carries the head sequence it drained to
        // (push() would have restored it for a non-empty one).
        rob.head_seq = head_seq;
        rob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_isa::{Inst, OpClass};

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(
            seq,
            DynInst::new(seq * 4, Inst::new(OpClass::IntAlu)),
            false,
        )
    }

    #[test]
    fn push_pop_fifo() {
        let mut rob = Rob::new(4);
        for s in 10..14 {
            rob.push(entry(s));
        }
        assert!(rob.is_full());
        assert_eq!(rob.head_seq(), Some(10));
        assert_eq!(rob.tail_seq(), Some(13));
        assert_eq!(rob.pop_head().unwrap().seq, 10);
        assert_eq!(rob.pop_head().unwrap().seq, 11);
        rob.push(entry(14));
        assert_eq!(rob.len(), 3);
    }

    #[test]
    fn lookup_by_seq_after_commits() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.push(entry(s));
        }
        rob.pop_head();
        rob.pop_head();
        assert!(rob.hot(1).is_none(), "committed entries are gone");
        assert_eq!(rob.entry(3).unwrap().seq, 3);
        rob.hot_mut(4).unwrap().set_completed(true);
        assert!(rob.hot(4).unwrap().completed());
        assert!(rob.hot(99).is_none());
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_push_panics() {
        let mut rob = Rob::new(8);
        rob.push(entry(0));
        rob.push(entry(5));
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    fn empty_after_draining() {
        let mut rob = Rob::new(2);
        rob.push(entry(0));
        rob.pop_head();
        assert!(rob.is_empty());
        // Sequence restarts wherever dispatch continues.
        rob.push(entry(7));
        assert_eq!(rob.head_seq(), Some(7));
        assert_eq!(rob.entry(7).unwrap().seq, 7);
    }

    #[test]
    fn ring_wraps_without_moving_state() {
        // Capacity 3 with interleaved push/drop forces head_idx around
        // the ring several times; lookups must stay seq-correct.
        let mut rob = Rob::new(3);
        let mut next = 100u64;
        for _ in 0..3 {
            rob.push(entry(next));
            next += 1;
        }
        for lap in 0..7u64 {
            assert!(rob.is_full());
            assert_eq!(rob.head_seq(), Some(100 + lap));
            rob.drop_head();
            rob.push(entry(next));
            next += 1;
            for seq in rob.head_seq().unwrap()..=rob.tail_seq().unwrap() {
                let e = rob.entry(seq).unwrap();
                assert_eq!(e.seq, seq);
                assert_eq!(e.di.pc(), seq * 4, "hot/cold rings agree at {seq}");
            }
        }
    }

    #[test]
    fn split_accessors_agree_with_assembled_entry() {
        let mut rob = Rob::new(4);
        let mut e = entry(5);
        e.gen = 9;
        e.completed = true;
        e.completed_at = 77;
        e.executions = 2;
        rob.push(e);
        let h = rob.hot(5).unwrap();
        assert_eq!(h.gen, 9);
        assert!(h.completed());
        assert!(!h.issued());
        assert_eq!(h.completed_at, 77);
        assert_eq!(h.executions, 2);
        assert_eq!(h.op, OpClass::IntAlu);
        let assembled = rob.entry(5).unwrap();
        assert_eq!(assembled.gen, 9);
        assert!(assembled.completed);
        assert_eq!(assembled.di.pc(), 20);
        assert_eq!(rob.srcs(5), [None, None]);
        assert!(rob.dest(5).is_none());
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn dest_of_absent_seq_panics() {
        let rob = Rob::new(4);
        let _ = rob.dest(3);
    }

    #[test]
    fn hot_record_carries_mem_access() {
        let di = DynInst::new(
            0x40,
            Inst::new(OpClass::Load).with_dest(vpr_isa::LogicalReg::int(1)),
        )
        .with_mem(MemAccess {
            addr: 0x9000,
            size: 8,
        });
        let mut rob = Rob::new(2);
        rob.push(RobEntry::new(3, di, false));
        let h = rob.hot(3).unwrap();
        assert_eq!(h.addr(), 0x9000);
        assert_eq!(
            h.mem_access(),
            MemAccess {
                addr: 0x9000,
                size: 8
            }
        );
    }
}
