//! Property tests for the simulation kernel's throughput data structures:
//! the calendar event queue and the indexed-wakeup instruction queue must
//! behave exactly like the simple `BTreeMap`-based reference models they
//! replaced, for arbitrary operation sequences — not just the access
//! patterns the pipeline happens to produce.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vpr_core::rename::{PhysReg, RenamedSrc, SrcState, VpReg};
use vpr_core::{CalendarQueue, Iq, IqEntry};
use vpr_isa::{OpClass, RegClass};

// ----------------------------------------------------------------------
// Calendar queue vs BTreeMap reference
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive a small-horizon calendar queue (so the overflow path is
    /// exercised constantly) and a `BTreeMap<u64, Vec<u32>>` through the
    /// same schedule/advance script: every drain must yield the same
    /// events in the same order, and `next_occupied` must agree with the
    /// reference's minimum key at every step.
    #[test]
    fn calendar_queue_matches_btreemap_reference(
        deltas in prop::collection::vec((1u64..200, 0u64..3), 1..300),
        horizon in 2usize..64,
    ) {
        let mut cq: CalendarQueue<u32> = CalendarQueue::with_horizon(horizon);
        let mut reference: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut now = 0u64;
        let mut drained = Vec::new();
        for (i, &(delta, advance)) in deltas.iter().enumerate() {
            // Schedule one uniquely-tagged event `delta` cycles out.
            let payload = i as u32;
            cq.schedule(now, now + delta, payload);
            reference.entry(now + delta).or_default().push(payload);
            // Advance 0..3 cycles, draining each cycle on the way.
            for _ in 0..advance {
                now += 1;
                drained.clear();
                cq.drain_at(now, &mut drained);
                let expected = reference.remove(&now).unwrap_or_default();
                prop_assert_eq!(&drained, &expected, "drain at cycle {}", now);
                let ref_next = reference.keys().next().copied();
                prop_assert_eq!(cq.next_occupied(now), ref_next);
                prop_assert_eq!(cq.next_at_or_after(now + 1), ref_next);
                let ref_len: usize = reference.values().map(Vec::len).sum();
                prop_assert_eq!(cq.len(), ref_len);
            }
        }
        // Drain out: jump straight to each remaining occupied cycle, the
        // way idle fast-forwarding does.
        while let Some(at) = cq.next_occupied(now) {
            prop_assert_eq!(Some(at), reference.keys().next().copied());
            now = at;
            drained.clear();
            cq.drain_at(now, &mut drained);
            let expected = reference.remove(&now).expect("reference agrees");
            prop_assert_eq!(&drained, &expected);
        }
        prop_assert!(cq.is_empty());
        prop_assert!(reference.is_empty());
    }
}

// ----------------------------------------------------------------------
// Indexed-wakeup IQ vs scan-based reference
// ----------------------------------------------------------------------

/// The pre-optimisation instruction queue: a `BTreeMap` ordered by
/// sequence number, woken by scanning every entry.
#[derive(Default)]
struct ReferenceIq {
    entries: BTreeMap<u64, IqEntry>,
}

impl ReferenceIq {
    fn insert(&mut self, entry: IqEntry) {
        assert!(self.entries.insert(entry.seq, entry).is_none());
    }

    fn remove(&mut self, seq: u64) -> Option<IqEntry> {
        self.entries.remove(&seq)
    }

    fn wakeup<F: Fn(&RenamedSrc) -> Option<PhysReg>>(&mut self, matches: F) -> usize {
        let mut woken = 0;
        for e in self.entries.values_mut() {
            for s in e.srcs.iter_mut().flatten() {
                if let Some(preg) = matches(s) {
                    s.state = SrcState::Ready(preg);
                    woken += 1;
                }
            }
        }
        woken
    }

    fn wakeup_phys(&mut self, class: RegClass, preg: PhysReg) -> usize {
        self.wakeup(|s| (s.class == class && s.state == SrcState::WaitPhys(preg)).then_some(preg))
    }

    fn wakeup_vp(&mut self, class: RegClass, vp: VpReg, preg: PhysReg) -> usize {
        self.wakeup(|s| (s.class == class && s.state == SrcState::WaitVp(vp)).then_some(preg))
    }

    fn all(&self) -> Vec<IqEntry> {
        self.entries.values().copied().collect()
    }

    fn ready_seqs(&self) -> Vec<u64> {
        self.entries
            .values()
            .filter(|e| e.is_ready())
            .map(|e| e.seq)
            .collect()
    }
}

/// One scripted queue operation.
#[derive(Debug, Clone, Copy)]
enum IqOp {
    /// Insert a fresh entry (sequence chosen by the driver) whose two
    /// operand slots are described by `(kind, class_bit, tag)` codes.
    Insert([(u8, bool, u16); 2]),
    /// Remove the entry with the n-th smallest live sequence (mod len).
    Remove(u8),
    /// Re-insert the removed entry under its own, *recycled* sequence
    /// number (re-execution returns an instruction to the queue).
    Reinsert,
    /// Broadcast a physical-register wake-up.
    WakePhys(bool, u16),
    /// Broadcast a VP-tag binding wake-up.
    WakeVp(bool, u16, u16),
}

fn class_of(bit: bool) -> RegClass {
    if bit {
        RegClass::Fp
    } else {
        RegClass::Int
    }
}

/// Decodes an operand description: kind 0 = absent, 1 = ready, 2 = wait
/// on a physical register, 3 = wait on a VP tag.
fn src_of(kind: u8, class_bit: bool, tag: u16) -> Option<RenamedSrc> {
    let class = class_of(class_bit);
    match kind % 4 {
        0 => None,
        1 => Some(RenamedSrc {
            class,
            state: SrcState::Ready(PhysReg(tag)),
        }),
        2 => Some(RenamedSrc {
            class,
            state: SrcState::WaitPhys(PhysReg(tag)),
        }),
        _ => Some(RenamedSrc {
            class,
            state: SrcState::WaitVp(VpReg(tag)),
        }),
    }
}

fn op_strategy() -> impl Strategy<Value = IqOp> {
    let operand = (0u8..4, any::<bool>(), 0u16..24);
    prop_oneof![
        (operand.clone(), operand).prop_map(|(a, b)| IqOp::Insert([a, b])),
        (0u8..255).prop_map(IqOp::Remove),
        Just(IqOp::Reinsert),
        (any::<bool>(), 0u16..24).prop_map(|(c, t)| IqOp::WakePhys(c, t)),
        (any::<bool>(), 0u16..24, 0u16..24).prop_map(|(c, t, p)| IqOp::WakeVp(c, t, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive the slab/consumer-list queue and the scan-based reference
    /// through the same random script — inserts (fresh and recycled
    /// sequence numbers), removals, both wake-up channels — and
    /// demand identical observable state after every operation: length,
    /// age-ordered contents, ready set, and per-broadcast woken counts.
    #[test]
    fn indexed_wakeup_iq_matches_scan_reference(
        ops in prop::collection::vec(op_strategy(), 1..150),
        capacity in 1usize..24,
    ) {
        let mut iq = Iq::new(capacity);
        let mut reference = ReferenceIq::default();
        let mut next_seq = 0u64;
        let mut parked: Option<IqEntry> = None;
        for &op in &ops {
            match op {
                IqOp::Insert(descr) => {
                    if iq.is_full() {
                        continue;
                    }
                    let srcs = [
                        src_of(descr[0].0, descr[0].1, descr[0].2),
                        src_of(descr[1].0, descr[1].1, descr[1].2),
                    ];
                    let entry = IqEntry { seq: next_seq, op: OpClass::IntAlu, srcs, alloc_class: None };
                    next_seq += 1;
                    iq.insert(entry);
                    reference.insert(entry);
                }
                IqOp::Remove(pick) => {
                    let live: Vec<u64> = iq.iter().map(|e| e.seq).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let seq = live[pick as usize % live.len()];
                    let a = iq.remove(seq);
                    let b = reference.remove(seq);
                    prop_assert_eq!(a, b);
                    parked = a;
                }
                IqOp::Reinsert => {
                    // Re-execution: the same sequence number comes back.
                    let Some(entry) = parked.take() else { continue };
                    if iq.is_full() {
                        continue;
                    }
                    iq.insert(entry);
                    reference.insert(entry);
                }
                IqOp::WakePhys(class_bit, tag) => {
                    let class = class_of(class_bit);
                    let woke_a = iq.wakeup_phys(class, PhysReg(tag));
                    let woke_b = reference.wakeup_phys(class, PhysReg(tag));
                    prop_assert_eq!(woke_a, woke_b, "phys wake {:?} p{}", class, tag);
                }
                IqOp::WakeVp(class_bit, tag, preg) => {
                    let class = class_of(class_bit);
                    let woke_a = iq.wakeup_vp(class, VpReg(tag), PhysReg(preg));
                    let woke_b = reference.wakeup_vp(class, VpReg(tag), PhysReg(preg));
                    prop_assert_eq!(woke_a, woke_b, "vp wake {:?} v{}", class, tag);
                }
            }
            // Full observable-state agreement after every operation.
            prop_assert_eq!(iq.len(), reference.entries.len());
            let contents: Vec<IqEntry> = iq.iter().copied().collect();
            prop_assert_eq!(contents, reference.all());
            prop_assert_eq!(iq.ready_seqs(), reference.ready_seqs());
            prop_assert_eq!(iq.ready_len(), reference.ready_seqs().len());
            let ready_via_iter: Vec<u64> = iq.ready_iter().map(|e| e.seq).collect();
            prop_assert_eq!(ready_via_iter, reference.ready_seqs());
        }
    }
}
