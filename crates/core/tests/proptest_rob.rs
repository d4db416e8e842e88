//! Property tests for the hot/cold-split reorder buffer: for arbitrary
//! push / pop / drop / mutate scripts, the ring-indexed parallel-array
//! implementation must behave exactly like a naive `VecDeque<RobEntry>`
//! oracle — including across ring wrap-around and interleaved hot-record
//! mutation.

use proptest::prelude::*;
use std::collections::VecDeque;
use vpr_core::{Rob, RobEntry};
use vpr_isa::{DynInst, Inst, MemAccess, OpClass};

/// One step of the random script driving both models.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Dispatch the next sequence number (no-op when full).
    Push,
    /// Commit the oldest entry, comparing the assembled view (no-op when
    /// empty).
    PopHead,
    /// Commit the oldest entry via the index-only hot path.
    DropHead,
    /// Flip hot-record state (completed/issued, bump gen/executions) on a
    /// live entry picked by the offset from the head.
    Mutate(u64),
    /// Look up a live entry by head offset and compare every field.
    Lookup(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The repeated Push arms bias the script toward keeping the ring full
    // (the compat prop_oneof! is uniform — no weight syntax).
    prop_oneof![
        Just(Op::Push),
        Just(Op::Push),
        Just(Op::Push),
        Just(Op::PopHead),
        Just(Op::DropHead),
        (0u64..16).prop_map(Op::Mutate),
        (0u64..16).prop_map(Op::Lookup),
    ]
}

/// A dispatch-time entry whose cold state is derived from `seq` so any
/// hot/cold ring disagreement shows up as a pc/seq mismatch.
fn fresh_entry(seq: u64) -> RobEntry {
    let op = if seq.is_multiple_of(3) {
        OpClass::Load
    } else {
        OpClass::IntAlu
    };
    let mut di = DynInst::new(seq * 4, Inst::new(op));
    if op == OpClass::Load {
        di = di.with_mem(MemAccess {
            addr: 0x1000 + seq * 8,
            size: 4,
        });
    }
    RobEntry::new(seq, di, seq.is_multiple_of(7))
}

fn assert_entries_eq(got: &RobEntry, want: &RobEntry) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.seq, want.seq);
    prop_assert_eq!(got.di.pc(), want.di.pc());
    prop_assert_eq!(got.di.op(), want.di.op());
    prop_assert_eq!(got.mispredicted, want.mispredicted);
    prop_assert_eq!(got.completed, want.completed);
    prop_assert_eq!(got.completed_at, want.completed_at);
    prop_assert_eq!(got.issued, want.issued);
    prop_assert_eq!(got.gen, want.gen);
    prop_assert_eq!(got.mem_phase, want.mem_phase);
    prop_assert_eq!(got.executions, want.executions);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drive the split ROB and a `VecDeque<RobEntry>` oracle through the
    /// same script. Small capacities force constant ring wrap-around.
    #[test]
    fn split_rob_matches_vecdeque_oracle(
        capacity in 1usize..9,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut rob = Rob::new(capacity);
        let mut oracle: VecDeque<RobEntry> = VecDeque::new();
        let mut next_seq = 100u64;

        for op in ops {
            match op {
                Op::Push => {
                    if !rob.is_full() {
                        // Keep sequences contiguous: continue after the
                        // current tail.
                        let seq = oracle.back().map_or(next_seq, |e| e.seq + 1);
                        next_seq = seq + 1;
                        rob.push(fresh_entry(seq));
                        oracle.push_back(fresh_entry(seq));
                    }
                }
                Op::PopHead => {
                    let got = rob.pop_head();
                    let want = oracle.pop_front();
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(g), Some(w)) = (got, want) {
                        assert_entries_eq(&g, &w)?;
                    }
                }
                Op::DropHead => {
                    rob.drop_head();
                    oracle.pop_front();
                }
                Op::Mutate(off) => {
                    if !oracle.is_empty() {
                        let k = (off % oracle.len() as u64) as usize;
                        let seq = oracle[k].seq;
                        let h = rob.hot_mut(seq).expect("oracle entry is live");
                        let o = &mut oracle[k];
                        o.completed = !o.completed;
                        h.set_completed(o.completed);
                        o.issued = !o.issued;
                        h.set_issued(o.issued);
                        o.gen += 1;
                        h.gen += 1;
                        o.executions += 1;
                        h.executions += 1;
                        o.completed_at = seq + off;
                        h.completed_at = seq + off;
                    }
                }
                Op::Lookup(off) => {
                    if !oracle.is_empty() {
                        let k = (off % oracle.len() as u64) as usize;
                        let want = &oracle[k];
                        let got = rob.entry(want.seq).expect("oracle entry is live");
                        assert_entries_eq(&got, want)?;
                    }
                }
            }

            // Invariants after every step.
            prop_assert_eq!(rob.len(), oracle.len());
            prop_assert_eq!(rob.is_empty(), oracle.is_empty());
            prop_assert_eq!(rob.head_seq(), oracle.front().map(|e| e.seq));
            prop_assert_eq!(rob.tail_seq(), oracle.back().map(|e| e.seq));
            prop_assert_eq!(rob.hot(next_seq + 1000).is_none(), true);
        }

        // Full sweep: every live entry must assemble identically, in age
        // order, through both iter() and entry().
        let assembled: Vec<RobEntry> = rob.iter().collect();
        prop_assert_eq!(assembled.len(), oracle.len());
        for (got, want) in assembled.iter().zip(&oracle) {
            assert_entries_eq(got, want)?;
            let relooked = rob.entry(want.seq).expect("iter seq is live");
            assert_entries_eq(&relooked, want)?;
        }
    }
}
