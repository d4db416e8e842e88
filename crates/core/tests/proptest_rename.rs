//! Property tests for the renaming machinery in isolation: random but
//! well-formed event sequences (rename → allocate → bind → commit) must
//! keep the map tables and free lists consistent.

use proptest::prelude::*;
use vpr_core::rename::VpRenamer;
use vpr_isa::{LogicalReg, RegClass, NUM_LOGICAL_PER_CLASS};

#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    logical: LogicalReg,
    vp: vpr_core::rename::VpReg,
    prev_vp: vpr_core::rename::VpReg,
    bound: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive the VP renamer through a random rename/complete/commit
    /// schedule (FIFO commits, like the ROB) and check conservation: after
    /// everything commits, exactly NLR physical registers and NLR tags
    /// remain allocated, and the GMT agrees with the PMT for every
    /// logical register.
    #[test]
    fn vp_renamer_conserves_registers(
        dests in prop::collection::vec(0usize..NUM_LOGICAL_PER_CLASS, 1..120),
        complete_early in prop::collection::vec(any::<bool>(), 120),
        nrr in 1usize..=32,
    ) {
        let mut r = VpRenamer::new(64, 32 + 128, nrr);
        let class = RegClass::Int;
        let mut window: Vec<InFlight> = Vec::new();
        let mut now = 0u64;
        for (i, &d) in dests.iter().enumerate() {
            now += 1;
            // Keep the window below the tag budget (128), like the ROB.
            while window.len() >= 64 {
                commit_oldest(&mut r, &mut window, now);
            }
            let logical = LogicalReg::int(d);
            let seq = i as u64;
            let (vp, prev_vp) = r.rename_dest(logical, seq, now);
            let mut inflight = InFlight { seq, logical, vp, prev_vp, bound: false };
            // Some instructions complete (allocate + bind) immediately.
            if complete_early[i] {
                if let Some(preg) = r.try_allocate(class, seq, now) {
                    r.bind(class, vp, preg);
                    inflight.bound = true;
                }
            }
            window.push(inflight);
        }
        // Drain: complete-if-needed and commit everything in order.
        while !window.is_empty() {
            now += 1;
            commit_oldest(&mut r, &mut window, now);
        }
        // Conservation: only the architectural mappings remain.
        prop_assert_eq!(r.allocated_count(class), NUM_LOGICAL_PER_CLASS);
        prop_assert_eq!(
            r.free_vp_count(class),
            32 + 128 - NUM_LOGICAL_PER_CLASS
        );
        // GMT/PMT agreement for every logical register.
        for l in 0..NUM_LOGICAL_PER_CLASS {
            let e = r.gmt_entry(LogicalReg::int(l));
            prop_assert_eq!(e.preg(), r.pmt_entry(class, e.vp()), "logical r{}", l);
            prop_assert!(e.preg().is_some(), "drained machine: every value produced");
        }
    }
}

fn commit_oldest(r: &mut VpRenamer, window: &mut Vec<InFlight>, now: u64) {
    let mut oldest = window.remove(0);
    let class = oldest.logical.class();
    if !oldest.bound {
        // Completing at commit time: the oldest is always reserved, so
        // allocation cannot fail.
        let preg = r
            .try_allocate(class, oldest.seq, now)
            .expect("oldest instruction is reserved");
        r.bind(class, oldest.vp, preg);
        oldest.bound = true;
    }
    let entrant = window
        .iter()
        .find(|w| w.logical.class() == class && r.nrr(class).pointer().is_some_and(|p| w.seq > p))
        .map(|w| (w.seq, w.bound));
    r.nrr_on_commit(class, oldest.seq, entrant);
    r.on_commit_dest(class, oldest.prev_vp, now);
}
