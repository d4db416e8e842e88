//! Property tests for the memory substrate: the cache and the LSQ must
//! uphold their contracts for arbitrary access sequences, not just the
//! hand-written unit-test patterns.

use proptest::prelude::*;
use vpr_isa::MemAccess;
use vpr_mem::{AccessKind, AccessOutcome, CacheConfig, DataCache, LoadDisposition, Lsq};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timing sanity over random access streams: hits complete in exactly
    /// the hit latency; misses never complete before the miss penalty;
    /// in-flight fills never exceed the MSHR count; granted accesses per
    /// cycle never exceed the port count.
    #[test]
    fn cache_timing_contract(
        addrs in prop::collection::vec(0u64..(1 << 18), 1..400),
        stores in prop::collection::vec(any::<bool>(), 400),
        stride in 1u64..5,
    ) {
        let config = CacheConfig::default();
        let mut dc = DataCache::new(config);
        let mut now = 0u64;
        let mut granted_this_cycle = 0u32;
        for (i, addr) in addrs.iter().enumerate() {
            let kind = if stores[i] { AccessKind::Store } else { AccessKind::Load };
            match dc.access(now, *addr, kind) {
                AccessOutcome::Hit { ready_at } => {
                    granted_this_cycle += 1;
                    prop_assert_eq!(ready_at, now + config.hit_latency);
                }
                AccessOutcome::Miss { ready_at, merged } => {
                    granted_this_cycle += 1;
                    if merged {
                        // Joins an earlier fill: completes with it, which
                        // is strictly in the future but may be sooner than
                        // a fresh miss.
                        prop_assert!(ready_at > now);
                    } else {
                        prop_assert!(ready_at >= now + config.miss_penalty);
                    }
                }
                AccessOutcome::Retry { .. } => {}
            }
            prop_assert!(granted_this_cycle <= config.ports);
            prop_assert!(dc.inflight_fills() <= config.mshrs);
            if i % 3 == 2 {
                now += stride;
                granted_this_cycle = 0;
            }
        }
    }

    /// Repeating the same address after its fill completes always hits.
    #[test]
    fn cache_fill_then_hit(addr in 0u64..(1 << 20)) {
        let mut dc = DataCache::new(CacheConfig::default());
        let ready = match dc.access(0, addr, AccessKind::Load) {
            AccessOutcome::Miss { ready_at, .. } => ready_at,
            other => { prop_assert!(false, "cold access must miss: {other:?}"); return Ok(()); }
        };
        match dc.access(ready, addr, AccessKind::Load) {
            AccessOutcome::Hit { .. } => {}
            other => prop_assert!(false, "post-fill access must hit: {other:?}"),
        }
    }

    /// The loads-only secondary index vs. the linear-walk oracle: replay a
    /// random operation soup (inserts, load/store resolutions, commits)
    /// against a shadow model that stores every entry in one
    /// flat program-ordered list, and check that `resolve_store` — which
    /// walks only the loads index — reports exactly the victims the
    /// oracle's full linear walk over *all* entries finds.
    #[test]
    fn loads_index_matches_linear_walk_oracle(
        ops in prop::collection::vec((0u8..5, 0u64..48, 0u64..12), 10..120),
    ) {
        #[derive(Clone, Copy)]
        struct ShadowEntry {
            seq: u64,
            is_store: bool,
            access: Option<MemAccess>,
            performed: bool,
            forwarded_from: Option<u64>,
        }
        let mut lsq = Lsq::new(64);
        let mut shadow: Vec<ShadowEntry> = Vec::new();
        let mut next_seq = 0u64;
        for (kind, pick, slot) in ops {
            let access = MemAccess::word(0x4000 + slot * 8);
            match kind {
                // Insert a load or a store at the program-order tail.
                0 | 1 => {
                    if shadow.len() == 64 { continue; }
                    let is_store = kind == 1;
                    let seq = next_seq;
                    next_seq += 1;
                    if is_store { lsq.insert_store(seq) } else { lsq.insert_load(seq) }
                    shadow.push(ShadowEntry {
                        seq, is_store, access: None, performed: false, forwarded_from: None,
                    });
                }
                // Resolve a random unresolved load.
                2 => {
                    let Some(target) = shadow.iter()
                        .filter(|e| !e.is_store && !e.performed)
                        .nth(pick as usize % 8).map(|e| e.seq) else { continue };
                    let disp = lsq.resolve_load(target, access);
                    let e = shadow.iter_mut().find(|e| e.seq == target).expect("tracked");
                    e.access = Some(access);
                    e.performed = true;
                    e.forwarded_from = match disp {
                        LoadDisposition::Forward { store_seq, .. } => Some(store_seq),
                        LoadDisposition::Cache { .. } => None,
                    };
                }
                // Resolve a random unresolved store; compare victims with
                // the oracle's linear walk.
                3 => {
                    let Some(target) = shadow.iter()
                        .filter(|e| e.is_store && e.access.is_none())
                        .nth(pick as usize % 8).map(|e| e.seq) else { continue };
                    let expected: Vec<u64> = shadow.iter()
                        .filter(|l| {
                            l.seq > target
                                && !l.is_store
                                && l.performed
                                && l.access.is_some_and(|la| la.overlaps(&access))
                                && l.forwarded_from.is_none_or(|f| f <= target)
                        })
                        .map(|l| l.seq)
                        .collect();
                    let victims = lsq.resolve_store(target, access);
                    prop_assert_eq!(&victims, &expected,
                        "store {} victims diverge from the linear walk", target);
                    shadow.iter_mut().find(|e| e.seq == target).expect("tracked")
                        .access = Some(access);
                    for v in victims {
                        let l = shadow.iter_mut().find(|e| e.seq == v).expect("victim");
                        l.performed = false;
                        l.forwarded_from = None;
                    }
                }
                // Commit (remove) the oldest entry.
                _ => {
                    if shadow.is_empty() { continue; }
                    let seq = shadow.remove(0).seq;
                    lsq.remove(seq);
                }
            }
        }
    }

    /// LSQ vs. a naive oracle: replay random load/store address
    /// resolutions in arbitrary order and verify that every load's final
    /// data source matches the youngest older store with an overlapping
    /// address (program order), regardless of the resolution order —
    /// the whole point of violation-driven re-execution.
    #[test]
    fn lsq_converges_to_program_order(
        ops in prop::collection::vec((any::<bool>(), 0u64..64), 2..40),
        resolve_order in prop::collection::vec(0usize..40, 2..40),
    ) {
        let mut lsq = Lsq::new(64);
        // Insert in program order.
        for (seq, (is_store, _)) in ops.iter().enumerate() {
            if *is_store {
                lsq.insert_store(seq as u64);
            } else {
                lsq.insert_load(seq as u64);
            }
        }
        // Resolve in a scrambled order (dedup to one resolution each,
        // with re-resolution of violated loads as the pipeline would).
        let mut resolved: Vec<bool> = vec![false; ops.len()];
        let mut load_source: Vec<Option<Option<u64>>> = vec![None; ops.len()];
        let mut pending: Vec<usize> = resolve_order
            .iter()
            .map(|&i| i % ops.len())
            .collect();
        for i in 0..ops.len() {
            pending.push(i);
        }
        while let Some(idx) = pending.pop() {
            let (is_store, slot) = ops[idx];
            let access = MemAccess::word(0x1000 + slot * 8);
            if is_store {
                if resolved[idx] {
                    continue;
                }
                resolved[idx] = true;
                for victim in lsq.resolve_store(idx as u64, access) {
                    // Violated loads re-execute: queue a re-resolution.
                    load_source[victim as usize] = None;
                    pending.push(victim as usize);
                }
            } else {
                if load_source[idx].is_some() {
                    continue;
                }
                resolved[idx] = true;
                let disp = lsq.resolve_load(idx as u64, access);
                load_source[idx] = Some(match disp {
                    LoadDisposition::Forward { store_seq, .. } => Some(store_seq),
                    LoadDisposition::Cache { .. } => None,
                });
            }
        }
        // Oracle: youngest older resolved store with the same slot.
        for (idx, (is_store, slot)) in ops.iter().enumerate() {
            if *is_store || load_source[idx].is_none() {
                continue;
            }
            let expected = ops[..idx]
                .iter()
                .enumerate()
                .rev()
                .find(|(j, (s, sl))| *s && sl == slot && resolved[*j])
                .map(|(j, _)| j as u64);
            prop_assert_eq!(
                load_source[idx].unwrap(),
                expected,
                "load {} must source from the youngest older store",
                idx
            );
        }
    }
}
