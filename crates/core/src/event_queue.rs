//! A bucketed calendar queue for cycle-keyed simulation events.
//!
//! The pipeline schedules every event a bounded number of cycles into the
//! future (functional-unit latencies, cache miss penalties, one-cycle
//! retries), so a classic calendar/wheel layout beats a comparison-based
//! map: a ring of `horizon` reusable `Vec` buckets indexed by
//! `cycle % horizon` gives O(1) schedule and drain with **zero
//! steady-state allocation** — drained buckets keep their capacity and are
//! refilled in place. Events beyond the horizon (possible in principle,
//! never on the paper's configurations) spill into a `BTreeMap` overflow
//! so correctness never depends on the horizon choice.
//!
//! Ordering contract: [`CalendarQueue::drain_at`] yields the events of one
//! cycle in the exact order they were scheduled (overflow entries first —
//! they are, by construction, the oldest schedules for that cycle). This
//! matches the `BTreeMap<u64, Vec<Event>>` the pipeline previously used,
//! which is what keeps the simulation bit-identical.

use std::cell::Cell;
use std::collections::BTreeMap;

/// A calendar queue of events keyed by the simulated cycle they fire in.
///
/// `E` is the event payload. The caller supplies the current cycle to
/// every operation; the queue itself holds no clock.
///
/// ```
/// use vpr_core::CalendarQueue;
///
/// let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(8);
/// q.schedule(0, 3, "a");
/// q.schedule(0, 1, "b");
/// assert_eq!(q.next_occupied(0), Some(1));
/// let mut out = Vec::new();
/// q.drain_at(1, &mut out);
/// assert_eq!(out, vec!["b"]);
/// assert_eq!(q.next_occupied(1), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// Ring of per-cycle buckets; index = `cycle & mask`.
    buckets: Vec<Vec<E>>,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    /// Far-future events (`at - now >= horizon`), keyed by cycle.
    overflow: BTreeMap<u64, Vec<E>>,
    /// Total scheduled events.
    len: usize,
    /// Lower bound on the earliest occupied *ring* cycle — a scan hint,
    /// not an exact minimum. `schedule` lowers it, successful scans raise
    /// it to the found cycle, so repeated [`CalendarQueue::next_at_or_after`]
    /// queries cost O(1) amortised instead of re-walking empty buckets
    /// (each bucket distance is walked at most once per event). Interior
    /// mutability keeps the queries `&self`; the hint is derived state and
    /// never serialised.
    ring_hint: Cell<u64>,
}

impl<E> CalendarQueue<E> {
    /// Creates a queue whose ring covers `horizon` future cycles
    /// (rounded up to a power of two, minimum 2). Events farther out than
    /// the ring are still accepted — they go to the overflow map.
    pub fn with_horizon(horizon: usize) -> Self {
        let n = horizon.max(2).next_power_of_two();
        Self {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            mask: (n - 1) as u64,
            overflow: BTreeMap::new(),
            len: 0,
            ring_hint: Cell::new(0),
        }
    }

    /// Drops every scheduled event and the scan hint, leaving the queue
    /// as [`CalendarQueue::with_horizon`] built it but with each bucket's
    /// capacity kept.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.overflow.clear();
        self.len = 0;
        self.ring_hint.set(0);
    }

    /// Number of scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `ev` to fire at cycle `at`, given the current cycle
    /// `now`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `at > now` — events must be strictly in the future,
    /// which is also what keeps ring slots unambiguous.
    #[inline]
    pub fn schedule(&mut self, now: u64, at: u64, ev: E) {
        debug_assert!(at > now, "events must be strictly in the future");
        if at - now <= self.mask {
            // Within the ring: at most `horizon - 1` cycles ahead, so each
            // in-range cycle owns exactly one bucket.
            self.buckets[(at & self.mask) as usize].push(ev);
            if at < self.ring_hint.get() {
                self.ring_hint.set(at);
            }
        } else {
            self.overflow.entry(at).or_default().push(ev);
        }
        self.len += 1;
    }

    /// Moves every event scheduled for cycle `now` into `out`, in
    /// scheduling order. Must be called with non-decreasing `now`, and for
    /// every cycle [`CalendarQueue::next_occupied`] reports (skipping
    /// cycles it returns nothing for is fine — their buckets are empty).
    pub fn drain_at(&mut self, now: u64, out: &mut Vec<E>) {
        // Overflow first: those entries were scheduled when `now` was more
        // than a horizon away, i.e. before anything in the bucket.
        if self
            .overflow
            .first_key_value()
            .is_some_and(|(&at, _)| at == now)
        {
            let spill = self.overflow.remove(&now).expect("checked above");
            self.len -= spill.len();
            out.extend(spill);
        }
        let bucket = &mut self.buckets[(now & self.mask) as usize];
        self.len -= bucket.len();
        out.append(bucket);
    }

    /// True when at least one event is scheduled for cycle `now` (which
    /// must not have been drained yet). O(1): one bucket probe plus the
    /// overflow map's minimum — the cheap "is this cycle active?" test
    /// the idle-skip logic runs before any quiescence analysis.
    #[inline]
    pub fn has_at(&self, now: u64) -> bool {
        !self.buckets[(now & self.mask) as usize].is_empty()
            || self
                .overflow
                .first_key_value()
                .is_some_and(|(&at, _)| at <= now)
    }

    /// The earliest cycle strictly after `now` with at least one event, if
    /// any. Assumes cycle `now` itself has already been drained.
    pub fn next_occupied(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.scan_from(now + 1)
    }

    /// The earliest cycle at or after `from` with at least one event, if
    /// any — `from` itself may still be undrained.
    pub fn next_at_or_after(&self, from: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.scan_from(from)
    }

    /// The queue's half of the core's `next_activity()` governor contract
    /// (see `docs/kernel.md`): the earliest cycle at or after `from` at
    /// which a scheduled event fires — exactly
    /// [`CalendarQueue::next_at_or_after`], named for the contract. O(1)
    /// amortised thanks to the ring hint.
    #[inline]
    pub fn next_activity(&self, from: u64) -> Option<u64> {
        self.next_at_or_after(from)
    }

    /// Every pending event as `(cycle, event)`, for checkpointing: cycles
    /// ascend from `from` (the current, not-yet-drained cycle), and events
    /// of one cycle appear in drain order (overflow entries first, then
    /// the ring bucket in scheduling order). Re-scheduling the returned
    /// pairs in order into an empty queue whose clock stands at `from`
    /// reproduces the exact drain behaviour.
    ///
    /// Every live ring event lies in `[from, from + horizon)`: it was
    /// scheduled at some `s < from` with `at − s ≤ horizon − 1`, and has
    /// not been drained, so `at ≥ from`.
    pub fn collect_pending(&self, from: u64) -> Vec<(u64, E)>
    where
        E: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        for delta in 0..=self.mask {
            let cycle = from + delta;
            for (&at, spill) in self.overflow.range(cycle..=cycle) {
                out.extend(spill.iter().map(|e| (at, e.clone())));
            }
            out.extend(
                self.buckets[(cycle & self.mask) as usize]
                    .iter()
                    .map(|e| (cycle, e.clone())),
            );
        }
        for (&at, spill) in self.overflow.range(from + self.mask + 1..) {
            out.extend(spill.iter().map(|e| (at, e.clone())));
        }
        debug_assert_eq!(out.len(), self.len, "collect_pending must see every event");
        out
    }

    /// Earliest occupied cycle ≥ `from`. All live events lie within one
    /// horizon of `from` (ring) or in the overflow map, and in-range
    /// cycles map bijectively onto buckets, so the first non-empty bucket
    /// in ring order is the in-ring minimum. The walk starts at the ring
    /// hint (a proven lower bound on the ring minimum — cycles below it
    /// hold no ring event, and cycles below `from` were already drained)
    /// and the hint advances to wherever the walk ends, so consecutive
    /// queries never re-walk the same empty buckets.
    fn scan_from(&self, from: u64) -> Option<u64> {
        let mut best = self.overflow.keys().next().copied();
        let start = from.max(self.ring_hint.get());
        for delta in 0..=self.mask {
            let cycle = start + delta;
            if !self.buckets[(cycle & self.mask) as usize].is_empty() {
                self.ring_hint.set(cycle);
                best = Some(best.map_or(cycle, |b| b.min(cycle)));
                return best;
            }
        }
        // No ring event at all: nothing below `start + horizon` occupies
        // the ring, and future schedules lower the hint as needed.
        self.ring_hint.set(start + self.mask);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_drain_preserve_order() {
        let mut q = CalendarQueue::with_horizon(16);
        q.schedule(0, 5, 1u32);
        q.schedule(0, 5, 2);
        q.schedule(3, 5, 3);
        let mut out = Vec::new();
        q.drain_at(5, &mut out);
        assert_eq!(
            out,
            vec![1, 2, 3],
            "same-cycle events keep scheduling order"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::with_horizon(4);
        q.schedule(0, 1000, "far");
        q.schedule(0, 2, "near");
        assert_eq!(q.len(), 2);
        let mut out = Vec::new();
        q.drain_at(2, &mut out);
        assert_eq!(out, vec!["near"]);
        assert_eq!(q.next_occupied(2), Some(1000));
        out.clear();
        q.drain_at(1000, &mut out);
        assert_eq!(out, vec!["far"]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_entries_precede_ring_entries_for_the_same_cycle() {
        let mut q = CalendarQueue::with_horizon(4);
        q.schedule(0, 100, "early-scheduled");
        // Time advances; the same cycle is now within the ring.
        q.schedule(99, 100, "late-scheduled");
        let mut out = Vec::new();
        q.drain_at(100, &mut out);
        assert_eq!(out, vec!["early-scheduled", "late-scheduled"]);
    }

    #[test]
    fn next_occupied_finds_ring_and_overflow_minima() {
        let mut q = CalendarQueue::with_horizon(8);
        assert_eq!(q.next_occupied(0), None);
        q.schedule(0, 7, ());
        q.schedule(0, 3, ());
        q.schedule(0, 500, ());
        assert_eq!(q.next_occupied(0), Some(3));
        let mut out = Vec::new();
        q.drain_at(3, &mut out);
        assert_eq!(q.next_occupied(3), Some(7));
        q.drain_at(7, &mut out);
        assert_eq!(q.next_occupied(7), Some(500));
    }

    #[test]
    fn ring_wraps_without_aliasing() {
        let mut q = CalendarQueue::with_horizon(4);
        let mut out = Vec::new();
        for cycle in 0u64..100 {
            q.schedule(cycle, cycle + 3, cycle);
            out.clear();
            q.drain_at(cycle + 1, &mut out);
            if cycle >= 2 {
                assert_eq!(out, vec![cycle - 2], "event fires exactly 3 cycles later");
            }
        }
    }

    #[test]
    fn next_activity_survives_hint_movement() {
        // The ring hint only ever advances past provably-empty buckets;
        // schedules below it must pull it back down. Exercise the
        // empty → far-future → near-past-the-hint pattern explicitly.
        let mut q = CalendarQueue::with_horizon(16);
        q.schedule(0, 14, "far");
        assert_eq!(q.next_activity(0), Some(14), "hint walks to 14");
        q.schedule(1, 3, "near");
        assert_eq!(q.next_activity(1), Some(3), "hint lowered by schedule");
        let mut out = Vec::new();
        q.drain_at(3, &mut out);
        assert_eq!(out, vec!["near"]);
        assert_eq!(q.next_activity(3), Some(14));
        q.drain_at(14, &mut out);
        assert!(q.is_empty());
        assert_eq!(q.next_activity(14), None);
        // After a failed scan parked the hint a horizon out, a fresh
        // near-term schedule must still be found.
        q.schedule(20, 22, "again");
        assert_eq!(q.next_activity(20), Some(22));
    }

    #[test]
    fn buckets_keep_capacity_after_drain() {
        let mut q = CalendarQueue::with_horizon(4);
        let mut out = Vec::with_capacity(8);
        for round in 0u64..10 {
            let now = round * 2;
            for i in 0..8 {
                q.schedule(now, now + 1, i);
            }
            let cap_before = q.buckets[((now + 1) & q.mask) as usize].capacity();
            out.clear();
            q.drain_at(now + 1, &mut out);
            assert_eq!(out.len(), 8);
            if round > 0 {
                assert!(cap_before >= 8, "drained bucket retains its allocation");
            }
        }
    }

    #[test]
    fn clear_forgets_events_and_the_hint_but_keeps_capacity() {
        let mut q = CalendarQueue::with_horizon(8);
        q.schedule(1_000, 1_003, "ring");
        q.schedule(1_000, 1_100, "overflow");
        assert_eq!(q.next_activity(1_000), Some(1_003), "hint parked at 1003");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_activity(0), None);
        assert!(q.buckets[(1_003 & q.mask) as usize].capacity() >= 1);
        // An earlier clock than the hint ever saw must still be scanned.
        q.schedule(4, 6, "after");
        assert_eq!(q.next_activity(5), Some(6));
        let mut out = Vec::new();
        q.drain_at(6, &mut out);
        assert_eq!(out, vec!["after"]);
    }
}
