//! The metrics registry: counters, gauges, log-bucketed histograms, and
//! the typed [`SimMetrics`] block the pipeline observer feeds.
//!
//! The hot path never touches strings or maps — [`SimMetrics`] is a plain
//! struct of integers and fixed-size [`Histogram`]s, updated by inlined
//! observer hooks. Naming happens once at export time, when
//! [`SimMetrics::export`] lays the values into a [`Registry`] whose
//! insertion order is fixed, so the JSON and Prometheus renderings are
//! byte-stable across runs and across `--jobs` values (merging is integer
//! addition in submission order).

use std::fmt::Write as _;
use vpr_snap::json;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (1 ≤ i < 16) holds values in `[2^(i-1), 2^i)`, and the last bucket
/// holds everything from `2^15` up.
const NBUCKETS: usize = 17;

/// A log2-bucketed histogram of `u64` samples.
///
/// Recording is branch-light (a `leading_zeros` and three adds); the
/// bucket layout is fixed so merging two histograms is element-wise
/// addition, which keeps parallel-sweep aggregation deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NBUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a sample value.
    #[inline]
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(NBUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow
    /// bucket).
    fn upper(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i == NBUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Visits every stored word in a fixed order ([`SimMetrics::pack`]).
    fn for_each_word(&mut self, f: &mut impl FnMut(&mut u64)) {
        self.buckets.iter_mut().for_each(&mut *f);
        for w in [&mut self.count, &mut self.sum, &mut self.max] {
            f(w);
        }
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// JSON object rendering (count, sum, max, mean, non-empty buckets
    /// keyed by inclusive upper bound).
    pub fn to_json_value(&self) -> String {
        let mut s = format!(
            "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [",
            self.count,
            self.sum,
            self.max,
            json::float(self.mean())
        );
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let le = if i == NBUCKETS - 1 {
                "\"+Inf\"".to_string()
            } else {
                format!("\"{}\"", Self::upper(i))
            };
            let _ = write!(s, "{{\"le\": {le}, \"n\": {n}}}");
        }
        s.push_str("]}");
        s
    }
}

/// One exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Point-in-time or derived value.
    Gauge(f64),
    /// Distribution snapshot.
    Histogram(Histogram),
}

/// An ordered collection of named metrics, ready for export.
///
/// Insertion order is preserved and is the render order for both the JSON
/// and the Prometheus text forms, so equal registries render to identical
/// bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(&'static str, &'static str, MetricValue)>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: &'static str, help: &'static str, v: u64) {
        self.entries.push((name, help, MetricValue::Counter(v)));
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &'static str, help: &'static str, v: f64) {
        self.entries.push((name, help, MetricValue::Gauge(v)));
    }

    /// Registers a histogram snapshot.
    pub fn histogram(&mut self, name: &'static str, help: &'static str, h: &Histogram) {
        self.entries.push((name, help, MetricValue::Histogram(*h)));
    }

    /// JSON object keyed by metric name, in insertion order.
    pub fn to_json_value(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, _, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let rendered = match v {
                MetricValue::Counter(c) => c.to_string(),
                MetricValue::Gauge(g) => json::float(*g),
                MetricValue::Histogram(h) => h.to_json_value(),
            };
            let _ = write!(s, "\"{name}\": {rendered}");
        }
        s.push('}');
        s
    }

    /// Prometheus text exposition (one `# HELP`/`# TYPE` pair per metric;
    /// histograms render cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, help, v) in &self.entries {
            let _ = writeln!(s, "# HELP {name} {help}");
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(s, "# TYPE {name} counter");
                    let _ = writeln!(s, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(s, "# TYPE {name} gauge");
                    let v = if g.is_finite() {
                        format!("{g}")
                    } else {
                        "NaN".into()
                    };
                    let _ = writeln!(s, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(s, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for i in 0..NBUCKETS {
                        cum += h.buckets[i];
                        if h.buckets[i] == 0 && i != NBUCKETS - 1 {
                            continue;
                        }
                        let le = if i == NBUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            Histogram::upper(i).to_string()
                        };
                        let _ = writeln!(s, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(s, "{name}_sum {}", h.sum);
                    let _ = writeln!(s, "{name}_count {}", h.count);
                }
            }
        }
        s
    }
}

/// The pipeline's typed metric block — every field an observer hook
/// updates directly, with no name lookups on the hot path.
///
/// All counters cover the *measurement window only*: the bench harness
/// resets the observer when the window opens, mirroring `SimStats`
/// windowing, so a checkpoint-restored run and a freshly warmed run
/// produce identical blocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Instructions entering the fetch buffer.
    pub fetched: u64,
    /// Always 0: fetch stalls at a mispredicted branch, so no wrong-path
    /// instruction is fetched. Kept so the exported series keep their
    /// names and order.
    pub wrong_path_fetched: u64,
    /// Instructions renamed into the window.
    pub renamed: u64,
    /// Issue events (each execution of a re-executed instruction counts).
    pub issued: u64,
    /// Completion (write-back) events.
    pub completed: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Always 0, like [`SimMetrics::wrong_path_fetched`]: nothing is
    /// ever squashed by a mispredicted branch.
    pub squashed: u64,
    /// VP re-executions forced by physical-register scarcity.
    pub reexec_register: u64,
    /// Re-executions forced by memory-order violations.
    pub reexec_memory: u64,
    /// VP physical registers allocated at issue time.
    pub vp_alloc_issue: u64,
    /// VP physical registers allocated at write-back time.
    pub vp_alloc_writeback: u64,
    /// VP virtual→physical bindings installed in the physical map table.
    pub vp_binds: u64,
    /// NRR allocation-gate denials by register class (0 = int, 1 = fp).
    pub nrr_denials: [u64; 2],
    /// Completions deferred on exhausted register-file write ports.
    pub wb_port_stalls: u64,
    /// Stores drained from the store buffer to the cache.
    pub store_drained: u64,
    /// Cycles the governor proved quiescent and skipped unsampled.
    pub idle_skipped_cycles: u64,
    /// Cycles actually stepped (and occupancy-sampled).
    pub active_cycles: u64,
    /// Length of the store-buffer retry storm currently in progress
    /// (transient; flushed into [`Self::sb_retry_storm`]).
    pub storm_run: u64,
    /// ROB occupancy per active cycle.
    pub rob_occupancy: Histogram,
    /// Issue-queue occupancy per active cycle.
    pub iq_occupancy: Histogram,
    /// Event-queue depth per active cycle.
    pub eventq_depth: Histogram,
    /// Store-buffer occupancy per active cycle.
    pub sb_occupancy: Histogram,
    /// MSHR occupancy (in-flight fills) per active cycle.
    pub mshr_occupancy: Histogram,
    /// Store-buffer retry-storm lengths (consecutive drain-blocked
    /// cycles).
    pub sb_retry_storm: Histogram,
}

impl SimMetrics {
    /// Closes a retry storm left open at the end of a run so it is
    /// counted. Call before exporting or merging a finished run.
    pub fn flush_storm(&mut self) {
        if self.storm_run > 0 {
            let run = self.storm_run;
            self.sb_retry_storm.record(run);
            self.storm_run = 0;
        }
    }

    /// Resets everything to zero (measurement-window open).
    pub fn reset(&mut self) {
        *self = SimMetrics::default();
    }

    /// Adds a finished run's metrics into this accumulator (flushing its
    /// open storm first). Merging is commutative integer addition, so any
    /// submission-ordered reduction yields identical totals.
    pub fn merge(&mut self, mut other: SimMetrics) {
        other.flush_storm();
        self.fetched += other.fetched;
        self.wrong_path_fetched += other.wrong_path_fetched;
        self.renamed += other.renamed;
        self.issued += other.issued;
        self.completed += other.completed;
        self.committed += other.committed;
        self.squashed += other.squashed;
        self.reexec_register += other.reexec_register;
        self.reexec_memory += other.reexec_memory;
        self.vp_alloc_issue += other.vp_alloc_issue;
        self.vp_alloc_writeback += other.vp_alloc_writeback;
        self.vp_binds += other.vp_binds;
        self.nrr_denials[0] += other.nrr_denials[0];
        self.nrr_denials[1] += other.nrr_denials[1];
        self.wb_port_stalls += other.wb_port_stalls;
        self.store_drained += other.store_drained;
        self.idle_skipped_cycles += other.idle_skipped_cycles;
        self.active_cycles += other.active_cycles;
        self.rob_occupancy.merge(&other.rob_occupancy);
        self.iq_occupancy.merge(&other.iq_occupancy);
        self.eventq_depth.merge(&other.eventq_depth);
        self.sb_occupancy.merge(&other.sb_occupancy);
        self.mshr_occupancy.merge(&other.mshr_occupancy);
        self.sb_retry_storm.merge(&other.sb_retry_storm);
    }

    /// Visits every stored word in a fixed order. The destructuring
    /// names every field, so a new one cannot be left out of
    /// [`SimMetrics::pack`].
    fn for_each_word(&mut self, mut f: impl FnMut(&mut u64)) {
        let SimMetrics {
            fetched,
            wrong_path_fetched,
            renamed,
            issued,
            completed,
            committed,
            squashed,
            reexec_register,
            reexec_memory,
            vp_alloc_issue,
            vp_alloc_writeback,
            vp_binds,
            nrr_denials,
            wb_port_stalls,
            store_drained,
            idle_skipped_cycles,
            active_cycles,
            storm_run,
            rob_occupancy,
            iq_occupancy,
            eventq_depth,
            sb_occupancy,
            mshr_occupancy,
            sb_retry_storm,
        } = self;
        let [int_denials, fp_denials] = nrr_denials;
        for w in [
            fetched,
            wrong_path_fetched,
            renamed,
            issued,
            completed,
            committed,
            squashed,
            reexec_register,
            reexec_memory,
            vp_alloc_issue,
            vp_alloc_writeback,
            vp_binds,
            int_denials,
            fp_denials,
            wb_port_stalls,
            store_drained,
            idle_skipped_cycles,
            active_cycles,
            storm_run,
        ] {
            f(w);
        }
        for h in [
            rob_occupancy,
            iq_occupancy,
            eventq_depth,
            sb_occupancy,
            mshr_occupancy,
            sb_retry_storm,
        ] {
            h.for_each_word(&mut f);
        }
    }

    /// The block packed as LEB128 varints, one per word: about 200
    /// bytes instead of the struct's ~1.1 KiB (most buckets are empty
    /// and most counts small), for keeping many finished blocks.
    /// [`SimMetrics::unpack`] restores it exactly.
    pub fn pack(&self) -> Box<[u8]> {
        let mut out = Vec::with_capacity(512);
        self.clone().for_each_word(|w| {
            let mut v = *w;
            while v >= 0x80 {
                out.push((v & 0x7f) as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        });
        out.into_boxed_slice()
    }

    /// Restores a block from [`SimMetrics::pack`]'s bytes.
    ///
    /// # Panics
    ///
    /// If `bytes` ends mid-block (they did not come from `pack`).
    pub fn unpack(bytes: &[u8]) -> SimMetrics {
        let mut m = SimMetrics::default();
        let mut bytes = bytes.iter();
        m.for_each_word(|w| {
            let mut shift = 0;
            loop {
                let b = *bytes.next().expect("packed metrics end mid-block");
                *w |= u64::from(b & 0x7f) << shift;
                if b < 0x80 {
                    break;
                }
                shift += 7;
            }
        });
        m
    }

    /// Lays the block out into a named [`Registry`] in the catalogue
    /// order documented in `docs/observability.md`.
    pub fn export(&self) -> Registry {
        let mut r = Registry::new();
        r.counter(
            "vpr_fetched_total",
            "instructions entering the fetch buffer",
            self.fetched,
        );
        r.counter(
            "vpr_wrong_path_fetched_total",
            "wrong-path instructions fetched past unresolved branches",
            self.wrong_path_fetched,
        );
        r.gauge(
            "vpr_wrong_path_fetch_fraction",
            "wrong-path share of all fetched instructions",
            if self.fetched == 0 {
                0.0
            } else {
                self.wrong_path_fetched as f64 / self.fetched as f64
            },
        );
        r.counter(
            "vpr_renamed_total",
            "instructions renamed into the window",
            self.renamed,
        );
        r.counter(
            "vpr_issued_total",
            "issue events including re-executions",
            self.issued,
        );
        r.counter(
            "vpr_completed_total",
            "completion (write-back) events",
            self.completed,
        );
        r.counter(
            "vpr_committed_total",
            "committed instructions",
            self.committed,
        );
        r.counter(
            "vpr_squashed_total",
            "squashed wrong-path instructions",
            self.squashed,
        );
        r.counter(
            "vpr_reexec_register_total",
            "VP re-executions forced by physical-register scarcity",
            self.reexec_register,
        );
        r.counter(
            "vpr_reexec_memory_total",
            "re-executions forced by memory-order violations",
            self.reexec_memory,
        );
        r.counter(
            "vpr_vp_alloc_issue_total",
            "VP physical registers allocated at issue time",
            self.vp_alloc_issue,
        );
        r.counter(
            "vpr_vp_alloc_writeback_total",
            "VP physical registers allocated at write-back time",
            self.vp_alloc_writeback,
        );
        r.counter(
            "vpr_vp_bind_total",
            "VP virtual-to-physical bindings installed",
            self.vp_binds,
        );
        r.counter(
            "vpr_nrr_denials_int_total",
            "NRR allocation-gate denials, integer class",
            self.nrr_denials[0],
        );
        r.counter(
            "vpr_nrr_denials_fp_total",
            "NRR allocation-gate denials, FP class",
            self.nrr_denials[1],
        );
        r.counter(
            "vpr_wb_port_stalls_total",
            "completions deferred on exhausted write ports",
            self.wb_port_stalls,
        );
        r.counter(
            "vpr_store_drained_total",
            "stores drained from the store buffer",
            self.store_drained,
        );
        r.counter(
            "vpr_active_cycles_total",
            "cycles actually stepped (occupancy-sampled)",
            self.active_cycles,
        );
        r.counter(
            "vpr_idle_skipped_cycles_total",
            "quiescent cycles skipped by the governor",
            self.idle_skipped_cycles,
        );
        r.histogram(
            "vpr_rob_occupancy",
            "ROB occupancy per active cycle",
            &self.rob_occupancy,
        );
        r.histogram(
            "vpr_iq_occupancy",
            "issue-queue occupancy per active cycle",
            &self.iq_occupancy,
        );
        r.histogram(
            "vpr_eventq_depth",
            "event-queue depth per active cycle",
            &self.eventq_depth,
        );
        r.histogram(
            "vpr_sb_occupancy",
            "store-buffer occupancy per active cycle",
            &self.sb_occupancy,
        );
        r.histogram(
            "vpr_mshr_occupancy",
            "MSHR occupancy (in-flight fills) per active cycle",
            &self.mshr_occupancy,
        );
        r.histogram(
            "vpr_sb_retry_storm_len",
            "store-buffer retry-storm lengths in cycles",
            &self.sb_retry_storm,
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [0u64, 1, 5, 9, 1000] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 7, 65535] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn merge_order_does_not_change_totals() {
        let mut x = SimMetrics {
            committed: 3,
            ..Default::default()
        };
        x.rob_occupancy.record(7);
        let mut y = SimMetrics {
            committed: 5,
            ..Default::default()
        };
        y.rob_occupancy.record(2);

        let mut ab = SimMetrics::default();
        ab.merge(x.clone());
        ab.merge(y.clone());
        let mut ba = SimMetrics::default();
        ba.merge(y);
        ba.merge(x);
        assert_eq!(ab, ba);
        assert_eq!(ab.export().to_json_value(), ba.export().to_json_value());
    }

    #[test]
    fn export_renders_json_and_prometheus() {
        let mut m = SimMetrics {
            fetched: 10,
            wrong_path_fetched: 2,
            ..Default::default()
        };
        m.iq_occupancy.record(3);
        let r = m.export();
        let json = r.to_json_value();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"vpr_fetched_total\": 10"));
        assert!(json.contains("\"vpr_wrong_path_fetch_fraction\": 0.2"));
        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE vpr_fetched_total counter"));
        assert!(prom.contains("vpr_iq_occupancy_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("vpr_iq_occupancy_count 1"));
    }

    #[test]
    fn pack_round_trips_every_word() {
        let mut m = SimMetrics::default();
        let mut next = 0u64;
        // Distinct values of every width, up to the full 64 bits.
        m.for_each_word(|w| {
            next += 1;
            *w = u64::MAX >> (next % 64);
        });
        assert_eq!(next, 19 + 6 * (NBUCKETS as u64 + 3));
        assert_eq!(SimMetrics::unpack(&m.pack()), m);
        let empty = SimMetrics::default();
        assert_eq!(empty.pack().len(), next as usize, "one byte per zero");
        assert_eq!(SimMetrics::unpack(&empty.pack()), empty);
    }

    #[test]
    fn storm_flush_is_idempotent() {
        let mut m = SimMetrics {
            storm_run: 4,
            ..Default::default()
        };
        m.flush_storm();
        m.flush_storm();
        assert_eq!(m.sb_retry_storm.count(), 1);
        assert_eq!(m.sb_retry_storm.sum(), 4);
    }
}
