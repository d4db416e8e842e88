//! # vpr-obs — observability for the VPR simulator
//!
//! A std-only telemetry layer with three pillars:
//!
//! * [`metrics`] — a metrics registry of counters, gauges and log-bucketed
//!   histograms, fed change-driven (never per-quiescent-cycle) by the
//!   pipeline's observer hooks, exported as a JSON `metrics` block and as
//!   Prometheus-style text exposition;
//! * [`trace`] — a ring-buffered per-instruction pipeline lifecycle trace
//!   (fetch → rename → issue → complete → commit/squash, plus the VP
//!   scheme's bind/alloc events) emitted as compact JSONL or
//!   Konata-compatible text, with a last-N anomaly dump;
//! * [`telemetry`] — per-sweep run telemetry (per-job wall clock and queue
//!   wait, worker utilisation, checkpoint-cache hits and reuse,
//!   fault-recovery counts) written next to each experiment artefact;
//! * [`progress`] — a rate-limited stderr progress reporter for long
//!   sweeps, auto-disabled when stderr is not a terminal.
//!
//! ## The observer contract
//!
//! The pipeline is generic over a [`PipeObserver`]. Every hook call in the
//! core is guarded by `if O::ENABLED { ... }` on the associated constant,
//! so with the default [`NoObs`] the instrumentation monomorphises to
//! nothing: zero branches, zero stores, zero layout change on the hot
//! structures. Enabling observation must never change simulated state —
//! observers receive copies of primitive values and have no channel back
//! into the pipeline, which keeps `SimStats` bit-exact whether or not a
//! run is observed (pinned by the traced-vs-untraced identity test in the
//! bench crate).
//!
//! This crate depends only on `vpr-snap` (itself dependency-free), for
//! its JSON module, so that every layer (frontend, mem, core, bench) can
//! use it without cycles; ISA specifics (operation names) are passed in
//! as plain data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod progress;
pub mod service;
pub mod telemetry;
pub mod trace;

pub use metrics::{Histogram, MetricValue, Registry, SimMetrics};
pub use progress::Progress;
pub use service::ServeMetrics;
pub use telemetry::{JobConfig, JobOutcome, JobTelemetry, RunTelemetry};
pub use trace::{PipelineTrace, TraceKind, TraceRec};

/// Pipeline lifecycle observer, statically dispatched.
///
/// All hooks have empty default bodies; an implementation overrides the
/// ones it cares about and sets [`PipeObserver::ENABLED`] to `true`. The
/// core only invokes hooks when `ENABLED` holds, so a disabled observer
/// ([`NoObs`]) compiles to straight-line unobserved code.
///
/// Hook arguments are primitives by design: `op` is the dense
/// [`OpClass`](https://docs.rs) index of the instruction's operation class
/// (the ISA crate's `OpClass::index()`), `class` is the register-class
/// index (0 = int, 1 = fp). This keeps `vpr-obs` free of ISA types.
pub trait PipeObserver {
    /// Whether the core should invoke any hooks at all. Checked as a
    /// compile-time constant at every hook site.
    const ENABLED: bool;

    /// An instruction entered the fetch buffer.
    #[inline]
    fn on_fetch(&mut self, _cycle: u64, _pc: u64, _wrong_path: bool) {}
    /// An instruction was renamed into the ROB/IQ (allocated `seq`).
    #[inline]
    fn on_rename(&mut self, _cycle: u64, _seq: u64, _pc: u64, _op: u8, _wrong_path: bool) {}
    /// An instruction was issued to a functional unit (counts
    /// re-executions too — one event per execution).
    #[inline]
    fn on_issue(&mut self, _cycle: u64, _seq: u64, _op: u8) {}
    /// An instruction completed (result broadcast / marked done).
    #[inline]
    fn on_complete(&mut self, _cycle: u64, _seq: u64) {}
    /// An instruction committed.
    #[inline]
    fn on_commit(&mut self, _cycle: u64, _seq: u64, _op: u8) {}
    /// An instruction was squashed by a mispredicted branch.
    #[inline]
    fn on_squash(&mut self, _cycle: u64, _seq: u64) {}
    /// An instruction was sent back for re-execution. `register` is true
    /// for VP register-pressure re-executions (no physical register at
    /// write-back), false for memory-order violations.
    #[inline]
    fn on_reexecute(&mut self, _cycle: u64, _seq: u64, _register: bool) {}
    /// The VP scheme allocated a physical register (`at_issue` tells
    /// issue-time from write-back-time allocation).
    #[inline]
    fn on_vp_alloc(&mut self, _cycle: u64, _seq: u64, _class: u8, _at_issue: bool) {}
    /// The VP scheme bound a virtual tag to its physical register in the
    /// physical map table at write-back.
    #[inline]
    fn on_vp_bind(&mut self, _cycle: u64, _seq: u64, _class: u8) {}
    /// `count` issue attempts were denied by the NRR allocation gate for
    /// register class `class`. Batched: the cycle governor reports a
    /// whole quiescent stretch in one call.
    #[inline]
    fn on_nrr_denial(&mut self, _class: u8, _count: u64) {}
    /// A completion was deferred because the cycle's register-file write
    /// ports were exhausted.
    #[inline]
    fn on_wb_port_stall(&mut self, _cycle: u64, _seq: u64) {}
    /// Per-active-cycle occupancy sample (the governor skips quiescent
    /// cycles, so this is change-driven — see [`Self::on_idle_skip`]).
    #[inline]
    fn on_occupancy(&mut self, _rob: usize, _iq: usize, _events: usize, _sb: usize, _mshr: usize) {}
    /// The store buffer drained `drained` stores this cycle, leaving
    /// `pending` buffered. `drained == 0` with `pending > 0` is a retry
    /// stall; consecutive occurrences form a retry storm.
    #[inline]
    fn on_store_drain(&mut self, _drained: u64, _pending: usize) {}
    /// The cycle governor skipped `skipped` provably-quiescent cycles.
    #[inline]
    fn on_idle_skip(&mut self, _skipped: u64) {}
    /// Clear all accumulated observations (used when the measurement
    /// window opens after warm-up, mirroring `SimStats` windowing).
    #[inline]
    fn reset(&mut self) {}
}

/// The disabled observer: every hook is a no-op and `ENABLED` is false,
/// so the core's hook sites vanish entirely under monomorphisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoObs;

impl PipeObserver for NoObs {
    const ENABLED: bool = false;
}

// The zero-overhead contract, structurally: the disabled observer turns
// every hook site off and adds no bytes to the `Processor` that holds it.
const _: () = assert!(!<NoObs as PipeObserver>::ENABLED && size_of::<NoObs>() == 0);

/// The full simulator observer: always-on metrics plus an optional
/// pipeline lifecycle trace ring.
#[derive(Debug, Clone, Default)]
pub struct SimObserver {
    /// Change-driven microarchitectural metrics.
    pub metrics: SimMetrics,
    /// Optional per-instruction lifecycle trace (enabled by
    /// `--trace-pipeline`-style flags; `None` keeps metrics-only runs
    /// from paying the ring-buffer cost).
    pub trace: Option<PipelineTrace>,
}

impl SimObserver {
    /// Metrics-only observer (no lifecycle trace ring).
    pub fn new() -> Self {
        Self::default()
    }

    /// Observer with a lifecycle trace ring attached.
    pub fn with_trace(trace: PipelineTrace) -> Self {
        SimObserver {
            metrics: SimMetrics::default(),
            trace: Some(trace),
        }
    }
}

impl PipeObserver for SimObserver {
    const ENABLED: bool = true;

    #[inline]
    fn on_fetch(&mut self, cycle: u64, pc: u64, wrong_path: bool) {
        self.metrics.fetched += 1;
        if wrong_path {
            self.metrics.wrong_path_fetched += 1;
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(
                cycle,
                0,
                TraceKind::Fetch,
                pc,
                0,
                wrong_path as u8,
            ));
        }
    }

    #[inline]
    fn on_rename(&mut self, cycle: u64, seq: u64, pc: u64, op: u8, wrong_path: bool) {
        self.metrics.renamed += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(
                cycle,
                seq,
                TraceKind::Rename,
                pc,
                op,
                wrong_path as u8,
            ));
        }
    }

    #[inline]
    fn on_issue(&mut self, cycle: u64, seq: u64, op: u8) {
        self.metrics.issued += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(cycle, seq, TraceKind::Issue, 0, op, 0));
        }
    }

    #[inline]
    fn on_complete(&mut self, cycle: u64, seq: u64) {
        self.metrics.completed += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(cycle, seq, TraceKind::Complete, 0, 0, 0));
        }
    }

    #[inline]
    fn on_commit(&mut self, cycle: u64, seq: u64, op: u8) {
        self.metrics.committed += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(cycle, seq, TraceKind::Commit, 0, op, 0));
        }
    }

    #[inline]
    fn on_squash(&mut self, cycle: u64, seq: u64) {
        self.metrics.squashed += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(cycle, seq, TraceKind::Squash, 0, 0, 0));
        }
    }

    #[inline]
    fn on_reexecute(&mut self, cycle: u64, seq: u64, register: bool) {
        if register {
            self.metrics.reexec_register += 1;
        } else {
            self.metrics.reexec_memory += 1;
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(
                cycle,
                seq,
                TraceKind::Reexec,
                0,
                0,
                register as u8,
            ));
        }
    }

    #[inline]
    fn on_vp_alloc(&mut self, cycle: u64, seq: u64, class: u8, at_issue: bool) {
        if at_issue {
            self.metrics.vp_alloc_issue += 1;
        } else {
            self.metrics.vp_alloc_writeback += 1;
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(
                cycle,
                seq,
                TraceKind::VpAlloc,
                0,
                class,
                at_issue as u8,
            ));
        }
    }

    #[inline]
    fn on_vp_bind(&mut self, cycle: u64, seq: u64, class: u8) {
        self.metrics.vp_binds += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(cycle, seq, TraceKind::VpBind, 0, class, 0));
        }
    }

    #[inline]
    fn on_nrr_denial(&mut self, class: u8, count: u64) {
        self.metrics.nrr_denials[usize::from(class) & 1] += count;
    }

    #[inline]
    fn on_wb_port_stall(&mut self, cycle: u64, seq: u64) {
        self.metrics.wb_port_stalls += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceRec::new(cycle, seq, TraceKind::WbStall, 0, 0, 0));
        }
    }

    #[inline]
    fn on_occupancy(&mut self, rob: usize, iq: usize, events: usize, sb: usize, mshr: usize) {
        self.metrics.active_cycles += 1;
        self.metrics.rob_occupancy.record(rob as u64);
        self.metrics.iq_occupancy.record(iq as u64);
        self.metrics.eventq_depth.record(events as u64);
        self.metrics.sb_occupancy.record(sb as u64);
        self.metrics.mshr_occupancy.record(mshr as u64);
    }

    #[inline]
    fn on_store_drain(&mut self, drained: u64, pending: usize) {
        self.metrics.store_drained += drained;
        if drained == 0 && pending > 0 {
            self.metrics.storm_run += 1;
        } else if self.metrics.storm_run > 0 {
            self.metrics.sb_retry_storm.record(self.metrics.storm_run);
            self.metrics.storm_run = 0;
        }
    }

    #[inline]
    fn on_idle_skip(&mut self, skipped: u64) {
        self.metrics.idle_skipped_cycles += skipped;
    }

    #[inline]
    fn reset(&mut self) {
        self.metrics.reset();
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noobs_is_disabled_and_simobserver_enabled() {
        const { assert!(!NoObs::ENABLED) }
        const { assert!(SimObserver::ENABLED) }
    }

    #[test]
    fn storm_runs_close_on_successful_drain() {
        let mut o = SimObserver::new();
        o.on_store_drain(0, 3);
        o.on_store_drain(0, 3);
        o.on_store_drain(2, 1); // storm of length 2 closes here
        assert_eq!(o.metrics.sb_retry_storm.count(), 1);
        assert_eq!(o.metrics.sb_retry_storm.sum(), 2);
        assert_eq!(o.metrics.store_drained, 2);
        // An empty drain with an empty buffer is not a storm.
        o.on_store_drain(0, 0);
        assert_eq!(o.metrics.storm_run, 0);
    }

    #[test]
    fn reset_clears_metrics_and_trace() {
        let mut o = SimObserver::with_trace(PipelineTrace::new(8, Vec::new()));
        o.on_commit(5, 1, 0);
        o.on_nrr_denial(1, 7);
        o.reset();
        assert_eq!(o.metrics.committed, 0);
        assert_eq!(o.metrics.nrr_denials, [0, 0]);
        assert_eq!(o.trace.as_ref().unwrap().len(), 0);
    }
}
