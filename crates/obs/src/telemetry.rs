//! Sweep run-telemetry: how the experiment harness spent its time.
//!
//! Where [`crate::metrics`] watches the *simulated machine*, this module
//! watches the *sweep engine*: per-job wall clock and queue wait, worker
//! utilisation, checkpoint-cache behaviour (including identical points
//! sharing one warm pass), and fault recoveries. The bench crate writes one
//! `run.telemetry.json` next to each experiment artefact from a
//! [`RunTelemetry`]; unlike the metrics block, telemetry is wall-clock
//! data and is *not* expected to be byte-identical across runs, which is
//! why it lives in its own file rather than inside the experiment JSON.

use std::fmt::Write as _;
use vpr_snap::json;

/// How a sweep job interacted with the checkpoint cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// A checkpoint artefact was restored from disk.
    CacheHit,
    /// No usable artefact existed; the job simulated (and possibly
    /// deposited) it.
    CacheMiss,
    /// The job reused the warm pass of an identical earlier point of the
    /// same sweep.
    SharedReuse,
    /// The sweep ran without a checkpoint store.
    NoStore,
    /// An earlier sweep of the same context already computed this exact
    /// point; its stored result was reused instead of simulating.
    Memo,
}

impl JobOutcome {
    fn label(self) -> &'static str {
        match self {
            JobOutcome::CacheHit => "hit",
            JobOutcome::CacheMiss => "miss",
            JobOutcome::SharedReuse => "shared-reuse",
            JobOutcome::NoStore => "no-store",
            JobOutcome::Memo => "memo",
        }
    }
}

/// The experiment parameters a job ran under: with the label, the job's
/// full identity (two jobs agreeing on both compute the same bits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobConfig {
    /// Committed instructions of warm-up.
    pub warmup: u64,
    /// Committed instructions measured.
    pub measure: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// L1 miss penalty in cycles.
    pub miss_penalty: u64,
}

/// Telemetry for one sweep job (one configuration point or one group
/// warm pass).
#[derive(Debug, Clone, PartialEq)]
pub struct JobTelemetry {
    /// Human-readable point label (`bench/scheme@Nr`).
    pub label: String,
    /// The experiment parameters the job ran under.
    pub config: JobConfig,
    /// Pipeline stage the job ran (`simulate`, `warm-pass`, `sample`).
    pub stage: &'static str,
    /// Seconds between sweep submission and the job starting on a
    /// worker.
    pub queue_wait_s: f64,
    /// Seconds the job spent executing.
    pub wall_s: f64,
    /// Checkpoint-cache interaction.
    pub outcome: JobOutcome,
    /// Injected-fault recoveries this job survived (retries that then
    /// succeeded).
    pub recovered: u64,
}

/// Aggregated telemetry for one sweep invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Worker threads requested (0 = serial in-caller execution).
    pub jobs: usize,
    /// End-to-end sweep wall clock in seconds.
    pub wall_s: f64,
    /// Checkpoint artefacts restored from disk.
    pub checkpoint_hits: u64,
    /// Checkpoint lookups that fell back to simulation.
    pub checkpoint_misses: u64,
    /// Points served by an already-loaded shared group artefact.
    pub shared_reuse_hits: u64,
    /// Points answered from the context's memo of exact results.
    pub memo_hits: u64,
    /// Injected-fault recoveries across all jobs.
    pub fault_recoveries: u64,
    /// Per-job records, in submission order.
    pub points: Vec<JobTelemetry>,
}

impl RunTelemetry {
    /// Empty telemetry for a sweep running with `jobs` workers.
    pub fn new(jobs: usize) -> Self {
        RunTelemetry {
            jobs,
            ..Default::default()
        }
    }

    /// Records one finished job, folding its outcome into the cache and
    /// fault counters.
    pub fn push(&mut self, job: JobTelemetry) {
        match job.outcome {
            JobOutcome::CacheHit => self.checkpoint_hits += 1,
            JobOutcome::CacheMiss => self.checkpoint_misses += 1,
            JobOutcome::SharedReuse => self.shared_reuse_hits += 1,
            JobOutcome::Memo => self.memo_hits += 1,
            JobOutcome::NoStore => {}
        }
        self.fault_recoveries += job.recovered;
        self.points.push(job);
    }

    /// Total seconds workers spent executing jobs.
    pub fn busy_s(&self) -> f64 {
        self.points.iter().map(|p| p.wall_s).sum()
    }

    /// Fraction of available worker-seconds spent executing jobs
    /// (`busy / (workers × wall)`; 0 when no wall clock was recorded).
    pub fn worker_utilisation(&self) -> f64 {
        let workers = self.jobs.max(1) as f64;
        if self.wall_s <= 0.0 {
            0.0
        } else {
            (self.busy_s() / (workers * self.wall_s)).min(1.0)
        }
    }

    /// Folds another sweep's telemetry into this one (multi-sweep
    /// experiments such as the NRR figures).
    pub fn merge(&mut self, other: RunTelemetry) {
        self.jobs = self.jobs.max(other.jobs);
        self.wall_s += other.wall_s;
        self.checkpoint_hits += other.checkpoint_hits;
        self.checkpoint_misses += other.checkpoint_misses;
        self.shared_reuse_hits += other.shared_reuse_hits;
        self.memo_hits += other.memo_hits;
        self.fault_recoveries += other.fault_recoveries;
        self.points.extend(other.points);
    }

    /// The `run.telemetry.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"vpr-run-telemetry/v1\",");
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"wall_s\": {},", json::float(self.wall_s));
        let _ = writeln!(s, "  \"busy_s\": {},", json::float(self.busy_s()));
        let _ = writeln!(
            s,
            "  \"worker_utilisation\": {},",
            json::float(self.worker_utilisation())
        );
        let _ = writeln!(
            s,
            "  \"checkpoint\": {{\"hits\": {}, \"misses\": {}, \"shared_reuse_hits\": {}}},",
            self.checkpoint_hits, self.checkpoint_misses, self.shared_reuse_hits
        );
        let _ = writeln!(s, "  \"memo_hits\": {},", self.memo_hits);
        let _ = writeln!(s, "  \"fault_recoveries\": {},", self.fault_recoveries);
        let points = json::row_array(self.points.iter().map(|p| {
            format!(
                "{{\"label\": \"{}\", \"config\": {{\"warmup\": {}, \"measure\": {}, \
                 \"seed\": {}, \"miss_penalty\": {}}}, \"stage\": \"{}\", \"queue_wait_s\": {}, \
                 \"wall_s\": {}, \"checkpoint\": \"{}\", \"recovered\": {}}}",
                json::escape(&p.label),
                p.config.warmup,
                p.config.measure,
                p.config.seed,
                p.config.miss_penalty,
                p.stage,
                json::float(p.queue_wait_s),
                json::float(p.wall_s),
                p.outcome.label(),
                p.recovered
            )
        }));
        let _ = writeln!(s, "  \"points\": {points}\n}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, outcome: JobOutcome, wall: f64) -> JobTelemetry {
        JobTelemetry {
            label: label.into(),
            config: JobConfig::default(),
            stage: "simulate",
            queue_wait_s: 0.0,
            wall_s: wall,
            outcome,
            recovered: 0,
        }
    }

    #[test]
    fn push_folds_outcomes_into_counters() {
        let mut t = RunTelemetry::new(2);
        t.push(job("a", JobOutcome::CacheHit, 1.0));
        t.push(job("b", JobOutcome::CacheMiss, 1.0));
        t.push(job("c", JobOutcome::SharedReuse, 2.0));
        assert_eq!(t.checkpoint_hits, 1);
        assert_eq!(t.checkpoint_misses, 1);
        assert_eq!(t.shared_reuse_hits, 1);
        t.wall_s = 2.0;
        assert!((t.busy_s() - 4.0).abs() < 1e-12);
        assert!((t.worker_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_contains_schema_and_points() {
        let mut t = RunTelemetry::new(1);
        t.push(job("swim/conventional@64r", JobOutcome::NoStore, 0.5));
        t.wall_s = 0.5;
        let j = t.to_json();
        assert!(j.contains("\"schema\": \"vpr-run-telemetry/v1\""));
        assert!(j.contains("\"label\": \"swim/conventional@64r\""));
        assert!(j.contains("\"checkpoint\": \"no-store\""));
    }

    #[test]
    fn memo_hits_are_counted_rendered_and_merged() {
        let mut a = RunTelemetry::new(1);
        a.push(JobTelemetry {
            config: JobConfig {
                warmup: 1_000,
                measure: 10_000,
                seed: 42,
                miss_penalty: 20,
            },
            ..job("go/conventional@64r", JobOutcome::Memo, 0.0)
        });
        assert_eq!(a.memo_hits, 1);
        let j = a.to_json();
        assert!(j.contains("\"memo_hits\": 1,"), "{j}");
        assert!(
            j.contains(
                "\"label\": \"go/conventional@64r\", \"config\": {\"warmup\": 1000, \
                 \"measure\": 10000, \"seed\": 42, \"miss_penalty\": 20}"
            ),
            "{j}"
        );
        assert!(j.contains("\"checkpoint\": \"memo\""), "{j}");
        let mut b = RunTelemetry::new(1);
        b.push(job("swim/conventional@64r", JobOutcome::Memo, 0.0));
        a.merge(b);
        assert_eq!(a.memo_hits, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunTelemetry::new(2);
        a.push(job("a", JobOutcome::CacheHit, 1.0));
        a.wall_s = 1.0;
        let mut b = RunTelemetry::new(4);
        b.push(job("b", JobOutcome::CacheMiss, 2.0));
        b.wall_s = 2.0;
        a.merge(b);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.points.len(), 2);
        assert_eq!(a.checkpoint_hits, 1);
        assert_eq!(a.checkpoint_misses, 1);
        assert!((a.wall_s - 3.0).abs() < 1e-12);
    }
}
