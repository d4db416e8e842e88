//! The parallel sweep engine.
//!
//! Every paper artefact is a sweep: the same simulator run over a grid of
//! `(benchmark, scheme, register-file size)` points. The points are
//! mutually independent and each simulation is deterministic, so
//! [`run_sweep_metrics`] fans them out over [`vpr_core::par`]'s
//! work-stealing pool and merges the per-point results back **in
//! submission order** — the output is byte-identical to running the same
//! points serially, for any worker count (`--jobs 1` included). The
//! cycle-exact goldens and `tests/parallel_determinism.rs` pin this down.
//!
//! The experiment functions in [`crate::experiments`] all route through
//! here; pass `--jobs N` to any figure/table binary (0 = one worker per
//! host core, the default) to control the pool.

use crate::checkpoints::{
    generate_group_checkpoints, group_scheme_label, record_usage, run_benchmark_checkpointed_obs,
    CheckpointLoadError, CheckpointOutcome, CheckpointStore, KIND_INTERVAL,
};
use crate::sampling::{sample_from_checkpoints, SamplingPlan};
use crate::workloads::scheme_label;
use crate::ExperimentConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vpr_core::par;
use vpr_core::{RenameScheme, SimObserver, SimStats};
use vpr_obs::{JobOutcome, JobTelemetry, Progress, RunTelemetry, SimMetrics};
use vpr_snap::manifest::ManifestError;

use crate::workloads::Workload;

/// One point of a sweep grid: a full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// The workload (synthetic benchmark or assembled program).
    pub workload: Workload,
    /// The renaming scheme under test.
    pub scheme: RenameScheme,
    /// Physical registers per class.
    pub physical_regs: usize,
}

impl SweepPoint {
    /// Shorthand for the common 64-registers-per-class configuration.
    pub fn at64(workload: impl Into<Workload>, scheme: RenameScheme) -> Self {
        Self {
            workload: workload.into(),
            scheme,
            physical_regs: 64,
        }
    }
}

// ----------------------------------------------------------------------
// Exact vs sampled sweeps
// ----------------------------------------------------------------------

/// How a sweep obtains each point's metrics.
#[derive(Debug, Clone, Default)]
pub enum SweepMode {
    /// Simulate every point full-length. With a checkpoint directory, warm
    /// `.vprsnap` checkpoints are restored instead of simulating warm-up —
    /// restored continuations are bit-identical, so the output does not
    /// depend on whether (or which) checkpoints were found.
    #[default]
    Exact,
    /// Estimate every point from checkpoint-seeded detailed windows
    /// ([`crate::sampling::sample_from_checkpoints`]). Interval
    /// checkpoints are loaded from the checkpoint directory when a valid
    /// set exists, and produced in-memory by one warm serial pass
    /// otherwise (then persisted to the directory, if one was given, so
    /// the next sampled run skips the pass).
    Sampled,
}

/// Where a sweep looks for (and deposits) `.vprsnap` checkpoints.
#[derive(Debug, Clone, Default)]
pub struct SweepContext {
    /// The sweep mode.
    pub mode: SweepMode,
    /// Checkpoint directory, if any.
    pub checkpoint_dir: Option<PathBuf>,
    /// Sampling plan override for sampled sweeps; `None` derives the
    /// checkpoint-seeded plan from the experiment configuration.
    pub plan: Option<SamplingPlan>,
}

impl SweepContext {
    /// An exact sweep with no checkpoint directory (the historical
    /// default).
    pub fn exact() -> Self {
        Self::default()
    }

    /// An exact or sampled sweep using `dir` for checkpoints.
    pub fn new(sampled: bool, dir: Option<&Path>) -> Self {
        Self {
            mode: if sampled {
                SweepMode::Sampled
            } else {
                SweepMode::Exact
            },
            checkpoint_dir: dir.map(Path::to_path_buf),
            plan: None,
        }
    }

    /// True in sampled mode.
    pub fn is_sampled(&self) -> bool {
        matches!(self.mode, SweepMode::Sampled)
    }

    /// The sampling plan a sampled sweep of `exp` will use (the explicit
    /// override, or the derived checkpoint-seeded plan); `None` in exact
    /// mode.
    pub fn effective_plan(&self, exp: &ExperimentConfig) -> Option<SamplingPlan> {
        self.is_sampled().then(|| {
            self.plan
                .unwrap_or_else(|| SamplingPlan::for_experiment(exp))
        })
    }

    /// Checks the context against an experiment before any simulation
    /// runs: a sampled sweep's plan must be consistent (binaries turn the
    /// message into a usage error instead of panicking mid-sweep).
    ///
    /// # Errors
    ///
    /// Describes the violated plan constraint.
    pub fn try_validate(&self, exp: &ExperimentConfig) -> Result<(), String> {
        match self.effective_plan(exp) {
            Some(plan) => plan
                .try_validate()
                .map_err(|e| format!("invalid sampling plan for this experiment: {e}")),
            None => Ok(()),
        }
    }
}

/// The per-point result a figure/table needs, independent of whether it
/// was measured exactly or estimated from samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Committed IPC (exact, or the sampled estimate).
    pub ipc: f64,
    /// Cache miss ratio.
    pub miss_ratio: f64,
    /// Executions per committed instruction.
    pub executions_per_commit: f64,
}

impl PointMetrics {
    fn from_stats(stats: &SimStats) -> Self {
        Self {
            ipc: stats.ipc(),
            miss_ratio: stats.cache.miss_ratio(),
            executions_per_commit: stats.executions_per_commit(),
        }
    }

    /// The placeholder metrics of a point whose job failed permanently
    /// (every retry exhausted): all-NaN, rendered as `null` in JSON. The
    /// matching [`SweepFailure`] in the sweep's `failures` block says
    /// why.
    pub fn failed() -> Self {
        Self {
            ipc: f64::NAN,
            miss_ratio: f64::NAN,
            executions_per_commit: f64::NAN,
        }
    }

    /// True for the [`PointMetrics::failed`] placeholder.
    pub fn is_failed(&self) -> bool {
        self.ipc.is_nan()
    }
}

/// Escapes a string for embedding in a JSON string literal (the escapes
/// this workspace's hand-rolled readers understand: `\"`, `\\`, `\n`,
/// `\r`, `\t`, and `\uXXXX` for other control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a float for JSON: non-finite values (a failed point's NaN
/// placeholder) become `null` — `NaN` is not valid JSON.
pub fn json_num(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// One fault a sweep survived (or degraded around): which point, at what
/// stage, whether the result was still produced. Recorded into every
/// experiment artefact's `failures` block so degradation is never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// The sweep point (or group / store) the fault hit, e.g.
    /// `"swim/vp-wb-nrr32@64r"`.
    pub point: String,
    /// Pipeline stage: `"store-open"`, `"checkpoint-load"`,
    /// `"warm-pass"`, `"simulate"`, `"sample"`, or `"persist"`.
    pub stage: &'static str,
    /// What went wrong.
    pub error: String,
    /// Attempts consumed when the fault hit a retried job (1 otherwise).
    pub attempts: u32,
    /// `true` when the sweep still produced this point's exact result
    /// (retry succeeded, or a degraded-but-bit-identical path ran);
    /// `false` when the point's metrics are the failed placeholder.
    pub recovered: bool,
}

impl SweepFailure {
    /// Renders one failure as a JSON object.
    pub fn to_json_value(&self) -> String {
        format!(
            "{{\"point\": \"{}\", \"stage\": \"{}\", \"recovered\": {}, \
             \"attempts\": {}, \"error\": \"{}\"}}",
            json_escape(&self.point),
            self.stage,
            self.recovered,
            self.attempts,
            json_escape(&self.error)
        )
    }
}

/// Renders a sweep's failures as the JSON value of a `"failures"` field
/// (an array; empty on a fault-free run).
pub fn failures_json(failures: &[SweepFailure]) -> String {
    if failures.is_empty() {
        return "[]".to_string();
    }
    let mut s = String::from("[\n");
    for (i, f) in failures.iter().enumerate() {
        let _ = write!(s, "    {}", f.to_json_value());
        s.push_str(if i + 1 < failures.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]");
    s
}

/// Provenance of a sweep's numbers, recorded into every JSON artefact so
/// sampled and exact results are never confusable.
#[derive(Debug, Clone)]
pub enum SamplingProvenance {
    /// Every point simulated full-length.
    Exact,
    /// Points estimated by checkpoint-seeded sampling.
    Sampled {
        /// The sampling plan used.
        plan: SamplingPlan,
        /// Estimator name (stable identifier).
        estimator: &'static str,
        /// Where the interval checkpoints came from: `"checkpoint-dir"`
        /// when every point loaded a valid on-disk set, `"warm-pass"` when
        /// at least one point generated its checkpoints in-memory.
        seeded_from: &'static str,
        /// The checkpoint directory involved, if any.
        checkpoint_dir: Option<String>,
    },
}

impl SamplingProvenance {
    /// Renders the provenance as the JSON value of a `"sampling"` field.
    pub fn to_json_value(&self) -> String {
        match self {
            SamplingProvenance::Exact => "{\"mode\": \"exact\"}".to_string(),
            SamplingProvenance::Sampled {
                plan,
                estimator,
                seeded_from,
                checkpoint_dir,
            } => {
                let mut s = String::new();
                let _ = write!(
                    s,
                    "{{\"mode\": \"sampled\", \"estimator\": \"{estimator}\", \
                     \"seeded_from\": \"{seeded_from}\", \"plan\": {{\"offset\": {}, \
                     \"region\": {}, \"intervals\": {}, \"detailed_warmup\": 0, \
                     \"detailed_measure\": {}, \"detailed_fraction\": {:.4}}}",
                    plan.offset,
                    plan.region,
                    plan.intervals,
                    plan.detailed_measure,
                    plan.detailed_fraction()
                );
                match checkpoint_dir {
                    Some(dir) => {
                        // The directory is user input; escape it.
                        let _ = write!(s, ", \"checkpoint_dir\": \"{}\"}}", json_escape(dir));
                    }
                    None => s.push('}'),
                }
                s
            }
        }
    }
}

/// The simulated-machine metrics block of a sweep's JSON artefact.
///
/// Exact sweeps aggregate every point's [`SimMetrics`] (submission-order
/// integer merge, so the block is byte-identical for any `--jobs`).
/// Sampled sweeps measure only detailed windows — their counters would be
/// biased samples of the full run — so the block records the mode and no
/// series rather than publishing misleading numbers.
#[derive(Debug, Clone)]
pub enum MetricsBlock {
    /// Aggregated measurement-window metrics of an exact sweep.
    Exact(Box<SimMetrics>),
    /// A sampled sweep: per-run metric series are deliberately withheld.
    SampledUnavailable,
}

impl MetricsBlock {
    /// Renders the block as the JSON value of a `"metrics"` field.
    pub fn to_json_value(&self) -> String {
        match self {
            MetricsBlock::Exact(m) => format!(
                "{{\"mode\": \"exact\", \"series\": {}}}",
                m.export().to_json_value()
            ),
            MetricsBlock::SampledUnavailable => "{\"mode\": \"sampled\"}".to_string(),
        }
    }

    /// Prometheus text exposition of the aggregated series; `None` for
    /// sampled sweeps (nothing sound to expose).
    pub fn to_prometheus(&self) -> Option<String> {
        match self {
            MetricsBlock::Exact(m) => Some(m.export().to_prometheus()),
            MetricsBlock::SampledUnavailable => None,
        }
    }

    /// Folds another sweep's block into this one (multi-sweep
    /// experiments). Any sampled contribution poisons the aggregate to
    /// [`MetricsBlock::SampledUnavailable`] — a partial series must never
    /// masquerade as the whole experiment's.
    pub fn merge(&mut self, other: MetricsBlock) {
        match other {
            MetricsBlock::Exact(o) => {
                if let MetricsBlock::Exact(m) = self {
                    m.merge(*o);
                }
            }
            MetricsBlock::SampledUnavailable => *self = MetricsBlock::SampledUnavailable,
        }
    }
}

/// A sweep's metrics plus the provenance its artefacts must record.
#[derive(Debug, Clone)]
pub struct SweepMetrics {
    /// Per-point metrics, in `points` order. A permanently failed point
    /// holds [`PointMetrics::failed`] (rendered `null` in JSON) and has a
    /// `recovered: false` entry in `failures`.
    pub points: Vec<PointMetrics>,
    /// How they were obtained.
    pub provenance: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run). Recorded into every artefact's `failures` block.
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics (the artefact's `metrics`
    /// block).
    pub metrics: MetricsBlock,
    /// How the sweep engine spent its time (written to
    /// `run.telemetry.json`, never into the experiment JSON — wall-clock
    /// data is not reproducible).
    pub telemetry: RunTelemetry,
}

/// Retry discipline for each sweep job: one immediate retry, which is
/// exactly what a single transient fault needs and what a deterministic
/// bug cannot abuse. The long-running service layers a backoff policy on
/// top of the same [`vpr_core::par::RetryPolicy`] machinery.
const SWEEP_RETRIES: vpr_core::par::RetryPolicy = vpr_core::par::RetryPolicy::immediate(1);

/// The stable label of one sweep point in failure reports and fault-
/// injection job matching.
pub fn point_label(p: &SweepPoint) -> String {
    format!(
        "{}/{}@{}r",
        p.workload.name(),
        scheme_label(p.scheme),
        p.physical_regs
    )
}

/// Folds one job's recovered panics into the failure list.
fn record_recovered(
    failures: &mut Vec<SweepFailure>,
    label: &str,
    stage: &'static str,
    job: &[par::JobFailure],
) {
    for jf in job {
        failures.push(SweepFailure {
            point: label.to_string(),
            stage,
            error: jf.message.clone(),
            attempts: jf.attempts,
            recovered: true,
        });
    }
}

/// Runs a sweep in the requested mode and returns per-point metrics in
/// `points` order. Both modes fan the points out over the worker pool with
/// the usual submission-order merge, so metrics are byte-identical for any
/// `exp.jobs`.
///
/// The sweep is **fault-tolerant**: every job is panic-isolated with one
/// retry, a corrupt checkpoint store degrades to warm-pass regeneration
/// (bit-identical results), and a permanently failing point reports into
/// [`SweepMetrics::failures`] with [`PointMetrics::failed`] metrics
/// instead of tearing down the grid.
pub fn run_sweep_metrics(
    points: &[SweepPoint],
    exp: &ExperimentConfig,
    ctx: &SweepContext,
) -> SweepMetrics {
    let mut failures: Vec<SweepFailure> = Vec::new();
    let store = match &ctx.checkpoint_dir {
        Some(dir) => {
            let (store, note) = CheckpointStore::open_resilient(dir);
            if let Some(note) = note {
                failures.push(SweepFailure {
                    point: dir.display().to_string(),
                    stage: "store-open",
                    error: note,
                    attempts: 1,
                    recovered: true,
                });
            }
            Some(store)
        }
        None => None,
    };
    let sweep_start = Instant::now();
    let progress = Progress::new(points.len(), Progress::stderr_is_tty());
    let progress_ref = &progress;
    let mut telemetry = RunTelemetry::new(exp.effective_jobs());
    match ctx.mode {
        SweepMode::Exact => {
            let exp_copy = *exp;
            let store_ref = store.as_ref();
            let results = par::par_try_map(
                exp.effective_jobs(),
                SWEEP_RETRIES,
                points.to_vec(),
                |_, p| {
                    let queue_wait_s = sweep_start.elapsed().as_secs_f64();
                    let started = Instant::now();
                    let label = point_label(p);
                    vpr_snap::faults::maybe_panic_job(&label);
                    let (stats, note, obs, outcome) = run_benchmark_checkpointed_obs(
                        p.workload,
                        p.scheme,
                        p.physical_regs,
                        &exp_copy,
                        store_ref,
                        SimObserver::new(),
                    );
                    progress_ref.point_done();
                    (
                        PointMetrics::from_stats(&stats),
                        note,
                        Box::new(obs.metrics),
                        outcome,
                        queue_wait_s,
                        started.elapsed().as_secs_f64(),
                    )
                },
            );
            let mut out = Vec::with_capacity(points.len());
            let mut agg = SimMetrics::default();
            let mut used_files: Vec<String> = Vec::new();
            for (p, job) in points.iter().zip(results) {
                let label = point_label(p);
                record_recovered(&mut failures, &label, "simulate", &job.recovered);
                let recovered_n = job.recovered.len() as u64;
                match job.result {
                    Ok((metrics, note, sim_metrics, outcome, queue_wait_s, wall_s)) => {
                        if let Some(note) = note {
                            failures.push(SweepFailure {
                                point: label.clone(),
                                stage: "checkpoint-load",
                                error: note,
                                attempts: 1,
                                recovered: true,
                            });
                        }
                        let job_outcome = match outcome {
                            CheckpointOutcome::Hit(file) => {
                                used_files.push(file);
                                JobOutcome::CacheHit
                            }
                            CheckpointOutcome::Miss => JobOutcome::CacheMiss,
                            CheckpointOutcome::NoStore => JobOutcome::NoStore,
                        };
                        telemetry.push(JobTelemetry {
                            label,
                            stage: "simulate",
                            queue_wait_s,
                            wall_s,
                            outcome: job_outcome,
                            recovered: recovered_n,
                        });
                        agg.merge(*sim_metrics);
                        out.push(metrics);
                    }
                    Err(jf) => {
                        telemetry.fault_recoveries += recovered_n;
                        failures.push(SweepFailure {
                            point: label,
                            stage: "simulate",
                            error: jf.message,
                            attempts: jf.attempts,
                            recovered: false,
                        });
                        out.push(PointMetrics::failed());
                    }
                }
            }
            // Fold this sweep's restores into the store's reuse ledger
            // (telemetry only — failures to write never affect results).
            if let Some(store) = &store {
                let _ = record_usage(&store.dir, &used_files);
            }
            telemetry.wall_s = sweep_start.elapsed().as_secs_f64();
            SweepMetrics {
                points: out,
                provenance: SamplingProvenance::Exact,
                failures,
                metrics: MetricsBlock::Exact(Box::new(agg)),
                telemetry,
            }
        }
        SweepMode::Sampled => {
            let plan = ctx.effective_plan(exp).expect("sampled mode has a plan");
            let exp_copy = *exp;
            let store_ref = store.as_ref();
            // One warm serial pass per *sharing group* — (workload,
            // scheme family, register-file size) — not per point: every
            // NRR value of a virtual-physical family restores the same
            // canonical interval checkpoints and re-prices only the
            // NRR-dependent state (`Processor::retarget_nrr`), so an NRR
            // sweep pays one pass per (benchmark, seed, family) instead
            // of one per NRR value. Groups are keyed by the group scheme
            // label, which already folds the family together.
            let mut groups: Vec<SweepPoint> = Vec::new();
            let group_of: Vec<usize> = points
                .iter()
                .map(|p| {
                    let key = (
                        p.workload,
                        group_scheme_label(p.scheme, p.physical_regs, &exp_copy),
                        p.physical_regs,
                    );
                    let found = groups.iter().position(|g| {
                        (
                            g.workload,
                            group_scheme_label(g.scheme, g.physical_regs, &exp_copy),
                            g.physical_regs,
                        ) == key
                    });
                    found.unwrap_or_else(|| {
                        groups.push(*p);
                        groups.len() - 1
                    })
                })
                .collect();
            let group_label = |g: &SweepPoint| {
                format!(
                    "group:{}/{}@{}r",
                    g.workload.name(),
                    group_scheme_label(g.scheme, g.physical_regs, &exp_copy),
                    g.physical_regs
                )
            };
            // Stage 1: load (or generate) each group's interval set. A
            // corrupt on-disk set has already been quarantined by the
            // loader; the degradation note is surfaced and the group
            // regenerates from its warm pass — bit-identical, because the
            // on-disk artefacts were produced by the very same pass.
            struct GroupPass {
                set: Vec<(u64, vpr_snap::Snapshot)>,
                from_disk: bool,
                generated: Vec<crate::checkpoints::GeneratedCheckpoint>,
                note: Option<String>,
                queue_wait_s: f64,
                wall_s: f64,
            }
            let group_points = groups.clone();
            let sets: Vec<par::JobResult<GroupPass>> =
                par::par_try_map(exp.effective_jobs(), SWEEP_RETRIES, groups, |_, g| {
                    let queue_wait_s = sweep_start.elapsed().as_secs_f64();
                    let started = Instant::now();
                    let label = group_label(g);
                    vpr_snap::faults::maybe_panic_job(&label);
                    let (loaded, note) = match store_ref {
                        None => (None, None),
                        Some(s) => match s.load_group_interval_set(
                            g.workload,
                            g.scheme,
                            g.physical_regs,
                            &exp_copy,
                            &plan,
                        ) {
                            Ok(set) => (Some(set), None),
                            // An unpopulated directory is the normal cold
                            // start, not a fault.
                            Err(CheckpointLoadError::Manifest(ManifestError::NotFound(_))) => {
                                (None, None)
                            }
                            Err(e) => (None, Some(e.to_string())),
                        },
                    };
                    let (set, from_disk, generated) = match loaded {
                        Some(set) => (set, true, Vec::new()),
                        None => {
                            let generated = generate_group_checkpoints(
                                g.workload,
                                g.scheme,
                                g.physical_regs,
                                &exp_copy,
                                Some(&plan),
                            );
                            let set = generated
                                .iter()
                                .filter(|g| g.key.kind == KIND_INTERVAL)
                                .map(|g| (g.key.target, g.snapshot.clone()))
                                .collect();
                            (set, false, generated)
                        }
                    };
                    GroupPass {
                        set,
                        from_disk,
                        generated,
                        note,
                        queue_wait_s,
                        wall_s: started.elapsed().as_secs_f64(),
                    }
                });
            for (g, job) in group_points.iter().zip(&sets) {
                let label = group_label(g);
                record_recovered(&mut failures, &label, "warm-pass", &job.recovered);
                let recovered_n = job.recovered.len() as u64;
                match &job.result {
                    Ok(pass) => {
                        if let Some(note) = &pass.note {
                            failures.push(SweepFailure {
                                point: label.clone(),
                                stage: "checkpoint-load",
                                error: note.clone(),
                                attempts: 1,
                                recovered: true,
                            });
                        }
                        telemetry.push(JobTelemetry {
                            label,
                            stage: "warm-pass",
                            queue_wait_s: pass.queue_wait_s,
                            wall_s: pass.wall_s,
                            outcome: if store_ref.is_none() {
                                JobOutcome::NoStore
                            } else if pass.from_disk {
                                JobOutcome::CacheHit
                            } else {
                                JobOutcome::CacheMiss
                            },
                            recovered: recovered_n,
                        });
                    }
                    Err(_) => telemetry.fault_recoveries += recovered_n,
                }
            }
            // Stage 2: measure every point against its group's set; each
            // point's windows run serially inside it (jobs = 1) so the
            // pool is not nested. Points whose group pass failed get the
            // failed placeholder without simulating.
            let sets_ref = &sets;
            let group_of_ref = &group_of;
            let outcomes = par::par_try_map(
                exp.effective_jobs(),
                SWEEP_RETRIES,
                points.to_vec(),
                move |i, p| {
                    let queue_wait_s = sweep_start.elapsed().as_secs_f64();
                    let started = Instant::now();
                    let label = point_label(p);
                    vpr_snap::faults::maybe_panic_job(&label);
                    let Ok(pass) = &sets_ref[group_of_ref[i]].result else {
                        return (
                            PointMetrics::failed(),
                            queue_wait_s,
                            started.elapsed().as_secs_f64(),
                        );
                    };
                    let report = sample_from_checkpoints(
                        p.workload,
                        p.scheme,
                        p.physical_regs,
                        &exp_copy,
                        &plan,
                        &pass.set,
                        1,
                    );
                    progress_ref.point_done();
                    (
                        PointMetrics {
                            ipc: report.ipc(),
                            miss_ratio: report.miss_ratio(),
                            executions_per_commit: report.executions_per_commit(),
                        },
                        queue_wait_s,
                        started.elapsed().as_secs_f64(),
                    )
                },
            );
            let mut out = Vec::with_capacity(points.len());
            let mut group_seen = vec![false; group_points.len()];
            for (i, (p, job)) in points.iter().zip(outcomes).enumerate() {
                let label = point_label(p);
                record_recovered(&mut failures, &label, "sample", &job.recovered);
                let recovered_n = job.recovered.len() as u64;
                // The first point of each group "owns" the stage-1 pass
                // (already counted there); every further point reuses the
                // shared artefact — the cross-NRR reuse the telemetry
                // counts.
                let shared = std::mem::replace(&mut group_seen[group_of_ref[i]], true);
                match (&sets_ref[group_of_ref[i]].result, job.result) {
                    // The group's warm pass failed permanently: this
                    // point never simulated.
                    (Err(group_failure), _) => {
                        telemetry.fault_recoveries += recovered_n;
                        failures.push(SweepFailure {
                            point: label,
                            stage: "warm-pass",
                            error: group_failure.message.clone(),
                            attempts: group_failure.attempts,
                            recovered: false,
                        });
                        out.push(PointMetrics::failed());
                    }
                    (Ok(_), Ok((metrics, queue_wait_s, wall_s))) => {
                        telemetry.push(JobTelemetry {
                            label,
                            stage: "sample",
                            queue_wait_s,
                            wall_s,
                            outcome: if shared {
                                JobOutcome::SharedReuse
                            } else {
                                JobOutcome::NoStore
                            },
                            recovered: recovered_n,
                        });
                        out.push(metrics);
                    }
                    (Ok(_), Err(jf)) => {
                        telemetry.fault_recoveries += recovered_n;
                        failures.push(SweepFailure {
                            point: label,
                            stage: "sample",
                            error: jf.message,
                            attempts: jf.attempts,
                            recovered: false,
                        });
                        out.push(PointMetrics::failed());
                    }
                }
            }
            let all_from_disk = sets
                .iter()
                .all(|job| matches!(&job.result, Ok(pass) if pass.from_disk));
            // Persist freshly generated checkpoints so the next sampled
            // run reuses the serial passes just paid for. Write failures
            // never affect results — record and continue.
            if let Some(mut store) = store {
                let mut dirty = false;
                for job in &sets {
                    let Ok(pass) = &job.result else {
                        continue;
                    };
                    if !pass.generated.is_empty() {
                        if let Err(e) = store.save_all(&pass.generated) {
                            failures.push(SweepFailure {
                                point: store.dir.display().to_string(),
                                stage: "persist",
                                error: format!("cannot write checkpoints: {e}"),
                                attempts: 1,
                                recovered: true,
                            });
                        } else {
                            dirty = true;
                        }
                    }
                }
                if dirty {
                    if let Err(e) = store.flush() {
                        failures.push(SweepFailure {
                            point: store.dir.display().to_string(),
                            stage: "persist",
                            error: format!("cannot write manifest: {e}"),
                            attempts: 1,
                            recovered: true,
                        });
                    }
                }
            }
            telemetry.wall_s = sweep_start.elapsed().as_secs_f64();
            SweepMetrics {
                points: out,
                provenance: SamplingProvenance::Sampled {
                    plan,
                    estimator: "per-phase-regression",
                    seeded_from: if all_from_disk {
                        "checkpoint-dir"
                    } else {
                        "warm-pass"
                    },
                    checkpoint_dir: ctx.checkpoint_dir.as_ref().map(|d| d.display().to_string()),
                },
                failures,
                metrics: MetricsBlock::SampledUnavailable,
                telemetry,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_trace::Benchmark;

    #[test]
    fn sweep_matches_serial_run_order() {
        let exp = ExperimentConfig {
            warmup: 200,
            measure: 2_000,
            jobs: 3,
            ..ExperimentConfig::default()
        };
        let points = [
            SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional),
            SweepPoint::at64(
                Benchmark::Go,
                RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            ),
            SweepPoint {
                workload: Benchmark::Swim.into(),
                scheme: RenameScheme::VirtualPhysicalIssue { nrr: 16 },
                physical_regs: 48,
            },
        ];
        let parallel = run_sweep_metrics(&points, &exp, &SweepContext::exact());
        let serial: Vec<_> = points
            .iter()
            .map(|p| {
                PointMetrics::from_stats(&crate::run_benchmark(
                    p.workload,
                    p.scheme,
                    p.physical_regs,
                    &exp,
                ))
            })
            .collect();
        assert_eq!(
            parallel.points, serial,
            "pool output must merge in point order"
        );
        assert!(parallel.failures.is_empty());
    }
}
