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
//! An exact sweep runs each point through the one job executor,
//! [`crate::jobs::execute_job_observed`] — the code the `vpr-serve` daemon
//! runs its jobs through. A sampled sweep runs one warm pass per sharing
//! group, then the checkpoint-seeded windows of every point. Every stage
//! goes through one stage runner: panic isolation with one retry, the
//! fault-injection hook, and the `failures` block and run telemetry.
//!
//! The experiment functions in [`crate::experiments`] all route through
//! here; pass `--jobs N` to any figure/table binary (0 = one worker per
//! host core, the default) to control the pool.

use crate::checkpoints::{
    generate_checkpoints, CheckpointLoadError, CheckpointOutcome, CheckpointStore, WrittenPack,
};
use crate::jobs::{lock, run_job, JobSpec};
use crate::sampling::{estimate_from_windows, sample_from_checkpoints, SamplingPlan, Window};
use crate::workloads::{scheme_label, Workload};
use crate::ExperimentConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vpr_core::par;
use vpr_core::{RenameScheme, SimObserver, SimStats};
use vpr_obs::{JobConfig, JobOutcome, JobTelemetry, Progress, RunTelemetry, SimMetrics};
use vpr_snap::json;
use vpr_snap::manifest::ManifestError;

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

    /// The job that measures this point under `exp`.
    pub fn job(&self, exp: &ExperimentConfig) -> JobSpec {
        JobSpec {
            workload: self.workload,
            scheme: self.scheme,
            physical_regs: self.physical_regs,
            exp: *exp,
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
    /// otherwise (then persisted to the directory as one pack, if one was
    /// given, so the next sampled run skips the pass).
    Sampled,
}

/// Where a sweep looks for (and deposits) `.vprsnap` checkpoints, and
/// what exact results its earlier sweeps already computed.
///
/// Exact sweeps run through one context share a memo: a point whose
/// [`JobSpec`] (minus the pool size) an earlier sweep of the context
/// computed cleanly is answered from the memo instead of simulated
/// again, with the same bits and the same `metrics` contribution. A
/// fresh context starts empty; a clone shares its memo. Sampled sweeps
/// never consult it.
#[derive(Debug, Clone, Default)]
pub struct SweepContext {
    /// The sweep mode.
    pub mode: SweepMode,
    /// Checkpoint directory, if any.
    pub checkpoint_dir: Option<PathBuf>,
    memo: Memo,
}

/// One clean exact result kept for reuse: the point's metrics and its
/// measurement-window [`SimMetrics`], packed ([`SimMetrics::pack`]) to
/// about a sixth of their size.
struct MemoEntry {
    point: PointMetrics,
    metrics: Box<[u8]>,
}

/// The exact points a context has computed, keyed by [`memo_key`]. Only
/// the sweep's calling thread writes it, after its stage has run, so the
/// memo's heap is the caller's, not the workers'.
#[derive(Clone, Default)]
struct Memo(Arc<Mutex<HashMap<JobSpec, MemoEntry>>>);

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo").finish_non_exhaustive()
    }
}

/// The memo key of a job: its spec with the pool size zeroed, since the
/// number of workers never changes a result.
fn memo_key(spec: &JobSpec) -> JobSpec {
    JobSpec {
        exp: ExperimentConfig {
            jobs: 0,
            ..spec.exp
        },
        ..spec.clone()
    }
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
            memo: Memo::default(),
        }
    }

    /// True in sampled mode.
    pub fn is_sampled(&self) -> bool {
        matches!(self.mode, SweepMode::Sampled)
    }

    /// The sampling plan a sampled sweep of `exp` uses
    /// ([`SamplingPlan::for_experiment`]); `None` in exact mode.
    pub fn effective_plan(&self, exp: &ExperimentConfig) -> Option<SamplingPlan> {
        self.is_sampled().then(|| SamplingPlan::for_experiment(exp))
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
    /// The metrics of an exact run's measurement window.
    pub(crate) fn from_stats(stats: &SimStats) -> Self {
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
    /// A fault the sweep degraded around on the first attempt, still
    /// producing the exact result.
    fn recovered(point: String, stage: &'static str, error: String) -> Self {
        Self {
            point,
            stage,
            error,
            attempts: 1,
            recovered: true,
        }
    }

    /// Renders one failure as a JSON object.
    pub fn to_json_value(&self) -> String {
        format!(
            "{{\"point\": \"{}\", \"stage\": \"{}\", \"recovered\": {}, \
             \"attempts\": {}, \"error\": \"{}\"}}",
            json::escape(&self.point),
            self.stage,
            self.recovered,
            self.attempts,
            json::escape(&self.error)
        )
    }
}

/// Renders a sweep's failures as the JSON value of a `"failures"` field
/// (an array; empty on a fault-free run).
pub fn failures_json(failures: &[SweepFailure]) -> String {
    if failures.is_empty() {
        return "[]".to_string();
    }
    json::row_array(failures.iter().map(SweepFailure::to_json_value))
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
                // The directory is user input; escape it.
                let dir = checkpoint_dir
                    .as_ref()
                    .map(|d| format!(", \"checkpoint_dir\": \"{}\"", json::escape(d)))
                    .unwrap_or_default();
                format!(
                    "{{\"mode\": \"sampled\", \"estimator\": \"{estimator}\", \
                     \"seeded_from\": \"{seeded_from}\", \"plan\": {}{dir}}}",
                    plan.to_json_value()
                )
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

/// What one stage job hands back to [`Stages::run`]: its product, the
/// degradations it recovered around (each a recovered failure under the
/// paired stage name), and its telemetry outcome class.
struct StageDone<T> {
    value: T,
    notes: Vec<(&'static str, String)>,
    outcome: JobOutcome,
}

/// Why a stage job did not run: the job it depends on failed for good in
/// the named stage.
type Blocked = (&'static str, par::JobFailure);

/// The bookkeeping every sweep stage shares: the sweep's start (queue
/// waits are measured from it), and the `failures` block and run
/// telemetry (which holds the pool size) the stages fill in, in
/// submission order.
struct Stages {
    start: Instant,
    config: JobConfig,
    failures: Vec<SweepFailure>,
    telemetry: RunTelemetry,
}

impl Stages {
    /// Runs one stage: `job(i)` for every label `i`, fanned out over the
    /// pool with panic isolation and [`SWEEP_RETRIES`], each job first
    /// passing the fault-injection hook under its label. Results come
    /// back in submission order, and each folds into the shared record:
    /// recovered panics and the job's notes become recovered failures, a
    /// finished job adds its telemetry, and a job that failed for good —
    /// or was [`Blocked`] — adds a `recovered: false` failure and comes
    /// back as `Err`, for which the caller substitutes its placeholder.
    fn run<T: Send>(
        &mut self,
        stage: &'static str,
        labels: Vec<String>,
        job: impl Fn(usize) -> Result<StageDone<T>, Blocked> + Sync,
    ) -> Vec<Result<T, par::JobFailure>> {
        let start = self.start;
        let results = par::par_try_map(
            self.telemetry.jobs,
            SWEEP_RETRIES,
            labels.iter().collect(),
            |i, label: &&String| {
                let queue_wait_s = start.elapsed().as_secs_f64();
                let started = Instant::now();
                vpr_snap::faults::maybe_panic_job(label);
                job(i).map(|done| (done, queue_wait_s, started.elapsed().as_secs_f64()))
            },
        );
        let mut out = Vec::with_capacity(labels.len());
        for (label, job) in labels.into_iter().zip(results) {
            for jf in &job.recovered {
                self.failures.push(SweepFailure {
                    point: label.clone(),
                    stage,
                    error: jf.message.clone(),
                    attempts: jf.attempts,
                    recovered: true,
                });
            }
            let recovered = job.recovered.len() as u64;
            let (failed_stage, failure) = match job.result {
                Ok(Ok((done, queue_wait_s, wall_s))) => {
                    for (note_stage, note) in done.notes {
                        self.failures.push(SweepFailure::recovered(
                            label.clone(),
                            note_stage,
                            note,
                        ));
                    }
                    self.telemetry.push(JobTelemetry {
                        label,
                        config: self.config,
                        stage,
                        queue_wait_s,
                        wall_s,
                        outcome: done.outcome,
                        recovered,
                    });
                    out.push(Ok(done.value));
                    continue;
                }
                Ok(Err(blocked)) => blocked,
                Err(jf) => (stage, jf),
            };
            self.telemetry.fault_recoveries += recovered;
            self.failures.push(SweepFailure {
                point: label,
                stage: failed_stage,
                error: failure.message.clone(),
                attempts: failure.attempts,
                recovered: false,
            });
            out.push(Err(failure));
        }
        out
    }

    /// Closes the sweep: stamps its wall time and assembles the result.
    fn finish(
        mut self,
        points: Vec<PointMetrics>,
        provenance: SamplingProvenance,
        metrics: MetricsBlock,
    ) -> SweepMetrics {
        self.telemetry.wall_s = self.start.elapsed().as_secs_f64();
        SweepMetrics {
            points,
            provenance,
            failures: self.failures,
            metrics,
            telemetry: self.telemetry,
        }
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
    let mut failures = Vec::new();
    let store = ctx.checkpoint_dir.as_ref().map(|dir| {
        let (store, note) = CheckpointStore::open_resilient(dir);
        if let Some(note) = note {
            failures.push(SweepFailure::recovered(
                dir.display().to_string(),
                "store-open",
                note,
            ));
        }
        store
    });
    let stages = Stages {
        start: Instant::now(),
        config: exp.job_config(),
        failures,
        telemetry: RunTelemetry::new(exp.effective_jobs()),
    };
    let progress = Progress::new(points.len(), Progress::stderr_is_tty());
    let specs: Vec<JobSpec> = points.iter().map(|p| p.job(exp)).collect();
    match ctx.mode {
        SweepMode::Exact => run_exact(stages, &specs, ctx, store, &progress),
        SweepMode::Sampled => run_sampled(stages, &specs, exp, ctx, store, &progress),
    }
}

/// What one exact job hands to the merge loop when it simulated (a memo
/// hit hands `None`): the point's metrics, its window's [`SimMetrics`]
/// (boxed: about a KiB that each result slot of the pool would otherwise
/// hold inline), and whether it ran clean — no load fault, no failed
/// deposit — and so may be memoised.
struct Simulated {
    point: PointMetrics,
    metrics: Box<SimMetrics>,
    clean: bool,
}

/// The exact stage: every point is one run of the job executor
/// ([`crate::jobs::execute_job_observed`]) with a metrics observer,
/// sharing the sweep's checkpoint store behind the mutex the executor
/// locks around lookups, loads and deposits. Load faults are reported
/// under `checkpoint-load`, a failed deposit under `persist`.
///
/// A point the context's memo already holds is still a job of the stage
/// (fault hook, retry and telemetry alike) but does not simulate: the
/// merge loop takes its result from the memo, and memoises every clean
/// simulated point for the context's later sweeps.
fn run_exact(
    mut stages: Stages,
    specs: &[JobSpec],
    ctx: &SweepContext,
    store: Option<CheckpointStore>,
    progress: &Progress,
) -> SweepMetrics {
    let store = store.map(Mutex::new);
    let store = store.as_ref();
    let memoised: Vec<bool> = {
        let memo = lock(&ctx.memo.0);
        specs
            .iter()
            .map(|s| memo.contains_key(&memo_key(s)))
            .collect()
    };
    let labels = specs.iter().map(JobSpec::label).collect();
    let results = stages.run("simulate", labels, |i| {
        if memoised[i] {
            progress.point_done();
            return Ok(StageDone {
                value: None,
                notes: Vec::new(),
                outcome: JobOutcome::Memo,
            });
        }
        let run = run_job(&specs[i], store, SimObserver::new());
        progress.point_done();
        let outcome = match run.outcome {
            CheckpointOutcome::Hit => JobOutcome::CacheHit,
            CheckpointOutcome::Miss => JobOutcome::CacheMiss,
            CheckpointOutcome::NoStore => JobOutcome::NoStore,
        };
        let load_note = run.load_note.map(|note| ("checkpoint-load", note));
        let persist_note = run.persist_note.map(|note| ("persist", note));
        let notes: Vec<_> = load_note.into_iter().chain(persist_note).collect();
        Ok(StageDone {
            value: Some(Simulated {
                point: PointMetrics::from_stats(&run.stats),
                metrics: Box::new(run.obs.metrics),
                clean: notes.is_empty(),
            }),
            notes,
            outcome,
        })
    });
    let mut memo = lock(&ctx.memo.0);
    let mut agg = SimMetrics::default();
    let out = specs
        .iter()
        .zip(results)
        .map(|(spec, r)| match r {
            Ok(Some(run)) => {
                if run.clean {
                    let entry = MemoEntry {
                        point: run.point,
                        metrics: run.metrics.pack(),
                    };
                    memo.insert(memo_key(spec), entry);
                }
                agg.merge(*run.metrics);
                run.point
            }
            Ok(None) => {
                let entry = &memo[&memo_key(spec)];
                agg.merge(SimMetrics::unpack(&entry.metrics));
                entry.point
            }
            Err(_) => PointMetrics::failed(),
        })
        .collect();
    let metrics = MetricsBlock::Exact(Box::new(agg));
    stages.finish(out, SamplingProvenance::Exact, metrics)
}

/// Where one group's windows come from: the warm pass this sweep ran,
/// which measured them on its way (with the pack it wrote to the store,
/// if it wrote one), or the group's interval checkpoints loaded from the
/// store, which its points restore.
enum GroupPass {
    Simulated {
        windows: Vec<Window>,
        pack: Option<WrittenPack>,
    },
    Loaded(Vec<(u64, vpr_snap::Snapshot)>),
}

/// The sampled stages: one warm pass per distinct point, then every
/// point estimated from its own configuration's windows — measured by
/// the pass itself when this sweep ran it, restored from the point's
/// interval checkpoints when the store held them. Identical points
/// (`--workload swim,swim`) form one group and share its pass. A warm
/// pass writes its checkpoints to the store as one pack inside its own
/// job; the calling thread files the packs' rows in group order and
/// writes the manifest once. The stages only read the manifest, so they
/// share the store without a lock.
fn run_sampled(
    mut stages: Stages,
    specs: &[JobSpec],
    exp: &ExperimentConfig,
    ctx: &SweepContext,
    store: Option<CheckpointStore>,
    progress: &Progress,
) -> SweepMetrics {
    let plan = ctx.effective_plan(exp).expect("sampled mode has a plan");
    let mut groups: Vec<&JobSpec> = Vec::new();
    let group_of: Vec<usize> = specs
        .iter()
        .map(|s| {
            groups.iter().position(|g| *g == s).unwrap_or_else(|| {
                groups.push(s);
                groups.len() - 1
            })
        })
        .collect();
    let group_labels = groups
        .iter()
        .map(|g| {
            let (workload, regs) = (g.workload.name(), g.physical_regs);
            format!("group:{workload}/{}@{regs}r", scheme_label(g.scheme))
        })
        .collect();

    // Stage 1: load (or generate) each group's interval set. A corrupt
    // on-disk set has already been quarantined by the loader; the
    // degradation note is surfaced and the group regenerates from its
    // warm pass — bit-identical, because the on-disk artefacts were
    // produced by the very same pass.
    let sets = stages.run("warm-pass", group_labels, |gi| {
        let g = groups[gi];
        let mut notes = Vec::new();
        if let Some(s) = &store {
            match s.load_interval_set(g.workload, g.scheme, g.physical_regs, exp, &plan) {
                Ok(set) => {
                    return Ok(StageDone {
                        value: GroupPass::Loaded(set),
                        notes,
                        outcome: JobOutcome::CacheHit,
                    });
                }
                // An unpopulated directory is the normal cold start, not a
                // fault.
                Err(CheckpointLoadError::Manifest(ManifestError::NotFound(_))) => {}
                Err(e) => notes.push(("checkpoint-load", e.to_string())),
            }
        }
        let generated =
            generate_checkpoints(g.workload, g.scheme, g.physical_regs, exp, Some(&plan));
        // Persist the pass just paid for, so the next sampled run reuses
        // it. A write failure never affects results — note and continue.
        let pack = store.as_ref().and_then(|s| {
            s.write_pack(&generated.checkpoints).unwrap_or_else(|e| {
                notes.push(("persist", format!("cannot write checkpoints: {e}")));
                None
            })
        });
        Ok(StageDone {
            value: GroupPass::Simulated {
                windows: generated.windows,
                pack,
            },
            notes,
            outcome: match store {
                Some(_) => JobOutcome::CacheMiss,
                None => JobOutcome::NoStore,
            },
        })
    });
    // A group that fails for good is reported by each of its points.
    stages.failures.retain(|f| f.recovered);

    // Stage 2: estimate every point from its group's windows, restoring
    // them serially into one machine when the set came from the store.
    // Points whose group pass failed are blocked without simulating. The
    // first point of each group "owns" the stage-1 pass (already counted
    // there); an identical later point reuses it.
    let shared = |i: usize| group_of[..i].contains(&group_of[i]);
    let results = stages.run("sample", specs.iter().map(JobSpec::label).collect(), |i| {
        let pass = sets[group_of[i]]
            .as_ref()
            .map_err(|f| ("warm-pass", f.clone()))?;
        let s = &specs[i];
        let (w, scheme, regs) = (s.workload, s.scheme, s.physical_regs);
        let report = match pass {
            GroupPass::Simulated { windows, .. } => {
                estimate_from_windows(w, scheme, regs, exp, &plan, windows.clone())
            }
            GroupPass::Loaded(set) => sample_from_checkpoints(w, scheme, regs, exp, &plan, set),
        };
        progress.point_done();
        Ok(StageDone {
            value: PointMetrics {
                ipc: report.ipc(),
                miss_ratio: report.miss_ratio(),
                executions_per_commit: report.executions_per_commit(),
            },
            notes: Vec::new(),
            outcome: if shared(i) {
                JobOutcome::SharedReuse
            } else {
                JobOutcome::NoStore
            },
        })
    });
    let out = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|_| PointMetrics::failed()))
        .collect();

    let all_from_disk = sets.iter().all(|r| matches!(r, Ok(GroupPass::Loaded(_))));
    // File the written packs in group order, so the manifest does not
    // depend on which job finished first, and write it once.
    if let Some(mut store) = store {
        let mut dirty = false;
        for pass in sets.into_iter().flatten() {
            if let GroupPass::Simulated {
                pack: Some(pack), ..
            } = pass
            {
                store.record(pack);
                dirty = true;
            }
        }
        if dirty {
            if let Err(e) = store.flush() {
                let error = format!("cannot write manifest: {e}");
                let point = store.dir.display().to_string();
                stages
                    .failures
                    .push(SweepFailure::recovered(point, "persist", error));
            }
        }
    }
    let provenance = SamplingProvenance::Sampled {
        plan,
        estimator: "per-phase-regression",
        seeded_from: if all_from_disk {
            "checkpoint-dir"
        } else {
            "warm-pass"
        },
        checkpoint_dir: ctx.checkpoint_dir.as_ref().map(|d| d.display().to_string()),
    };
    stages.finish(out, provenance, MetricsBlock::SampledUnavailable)
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

    #[test]
    fn only_identical_points_share_a_warm_pass() {
        let exp = ExperimentConfig {
            warmup: 200,
            measure: 2_000,
            ..ExperimentConfig::default()
        };
        let nrr32 = SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        );
        let nrr16 = SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalWriteback { nrr: 16 },
        );
        let swept = run_sweep_metrics(&[nrr32, nrr16, nrr32], &exp, &SweepContext::new(true, None));
        let passes: Vec<&str> = swept
            .telemetry
            .points
            .iter()
            .filter(|p| p.stage == "warm-pass")
            .map(|p| p.label.as_str())
            .collect();
        assert_eq!(
            passes,
            ["group:swim/vp-wb-nrr32@64r", "group:swim/vp-wb-nrr16@64r"]
        );
        assert_eq!(swept.telemetry.shared_reuse_hits, 1);
        assert_eq!(swept.points[0], swept.points[2]);
    }
}
