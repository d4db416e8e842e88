//! The one job executor: [`execute_job`] (and its observer-carrying form,
//! [`execute_job_observed`]) is the only code that runs an exact sweep
//! point. The `vpr-serve` daemon calls it once per queued job and the
//! batch sweep ([`crate::sweep`]) runs each point through its
//! crate-private core, which keeps the full counters and tells load
//! faults from a failed deposit; so the daemon's results are
//! bit-identical to the batch tables by construction. A [`JobSpec`] names
//! the point and round-trips through the workspace's line-JSON wire
//! format.
//!
//! ### Warm checkpoints
//!
//! With a store, a job restores the point's warm checkpoint when present
//! and otherwise *deposits* one as a side effect of running: the first job
//! of a (workload, seed, scheme, warm-up) coordinate pays the warm pass,
//! and every later job — a later batch sweep over the same directory, or
//! another daemon tenant — restores it. Restored continuations are
//! bit-identical to uninterrupted runs (the `vpr-snap` contract), so the
//! store changes a job's cost, never its result. The store mutex is held
//! only around manifest lookups, artefact loads and writes, never across
//! a simulation.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::checkpoints::{
    checkpoint_key, config_hash, generate_checkpoints, sim_config, CheckpointLoadError,
    CheckpointOutcome, CheckpointStore, KIND_WARM,
};
use crate::sweep::PointMetrics;
use crate::workloads::{parse_scheme, scheme_label, Workload, WorkloadStream};
use crate::ExperimentConfig;
use vpr_core::{NoObs, PipeObserver, Processor, RenameScheme, SimStats};
use vpr_snap::json::{self, Value};
use vpr_snap::manifest::ManifestError;
use vpr_snap::Snapshot;

/// One unit of service work: a single sweep point plus the experiment
/// parameters it runs under. Two specs with equal fields produce
/// byte-identical results — the service's dedup and replay machinery
/// depends on nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// The workload (synthetic benchmark or assembled program).
    pub workload: Workload,
    /// The renaming scheme.
    pub scheme: RenameScheme,
    /// Physical (or virtual-physical) register-file size.
    pub physical_regs: usize,
    /// Warm-up/measurement lengths, seed, and miss penalty.
    pub exp: ExperimentConfig,
}

impl JobSpec {
    /// The job's stable label (`swim/vp-wb-nrr32@64r`), used for
    /// fault-injection matching, failure reports and run telemetry.
    pub fn label(&self) -> String {
        format!(
            "{}/{}@{}r",
            self.workload.name(),
            scheme_label(self.scheme),
            self.physical_regs
        )
    }

    /// Wire rendering: one JSON object (no newlines), parseable by
    /// [`JobSpec::from_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"scheme\": \"{}\", \"regs\": {}, \
             \"warmup\": {}, \"measure\": {}, \"seed\": {}, \"miss_penalty\": {}}}",
            json::escape(&self.workload.name()),
            json::escape(&scheme_label(self.scheme)),
            self.physical_regs,
            self.exp.warmup,
            self.exp.measure,
            self.exp.seed,
            self.exp.miss_penalty
        )
    }

    /// Parses the object produced by [`JobSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("job spec must be a JSON object")?;
        let field = |k: &str| obj.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let num = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("field `{k}` must be a non-negative integer"))
        };
        let workload = Workload::parse(
            field("workload")?
                .as_str()
                .ok_or("field `workload` must be a string")?,
        )?;
        let scheme = parse_scheme(
            field("scheme")?
                .as_str()
                .ok_or("field `scheme` must be a string")?,
        )?;
        Ok(Self {
            workload,
            scheme,
            physical_regs: num("regs")? as usize,
            exp: ExperimentConfig {
                warmup: num("warmup")?,
                measure: num("measure")?,
                seed: num("seed")?,
                miss_penalty: num("miss_penalty")?,
                jobs: 0,
            },
        })
    }
}

/// The terminal product of one job: the figure/table metrics plus how
/// the warm checkpoint store was used (the service's dedup accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The point metrics (all-NaN for a degraded job; see
    /// [`PointMetrics::failed`]).
    pub metrics: PointMetrics,
    /// Warm-checkpoint outcome: `Hit` means this job skipped its warm
    /// pass thanks to a previously deposited artefact.
    pub outcome: CheckpointOutcome,
    /// Degradation note (store trouble the job recovered around), if any.
    pub note: Option<String>,
}

impl JobOutput {
    /// Wire rendering: one JSON object carrying the metrics at full
    /// round-trip precision ([`json::shortest`] prints the shortest
    /// string that parses back to the same bits — the byte-identity tests
    /// compare through exactly this representation).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"ipc\": {}, \"miss_ratio\": {}, \"executions_per_commit\": {}, \"warm\": \"{}\"",
            json::shortest(self.metrics.ipc),
            json::shortest(self.metrics.miss_ratio),
            json::shortest(self.metrics.executions_per_commit),
            match &self.outcome {
                CheckpointOutcome::Hit => "hit",
                CheckpointOutcome::Miss => "miss",
                CheckpointOutcome::NoStore => "no-store",
            }
        );
        if let Some(note) = &self.note {
            s.push_str(&format!(", \"note\": \"{}\"", json::escape(note)));
        }
        s.push('}');
        s
    }

    /// Parses the object produced by [`JobOutput::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("job output must be a JSON object")?;
        let num = |k: &str| -> Result<f64, String> {
            match obj.get(k) {
                None => Err(format!("missing field `{k}`")),
                Some(Value::Null) => Ok(f64::NAN),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("field `{k}` must be a number or null")),
            }
        };
        let outcome = match obj.get("warm").and_then(Value::as_str) {
            Some("hit") => CheckpointOutcome::Hit,
            Some("miss") => CheckpointOutcome::Miss,
            _ => CheckpointOutcome::NoStore,
        };
        Ok(Self {
            metrics: PointMetrics {
                ipc: num("ipc")?,
                miss_ratio: num("miss_ratio")?,
                executions_per_commit: num("executions_per_commit")?,
            },
            outcome,
            note: obj.get("note").and_then(Value::as_str).map(str::to_string),
        })
    }
}

/// Locks the shared checkpoint store, recovering from poisoning: every
/// mutation under the lock is a whole-file write plus a manifest upsert,
/// so a job that panicked holding it left the store consistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Executes one job; [`execute_job_observed`] without an observer.
pub fn execute_job(spec: &JobSpec, store: Option<&Mutex<CheckpointStore>>) -> JobOutput {
    execute_job_observed(spec, store, NoObs).0
}

/// Executes one job with a lifecycle observer and returns the observer it
/// fed.
///
/// Without a store this is exactly [`crate::run_benchmark_observed`].
/// With a store, the job restores its warm checkpoint when one is present
/// and valid, and otherwise runs its warm pass through the checkpointing
/// path and **deposits** the artefact for later jobs; either way the
/// measurement window is the one the uninterrupted run would produce.
/// The observer is reset at the measurement-window boundary on every
/// path, so its metrics cover exactly the measured window too.
///
/// Only an absent checkpoint is silent. Every other store fault — a
/// stale or corrupt (quarantined) artefact, a snapshot that refuses to
/// restore, a failed deposit — adds to the output's note (several are
/// joined by `"; "`) and never changes the metrics or fails the job.
/// `O: Clone` because a failed restore consumes its observer.
pub fn execute_job_observed<O: PipeObserver + Clone>(
    spec: &JobSpec,
    store: Option<&Mutex<CheckpointStore>>,
    obs: O,
) -> (JobOutput, O) {
    let run = run_job(spec, store, obs);
    let notes: Vec<String> = run.load_note.into_iter().chain(run.persist_note).collect();
    let output = JobOutput {
        metrics: PointMetrics::from_stats(&run.stats),
        outcome: run.outcome,
        note: (!notes.is_empty()).then(|| notes.join("; ")),
    };
    (output, run.obs)
}

/// One executed job before [`execute_job_observed`] folds it into a
/// [`JobOutput`]: the window's full counters and fed observer, where the
/// warm state came from, and the store faults kept apart by kind — load
/// faults (stale, corrupt or unrestorable checkpoints, joined by `"; "` in
/// the order met) and a failed deposit — so the batch sweep reports each
/// under its own stage.
pub(crate) struct JobRun<O> {
    pub(crate) stats: SimStats,
    pub(crate) obs: O,
    pub(crate) outcome: CheckpointOutcome,
    pub(crate) load_note: Option<String>,
    pub(crate) persist_note: Option<String>,
}

/// The executor itself; see [`execute_job_observed`].
pub(crate) fn run_job<O: PipeObserver + Clone>(
    spec: &JobSpec,
    store: Option<&Mutex<CheckpointStore>>,
    obs: O,
) -> JobRun<O> {
    let uninterrupted = |obs: O| {
        crate::run_benchmark_observed(
            spec.workload,
            spec.scheme,
            spec.physical_regs,
            &spec.exp,
            obs,
        )
    };
    let done = |(stats, obs): (SimStats, O), outcome, notes: Vec<String>, persist_note| JobRun {
        stats,
        obs,
        outcome,
        load_note: (!notes.is_empty()).then(|| notes.join("; ")),
        persist_note,
    };
    let Some(store) = store else {
        return done(uninterrupted(obs), CheckpointOutcome::NoStore, vec![], None);
    };

    let config = sim_config(spec.scheme, spec.physical_regs, &spec.exp);
    let hash = config_hash(spec.workload, &config, spec.exp.seed);
    let key = checkpoint_key(
        spec.workload,
        spec.scheme,
        spec.physical_regs,
        &spec.exp,
        KIND_WARM,
        spec.exp.warmup,
    );
    let mut notes = Vec::new();

    // Manifest lookup and artefact load under the lock; simulation never is.
    let loaded = lock(store).load(&key, hash);
    match loaded {
        Ok((_, snapshot)) => match measure_restored(spec, &snapshot, obs.clone()) {
            Ok(measured) => return done(measured, CheckpointOutcome::Hit, notes, None),
            Err(e) => notes.push(format!("restore failed: {e}")),
        },
        Err(CheckpointLoadError::Manifest(ManifestError::NotFound(_))) => {}
        Err(e) => notes.push(e.to_string()),
    }

    // Warm-pass path: run the warm-up through the checkpointing pass,
    // continue the restored machine through the measurement window
    // (bit-identical to never pausing), and deposit the artefact.
    let generated = generate_checkpoints(
        spec.workload,
        spec.scheme,
        spec.physical_regs,
        &spec.exp,
        None,
    );
    let warm = generated
        .checkpoints
        .iter()
        .find(|g| g.key.kind == KIND_WARM)
        .expect("warm pass always yields a warm checkpoint");
    let measured = measure_restored(spec, &warm.snapshot, obs.clone()).unwrap_or_else(|e| {
        // A snapshot this process just took failing to restore is a bug,
        // but degrade rather than wedge: pay the full uninterrupted run.
        notes.push(format!("fresh warm snapshot failed to restore: {e}"));
        uninterrupted(obs)
    });
    let mut guard = lock(store);
    let saved = guard
        .save_all(&generated.checkpoints)
        .and_then(|()| guard.flush());
    let persist_note = saved
        .err()
        .map(|e| format!("checkpoint persist failed: {e}"));
    done(measured, CheckpointOutcome::Miss, notes, persist_note)
}

/// Restores `snapshot` onto a fresh stream of the job's workload and
/// measures the job's window, with `obs` reset at the window boundary.
fn measure_restored<O: PipeObserver>(
    spec: &JobSpec,
    snapshot: &Snapshot,
    obs: O,
) -> Result<(SimStats, O), vpr_snap::SnapError> {
    let fresh = spec.workload.stream(spec.exp.seed);
    let mut cpu = Processor::<WorkloadStream, O>::restore_with(snapshot, fresh, obs)?;
    cpu.reset_window();
    cpu.observer_mut().reset();
    let stats = cpu.run(spec.exp.measure);
    Ok((stats, cpu.into_observer()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_trace::Benchmark;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Benchmark::Swim.into(),
            scheme: RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            physical_regs: 64,
            exp: ExperimentConfig {
                warmup: 500,
                measure: 3_000,
                ..ExperimentConfig::quick()
            },
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let parsed = JobSpec::from_json(&json::parse(&s.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.label(), "swim/vp-wb-nrr32@64r");
        // Asm workloads exercise the `:`-bearing name path.
        let asm = JobSpec {
            workload: Workload::parse("asm:matmul").unwrap(),
            ..s
        };
        let parsed = JobSpec::from_json(&json::parse(&asm.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, asm);
    }

    #[test]
    fn spec_rejects_malformed_objects() {
        for bad in [
            "{}",
            "{\"workload\": \"swim\"}",
            "{\"workload\": \"nope\", \"scheme\": \"conventional\", \"regs\": 64, \
             \"warmup\": 1, \"measure\": 1, \"seed\": 1, \"miss_penalty\": 1}",
            "{\"workload\": \"swim\", \"scheme\": \"nope\", \"regs\": 64, \
             \"warmup\": 1, \"measure\": 1, \"seed\": 1, \"miss_penalty\": 1}",
        ] {
            assert!(
                JobSpec::from_json(&json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn output_round_trips_including_nan_degradation() {
        let out = JobOutput {
            metrics: PointMetrics {
                ipc: 1.2345678901234,
                miss_ratio: 0.0625,
                executions_per_commit: 1.0,
            },
            outcome: CheckpointOutcome::Miss,
            note: Some("checkpoint persist failed: disk full".into()),
        };
        let parsed = JobOutput::from_json(&json::parse(&out.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.metrics.ipc.to_bits(), out.metrics.ipc.to_bits());
        assert_eq!(
            parsed.note.as_deref(),
            Some("checkpoint persist failed: disk full")
        );

        let failed = JobOutput {
            metrics: PointMetrics::failed(),
            outcome: CheckpointOutcome::NoStore,
            note: None,
        };
        let parsed = JobOutput::from_json(&json::parse(&failed.to_json()).unwrap()).unwrap();
        assert!(parsed.metrics.is_failed());
    }

    #[test]
    fn execution_matches_batch_and_dedups_via_the_store() {
        let s = spec();
        let batch = execute_job(&s, None);
        assert!(matches!(batch.outcome, CheckpointOutcome::NoStore));

        let dir = std::env::temp_dir().join("vpr-bench-jobs-exec-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Mutex::new(CheckpointStore::open(&dir).unwrap());

        // First run: warm miss, deposits the artefact, matches batch bits.
        let first = execute_job(&s, Some(&store));
        assert!(
            matches!(first.outcome, CheckpointOutcome::Miss),
            "{:?}",
            first.outcome
        );
        assert_eq!(first.metrics.ipc.to_bits(), batch.metrics.ipc.to_bits());

        // Second run (another tenant): warm hit, identical bits.
        let second = execute_job(&s, Some(&store));
        assert!(
            matches!(second.outcome, CheckpointOutcome::Hit),
            "{:?}",
            second.outcome
        );
        assert_eq!(second.metrics.ipc.to_bits(), batch.metrics.ipc.to_bits());
        assert_eq!(
            second.metrics.executions_per_commit.to_bits(),
            batch.metrics.executions_per_commit.to_bits()
        );
        assert_eq!(
            second.metrics.miss_ratio.to_bits(),
            batch.metrics.miss_ratio.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
