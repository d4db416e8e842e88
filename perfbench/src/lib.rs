//! # vpr-perfbench — the repository benchmark
//!
//! Three workloads, each run in a fresh process and in its own scratch
//! working directory, reaching the simulator only through its public API:
//!
//! * `eval` — the paper's evaluation as the `all` binary runs it (Table 2
//!   at miss penalty 50 and 20, Figures 4–7), exact, no checkpoint
//!   directory, one sweep worker per core;
//! * `sampled` — the Table 2 and `asm_eval` grids in checkpoint-seeded
//!   sampled mode, a cold pass on an empty checkpoint directory and then a
//!   warm pass restoring from it;
//! * `serve` — the `vpr-serve serve` daemon as a child process, driven by
//!   two closed-loop client connections submitting half-overlapping grids.
//!
//! Untraced runs report the end-to-end metrics of [`report::end_to_end`];
//! traced runs wrap each public call in a span and report the per-layer
//! metrics of [`report::per_layer`]. See `README.md` next to this crate.

#![forbid(unsafe_code)]

mod eval;
pub mod probes;
pub mod refs;
pub mod report;
mod sampled;
mod serve;
pub mod spans;
pub mod stats;
pub mod sys;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use report::Outcome;
use vpr_bench::ExperimentConfig;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full exact evaluation.
    Eval,
    /// Cold and warm checkpoint-seeded sampled grids.
    Sampled,
    /// The sweep daemon under two closed-loop tenants.
    Serve,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Eval, Workload::Sampled, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Eval => "eval",
            Workload::Sampled => "sampled",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much each simulation does. `Bench` is what the benchmark measures;
/// `Tiny` exists for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark scale.
    Bench,
    /// Test scale: the same code paths in a fraction of a second.
    Tiny,
}

impl Scale {
    /// The scale's name (reference files are keyed by it).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Tiny => "tiny",
        }
    }

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Bench, Scale::Tiny]
            .into_iter()
            .find(|x| x.name() == s)
    }

    /// Experiment configuration of the batch workloads (`eval`, `sampled`)
    /// for trace seed `seed`, with one sweep worker per core.
    pub fn experiment(self, seed: u64) -> ExperimentConfig {
        let (warmup, measure) = match self {
            Scale::Bench => (2_500, 25_000),
            Scale::Tiny => (300, 3_000),
        };
        ExperimentConfig {
            warmup,
            measure,
            seed,
            miss_penalty: 50,
            jobs: 0,
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed: picks the trace seed of the batch workloads and the
    /// round seeds of `serve`.
    pub seed: u64,
    /// How long the measured window lasts (at least one unit of work runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Simulation sizes.
    pub scale: Scale,
    /// The `vpr-serve` binary (required by `serve`).
    pub serve_bin: Option<PathBuf>,
    /// This benchmark's own binary (re-run to time process set-up).
    pub harness_bin: PathBuf,
}

/// Runs one workload in the current directory, which must be the run's
/// scratch working directory. Traced runs also write their spans to
/// `spans.json` there.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    out.notes.push(format!(
        "# perfbench {} seed={} seconds={} trace={} scale={} cores={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.scale.name(),
        vpr_core::par::default_jobs()
    ));
    match opts.workload {
        Workload::Eval => eval::run(opts, &mut out),
        Workload::Sampled => sampled::run(opts, &mut out),
        Workload::Serve => serve::run(opts, &mut out),
    }
    out
}

/// The reference documents of the batch workloads for trace seed `seed`
/// at `scale`, by reference name, computed by the current code.
pub fn reference_documents(scale: Scale, seed: u64) -> Vec<(&'static str, String)> {
    let mut docs = eval::references(scale, seed);
    docs.extend(sampled::references(scale, seed));
    docs
}

/// Set-ups timed per run for `setup_s` (process or daemon spawns); a set-up
/// takes milliseconds, so the median of many steadies it cheaply.
pub(crate) const SETUP_SPAWNS: usize = 15;

/// Seconds from spawning `bin --setup-probe <workload>` (in the current
/// directory) until it reports its first simulation call, `n` times.
///
/// # Errors
///
/// A probe that could not be spawned or did not report.
pub fn time_process_setup(
    bin: &Path,
    workload: Workload,
    scale: Scale,
    n: usize,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            let mut child = Command::new(bin)
                .args(["--setup-probe", workload.name(), "--scale", scale.name()])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let mut line = String::new();
            let read = BufReader::new(child.stdout.take().expect("piped stdout"))
                .read_line(&mut line)
                .map_err(|e| e.to_string());
            let elapsed = start.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| e.to_string())?;
            read?;
            if line.trim() != "ready" || !status.success() {
                return Err(format!("set-up probe failed: {status}, said {line:?}"));
            }
            Ok(elapsed)
        })
        .collect()
}

/// The set-up probe's body: everything a `workload` run does before its
/// first simulation call, ending with that call. Prints `ready`.
pub fn setup_probe(workload: Workload, scale: Scale) {
    use vpr_bench::checkpoints::{sim_config, CheckpointStore};
    use vpr_bench::sweep::SweepContext;
    let exp = scale.experiment(refs::REF_SEEDS[0]);
    let ctx = match workload {
        Workload::Sampled => SweepContext::new(true, Some(Path::new(sampled::CHECKPOINT_DIR))),
        _ => SweepContext::exact(),
    };
    ctx.try_validate(&exp).expect("benchmark plan is valid");
    if workload == Workload::Sampled {
        for w in vpr_bench::Workload::asm() {
            std::hint::black_box(w.stream(exp.seed));
        }
        let _ = CheckpointStore::open(Path::new(sampled::CHECKPOINT_DIR));
    }
    let first = vpr_bench::Workload::synthetic()[0];
    let config = sim_config(vpr_core::RenameScheme::Conventional, 64, &exp);
    let mut cpu = vpr_core::Processor::new(config, first.stream(exp.seed));
    std::hint::black_box(cpu.run(1));
    println!("ready");
}

/// Median of `xs`, or 0 for none.
pub(crate) fn median0(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Latencies of the sweep jobs of repeated units, kept per job: job `i` of
/// every unit is the same simulation, so its median over the repetitions
/// is that job's latency with short host stalls filtered out, and the
/// spread across jobs is what the percentiles describe.
#[derive(Debug, Default)]
pub(crate) struct JobLatencies {
    per_job: Vec<Vec<f64>>,
    /// Job executions recorded, repetitions included.
    pub(crate) total: usize,
}

impl JobLatencies {
    /// Adds one unit's job latencies, in the unit's job order.
    pub(crate) fn add(&mut self, unit: impl IntoIterator<Item = f64>) {
        for (i, s) in unit.into_iter().enumerate() {
            if i == self.per_job.len() {
                self.per_job.push(Vec::new());
            }
            self.per_job[i].push(s);
            self.total += 1;
        }
    }

    /// Each job's median latency.
    pub(crate) fn medians(&self) -> Vec<f64> {
        self.per_job.iter().map(|v| median0(v)).collect()
    }
}

/// Records `rtt_p50_s` and `rtt_tail_s` from latency samples, noting
/// which percentile the tail is and how many samples lie beyond it.
pub(crate) fn record_latencies(out: &mut Outcome, what: &str, samples: &[f64]) {
    out.set("rtt_p50_s", median0(samples));
    match stats::tail(samples) {
        Some(t) => {
            out.set("rtt_tail_s", t.value);
            out.notes.push(format!(
                "rtt_tail_s is p{} of {} {what} latencies ({} samples beyond it)",
                t.pct, t.n, t.beyond
            ));
        }
        None => {
            let max = samples.iter().copied().fold(0.0, f64::max);
            out.set("rtt_tail_s", max);
            out.notes.push(format!(
                "rtt_tail_s is the maximum of only {} {what} latencies (fewer than 20)",
                samples.len()
            ));
        }
    }
}
