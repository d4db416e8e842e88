//! Shared simulation driver for all experiments: the [`ExperimentConfig`]
//! every binary parses and the [`run_benchmark`] warm-up/measure driver.

use crate::workloads::Workload;
use vpr_core::{par, Processor, RenameScheme, SimStats};

/// How much to simulate and with which trace seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentConfig {
    /// Committed instructions to skip before measuring (the paper skips
    /// 100 M; the synthetic models reach steady state much sooner).
    pub warmup: u64,
    /// Committed instructions in the measurement window (the paper
    /// measures 50 M).
    pub measure: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// L1 miss penalty in cycles (the paper uses 50, with a 20-cycle
    /// sensitivity point for Table 2).
    pub miss_penalty: u64,
    /// Worker threads for sweeps (`0` = one per host core). Purely a
    /// host-side knob: sweep outputs are byte-identical for every value
    /// (see [`crate::sweep`]).
    pub jobs: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            warmup: 50_000,
            measure: 500_000,
            seed: 42,
            miss_penalty: 50,
            jobs: 0,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests, CI smoke runs and the exact-count
    /// gate (`tests/exact_counts.rs`).
    pub fn quick() -> Self {
        Self {
            warmup: 2_000,
            measure: 30_000,
            ..Self::default()
        }
    }

    /// The sweep worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            par::default_jobs()
        } else {
            self.jobs
        }
    }

    /// The parameters that decide a job's result, as run telemetry
    /// records them (everything but the host-side `jobs`).
    pub fn job_config(&self) -> vpr_obs::JobConfig {
        vpr_obs::JobConfig {
            warmup: self.warmup,
            measure: self.measure,
            seed: self.seed,
            miss_penalty: self.miss_penalty,
        }
    }

    /// Parses `--warmup N`, `--measure N`, `--seed N`, `--miss-penalty N`,
    /// `--jobs N` from a command line, starting from the defaults.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or unparsable values.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cfg = Self::default();
        cfg.apply_args(args)?;
        Ok(cfg)
    }

    /// Parses the shared experiment flags onto `self` (whatever base —
    /// [`ExperimentConfig::default`] or [`ExperimentConfig::quick`] — the
    /// caller started from). Binaries with extra flags take those out with
    /// [`crate::cli`] first and hand the rest here, so the flag set is
    /// parsed in exactly one place.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or unparsable values.
    pub fn apply_args<I: IntoIterator<Item = String>>(&mut self, args: I) -> Result<(), String> {
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<u64, String> {
                let text = it.next().ok_or_else(|| format!("{name} needs a value"))?;
                crate::cli::parse_number(name, &text)
            };
            match flag.as_str() {
                "--warmup" => self.warmup = take("--warmup")?,
                "--measure" => self.measure = take("--measure")?,
                "--seed" => self.seed = take("--seed")?,
                "--miss-penalty" => self.miss_penalty = take("--miss-penalty")?,
                "--jobs" => self.jobs = take("--jobs")? as usize,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(())
    }
}

/// Runs one workload (synthetic benchmark or assembled program) under one
/// scheme and register-file size, returning the measurement-window
/// statistics. Accepts anything convertible into a [`Workload`], so
/// `run_benchmark(Benchmark::Swim, ..)` call sites read unchanged.
pub fn run_benchmark(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
) -> SimStats {
    run_benchmark_observed(workload, scheme, physical_regs, exp, vpr_core::NoObs).0
}

/// [`run_benchmark`] with a lifecycle observer attached, returning both
/// the measurement-window statistics and the observer it fed.
///
/// The observer is reset at the measurement-window boundary, so its
/// metrics cover *exactly* the measured instructions — the same window
/// [`SimStats`] covers, and the same window a checkpoint-restored run
/// measures. [`run_benchmark`] is this with [`vpr_core::NoObs`], which
/// monomorphises every hook away (zero-overhead contract, see
/// `docs/observability.md`).
pub fn run_benchmark_observed<O: vpr_core::PipeObserver>(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    obs: O,
) -> (SimStats, O) {
    let workload = workload.into();
    let config = crate::checkpoints::sim_config(scheme, physical_regs, exp);
    let mut cpu = Processor::with_observer(config, workload.stream(exp.seed), obs);
    cpu.warm_up(exp.warmup);
    cpu.observer_mut().reset();
    let stats = cpu.run(exp.measure);
    (stats, cpu.into_observer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_trace::Benchmark;

    #[test]
    fn arg_parsing_round_trip() {
        let cfg = ExperimentConfig::from_args(
            ["--measure", "1000", "--seed", "7", "--miss-penalty", "20"].map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.measure, 1000);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.miss_penalty, 20);
        assert_eq!(cfg.warmup, ExperimentConfig::default().warmup);
        assert!(ExperimentConfig::from_args(["--bogus".to_string()]).is_err());
        assert!(ExperimentConfig::from_args(["--seed".to_string()]).is_err());
    }

    #[test]
    fn run_produces_sane_stats() {
        let exp = ExperimentConfig {
            warmup: 500,
            measure: 5_000,
            ..ExperimentConfig::default()
        };
        let s = run_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp);
        assert!(s.committed >= 5_000);
        assert!(s.ipc() > 0.1 && s.ipc() < 8.0);
    }
}
