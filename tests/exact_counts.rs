//! Exact-count gate: the noise-free half of performance tracking.
//!
//! Host timings are noisy; the work the simulator does to reach a result
//! is not. For {swim, go, `asm:matmul`, `asm:quicksort`} under every
//! renaming scheme at 64 registers and [`ExperimentConfig::quick`], this
//! runs the warm-up/window protocol through the stage profiler and pins,
//! at 0 % tolerance:
//!
//! * one row of `tests/golden/exact_counts.txt` per configuration: cycles,
//!   committed instructions, active steps and the event count of every
//!   pipeline [`Stage`], warm-up included. A kernel change that does more
//!   work for the same result (for example, a governor that stops skipping
//!   idle cycles) moves `steps` and the stage counts even when no simulated
//!   outcome changes;
//! * the full measurement-window [`SimStats`] of each synthetic
//!   configuration against `tests/golden/<benchmark>_<scheme>.txt`, so any
//!   change to a simulated outcome fails here;
//! * the observer's half of the zero-overhead contract: with
//!   [`SimObserver`] attached, each synthetic configuration gives the
//!   identical row and window statistics.
//!
//! To regenerate every file after an *intentional* change to the model
//! or the kernel:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test exact_counts
//! ```
//!
//! and review the diff like any other source change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use vpr::core::{
    NoObs, PipeObserver, Processor, RenameScheme, SimObserver, SimStats, Stage, StageProfile,
};
use vpr_bench::workloads::{scheme_label, THROUGHPUT_BENCHMARKS, THROUGHPUT_SCHEMES};
use vpr_bench::{ExperimentConfig, Workload};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn header() -> String {
    let mut line = format!(
        "{:<14} {:<27} {:>7} {:>7} {:>7}",
        "workload", "scheme", "cycles", "commit", "steps"
    );
    for stage in Stage::ALL {
        write!(line, " {:>11}", stage.name()).unwrap();
    }
    line
}

/// Warm-up, window reset, measurement: the protocol every exact job runs,
/// with the stage profiler accumulating over both phases. Returns the
/// configuration's count row and the window statistics.
fn run<O: PipeObserver>(
    workload: Workload,
    scheme: RenameScheme,
    exp: &ExperimentConfig,
    obs: O,
) -> (String, SimStats) {
    let config = vpr_bench::checkpoints::sim_config(scheme, 64, exp);
    let mut cpu = Processor::with_observer(config, workload.stream(exp.seed), obs);
    let mut prof = StageProfile::new();
    cpu.run_profiled(exp.warmup, &mut prof);
    cpu.reset_window();
    let stats = cpu.run_profiled(exp.measure, &mut prof);
    let mut row = format!(
        "{:<14} {:<27} {:>7} {:>7} {:>7}",
        workload.name(),
        scheme_label(scheme),
        cpu.cycle(),
        cpu.absolute_committed(),
        prof.steps
    );
    for stage in Stage::ALL {
        write!(row, " {:>11}", prof.stage(stage).events).unwrap();
    }
    (row, stats)
}

/// Reads a golden file, or writes `current` to it under `UPDATE_GOLDEN`.
/// Returns a failure message when the two differ.
fn check_golden(path: &Path, current: &str, update: bool) -> Option<String> {
    if update {
        std::fs::write(path, current).expect("write golden");
        return None;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    (golden != current).then(|| {
        format!(
            "{} diverged\n--- golden ---\n{golden}--- current ---\n{current}",
            path.display()
        )
    })
}

#[test]
fn counts_and_window_stats_match_goldens() {
    let exp = ExperimentConfig::quick();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let asm = ["asm:matmul", "asm:quicksort"].map(|name| Workload::parse(name).unwrap());
    let workloads = THROUGHPUT_BENCHMARKS
        .map(Workload::from)
        .into_iter()
        .chain(asm);

    let mut table = header() + "\n";
    let mut failures = Vec::new();
    for workload in workloads {
        for scheme in THROUGHPUT_SCHEMES {
            let (row, stats) = run(workload, scheme, &exp, NoObs);
            table += &row;
            table.push('\n');
            let Workload::Synthetic(benchmark) = workload else {
                continue;
            };
            let path = dir.join(format!("{}_{}.txt", benchmark.name(), scheme_label(scheme)));
            failures.extend(check_golden(&path, &format!("{stats:#?}\n"), update));
            let (observed_row, observed_stats) = run(workload, scheme, &exp, SimObserver::new());
            if (&observed_row, &observed_stats) != (&row, &stats) {
                failures.push(format!(
                    "attaching SimObserver changed the run\n  without: {row}\n  with:    \
                     {observed_row}\n  window stats equal: {}",
                    observed_stats == stats
                ));
            }
        }
    }
    failures.extend(check_golden(&dir.join("exact_counts.txt"), &table, update));
    assert!(
        failures.is_empty(),
        "exact counts violated in {} place(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
