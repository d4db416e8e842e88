//! # vpr-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (§4.2) on the synthetic workload suite:
//!
//! | paper artefact | function | binary |
//! |----------------|----------|--------|
//! | Table 2 (IPC, conv vs VP write-back) | [`experiments::table2_in`] | `table2` |
//! | Figure 4 (write-back speedup vs NRR) | [`experiments::fig4_in`] | `fig4` |
//! | Figure 5 (issue speedup vs NRR) | [`experiments::fig5_in`] | `fig5` |
//! | Figure 6 (write-back vs issue) | [`experiments::fig6_in`] | `fig6` |
//! | Figure 7 (IPC vs register-file size) | [`experiments::fig7_in`] | `fig7` |
//!
//! Run e.g. `cargo run --release -p vpr-bench --bin table2`, or `--bin
//! all` for the whole evaluation. Binaries accept `--warmup`, `--measure`,
//! `--seed`, `--miss-penalty` and `--jobs` flags, plus `--json PATH` to
//! relocate their machine-readable artefact — and `--sampled`
//! (optionally with `--checkpoint-dir DIR`) to estimate every
//! configuration from checkpoint-seeded detailed windows instead of
//! simulating it full-length (see [`sampling`] and `docs/sampling.md`).
//!
//! ## The parallel sweep engine
//!
//! Every artefact above is a grid of independent `(benchmark, scheme,
//! registers)` simulations. The [`sweep`] module fans such grids out over
//! a dependency-free work-stealing thread pool (`vpr_core::par`) and
//! merges the results in submission order, so **sweep output is
//! byte-identical for every worker count** — `--jobs 1` (fully serial),
//! `--jobs N`, or the default `--jobs 0` (one worker per host core).
//! `tests/parallel_determinism.rs` enforces the contract.
//!
//! ## Machine-readable artefacts
//!
//! Each binary writes a JSON twin next to its text table (`table2.json`,
//! `fig4.json`–`fig7.json`, `eval.json` for `--bin all`, `probe.json`),
//! in versioned hand-written schemas (`vpr-bench-<artefact>/vN`) rendered
//! through `vpr_snap::json` — the build environment has no serde.
//!
//! The crate measures the *simulated* machine, not the host. Host time
//! is tracked by the benchmark in `perfbench/`; the simulator's work per
//! result is pinned exactly by the root `tests/exact_counts.rs` gate.
//!
//! ## Sampled simulation and checkpoint artefacts
//!
//! The [`sampling`] module estimates arbitrarily long runs from
//! **checkpoint-seeded** detailed windows: each window restores the exact
//! machine state from a `.vprsnap` interval checkpoint, and a per-phase
//! regression prices the gaps between windows. The [`checkpoints`] module
//! manages the artefacts: `--bin checkpoint` creates/inspects/verifies
//! checkpoint directories, the experiment binaries consume them via
//! `--checkpoint-dir`, and `--bin sample` reports the estimator's
//! accuracy against full-run references. Every JSON artefact records a
//! `sampling` provenance block, so sampled and exact results are never
//! confusable. The formats live in `docs/snapshot-format.md`, the
//! methodology in `docs/sampling.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoints;
pub mod experiments;
pub mod harness;
pub mod jobs;
pub mod sampling;
pub mod sweep;
pub mod table;
pub mod workloads;

pub use harness::{run_benchmark, run_benchmark_observed, ExperimentConfig};
pub use jobs::{execute_job, JobOutput, JobSpec};
pub use sampling::{sample_from_checkpoints, CheckpointedReport, SamplingPlan};
pub use sweep::{run_sweep_metrics, SweepContext, SweepPoint};
pub use table::Table;
pub use workloads::{Workload, WorkloadStream};

/// Extracts `flag VALUE` from `args` (mutating it), for flags the shared
/// [`ExperimentConfig::from_args`] parser does not know (e.g. `--json`).
///
/// # Panics
///
/// Exits the process with status 2 when the flag is present without a
/// value (binary CLI convention).
pub fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Extracts `--workload NAME[,NAME..]` from `args` (mutating it) and
/// parses each comma-separated entry with [`Workload::parse`] — synthetic
/// benchmark names (`swim`) and assembled programs (`asm:matmul`) mix
/// freely. `None` when the flag is absent, leaving the binary's default
/// workload set in force.
///
/// # Panics
///
/// Exits the process with status 2 on an unknown workload name (binary
/// CLI convention, matching [`take_flag_value`]).
pub fn take_workloads(args: &mut Vec<String>) -> Option<Vec<Workload>> {
    take_flag_value(args, "--workload").map(|list| {
        list.split(',')
            .map(|name| {
                Workload::parse(name.trim()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .collect()
    })
}

/// Extracts a boolean `flag` from `args` (mutating it); `true` when the
/// flag was present.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Writes a machine-readable artefact next to a binary's text output and
/// says so on stdout (the figure/table binaries all emit JSON alongside
/// their tables; pass `--json PATH` to relocate it).
pub fn write_json_artifact(path: &std::path::Path, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// The path an experiment's run-telemetry twin lives at: the artefact's
/// extension replaced by `run.telemetry.json` (`table2.json` →
/// `table2.run.telemetry.json`).
pub fn telemetry_path(json_path: &std::path::Path) -> std::path::PathBuf {
    json_path.with_extension("run.telemetry.json")
}

/// Writes a sweep's run-telemetry next to the experiment artefact at
/// `json_path`. Telemetry is host wall-clock data, deliberately kept in
/// its own file so the experiment JSON stays byte-reproducible across
/// runs and `--jobs` values; a write failure is reported but never fatal
/// (telemetry must not take an experiment down).
pub fn write_run_telemetry(json_path: &std::path::Path, telemetry: &vpr_obs::RunTelemetry) {
    let path = telemetry_path(json_path);
    match std::fs::write(&path, telemetry.to_json()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Writes the aggregated metric series as Prometheus text exposition
/// (the `--metrics-prom PATH` flag). Sampled sweeps carry no sound
/// full-run series; the file is then not written and a note says why.
pub fn write_prometheus_metrics(path: &std::path::Path, metrics: &sweep::MetricsBlock) {
    match metrics.to_prometheus() {
        Some(text) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
        None => eprintln!(
            "note: sampled sweeps export no metric series; {} not written",
            path.display()
        ),
    }
}
