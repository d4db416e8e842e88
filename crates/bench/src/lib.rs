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
//! | all four schemes on assembled programs | [`experiments::asm_eval_in`] | `asm_eval` |
//!
//! Each function returns an [`experiments::Experiment`] — its rows plus
//! the provenance, failures, metrics and telemetry every sweep records.
//! Run e.g. `cargo run --release -p vpr-bench --bin table2`, or `--bin
//! all` for the whole evaluation. The binaries share one driver,
//! [`cli::ExperimentArgs`]: they accept `--warmup`, `--measure`,
//! `--seed`, `--miss-penalty` and `--jobs` flags, plus `--json PATH` to
//! relocate their machine-readable artefact — and `--sampled`
//! (optionally with `--checkpoint-dir DIR`) to estimate every
//! configuration from checkpoint-seeded detailed windows instead of
//! simulating it full-length (see [`sampling`] and `docs/sampling.md`).
//! Every binary parses its command line with [`cli`].
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
//! `fig4.json`–`fig7.json`, `asm_eval.json`, `eval.json` for `--bin all`,
//! `probe.json`), in versioned hand-written schemas
//! (`vpr-bench-<artefact>/vN`) rendered through `vpr_snap::json` — the
//! build environment has no serde.
//!
//! The crate measures the *simulated* machine, not the host. Host time
//! is tracked by the benchmark in `perfbench/`; the simulator's work per
//! result is pinned exactly by the root `tests/exact_counts.rs` gate.
//!
//! ## Sampled simulation and checkpoint artefacts
//!
//! The [`sampling`] module estimates arbitrarily long runs from
//! **checkpoint-seeded** detailed windows: each window is an exact slice
//! of the uninterrupted run — measured by the warm pass that checkpoints
//! it, or restored from its `.vprsnap` interval checkpoint — and a
//! per-phase regression prices the gaps between windows. The [`checkpoints`] module
//! manages the artefacts: `--bin checkpoint` creates/inspects/verifies
//! checkpoint directories, the experiment binaries consume them via
//! `--checkpoint-dir`, and `table2 --sampled --check-exact PCT` gates the
//! estimator's accuracy against full-run references. Every JSON artefact
//! records a `sampling` provenance block, so sampled and exact results
//! are never confusable. The formats live in `docs/snapshot-format.md`,
//! the methodology in `docs/sampling.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoints;
pub mod cli;
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

/// The path an experiment's run-telemetry twin lives at: the artefact's
/// extension replaced by `run.telemetry.json` (`table2.json` →
/// `table2.run.telemetry.json`).
pub fn telemetry_path(json_path: &std::path::Path) -> std::path::PathBuf {
    json_path.with_extension("run.telemetry.json")
}
