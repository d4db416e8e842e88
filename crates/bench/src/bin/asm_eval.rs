//! Evaluates the rename schemes on **real programs**: every assembled
//! workload (`asm/*.s` via `vpr-exec`) plus two synthetic references runs
//! under all four schemes at 64 physical registers, and the table reports
//! per-scheme IPC and the virtual-physical write-back speedup, with
//! harmonic means split by workload group (assembled vs synthetic).
//!
//! ```text
//! cargo run --release -p vpr-bench --bin asm_eval -- [--measure N] [--warmup N]
//!     [--seed N] [--miss-penalty N] [--jobs N] [--json PATH]
//!     [--sampled] [--checkpoint-dir DIR] [--workload NAME[,NAME..]]
//! ```
//!
//! `--workload` replaces the default set (all assembled programs + swim +
//! go) with an explicit list; `--sampled` estimates each configuration
//! from checkpoint-seeded detailed windows exactly as the figure binaries
//! do. The JSON artefact (`asm_eval.json`, schema `vpr-bench-asm-eval/v1`)
//! records per-row IPCs and the per-group harmonic-mean speedups.

use vpr_bench::cli::ExperimentArgs;
use vpr_bench::experiments;

fn main() {
    let run = ExperimentArgs::from_env("asm_eval.json");
    let workloads = run
        .workloads
        .clone()
        .unwrap_or_else(experiments::asm_eval_workloads);
    println!("Assembled-program evaluation — all rename schemes, 64 regs/file\n");
    let eval = experiments::asm_eval_for(&workloads, &run.exp, &run.ctx);
    print!("{}", eval.render());
    let (asm, synth) = eval.group_speedups();
    if let (Some(asm), Some(synth)) = (asm, synth) {
        println!(
            "\nVP write-back harmonic-mean speedup: {asm:.3}x on assembled programs \
             vs {synth:.3}x on synthetic traces"
        );
    }
    run.write(&eval.to_json(), &eval.telemetry, &eval.metrics);
}
