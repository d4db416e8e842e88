//! Regenerates the paper's Figure 6: write-back vs issue allocation,
//! each at its optimal NRR (32), as speedups over conventional renaming.

use vpr_bench::cli::ExperimentArgs;
use vpr_bench::{experiments, Workload};

fn main() {
    let run = ExperimentArgs::from_env("fig6.json");
    let workloads = run.workloads.clone().unwrap_or_else(Workload::synthetic);
    println!("Figure 6 — write-back vs issue register allocation (NRR=32, 64 regs/file)\n");
    let f6 = experiments::fig6_for(&workloads, &run.exp, &run.ctx);
    print!("{}", f6.render());
    println!(
        "\nwrite-back wins on {:.0}% of benchmarks (paper: write-back significantly outperforms issue)",
        100.0 * f6.writeback_win_rate()
    );
    run.write(&f6.to_json(), &f6.telemetry, &f6.metrics);
}
