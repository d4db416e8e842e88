//! Regenerates the paper's Figure 5: speedup of the virtual-physical
//! scheme with **issue** allocation over the conventional scheme, for
//! NRR ∈ {1, 4, 8, 16, 24, 32} at 64 physical registers.

use vpr_bench::cli::ExperimentArgs;
use vpr_bench::{experiments, Workload};

fn main() {
    let run = ExperimentArgs::from_env("fig5.json");
    let workloads = run.workloads.clone().unwrap_or_else(Workload::synthetic);
    println!("Figure 5 — VP issue-allocation speedup vs NRR (64 regs/file)\n");
    let sweep = experiments::fig5_for(&workloads, &run.exp, &run.ctx);
    print!("{}", sweep.render());
    println!("\npaper: best NRR = 32 with a mean improvement of about 4%");
    run.write(&sweep.to_json(), &sweep.telemetry, &sweep.metrics);
}
