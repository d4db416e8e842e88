//! Regenerates the paper's Figure 4: speedup of the virtual-physical
//! scheme with **write-back** allocation over the conventional scheme,
//! for NRR ∈ {1, 4, 8, 16, 24, 32} at 64 physical registers.

use vpr_bench::cli::ExperimentArgs;
use vpr_bench::{experiments, Workload};

fn main() {
    let run = ExperimentArgs::from_env("fig4.json");
    let workloads = run.workloads.clone().unwrap_or_else(Workload::synthetic);
    println!("Figure 4 — VP write-back speedup vs NRR (64 regs/file)\n");
    let sweep = experiments::fig4_for(&workloads, &run.exp, &run.ctx);
    print!("{}", sweep.render());
    println!("\npaper: FP best at NRR=24-32 (mean 1.3); tiny NRR can lose to conventional");
    run.write(&sweep.to_json(), &sweep.telemetry, &sweep.metrics);
}
