//! Regenerates the paper's Figure 7: IPC of the conventional and
//! virtual-physical (write-back) schemes for 48, 64 and 96 physical
//! registers per file (NRR = 16, 32 and 64 respectively).

use vpr_bench::cli::ExperimentArgs;
use vpr_bench::{experiments, Workload};

fn main() {
    let run = ExperimentArgs::from_env("fig7.json");
    let workloads = run.workloads.clone().unwrap_or_else(Workload::synthetic);
    println!("Figure 7 — IPC vs register-file size (conv vs VP write-back)\n");
    let f7 = experiments::fig7_for(&workloads, &run.exp, &run.ctx);
    print!("{}", f7.render());
    let imp = f7.mean_improvements_percent();
    println!(
        "\nmean improvement: 48 regs {:+.0}%, 64 regs {:+.0}%, 96 regs {:+.0}% (paper: +31/+19/+8)",
        imp[0], imp[1], imp[2]
    );
    let ipcs = f7.mean_ipcs();
    println!(
        "VP at 48 regs ({:.2}) vs conventional at 64 ({:.2}) — paper finds them about equal",
        ipcs[0].1, ipcs[1].0
    );
    run.write(&f7.to_json(), &f7.telemetry, &f7.metrics);
}
