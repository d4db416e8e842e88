//! Runs the complete evaluation — Table 2 and Figures 4-7 — and prints
//! each artefact, plus a Markdown rendering suitable for EXPERIMENTS.md.

use vpr_bench::cli::ExperimentArgs;
use vpr_bench::{experiments, ExperimentConfig};

fn main() {
    let run = ExperimentArgs::from_env("eval.json");
    if run.workloads.is_some() {
        // The evaluation's workload sets are fixed.
        eprintln!("unknown flag `--workload`");
        std::process::exit(2);
    }
    let (exp, ctx) = (run.exp, &run.ctx);
    println!(
        "# Full evaluation (warmup {}, measure {}, seed {}{})\n",
        exp.warmup,
        exp.measure,
        exp.seed,
        if ctx.is_sampled() { ", sampled" } else { "" }
    );

    println!("## Table 2 — conv vs VP write-back (NRR=32, 64 regs)\n");
    let t2 = experiments::table2_in(&exp, ctx);
    println!("{}", t2.render().to_markdown());
    println!(
        "mean improvement: {:+.0}% (paper: +19%)\n",
        t2.mean_improvement_percent()
    );

    let exp20 = ExperimentConfig {
        miss_penalty: 20,
        ..exp
    };
    let t2b = experiments::table2_in(&exp20, ctx);
    println!("### Table 2 variant — 20-cycle miss penalty\n");
    println!(
        "mean improvement: {:+.0}% (paper: +12%)\n",
        t2b.mean_improvement_percent()
    );

    println!("## Figure 4 — VP write-back speedup vs NRR\n");
    let f4 = experiments::fig4_in(&exp, ctx);
    println!("{}", f4.render().to_markdown());

    println!("## Figure 5 — VP issue speedup vs NRR\n");
    let f5 = experiments::fig5_in(&exp, ctx);
    println!("{}", f5.render().to_markdown());

    println!("## Figure 6 — write-back vs issue (NRR=32)\n");
    let f6 = experiments::fig6_in(&exp, ctx);
    println!("{}", f6.render().to_markdown());
    println!(
        "write-back win rate: {:.0}%\n",
        100.0 * f6.writeback_win_rate()
    );

    println!("## Figure 7 — IPC vs register-file size\n");
    let f7 = experiments::fig7_in(&exp, ctx);
    println!("{}", f7.render().to_markdown());
    let imp = f7.mean_improvements_percent();
    println!(
        "mean improvements: {:+.0}% / {:+.0}% / {:+.0}% for 48/64/96 regs (paper: +31/+19/+8)",
        imp[0], imp[1], imp[2]
    );

    // Combined machine-readable artefact: every table/figure JSON under
    // one roof, so EXPERIMENTS.md can be regenerated by CI.
    let indent = |j: &str| j.trim_end().replace('\n', "\n  ");
    let combined = format!(
        "{{\n  \"schema\": \"vpr-bench-eval/v4\",\n  \"table2\": {},\n  \"table2_miss_penalty_20\": {},\n  \"fig4\": {},\n  \"fig5\": {},\n  \"fig6\": {},\n  \"fig7\": {}\n}}\n",
        indent(&t2.to_json()),
        indent(&t2b.to_json()),
        indent(&f4.to_json()),
        indent(&f5.to_json()),
        indent(&f6.to_json()),
        indent(&f7.to_json()),
    );

    // One telemetry twin and one metric series for the whole evaluation:
    // fold the six sweeps together (integer-sum merges, so order only
    // affects nothing but the `jobs`/`wall_s` header fields).
    let (mut telemetry, mut metrics) = (t2.telemetry, t2.metrics);
    for (t, m) in [
        (t2b.telemetry, t2b.metrics),
        (f4.telemetry, f4.metrics),
        (f5.telemetry, f5.metrics),
        (f6.telemetry, f6.metrics),
        (f7.telemetry, f7.metrics),
    ] {
        telemetry.merge(t);
        metrics.merge(m);
    }
    run.write(&combined, &telemetry, &metrics);
}
