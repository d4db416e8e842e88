//! Sampled-simulation accuracy report: estimates the quick table2
//! workload (all nine benchmarks under conventional and VP write-back
//! renaming, or an explicit `--workload` list that may include assembled
//! programs like `asm:matmul`) by checkpoint-seeded sampling — each
//! detailed window restores the exact machine state from an interval
//! checkpoint, the estimator behind `--sampled` experiment runs — and
//! compares against the uninterrupted full-run reference.
//!
//! ```text
//! cargo run --release -p vpr-bench --bin sample -- \
//!     [--json PATH] [--max-error PCT] [--checkpoint-dir DIR] \
//!     [--workload NAME[,NAME..]] [--intervals N] [--interval-measure N] \
//!     [--warmup N] [--measure N] [--seed N] [--miss-penalty N] [--jobs N]
//! ```
//!
//! With `--checkpoint-dir` the interval checkpoints are loaded from (and
//! persisted to) disk. `--max-error PCT` turns the run into a gate: exits
//! non-zero when any configuration's sampled IPC deviates from the full
//! run by more than `PCT` percent — the CI sampling-accuracy smoke step.

use vpr_bench::sampling::{accuracy_to_json, SamplingAccuracy, SamplingPlan};
use vpr_bench::sweep::{run_sweep_metrics, SweepContext, SweepPoint};
use vpr_bench::workloads::{Workload, TABLE2_SCHEMES};
use vpr_bench::{take_flag_value, take_workloads, write_json_artifact, ExperimentConfig, Table};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json: std::path::PathBuf = take_flag_value(&mut args, "--json")
        .map(Into::into)
        .unwrap_or_else(|| "sampling.json".into());
    let max_error: Option<f64> = take_flag_value(&mut args, "--max-error").map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("bad value for --max-error: {e}");
            std::process::exit(2);
        })
    });
    let workloads = take_workloads(&mut args).unwrap_or_else(Workload::synthetic);
    let checkpoint_dir: Option<std::path::PathBuf> =
        take_flag_value(&mut args, "--checkpoint-dir").map(Into::into);
    let parse_num = |name: &str, v: Option<String>| -> Option<u64> {
        v.map(|v| {
            v.parse().unwrap_or_else(|e| {
                eprintln!("bad value for {name}: {e}");
                std::process::exit(2);
            })
        })
    };
    let intervals = parse_num("--intervals", take_flag_value(&mut args, "--intervals"));
    let imeasure = parse_num(
        "--interval-measure",
        take_flag_value(&mut args, "--interval-measure"),
    );
    // Remaining flags override the *quick* defaults (applied onto the base,
    // so a flag explicitly set to a default value is still honoured); plan
    // overrides apply after the plan is derived from the experiment.
    let mut exp = ExperimentConfig::quick();
    if let Err(e) = exp.apply_args(args) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut plan = SamplingPlan::for_experiment(&exp);
    if let Some(n) = intervals {
        plan.intervals = n as usize;
    }
    if let Some(m) = imeasure {
        plan.detailed_measure = m;
    }
    if let Err(e) = plan.try_validate() {
        eprintln!("invalid sampling plan: {e}");
        std::process::exit(2);
    }

    let rows = evaluate(&workloads, &exp, &plan, checkpoint_dir.as_deref());

    let mut table = Table::new(
        ["bench", "scheme", "full IPC", "sampled IPC", "err %"]
            .map(String::from)
            .to_vec(),
    );
    for r in &rows {
        table.add_row(vec![
            r.workload.name(),
            vpr_bench::workloads::scheme_label(r.scheme),
            format!("{:.3}", r.full_ipc),
            format!("{:.3}", r.sampled_ipc),
            format!("{:+.2}", r.ipc_error_percent()),
        ]);
    }
    println!(
        "sampled simulation (checkpoint-seeded): {} intervals x {} detailed commits \
         ({:.1}% of the full run in detailed mode)",
        plan.intervals,
        plan.detailed_measure,
        plan.detailed_fraction() * 100.0
    );
    print!("{table}");
    let worst = rows
        .iter()
        .map(|r| r.ipc_error_percent().abs())
        .fold(0.0f64, f64::max);
    println!("worst |IPC error|: {worst:.2}%");

    write_json_artifact(&json, &accuracy_to_json(&rows, &plan));

    if let Some(bound) = max_error {
        if worst > bound {
            eprintln!("FAIL: sampled IPC error {worst:.2}% exceeds the {bound:.2}% bound");
            std::process::exit(1);
        }
        println!("sampling accuracy check passed (bound {bound:.2}%)");
    }
}

/// Exact and sampled table2-grid sweeps side by side (the sampled sweep
/// loads/persists `.vprsnap` interval checkpoints when a directory is
/// given).
fn evaluate(
    workloads: &[Workload],
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    dir: Option<&std::path::Path>,
) -> Vec<SamplingAccuracy> {
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|&w| TABLE2_SCHEMES.iter().map(move |&s| SweepPoint::at64(w, s)))
        .collect();
    let exact = run_sweep_metrics(&points, exp, &SweepContext::exact());
    let mut ctx = SweepContext::new(true, dir);
    ctx.plan = Some(*plan);
    let sampled = run_sweep_metrics(&points, exp, &ctx);
    points
        .iter()
        .zip(exact.points.iter().zip(&sampled.points))
        .map(|(p, (e, s))| SamplingAccuracy {
            workload: p.workload,
            scheme: p.scheme,
            full_ipc: e.ipc,
            sampled_ipc: s.ipc,
            full_miss_ratio: e.miss_ratio,
            sampled_miss_ratio: s.miss_ratio,
        })
        .collect()
}
