//! Regenerates the paper's Table 2: committed IPC of the conventional and
//! virtual-physical (write-back allocation, NRR = 32) schemes at 64
//! physical registers per file.
//!
//! ```text
//! cargo run --release -p vpr-bench --bin table2 -- [--measure N] [--warmup N]
//!     [--seed N] [--miss-penalty N] [--jobs N] [--json PATH]
//!     [--sampled] [--checkpoint-dir DIR] [--check-exact PCT]
//!     [--workload NAME[,NAME..]]
//! ```
//!
//! `--workload` replaces the default nine-benchmark synthetic suite with
//! an explicit list; assembled programs (`asm:matmul`) mix freely with
//! synthetic names (`swim`). Paper-reference columns show `—` for
//! workloads the paper did not measure.
//!
//! `--sampled` estimates every configuration from checkpoint-seeded
//! detailed windows instead of simulating it full-length; with
//! `--checkpoint-dir` the interval checkpoints are loaded from (or, when
//! absent, deposited into) a `.vprsnap` directory so the warm serial pass
//! is paid once and shared across runs. Without `--sampled`, the
//! directory does the same for each point's warm checkpoint. The JSON
//! artefact records the mode in its `sampling` block either way.
//!
//! `--check-exact PCT` (sampled mode) also runs the exact table and exits
//! non-zero if any configuration's sampled IPC deviates by more than
//! `PCT` percent, or either scheme's harmonic-mean IPC by more than half
//! of `PCT` — the CI `--sampled` smoke gate.

use vpr_bench::sweep::SweepContext;
use vpr_bench::{
    experiments, take_flag, take_flag_value, take_workloads, write_json_artifact,
    write_prometheus_metrics, write_run_telemetry, ExperimentConfig, Workload,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag_value(&mut args, "--json").unwrap_or_else(|| "table2.json".into());
    let sampled = take_flag(&mut args, "--sampled");
    let checkpoint_dir: Option<std::path::PathBuf> =
        take_flag_value(&mut args, "--checkpoint-dir").map(Into::into);
    let metrics_prom = take_flag_value(&mut args, "--metrics-prom");
    let workloads = take_workloads(&mut args).unwrap_or_else(Workload::synthetic);
    let check_exact: Option<f64> = take_flag_value(&mut args, "--check-exact").map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("bad value for --check-exact: {e}");
            std::process::exit(2);
        })
    });
    let exp = ExperimentConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let ctx = SweepContext::new(sampled, checkpoint_dir.as_deref());
    if let Err(e) = ctx.try_validate(&exp) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    println!("Table 2 — conventional vs virtual-physical (write-back, NRR=32), 64 regs/file");
    println!(
        "(miss penalty {} cycles, {} warm-up + {} measured instructions, seed {}{})\n",
        exp.miss_penalty,
        exp.warmup,
        exp.measure,
        exp.seed,
        if sampled {
            ", checkpoint-seeded sampling"
        } else {
            ""
        }
    );
    let t2 = experiments::table2_for(&workloads, &exp, &ctx);
    print!("{}", t2.render());
    let mean_reexec: f64 = t2
        .rows
        .iter()
        .map(|r| r.vp_executions_per_commit)
        .sum::<f64>()
        / t2.rows.len() as f64;
    println!(
        "\nmean executions per committed instruction (VP write-back): {mean_reexec:.2} (paper: 3.3)"
    );
    write_json_artifact(std::path::Path::new(&json), &t2.to_json());
    write_run_telemetry(std::path::Path::new(&json), &t2.telemetry);
    if let Some(p) = metrics_prom {
        write_prometheus_metrics(std::path::Path::new(&p), &t2.metrics);
    }

    if let Some(bound) = check_exact {
        if !sampled {
            eprintln!("--check-exact requires --sampled");
            std::process::exit(2);
        }
        // The exact reference restores warm checkpoints when the directory
        // holds them (bit-identical to simulating the warm-up, and the
        // sampled sweep above just deposited them).
        let exact = experiments::table2_for(
            &workloads,
            &exp,
            &SweepContext::new(false, checkpoint_dir.as_deref()),
        );
        let mut worst = 0.0f64;
        for (s, e) in t2.rows.iter().zip(&exact.rows) {
            for (sv, ev) in [(s.conv_ipc, e.conv_ipc), (s.vp_ipc, e.vp_ipc)] {
                worst = worst.max(((sv / ev - 1.0) * 100.0).abs());
            }
        }
        let (sc, sv) = t2.harmonic_means();
        let (ec, ev) = exact.harmonic_means();
        let hm_worst = ((sc / ec - 1.0) * 100.0)
            .abs()
            .max(((sv / ev - 1.0) * 100.0).abs());
        println!(
            "sampled vs exact: worst per-config |IPC error| {worst:.2}%, \
             worst harmonic-mean |error| {hm_worst:.2}%"
        );
        if worst > bound || hm_worst > bound / 2.0 {
            eprintln!(
                "FAIL: sampled table2 off by {worst:.2}% per-config / {hm_worst:.2}% \
                 harmonic-mean (bounds {bound:.2}% / {:.2}%)",
                bound / 2.0
            );
            std::process::exit(1);
        }
        println!(
            "sampled table2 within bounds ({bound:.2}% per-config, {:.2}% harmonic-mean)",
            bound / 2.0
        );
    }
}
