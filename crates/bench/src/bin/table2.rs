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
//! `--check-exact PCT` (sampled mode only; without `--sampled` it is a
//! usage error before anything runs) also runs the exact table, prints
//! each configuration's exact and sampled IPC with the relative error,
//! and exits non-zero if any configuration's sampled IPC deviates by more
//! than `PCT` percent, or either scheme's harmonic-mean IPC by more than
//! half of `PCT` — the sampled-accuracy gate that CI runs.

use vpr_bench::cli::{self, ExperimentArgs};
use vpr_bench::experiments::{self, Table2};
use vpr_bench::workloads::{scheme_label, TABLE2_SCHEMES};
use vpr_bench::{SweepContext, Table, Workload};

fn main() {
    let mut args = cli::args();
    let check_exact: Option<f64> = cli::or_exit(cli::number(&mut args, "--check-exact"));
    let run = cli::or_exit(ExperimentArgs::parse(args, "table2.json"));
    if check_exact.is_some() && !run.ctx.is_sampled() {
        eprintln!("--check-exact requires --sampled");
        std::process::exit(2);
    }
    let (exp, ctx) = (&run.exp, &run.ctx);
    let workloads = run.workloads.clone().unwrap_or_else(Workload::synthetic);
    println!("Table 2 — conventional vs virtual-physical (write-back, NRR=32), 64 regs/file");
    println!(
        "(miss penalty {} cycles, {} warm-up + {} measured instructions, seed {}{})\n",
        exp.miss_penalty,
        exp.warmup,
        exp.measure,
        exp.seed,
        if ctx.is_sampled() {
            ", checkpoint-seeded sampling"
        } else {
            ""
        }
    );
    let t2 = experiments::table2_for(&workloads, exp, ctx);
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
    run.write(&t2.to_json(), &t2.telemetry, &t2.metrics);

    if let Some(bound) = check_exact {
        // The exact reference restores warm checkpoints when the directory
        // holds them (bit-identical to simulating the warm-up, and the
        // sampled sweep above just deposited them).
        let exact_ctx = SweepContext::new(false, ctx.checkpoint_dir.as_deref());
        check_against_exact(
            &t2,
            &experiments::table2_for(&workloads, exp, &exact_ctx),
            bound,
        );
    }
}

/// The sampled-accuracy gate: prints each configuration's sampled and
/// exact IPC, and exits 1 when any configuration is off by more than
/// `bound` percent, or either scheme's harmonic mean by more than half
/// of it.
fn check_against_exact(sampled: &Table2, exact: &Table2, bound: f64) {
    let mut table = Table::new(
        ["bench", "scheme", "exact IPC", "sampled IPC", "err %"]
            .map(String::from)
            .to_vec(),
    );
    let mut worst = 0.0f64;
    for (s, e) in sampled.rows.iter().zip(&exact.rows) {
        let [conv, vp] = TABLE2_SCHEMES;
        for (scheme, sv, ev) in [(conv, s.conv_ipc, e.conv_ipc), (vp, s.vp_ipc, e.vp_ipc)] {
            let err = (sv / ev - 1.0) * 100.0;
            worst = worst.max(err.abs());
            table.add_row(vec![
                s.workload.name(),
                scheme_label(scheme),
                format!("{ev:.3}"),
                format!("{sv:.3}"),
                format!("{err:+.2}"),
            ]);
        }
    }
    print!("{table}");
    let (sc, sv) = sampled.harmonic_means();
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
