//! Measures simulator throughput (sim-MIPS: simulated committed
//! instructions per host second) on the quick table2 workload under all
//! four renaming schemes, prints the sweep, and records it as
//! machine-readable `BENCH_throughput.json`.
//!
//! ```text
//! cargo run --release -p vpr-bench --bin throughput -- \
//!     [--out PATH] [--runs N] [--check BASELINE.json] [--tolerance PCT] \
//!     [--notes "TEXT"] [--profile] \
//!     [--warmup N] [--measure N] [--seed N] [--miss-penalty N] [--jobs N]
//! ```
//!
//! Each configuration is timed `--runs` times (default 3) and the fastest
//! wall-clock is kept — simulated results are deterministic, so the
//! repetitions only shed host scheduler noise. The whole grid is then run
//! once more through the parallel sweep engine for the `sweep` wall-clock
//! block of the report.
//!
//! `--check BASELINE.json` compares the fresh **host-calibrated**
//! throughput — `sim_mips_per_host_mops`, sim-MIPS per million host
//! reference operations per second — against the value recorded in an
//! earlier report, plus the same figure over the `go/*` rows only (the
//! mispredict-shadow workload the event-driven governor targets), and
//! exits non-zero when either regressed by more than `--tolerance`
//! percent (default 20). Normalising by the host calibration keeps
//! shared-runner load swings (±40 % raw sim-MIPS minute to minute) from
//! eating the tolerance: both the fresh run and the baseline carry their
//! own same-epoch calibration.
//!
//! `--profile` re-runs the grid once more in profiled mode (per-stage
//! host-ns attribution plus exact per-stage event counts) after the timed
//! sweep, prints a per-stage table, and embeds the figures in the JSON
//! report (schema v5's optional `profile` block). The profiled pass is
//! deliberately separate from the timed runs so the sim-MIPS figures stay
//! free of per-phase clock-read overhead.
//!
//! The default output path is `BENCH_throughput.json` in the current
//! directory; CI and PR authors check the file in so the repository keeps
//! a perf trajectory.

use vpr_bench::harness::{measure_throughput, profile_throughput, write_throughput_json};
use vpr_bench::{take_flag, take_flag_value, ExperimentConfig};
use vpr_core::Stage;

/// The baseline's gate figures: `(overall, go)` host-calibrated
/// throughput, read through the workspace's minimal JSON parser
/// (`vpr_snap::manifest`). The overall figure is read directly (schema
/// v3+); the `go` figure is read from v4 reports and derived from the
/// `go/*` run rows of older ones, so the gate can tighten without
/// invalidating the checked-in baseline.
fn baseline_figures(path: &std::path::Path) -> Result<(f64, f64), String> {
    let what = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{what}: {e}"))?;
    let doc = vpr_snap::json::parse(&text).map_err(|e| format!("{what}: {e}"))?;
    let root = doc
        .as_object()
        .ok_or_else(|| format!("{what}: not a JSON object"))?;
    let field_f64 = |name: &str| -> Result<f64, String> {
        root.get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{what}: no numeric {name} field"))
    };
    let overall = field_f64("sim_mips_per_host_mops")?;
    if let Ok(go) = field_f64("go_sim_mips_per_host_mops") {
        return Ok((overall, go));
    }
    // Pre-v4 baseline: harmonic-mean the go/* rows by hand.
    let mops = root
        .get("host_calibration")
        .and_then(|v| v.as_object())
        .and_then(|cal| cal.get("mops"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("{what}: no host_calibration.mops field"))?;
    let runs = root
        .get("runs")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{what}: no runs array"))?;
    let mut inv_sum = 0.0f64;
    let mut n = 0usize;
    for run in runs {
        let Some(run) = run.as_object() else { continue };
        let is_go = run
            .get("label")
            .and_then(|v| v.as_str())
            .is_some_and(|l| l.starts_with("go/"));
        if !is_go {
            continue;
        }
        let mips = run
            .get("sim_mips")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{what}: go row without sim_mips"))?;
        inv_sum += 1.0 / mips;
        n += 1;
    }
    if n == 0 || mops == 0.0 {
        return Err(format!("{what}: no go/* rows to derive the go gate from"));
    }
    Ok((overall, (n as f64 / inv_sum) / mops))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out: std::path::PathBuf = take_flag_value(&mut args, "--out")
        .map(Into::into)
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    let check: Option<std::path::PathBuf> = take_flag_value(&mut args, "--check").map(Into::into);

    let parse_num = |name: &str, v: Option<String>| -> Option<u64> {
        v.map(|v| {
            v.parse().unwrap_or_else(|e| {
                eprintln!("bad value for {name}: {e}");
                std::process::exit(2);
            })
        })
    };
    let runs_per_config = parse_num("--runs", take_flag_value(&mut args, "--runs"))
        .map_or(3usize, |n| (n as usize).max(1));
    let tolerance = parse_num("--tolerance", take_flag_value(&mut args, "--tolerance"))
        .map_or(20.0f64, |n| n as f64);
    let notes = take_flag_value(&mut args, "--notes");
    let profile = take_flag(&mut args, "--profile");
    // Remaining flags override the *quick* defaults: throughput tracking
    // wants a fast, standard workload, not the full-size experiment runs.
    let mut exp = ExperimentConfig::quick();
    if let Err(e) = exp.apply_args(args) {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let mut report = measure_throughput(&exp, runs_per_config);
    if let Some(notes) = notes {
        report.notes = notes;
    }
    println!(
        "simulator throughput (warmup {}, measure {}, seed {}, best of {}):",
        exp.warmup, exp.measure, exp.seed, runs_per_config
    );
    for run in &report.runs {
        println!(
            "  {:<36} {:>9.2} sim-MIPS  (ipc {:.3}, {:.3}s host)",
            run.label, run.sim_mips, run.ipc, run.host_seconds
        );
    }
    let harmonic = report.harmonic_mean_sim_mips();
    println!("  harmonic mean: {harmonic:.2} sim-MIPS");
    println!(
        "  host calibration: {:.1} Mops/s ({:.3}s for {} ops) -> {:.4} sim-MIPS per host-Mops",
        report.host.mops,
        report.host.seconds,
        report.host.ops,
        report.sim_mips_per_host_mops()
    );
    println!(
        "  parallel sweep: {} configs in {:.3}s wall with {} jobs ({:.3}s serial, {:.2}x)",
        report.runs.len(),
        report.sweep.wall_seconds,
        report.sweep.jobs,
        report.sweep.serial_seconds,
        report.sweep.serial_seconds / report.sweep.wall_seconds
    );

    if profile {
        let prof = profile_throughput(&exp);
        let total_ns = prof.total_ns().max(1);
        println!(
            "per-stage host-cost profile ({} active cycles over the grid):",
            prof.steps
        );
        println!(
            "  {:<12} {:>12} {:>12} {:>8} {:>10}",
            "stage", "host-ns", "events", "%host", "ns/event"
        );
        for stage in Stage::ALL {
            let rec = prof.stage(stage);
            let per_event = if rec.events == 0 {
                0.0
            } else {
                rec.ns as f64 / rec.events as f64
            };
            println!(
                "  {:<12} {:>12} {:>12} {:>7.1}% {:>10.1}",
                stage.name(),
                rec.ns,
                rec.events,
                100.0 * rec.ns as f64 / total_ns as f64,
                per_event
            );
        }
        report.profile = Some(prof);
    }

    if let Err(e) = write_throughput_json(&out, &report) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {}", out.display());

    if let Some(baseline_path) = check {
        let (base_overall, base_go) = baseline_figures(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot check against baseline: {e}");
            std::process::exit(2);
        });
        let mut failed = false;
        let gates = [
            ("overall", report.sim_mips_per_host_mops(), base_overall),
            ("go", report.go_sim_mips_per_host_mops(), base_go),
        ];
        for (name, fresh, baseline) in gates {
            let floor = baseline * (1.0 - tolerance / 100.0);
            println!(
                "throughput check ({name}, host-calibrated): {fresh:.4} vs baseline \
                 {baseline:.4} (floor {floor:.4}, tolerance {tolerance:.0}%)"
            );
            if fresh < floor {
                eprintln!(
                    "FAIL: {name} sim-MIPS-per-host-Mops {fresh:.4} regressed more than \
                     {tolerance:.0}% below the checked-in baseline {baseline:.4}"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("throughput check passed");
    }
}
