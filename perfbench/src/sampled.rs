//! The `sampled` workload: the Table 2 and `asm_eval` grids in
//! checkpoint-seeded sampled mode, twice per unit — a cold pass on an
//! empty checkpoint directory (warm passes, snapshot encoding, atomic
//! writes) and a warm pass restoring every checkpoint from disk.
//!
//! Why: here `vpr-snap` encode/decode, artefact I/O, `vpr_bench::sampling`
//! and the `vpr-exec` emulator do most of the work, where `eval` barely
//! touches them. The cold/warm split puts writes beside reads, and the
//! sampling error shows any speed bought with accuracy.

use std::path::Path;
use std::time::Instant;

use vpr_bench::experiments::{self, AsmEval, Table2};
use vpr_bench::sweep::SweepContext;
use vpr_bench::{ExperimentConfig, Workload};
use vpr_obs::{JobOutcome, RunTelemetry};
use vpr_snap::manifest::parse_json;

use crate::eval::{sweep_metrics, write_spans};
use crate::probes;
use crate::refs;
use crate::report::Outcome;
use crate::spans::{self, Tracer};
use crate::{median0, record_latencies, stats, sys, JobLatencies, Options};

/// The checkpoint directory, relative to the run's working directory.
pub(crate) const CHECKPOINT_DIR: &str = "checkpoints";

/// One cold + warm pass.
pub(crate) struct Unit {
    /// Cold-pass results.
    pub(crate) cold: (Table2, AsmEval),
    /// Warm-pass results.
    pub(crate) warm: (Table2, AsmEval),
    /// Wall seconds of the cold and the warm pass.
    pub(crate) cold_s: f64,
    pub(crate) warm_s: f64,
}

impl Unit {
    /// The four artefacts as one document (what the references record).
    pub(crate) fn json(&self) -> String {
        refs::combine(
            "vpr-perfbench-sampled/v1",
            &[
                ("cold_table2", self.cold.0.to_json()),
                ("cold_asm_eval", self.cold.1.to_json()),
                ("warm_table2", self.warm.0.to_json()),
                ("warm_asm_eval", self.warm.1.to_json()),
            ],
        )
    }

    fn telemetry(&self) -> [&RunTelemetry; 4] {
        [
            &self.cold.0.telemetry,
            &self.cold.1.telemetry,
            &self.warm.0.telemetry,
            &self.warm.1.telemetry,
        ]
    }

    fn failures(&self) -> usize {
        self.cold.0.failures.len()
            + self.cold.1.failures.len()
            + self.warm.0.failures.len()
            + self.warm.1.failures.len()
    }
}

fn pass(
    exp: &ExperimentConfig,
    ctx: &SweepContext,
    tr: &mut Option<&mut Tracer>,
) -> (Table2, AsmEval) {
    match tr {
        Some(t) => (
            t.time("fig.table2", || experiments::table2_in(exp, ctx)),
            t.time("fig.asm_eval", || experiments::asm_eval_in(exp, ctx)),
        ),
        None => (
            experiments::table2_in(exp, ctx),
            experiments::asm_eval_in(exp, ctx),
        ),
    }
}

/// Runs the cold and the warm pass on a fresh checkpoint directory, which
/// is left in place for the caller to inspect and remove.
pub(crate) fn unit(exp: &ExperimentConfig, mut tr: Option<&mut Tracer>) -> Unit {
    let dir = Path::new(CHECKPOINT_DIR);
    let _ = std::fs::remove_dir_all(dir);
    let ctx = SweepContext::new(true, Some(dir));
    let span = tr.as_mut().map(|t| t.begin("sampled.cold"));
    let t = Instant::now();
    let cold = pass(exp, &ctx, &mut tr);
    let cold_s = t.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tr.as_mut(), span) {
        t.end(id);
    }
    let span = tr.as_mut().map(|t| t.begin("sampled.warm"));
    let t = Instant::now();
    let warm = pass(exp, &ctx, &mut tr);
    let warm_s = t.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tr.as_mut(), span) {
        t.end(id);
    }
    Unit {
        cold,
        warm,
        cold_s,
        warm_s,
    }
}

/// The Table 2 pairs of every workload either grid runs: the model
/// counter mix.
fn model_mix() -> Vec<probes::Point> {
    let mut workloads = Workload::synthetic();
    workloads.extend(experiments::asm_eval_workloads());
    probes::table2_pairs(&workloads)
}

/// The artefact, exact-grid and model-counter references for `seed`.
pub(crate) fn references(scale: crate::Scale, seed: u64) -> Vec<(&'static str, String)> {
    let exp = scale.experiment(seed);
    let u = unit(&exp, None);
    let _ = std::fs::remove_dir_all(CHECKPOINT_DIR);
    let counters = probes::model_points(&model_mix(), &exp);
    vec![
        ("sampled", u.json()),
        ("sampled-exact", exact_json(&exp)),
        ("sampled-model", refs::counters_json(&counters)),
    ]
}

/// The exact (unsampled) grids the sampled estimates are judged against.
pub(crate) fn exact_json(exp: &ExperimentConfig) -> String {
    let ctx = SweepContext::exact();
    refs::combine(
        "vpr-perfbench-sampled-exact/v1",
        &[
            ("table2", experiments::table2_in(exp, &ctx).to_json()),
            ("asm_eval", experiments::asm_eval_in(exp, &ctx).to_json()),
        ],
    )
}

/// Worst per-point |IPC sampled − IPC exact| / IPC exact, in percent, over
/// both grids, against the recorded exact reference.
fn sample_err_pct(opts: &Options, exp: &ExperimentConfig, u: &Unit) -> Result<f64, String> {
    let p = refs::path(opts.scale, "sampled-exact", exp.seed);
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let doc = parse_json(&text).map_err(|e| e.to_string())?;
    let root = doc.as_object().ok_or("exact reference is not an object")?;
    let rows = |key: &str, fields: &[&str]| -> Result<Vec<f64>, String> {
        let arr = root
            .get(key)
            .and_then(|v| v.as_object())
            .and_then(|o| o.get("rows"))
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("exact reference lacks {key}.rows"))?;
        let mut out = Vec::new();
        for r in arr {
            let o = r.as_object().ok_or("row is not an object")?;
            for f in fields {
                out.push(o.get(f).and_then(|v| v.as_f64()).ok_or("missing IPC")?);
            }
        }
        Ok(out)
    };
    let exact: Vec<f64> = rows("table2", &["conv_ipc", "vp_ipc"])?
        .into_iter()
        .chain(rows(
            "asm_eval",
            &["conv_ipc", "early_ipc", "vp_issue_ipc", "vp_wb_ipc"],
        )?)
        .collect();
    let (t2, asm) = &u.cold;
    let sampled: Vec<f64> = t2
        .rows
        .iter()
        .flat_map(|r| [r.conv_ipc, r.vp_ipc])
        .chain(
            asm.rows
                .iter()
                .flat_map(|r| [r.conv_ipc, r.early_ipc, r.vp_issue_ipc, r.vp_wb_ipc]),
        )
        .collect();
    if exact.len() != sampled.len() {
        return Err("grid shape differs from the exact reference".into());
    }
    Ok(exact
        .iter()
        .zip(&sampled)
        .map(|(e, s)| 100.0 * (s - e).abs() / e)
        .fold(0.0, f64::max))
}

fn check(opts: &Options, exp: &ExperimentConfig, u: &Unit, out: &mut Outcome) {
    let json = u.json();
    let verdict = if u.failures() > 0 || json.contains("null") {
        Err(format!("{} sweep failures or NaN points", u.failures()))
    } else {
        refs::check(opts.scale, "sampled", exp.seed, &json)
    };
    let ok = verdict.is_ok();
    out.check(ok, || verdict.err().unwrap_or_default());
}

pub(crate) fn run(opts: &Options, out: &mut Outcome) {
    let exp = opts.scale.experiment(refs::trace_seed(opts.seed));
    out.notes.push(format!(
        "sampled: Table 2 + asm_eval grids, cold then warm, warmup {} measure {} trace seed {}",
        exp.warmup, exp.measure, exp.seed
    ));
    if opts.trace {
        traced(opts, &exp, out);
        return;
    }
    match crate::time_process_setup(
        &opts.harness_bin,
        opts.workload,
        opts.scale,
        crate::SETUP_SPAWNS,
    ) {
        Ok(s) => out.set("setup_s", median0(&s)),
        Err(e) => out.check(false, || e),
    }
    let start = Instant::now();
    let (mut walls, mut colds, mut warms, mut busy) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut jobs = JobLatencies::default();
    let mut points = 0usize;
    loop {
        let cpu = sys::cpu_seconds("self");
        let u = unit(&exp, None);
        busy.push(sys::cpu_seconds("self") - cpu);
        walls.push(u.cold_s + u.warm_s);
        colds.push(u.cold_s);
        warms.push(u.warm_s);
        check(opts, &exp, &u, out);
        points += 2 * (u.cold.0.rows.len() * 2 + u.cold.1.rows.len() * 4);
        // Per-point estimates only: warm-pass jobs are the other half of the
        // jobs and another kind of work, so with both the median falls on
        // the boundary between the two kinds.
        jobs.add(u.telemetry().into_iter().flat_map(|t| {
            t.points
                .iter()
                .filter(|p| p.stage == "sample")
                .map(|p| p.wall_s)
        }));
        if walls.len() == 1 {
            match sample_err_pct(opts, &exp, &u) {
                Ok(e) => out.notes.push(format!(
                    "sample_err_pct = {e} % (deterministic per trace seed)"
                )),
                Err(e) => out.check(false, || e),
            }
        }
        let _ = std::fs::remove_dir_all(CHECKPOINT_DIR);
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    out.notes.push(format!(
        "{} cold+warm units; cold_s median {} s, warm_s median {} s; unit walls {walls:?}",
        walls.len(),
        median0(&colds),
        median0(&warms)
    ));
    out.set("wall_s", stats::mean(&walls));
    out.set("busy_s", stats::mean(&busy));
    out.set("peak_rss_mb", sys::peak_rss_mib("self"));
    out.set("jobs_per_s", points as f64 / walls.iter().sum::<f64>());
    record_latencies(out, "sampled-point", &jobs.medians());
}

fn traced(opts: &Options, exp: &ExperimentConfig, out: &mut Outcome) {
    let plain = unit(exp, None);
    let untraced_s = plain.cold_s + plain.warm_s;
    check(opts, exp, &plain, out);
    let _ = std::fs::remove_dir_all(CHECKPOINT_DIR);

    let mut tr = Tracer::new(Instant::now());
    let root = tr.begin("sampled");
    let u = unit(exp, Some(&mut tr));
    tr.end(root);
    check(opts, exp, &u, out);
    let traced_s = u.cold_s + u.warm_s;
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    out.set("sampling.cold_s", u.cold_s);
    out.set("sampling.warm_s", u.warm_s);
    match sample_err_pct(opts, exp, &u) {
        Ok(e) => out.set("sampling.err_pct", e),
        Err(e) => out.check(false, || e),
    }

    let spans = tr.spans().to_vec();
    let selfs = spans::self_times(&spans);
    out.set(
        "fig.table2_s",
        spans::self_seconds(&spans, &selfs, "fig.table2"),
    );
    out.set(
        "fig.asm_eval_s",
        spans::self_seconds(&spans, &selfs, "fig.asm_eval"),
    );
    let tagged: Vec<(u64, RunTelemetry)> = u
        .telemetry()
        .into_iter()
        .map(|t| (exp.miss_penalty, t.clone()))
        .collect();
    sweep_metrics(&tagged, out);

    // Warm passes the cold pass actually ran (not found on disk), and the
    // detailed windows both passes simulated.
    let cold_tel = [&u.cold.0.telemetry, &u.cold.1.telemetry];
    let warm_pass_s: f64 = cold_tel
        .iter()
        .flat_map(|t| &t.points)
        .filter(|p| p.stage == "warm-pass" && p.outcome == JobOutcome::CacheMiss)
        .map(|p| p.wall_s)
        .sum();
    out.set("sampling.warm_pass_s", warm_pass_s);
    let ctx = SweepContext::new(true, Some(Path::new(CHECKPOINT_DIR)));
    let plan = ctx.effective_plan(exp).expect("sampled context has a plan");
    let samples: Vec<f64> = u
        .telemetry()
        .iter()
        .flat_map(|t| &t.points)
        .filter(|p| p.stage == "sample")
        .map(|p| p.wall_s)
        .collect();
    let windows = samples.len() * plan.intervals;
    out.set("sampling.windows", windows as f64);
    out.set(
        "sampling.window_s",
        samples.iter().sum::<f64>() / windows.max(1) as f64,
    );
    out.set("sampling.detailed_frac", plan.detailed_fraction());

    let dir = Path::new(CHECKPOINT_DIR);
    let (snap_bytes, files) = sys::dir_files(dir, ".vprsnap");
    let (all_bytes, _) = sys::dir_files(dir, "");
    out.set("ckpt.files_written", files as f64);
    out.set("ckpt.bytes_written", all_bytes as f64);
    out.notes.push(format!(
        "checkpoint directory: {files} snapshots, {snap_bytes} snapshot bytes, {all_bytes} bytes in all"
    ));
    probes::store_reads(dir, 4, out, &mut tr);
    let _ = std::fs::remove_dir_all(dir);

    let points = model_mix();
    let counters = probes::model_points(&points, exp);
    let verdict = refs::check(
        opts.scale,
        "sampled-model",
        exp.seed,
        &refs::counters_json(&counters),
    );
    probes::check_model(&counters, verdict, out);
    probes::layers(&points, exp, out, &mut tr);
    probes::journal_append(&crate::serve::probe_spec(exp), out, &mut tr);
    write_spans(&tr, out);
}
