//! The `eval` workload: the paper's whole evaluation, exact, the way the
//! `all` binary runs it.
//!
//! Why: users regenerate this grid most. The `vpr-core` kernel and the
//! `vpr-trace` generators do nearly all the work; 72 of its 243 jobs repeat
//! a point another figure already computed. No snapshot, disk, emulator or
//! service work happens here.

use std::time::Instant;

use vpr_bench::experiments;
use vpr_bench::sweep::{MetricsBlock, SweepContext};
use vpr_bench::{ExperimentConfig, Workload};
use vpr_obs::RunTelemetry;

use crate::probes;
use crate::refs;
use crate::report::Outcome;
use crate::spans::{self, Tracer};
use crate::{median0, record_latencies, stats, sys, JobLatencies, Options};

/// Artefact the evaluation writes, as `all` does.
const ARTEFACT: &str = "eval.json";

/// One evaluation's results.
struct Unit {
    /// The combined artefact JSON (`vpr-bench-eval/v4`).
    json: String,
    /// The six sweeps' run telemetry, each with its miss penalty.
    telemetry: Vec<(u64, RunTelemetry)>,
    /// Merged simulated-machine metrics of the six sweeps.
    metrics: MetricsBlock,
    /// Table 2 point IPCs (miss penalty 50).
    table2_ipcs: Vec<f64>,
    /// Sweep failures across all figures.
    failures: usize,
    /// Artefact write error, if any.
    write_error: Option<String>,
}

fn timed<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Runs Table 2 (miss penalty 50 and 20) and Figures 4–7, then writes the
/// combined artefact and its telemetry twin.
fn unit(exp: &ExperimentConfig, mut tr: Option<&mut Tracer>) -> Unit {
    let ctx = SweepContext::exact();
    let exp20 = ExperimentConfig {
        miss_penalty: 20,
        ..*exp
    };
    let t2 = timed(&mut tr, "fig.table2", || experiments::table2_in(exp, &ctx));
    let t2b = timed(&mut tr, "fig.table2_mp20", || {
        experiments::table2_in(&exp20, &ctx)
    });
    let f4 = timed(&mut tr, "fig.fig4", || experiments::fig4_in(exp, &ctx));
    let f5 = timed(&mut tr, "fig.fig5", || experiments::fig5_in(exp, &ctx));
    let f6 = timed(&mut tr, "fig.fig6", || experiments::fig6_in(exp, &ctx));
    let f7 = timed(&mut tr, "fig.fig7", || experiments::fig7_in(exp, &ctx));

    let json = refs::combine(
        "vpr-bench-eval/v4",
        &[
            ("table2", t2.to_json()),
            ("table2_miss_penalty_20", t2b.to_json()),
            ("fig4", f4.to_json()),
            ("fig5", f5.to_json()),
            ("fig6", f6.to_json()),
            ("fig7", f7.to_json()),
        ],
    );
    let telemetry = vec![
        (exp.miss_penalty, t2.telemetry),
        (20, t2b.telemetry),
        (exp.miss_penalty, f4.telemetry),
        (exp.miss_penalty, f5.telemetry),
        (exp.miss_penalty, f6.telemetry),
        (exp.miss_penalty, f7.telemetry),
    ];
    let mut merged = RunTelemetry::default();
    for (_, t) in &telemetry {
        merged.merge(t.clone());
    }
    let path = std::path::Path::new(ARTEFACT);
    let write_error = timed(&mut tr, "bench.artefact_write", || {
        std::fs::write(path, &json)
            .and_then(|()| std::fs::write(vpr_bench::telemetry_path(path), merged.to_json()))
            .err()
            .map(|e| format!("write {ARTEFACT}: {e}"))
    });
    let mut metrics = t2.metrics;
    for m in [t2b.metrics, f4.metrics, f5.metrics, f6.metrics, f7.metrics] {
        metrics.merge(m);
    }
    Unit {
        json,
        telemetry,
        metrics,
        table2_ipcs: t2
            .rows
            .iter()
            .flat_map(|r| [r.conv_ipc, r.vp_ipc])
            .collect(),
        failures: t2.failures.len()
            + t2b.failures.len()
            + f4.failures.len()
            + f5.failures.len()
            + f6.failures.len()
            + f7.failures.len(),
        write_error,
    }
}

/// The artefact and model-counter references for `seed`.
pub(crate) fn references(scale: crate::Scale, seed: u64) -> Vec<(&'static str, String)> {
    let u = unit(&scale.experiment(seed), None);
    let mut docs = vec![("eval", u.json.clone())];
    if let MetricsBlock::Exact(m) = &u.metrics {
        let counters = probes::model_counters(m, &u.table2_ipcs);
        docs.push(("eval-model", refs::counters_json(&counters)));
    }
    docs
}

/// Counts the unit's artefact as one checked operation.
fn check(opts: &Options, exp: &ExperimentConfig, u: &Unit, out: &mut Outcome) {
    let verdict = if let Some(e) = &u.write_error {
        Err(e.clone())
    } else if u.failures > 0 || u.json.contains("null") {
        Err(format!("{} sweep failures or NaN points", u.failures))
    } else {
        refs::check(opts.scale, "eval", exp.seed, &u.json)
    };
    let ok = verdict.is_ok();
    out.check(ok, || verdict.err().unwrap_or_default());
}

pub(crate) fn run(opts: &Options, out: &mut Outcome) {
    let exp = opts.scale.experiment(refs::trace_seed(opts.seed));
    out.notes.push(format!(
        "eval: Table 2 (mp 50, 20) + Figures 4-7, exact, warmup {} measure {} trace seed {}",
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
    let (mut walls, mut busy) = (Vec::new(), Vec::new());
    let mut jobs = JobLatencies::default();
    loop {
        let cpu = sys::cpu_seconds("self");
        let t = Instant::now();
        let u = unit(&exp, None);
        walls.push(t.elapsed().as_secs_f64());
        busy.push(sys::cpu_seconds("self") - cpu);
        check(opts, &exp, &u, out);
        jobs.add(
            u.telemetry
                .iter()
                .flat_map(|(_, tel)| tel.points.iter().map(|p| p.wall_s)),
        );
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    out.notes.push(format!(
        "{} evaluations, {} jobs; unit walls {walls:?}",
        walls.len(),
        jobs.total
    ));
    out.set("wall_s", stats::mean(&walls));
    out.set("busy_s", stats::mean(&busy));
    out.set("peak_rss_mb", sys::peak_rss_mib("self"));
    out.set("jobs_per_s", jobs.total as f64 / walls.iter().sum::<f64>());
    record_latencies(out, "sweep-job", &jobs.medians());
}

fn traced(opts: &Options, exp: &ExperimentConfig, out: &mut Outcome) {
    let t = Instant::now();
    let plain = unit(exp, None);
    let untraced_s = t.elapsed().as_secs_f64();
    check(opts, exp, &plain, out);

    let mut tr = Tracer::new(Instant::now());
    let root = tr.begin("eval");
    let u = unit(exp, Some(&mut tr));
    tr.end(root);
    check(opts, exp, &u, out);
    let traced_s = tr.spans()[root].dur_ns() as f64 * 1e-9;
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );

    let spans = tr.spans().to_vec();
    let selfs = spans::self_times(&spans);
    for (metric, span) in [
        ("fig.table2_s", "fig.table2"),
        ("fig.table2_mp20_s", "fig.table2_mp20"),
        ("fig.fig4_s", "fig.fig4"),
        ("fig.fig5_s", "fig.fig5"),
        ("fig.fig6_s", "fig.fig6"),
        ("fig.fig7_s", "fig.fig7"),
    ] {
        out.set(metric, spans::self_seconds(&spans, &selfs, span));
    }
    out.set(
        "bench.artefact_write_ms",
        1e3 * spans::self_seconds(&spans, &selfs, "bench.artefact_write"),
    );
    sweep_metrics(&u.telemetry, out);

    if let MetricsBlock::Exact(m) = &u.metrics {
        let counters = probes::model_counters(m, &u.table2_ipcs);
        let verdict = refs::check(
            opts.scale,
            "eval-model",
            exp.seed,
            &refs::counters_json(&counters),
        );
        probes::check_model(&counters, verdict, out);
    }
    let points = probes::table2_pairs(&Workload::synthetic());
    probes::layers(&points, exp, out, &mut tr);
    probes::journal_append(&crate::serve::probe_spec(exp), out, &mut tr);
    write_spans(&tr, out);
}

/// `sweep.*` metrics from sweeps' run telemetry, each tagged with the miss
/// penalty it ran at (a point is the same job only at the same penalty).
pub(crate) fn sweep_metrics(telemetry: &[(u64, RunTelemetry)], out: &mut Outcome) {
    let mut merged = RunTelemetry::default();
    let mut keys: Vec<(String, &str, u64)> = Vec::new();
    for (mp, t) in telemetry {
        keys.extend(t.points.iter().map(|p| (p.label.clone(), p.stage, *mp)));
        merged.merge(t.clone());
    }
    let jobs = keys.len();
    keys.sort_unstable();
    keys.dedup();
    out.set("sweep.jobs", jobs as f64);
    out.set("sweep.unique_frac", keys.len() as f64 / jobs.max(1) as f64);
    let walls: Vec<f64> = merged.points.iter().map(|p| p.wall_s).collect();
    let waits: Vec<f64> = merged.points.iter().map(|p| p.queue_wait_s).collect();
    out.set("sweep.job_s_p50", median0(&walls));
    out.set("sweep.queue_wait_s", median0(&waits));
    out.set("sweep.worker_util", merged.worker_utilisation());
}

/// Writes the traced run's spans (kept in memory until now).
pub(crate) fn write_spans(tr: &Tracer, out: &mut Outcome) {
    if let Err(e) = std::fs::write("spans.json", spans::to_json(tr.spans())) {
        out.notes.push(format!("cannot write spans.json: {e}"));
    }
}
