//! The metric catalogue and the result line the benchmark ends with.

use vpr_core::Stage;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Unit, printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics: what a user of each workload waits on or pays.
/// Every workload reports every one of them (untraced runs).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("wall_s", "s", Lower),
        def("busy_s", "s", Lower),
        def("setup_s", "s", Lower),
        def("peak_rss_mb", "MiB", Lower),
        def("jobs_per_s", "1/s", Higher),
        def("rtt_p50_s", "s", Lower),
        def("rtt_tail_s", "s", Lower),
    ]
}

/// Per-layer metrics, reported by traced runs. A metric of a layer that a
/// workload does not exercise reads 0 on that workload.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![def("core.ns_per_inst", "ns", Lower)];
    for stage in Stage::ALL {
        v.push(def(
            format!("core.{}.events_per_inst", stage.name()),
            "events/inst",
            Lower,
        ));
        v.push(def(
            format!("core.{}.ns_per_inst", stage.name()),
            "ns",
            Lower,
        ));
    }
    v.extend([
        def("core.snapshot_ms", "ms", Lower),
        def("core.restore_ms", "ms", Lower),
        def("trace.ns_per_inst", "ns", Lower),
        def("exec.ns_per_inst", "ns", Lower),
        def("exec.assemble_ms", "ms", Lower),
        def("model.ipc_hmean", "inst/cycle", Higher),
        def("model.reexec_per_commit", "exec/inst", Lower),
        def("model.nrr_denials_per_kinst", "1/kinst", Lower),
        def("model.wrong_path_frac", "ratio", Lower),
        def("model.idle_skip_frac", "ratio", Higher),
        def("sweep.jobs", "count", Lower),
        def("sweep.unique_frac", "ratio", Higher),
        def("sweep.job_s_p50", "s", Lower),
        def("sweep.queue_wait_s", "s", Lower),
        def("sweep.worker_util", "ratio", Higher),
        def("fig.table2_s", "s", Lower),
        def("fig.table2_mp20_s", "s", Lower),
        def("fig.fig4_s", "s", Lower),
        def("fig.fig5_s", "s", Lower),
        def("fig.fig6_s", "s", Lower),
        def("fig.fig7_s", "s", Lower),
        def("fig.asm_eval_s", "s", Lower),
        def("bench.artefact_write_ms", "ms", Lower),
        def("snap.encode_mb_s", "MB/s", Higher),
        def("snap.decode_mb_s", "MB/s", Higher),
        def("snap.bytes_per_ckpt", "bytes", Lower),
        def("ckpt.files_written", "count", Lower),
        def("ckpt.bytes_written", "bytes", Lower),
        def("ckpt.atomic_write_ms", "ms", Lower),
        def("ckpt.store_open_ms", "ms", Lower),
        def("ckpt.load_ms", "ms", Lower),
        def("sampling.cold_s", "s", Lower),
        def("sampling.warm_s", "s", Lower),
        def("sampling.warm_pass_s", "s", Lower),
        def("sampling.windows", "count", Lower),
        def("sampling.window_s", "s", Lower),
        def("sampling.detailed_frac", "ratio", Lower),
        def("sampling.err_pct", "%", Lower),
        def("serve.submit_ms", "ms", Lower),
        def("serve.poll_ms", "ms", Lower),
        def("serve.poll_useful_frac", "ratio", Higher),
        def("serve.journal_append_ms", "ms", Lower),
        def("serve.dedup_hit_frac", "ratio", Higher),
        def("serve.queue_wait_s", "s", Lower),
        def("serve.job_s", "s", Lower),
        def("serve.retries", "count", Lower),
        def("serve.lease_expiries", "count", Lower),
        def("bench.trace_overhead_pct", "%", Lower),
    ]);
    v
}

/// True when `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// True when `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (artefacts compared, jobs checked, ...).
    pub attempted: u64,
    /// Operations that failed: an output mismatch, a NaN point, a service
    /// error, or a changed model counter.
    pub failed: u64,
    /// Measured values by name.
    pub values: Vec<(String, f64)>,
    /// Free-form report lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a measured value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Failed share of attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The report lines and the final JSON result line for the catalogue
    /// `defs`: every catalogued metric is printed by name with its unit (a
    /// metric the run did not record reads 0: the workload does not exercise
    /// its layer); a metric outside the catalogue is a bug and panics.
    pub fn render(&self, defs: &[MetricDef]) -> (Vec<String>, String) {
        for (name, _) in &self.values {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "metric {name} is not in the catalogue"
            );
        }
        let mut lines = self.notes.clone();
        let mut json = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match self.get(&d.name) {
                Some(v) if v.is_finite() => v,
                Some(_) => {
                    lines.push(format!("note: {} was not finite; reported as 0", d.name));
                    0.0
                }
                None => 0.0,
            };
            lines.push(format!(
                "{:<34} {:>16} {}",
                d.name,
                fmt_value(value),
                d.unit
            ));
            json.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_value(value),
                d.unit
            ));
        }
        lines.push(format!(
            "{:<34} {:>16} ratio ({} of {} operations failed)",
            "fail_ratio",
            fmt_value(self.fail_ratio()),
            self.failed,
            self.attempted
        ));
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        (lines, result)
    }
}

/// A value as measured, with all its digits (the shortest text that reads
/// back as the same `f64`).
pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
