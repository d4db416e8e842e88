//! Every JSON writer's output parses with the workspace's one JSON
//! module, [`vpr_snap::json::parse`], at a small scale: the experiment
//! artefacts (Table 2, Figures 4–7, `asm_eval` exact and sampled) and
//! their run-telemetry twins, a checkpoint manifest, the sampling
//! accuracy report, the pipeline-trace JSONL and `SimStats::to_json`.
//! One field of each is spot-checked, so a writer that drifts from the
//! parser fails here.

use vpr_bench::sampling::{accuracy_to_json, SamplingAccuracy, SamplingPlan};
use vpr_bench::{experiments, run_benchmark_observed, ExperimentConfig, SweepContext, Workload};
use vpr_core::{RenameScheme, SimObserver};
use vpr_isa::OpClass;
use vpr_obs::{PipelineTrace, RunTelemetry};
use vpr_snap::json::{self, Value};
use vpr_trace::Benchmark;

fn exp() -> ExperimentConfig {
    ExperimentConfig {
        warmup: 150,
        measure: 1_500,
        jobs: 2,
        ..ExperimentConfig::default()
    }
}

fn parse(what: &str, text: &str) -> Value {
    json::parse(text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"))
}

/// `doc[key]`, then `[index]` when the field is an array.
fn field<'a>(doc: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(doc, |v, key| match key.parse::<usize>() {
        Ok(i) => &v.as_array().unwrap_or_else(|| panic!("{path:?}"))[i],
        Err(_) => v
            .as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("missing {key} of {path:?}")),
    })
}

fn str_at<'a>(doc: &'a Value, path: &[&str]) -> &'a str {
    field(doc, path)
        .as_str()
        .unwrap_or_else(|| panic!("{path:?}"))
}

/// Parses an artefact and its telemetry twin; returns the artefact.
fn artefact(what: &str, text: &str, schema: &str, telemetry: &RunTelemetry) -> Value {
    let doc = parse(what, text);
    assert_eq!(str_at(&doc, &["schema"]), schema, "{what}");
    let twin = parse(&format!("{what} telemetry"), &telemetry.to_json());
    assert_eq!(str_at(&twin, &["schema"]), "vpr-run-telemetry/v1");
    assert!(!field(&twin, &["points"]).as_array().unwrap().is_empty());
    doc
}

#[test]
fn experiment_artefacts_and_telemetry_parse() {
    let exp = exp();
    let ctx = SweepContext::exact();
    let swim = [Workload::from(Benchmark::Swim)];

    let t2 = experiments::table2_for(&swim, &exp, &ctx);
    let doc = artefact(
        "table2",
        &t2.to_json(),
        "vpr-bench-table2/v4",
        &t2.telemetry,
    );
    assert_eq!(str_at(&doc, &["rows", "0", "benchmark"]), "swim");

    let f4 = experiments::fig4_for(&swim, &exp, &ctx);
    let doc = artefact(
        "fig4",
        &f4.to_json(),
        "vpr-bench-nrr-sweep/v4",
        &f4.telemetry,
    );
    assert_eq!(str_at(&doc, &["scheme"]), "write-back");

    let f5 = experiments::fig5_for(&swim, &exp, &ctx);
    let doc = artefact(
        "fig5",
        &f5.to_json(),
        "vpr-bench-nrr-sweep/v4",
        &f5.telemetry,
    );
    assert_eq!(field(&doc, &["nrr"]).as_array().unwrap().len(), 6);

    let f6 = experiments::fig6_for(&swim, &exp, &ctx);
    let doc = artefact("fig6", &f6.to_json(), "vpr-bench-fig6/v4", &f6.telemetry);
    assert!(field(&doc, &["rows", "0", "writeback_speedup"])
        .as_f64()
        .is_some());

    let f7 = experiments::fig7_for(&swim, &exp, &ctx);
    let doc = artefact("fig7", &f7.to_json(), "vpr-bench-fig7/v4", &f7.telemetry);
    assert_eq!(
        field(&doc, &["sweep", "2", "physical_regs"]).as_u64(),
        Some(96)
    );

    let workloads = [
        Workload::parse("asm:matmul").unwrap(),
        Benchmark::Swim.into(),
    ];
    let exact = experiments::asm_eval_for(&workloads, &exp, &ctx);
    let doc = artefact(
        "asm_eval",
        &exact.to_json(),
        "vpr-bench-asm-eval/v1",
        &exact.telemetry,
    );
    assert_eq!(field(&doc, &["rows", "0", "is_asm"]), &Value::Bool(true));
    assert_eq!(str_at(&doc, &["metrics", "mode"]), "exact");

    let sampled = experiments::asm_eval_for(&workloads, &exp, &SweepContext::new(true, None));
    let doc = artefact(
        "asm_eval sampled",
        &sampled.to_json(),
        "vpr-bench-asm-eval/v1",
        &sampled.telemetry,
    );
    assert_eq!(str_at(&doc, &["sampling", "mode"]), "sampled");
}

#[test]
fn checkpoint_manifest_parses() {
    let dir = std::env::temp_dir().join("vpr-json-artefacts-manifest");
    let _ = std::fs::remove_dir_all(&dir);
    let swim = [Workload::from(Benchmark::Swim)];
    experiments::table2_for(&swim, &exp(), &SweepContext::new(false, Some(&dir)));
    let text = std::fs::read_to_string(dir.join("checkpoints.json")).unwrap();
    let doc = parse("checkpoints.json", &text);
    assert_eq!(str_at(&doc, &["schema"]), "vpr-snap-checkpoints/v1");
    assert_eq!(str_at(&doc, &["checkpoints", "0", "benchmark"]), "swim");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_traces_and_stats_parse() {
    let exp = exp();
    let scheme = RenameScheme::VirtualPhysicalWriteback { nrr: 32 };

    let rows = [SamplingAccuracy {
        workload: Benchmark::Go.into(),
        scheme,
        full_ipc: 1.5,
        sampled_ipc: 1.49,
        full_miss_ratio: 0.02,
        sampled_miss_ratio: f64::NAN,
    }];
    let doc = parse(
        "sampling",
        &accuracy_to_json(&rows, &SamplingPlan::for_experiment(&exp)),
    );
    assert_eq!(str_at(&doc, &["rows", "0", "scheme"]), "vp-wb-nrr32");
    assert_eq!(
        field(&doc, &["rows", "0", "sampled_miss_ratio"]),
        &Value::Null
    );

    let names = OpClass::ALL.iter().map(|o| o.to_string()).collect();
    let obs = SimObserver::with_trace(PipelineTrace::new(256, names));
    let (stats, obs) = run_benchmark_observed(Benchmark::Swim, scheme, 64, &exp, obs);
    let mut jsonl = Vec::new();
    obs.trace.unwrap().emit_jsonl(&mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert_eq!(jsonl.lines().count(), 256);
    for line in jsonl.lines() {
        let rec = parse("trace line", line);
        assert!(field(&rec, &["c"]).as_u64().is_some(), "{line}");
        vpr_obs::trace::validate_jsonl_line(line).unwrap();
    }

    let doc = parse("SimStats", &stats.to_json());
    assert_eq!(field(&doc, &["committed"]).as_u64(), Some(stats.committed));
}
