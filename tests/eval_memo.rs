//! In-run memo: the evaluation `all` runs — Table 2 at miss penalty 50
//! and 20, then Figures 4–7 — through one shared [`SweepContext`] gives
//! every figure byte-identical JSON to a fresh context per figure, for
//! one worker and for two, while answering exactly the 72 points a later
//! figure repeats from the memo. Sampled contexts never memoise.

use vpr_bench::{experiments, ExperimentConfig, SweepContext};
use vpr_obs::RunTelemetry;

fn exp(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        warmup: 150,
        measure: 1_500,
        jobs,
        ..ExperimentConfig::default()
    }
}

/// One figure of the evaluation: its name, JSON artefact and run
/// telemetry.
type Figure = (&'static str, String, RunTelemetry);

/// Runs the evaluation in `all`'s order, each figure in the context
/// `ctx()` hands it.
fn evaluation(exp: &ExperimentConfig, ctx: impl Fn() -> SweepContext) -> Vec<Figure> {
    let exp20 = ExperimentConfig {
        miss_penalty: 20,
        ..*exp
    };
    let t2 = experiments::table2_in(exp, &ctx());
    let t2b = experiments::table2_in(&exp20, &ctx());
    let f4 = experiments::fig4_in(exp, &ctx());
    let f5 = experiments::fig5_in(exp, &ctx());
    let f6 = experiments::fig6_in(exp, &ctx());
    let f7 = experiments::fig7_in(exp, &ctx());
    vec![
        ("table2", t2.to_json(), t2.telemetry),
        ("table2_mp20", t2b.to_json(), t2b.telemetry),
        ("fig4", f4.to_json(), f4.telemetry),
        ("fig5", f5.to_json(), f5.telemetry),
        ("fig6", f6.to_json(), f6.telemetry),
        ("fig7", f7.to_json(), f7.telemetry),
    ]
}

#[test]
fn a_shared_context_reuses_repeated_points_without_changing_a_byte() {
    let fresh = evaluation(&exp(2), SweepContext::exact);
    for (name, _, telemetry) in &fresh {
        assert_eq!(telemetry.memo_hits, 0, "{name}: a fresh context is empty");
    }
    for jobs in [1, 2] {
        // Clones share the memo, so every figure sees the earlier ones'.
        let shared = SweepContext::exact();
        let memoised = evaluation(&exp(jobs), || shared.clone());
        let mut hits = Vec::new();
        for ((name, json, telemetry), (_, want, _)) in memoised.iter().zip(&fresh) {
            assert_eq!(json, want, "--jobs {jobs}: {name} JSON");
            assert!(json.contains("\"failures\": []"), "--jobs {jobs}: {name}");
            hits.push(telemetry.memo_hits);
        }
        assert_eq!(hits, [0, 0, 18, 9, 27, 18], "--jobs {jobs}: memo hits");
        let jobs_run: usize = memoised.iter().map(|(_, _, t)| t.points.len()).sum();
        assert_eq!(jobs_run, 243, "--jobs {jobs}: every hit is still a job");
        // The two Table 2 runs emit the same labels; the config tells
        // them apart.
        for (i, mp) in [(0, 50), (1, 20)] {
            assert!(memoised[i]
                .2
                .points
                .iter()
                .all(|p| p.config.miss_penalty == mp));
        }
    }
}

#[test]
fn sampled_contexts_never_memoise() {
    let ctx = SweepContext::new(true, None);
    let first = experiments::table2_in(&exp(2), &ctx);
    let second = experiments::table2_in(&exp(2), &ctx);
    assert_eq!(first.to_json(), second.to_json());
    for t in [&first.telemetry, &second.telemetry] {
        assert_eq!(t.memo_hits, 0);
        assert!(t.points.iter().all(|p| p.stage != "simulate"));
    }
}
