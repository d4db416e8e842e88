//! Determinism guard for the observability layer's metric export.
//!
//! The `metrics` block of every experiment artefact must be
//! **byte-identical** for every `--jobs` value: each sweep point carries
//! its own `SimMetrics`, and the merge is commutative integer addition
//! applied in submission order. These tests pin the rendered JSON (and
//! the Prometheus text exposition) across worker counts, so nobody can
//! quietly introduce merge-order- or thread-dependent state into the
//! registry without tripping it.

use proptest::prelude::*;
use vpr_bench::sweep::MetricsBlock;
use vpr_bench::workloads::THROUGHPUT_BENCHMARKS;
use vpr_bench::{run_sweep_metrics, ExperimentConfig, SweepContext, SweepPoint};
use vpr_core::RenameScheme;
use vpr_trace::Benchmark;

fn quick_exp(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        warmup: 200,
        measure: 2_000,
        jobs,
        ..ExperimentConfig::default()
    }
}

/// Renders the block the way the artefacts do — byte-level equality on
/// this string is exactly the contract the JSON twins need.
fn rendered(metrics: &MetricsBlock) -> (String, Option<String>) {
    (metrics.to_json_value(), metrics.to_prometheus())
}

#[test]
fn metrics_block_is_byte_identical_across_jobs_1_2_8() {
    let points = [
        SweepPoint::at64(Benchmark::Go, RenameScheme::Conventional),
        SweepPoint::at64(Benchmark::Go, RenameScheme::ConventionalEarlyRelease),
        SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalIssue { nrr: 16 },
        ),
        SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ),
    ];
    // A context per run: one shared context would answer the later runs
    // from its memo instead of simulating them.
    let serial = run_sweep_metrics(&points, &quick_exp(1), &SweepContext::default());
    assert!(
        serial.failures.is_empty(),
        "clean run expected: {:?}",
        serial.failures
    );
    assert_eq!(serial.telemetry.memo_hits, 0);
    let want = rendered(&serial.metrics);
    assert!(
        want.0.starts_with("{\"mode\": \"exact\""),
        "exact sweeps must export a series: {}",
        want.0
    );
    for jobs in [2, 8] {
        let pooled = run_sweep_metrics(&points, &quick_exp(jobs), &SweepContext::default());
        assert_eq!(pooled.telemetry.memo_hits, 0, "--jobs {jobs} simulated");
        assert_eq!(
            rendered(&pooled.metrics),
            want,
            "metrics diverged between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn sampled_sweeps_export_no_series() {
    let block = MetricsBlock::SampledUnavailable;
    assert_eq!(block.to_json_value(), "{\"mode\": \"sampled\"}");
    assert!(block.to_prometheus().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any pool size over a randomly-shaped grid renders the same metric
    /// series as the serial sweep.
    #[test]
    fn any_pool_size_renders_serial_metrics(
        jobs in 2usize..9,
        picks in prop::collection::vec((0usize..2, 0usize..4), 1..5),
    ) {
        let points: Vec<SweepPoint> = picks
            .iter()
            .map(|&(b, s)| {
                let scheme = match s {
                    0 => RenameScheme::Conventional,
                    1 => RenameScheme::ConventionalEarlyRelease,
                    2 => RenameScheme::VirtualPhysicalIssue { nrr: 16 },
                    _ => RenameScheme::VirtualPhysicalWriteback { nrr: 16 },
                };
                SweepPoint::at64(THROUGHPUT_BENCHMARKS[b], scheme)
            })
            .collect();
        let exp = |jobs| ExperimentConfig {
            warmup: 100,
            measure: 800,
            jobs,
            ..ExperimentConfig::default()
        };
        let serial = run_sweep_metrics(&points, &exp(1), &SweepContext::default());
        let pooled = run_sweep_metrics(&points, &exp(jobs), &SweepContext::default());
        prop_assert_eq!(serial.telemetry.memo_hits, 0);
        prop_assert_eq!(pooled.telemetry.memo_hits, 0);
        prop_assert_eq!(
            rendered(&pooled.metrics),
            rendered(&serial.metrics),
            "jobs={} grid={:?}",
            jobs,
            points
        );
    }
}
