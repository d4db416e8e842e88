//! Parallel-vs-serial determinism guard for the sweep engine.
//!
//! The contract of `vpr_bench::sweep` is that a sweep's output is
//! **byte-identical** for every worker count: one simulator per grid
//! point, results merged in submission order, nothing shared between
//! simulations. These tests pin that down for all four renaming schemes
//! and, via the property test, for arbitrary pool sizes and grid shapes
//! — so nobody can quietly introduce cross-simulation state (a shared
//! RNG, a global, an allocator-order dependence) without tripping it.
//! Both the per-point metrics (compared bit for bit) and the aggregated
//! `metrics` block (compared as rendered JSON) are covered.

use proptest::prelude::*;
use vpr_bench::sweep::{PointMetrics, SweepMetrics};
use vpr_bench::workloads::{THROUGHPUT_BENCHMARKS, THROUGHPUT_SCHEMES};
use vpr_bench::{run_benchmark, run_sweep_metrics, ExperimentConfig, SweepContext, SweepPoint};
use vpr_core::{RenameScheme, SimStats};
use vpr_trace::Benchmark;

fn quick_exp(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        warmup: 200,
        measure: 2_000,
        jobs,
        ..ExperimentConfig::default()
    }
}

/// Both gate benchmarks (swim, go) under all four schemes.
fn grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for benchmark in THROUGHPUT_BENCHMARKS {
        for scheme in THROUGHPUT_SCHEMES {
            points.push(SweepPoint::at64(benchmark, scheme));
        }
    }
    points
}

fn sweep(points: &[SweepPoint], exp: &ExperimentConfig) -> SweepMetrics {
    let out = run_sweep_metrics(points, exp, &SweepContext::exact());
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    out
}

fn point_bits(m: &PointMetrics) -> [u64; 3] {
    [
        m.ipc.to_bits(),
        m.miss_ratio.to_bits(),
        m.executions_per_commit.to_bits(),
    ]
}

/// The bits a serial `run_benchmark` of the same point reports.
fn stats_bits(s: &SimStats) -> [u64; 3] {
    [
        s.ipc().to_bits(),
        s.cache.miss_ratio().to_bits(),
        s.executions_per_commit().to_bits(),
    ]
}

fn serial_bits(p: &SweepPoint, exp: &ExperimentConfig) -> [u64; 3] {
    stats_bits(&run_benchmark(p.workload, p.scheme, p.physical_regs, exp))
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial_for_all_schemes() {
    let points = grid();
    let serial = sweep(&points, &quick_exp(1));
    for (point, got) in points.iter().zip(&serial.points) {
        assert_eq!(
            point_bits(got),
            serial_bits(point, &quick_exp(1)),
            "sweep diverged from run_benchmark on {point:?}"
        );
    }
    let serial_metrics = serial.metrics.to_json_value();
    for jobs in [2, 4, 8] {
        let parallel = sweep(&points, &quick_exp(jobs));
        for (point, (s, p)) in points
            .iter()
            .zip(serial.points.iter().zip(&parallel.points))
        {
            assert_eq!(
                point_bits(s),
                point_bits(p),
                "jobs={jobs} diverged from serial on {point:?}"
            );
        }
        // Compare the *rendered* block so a failure shows the exact
        // diverging series, and the assertion covers formatting too.
        assert_eq!(
            serial_metrics,
            parallel.metrics.to_json_value(),
            "jobs={jobs}: metrics block diverged from serial"
        );
    }
}

#[test]
fn sweep_points_see_their_own_simulator_state() {
    // Two identical points must produce identical metrics (no cross-talk),
    // and a third different point must not disturb them.
    let exp = quick_exp(3);
    let points = [
        SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ),
        SweepPoint::at64(Benchmark::Go, RenameScheme::Conventional),
        SweepPoint::at64(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ),
    ];
    let m = sweep(&points, &exp).points;
    assert_eq!(
        point_bits(&m[0]),
        point_bits(&m[2]),
        "identical points must agree exactly"
    );
    assert_ne!(
        point_bits(&m[0]),
        point_bits(&m[1]),
        "different points must differ"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any pool size (1..=9 workers) over a randomly-shaped grid merges
    /// exactly the serial per-point results, in order, and the same
    /// metrics block as one worker.
    #[test]
    fn any_pool_size_matches_serial(
        jobs in 1usize..10,
        picks in prop::collection::vec((0usize..2, 0usize..4, 0usize..3), 1..7),
    ) {
        let sizes = [48usize, 64, 96];
        let points: Vec<SweepPoint> = picks
            .iter()
            .map(|&(b, s, r)| {
                let physical_regs = sizes[r];
                // Keep NRR legal for the smallest file (48 regs -> 16).
                let scheme = match s {
                    0 => RenameScheme::Conventional,
                    1 => RenameScheme::ConventionalEarlyRelease,
                    2 => RenameScheme::VirtualPhysicalIssue { nrr: 16 },
                    _ => RenameScheme::VirtualPhysicalWriteback { nrr: 16 },
                };
                SweepPoint {
                    workload: THROUGHPUT_BENCHMARKS[b].into(),
                    scheme,
                    physical_regs,
                }
            })
            .collect();
        let exp = ExperimentConfig {
            warmup: 100,
            measure: 800,
            jobs,
            ..ExperimentConfig::default()
        };
        let pooled = sweep(&points, &exp);
        for (point, got) in points.iter().zip(&pooled.points) {
            prop_assert_eq!(
                point_bits(got),
                serial_bits(point, &exp),
                "jobs={} point={:?}",
                jobs,
                point
            );
        }
        let one = sweep(&points, &ExperimentConfig { jobs: 1, ..exp });
        prop_assert_eq!(
            pooled.metrics.to_json_value(),
            one.metrics.to_json_value(),
            "jobs={}",
            jobs
        );
    }
}
