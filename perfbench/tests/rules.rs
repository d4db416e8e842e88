//! The benchmark's own arithmetic and naming rules.

use vpr_perfbench::report::{end_to_end, per_layer, valid_name, valid_unit, Better};
use vpr_perfbench::spans::{self_seconds, self_times, Span};
use vpr_perfbench::stats::{quantile, tail};
use vpr_snap::manifest::parse_json;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&xs).expect("1000 samples have a tail");
    // p99 leaves exactly 10 of 1000 beyond its nearest rank; p99.9 leaves 1.
    assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

    let xs: Vec<f64> = (1..=40).map(f64::from).collect();
    let t = tail(&xs).expect("40 samples have a tail");
    assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));

    // Below 20 samples even the median leaves fewer than 10 beyond it.
    let xs: Vec<f64> = (1..=19).map(f64::from).collect();
    assert!(tail(&xs).is_none());
    let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(tail(&xs).map(|t| (t.pct, t.beyond)), Some((50.0, 10)));
}

#[test]
fn quartiles_match_linear_interpolation() {
    let xs = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(quantile(&xs, 0.25), Some(17.5));
    assert_eq!(quantile(&xs, 0.75), Some(32.5));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `c` (parallel children): the union counts once.
        span("b", 40, 70, Some(0)),
        span("c", 60, 80, Some(0)),
        span("grandchild", 45, 50, Some(2)),
        // Sticks out past its parent: only the covered part counts.
        span("late", 90, 120, Some(0)),
    ];
    let selfs = self_times(&spans);
    // root: 100 - (20 + [40,80] + [90,100]) = 100 - 70.
    assert_eq!(selfs, vec![30, 20, 25, 20, 5, 30]);
    assert!((self_seconds(&spans, &selfs, "b") - 25e-9).abs() < 1e-15);
}

#[test]
fn every_metric_has_a_valid_name_and_unit_once() {
    let mut names = Vec::new();
    for d in end_to_end().iter().chain(&per_layer()) {
        assert!(valid_name(&d.name), "bad metric name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        names.push(d.name.clone());
    }
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "metric names repeat");
    assert!(!valid_name("core ns"), "space is outside [A-Za-z0-9_.-]");
    assert!(!valid_name("_leading"), "must start with a letter or digit");
    assert!(!valid_name("core/ns"));
    assert!(valid_name("core.fetch.ns_per_inst"));
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let root = doc.as_object().expect("object");
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let listed = root.get(key).and_then(|v| v.as_array()).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (entry, d) in listed.iter().zip(&defs) {
            let o = entry.as_object().expect("metric object");
            let field = |k: &str| o.get(k).and_then(|v| v.as_str()).unwrap_or_default();
            assert_eq!(field("name"), d.name);
            assert_eq!(field("unit"), d.unit, "{}", d.name);
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(field("better"), better, "{}", d.name);
        }
    }
    let workloads: Vec<&str> = root
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .filter_map(|w| w.as_object()?.get("name")?.as_str())
        .collect();
    assert_eq!(workloads, ["eval", "sampled", "serve"]);
}
