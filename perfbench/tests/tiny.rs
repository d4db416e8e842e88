//! A tiny-scale run of every workload, traced and untraced, through the
//! benchmark binary exactly as the benchmark runs it: the last line must
//! be the JSON result, correct, with every catalogued metric and its unit.
//!
//! The `serve` runs need the `vpr-serve` binary next to this package's own
//! build output: `cargo build --manifest-path perfbench/Cargo.toml -p
//! vpr-serve --bin vpr-serve` (same profile as the tests).

use std::path::{Path, PathBuf};
use std::process::Command;

use vpr_perfbench::report::{end_to_end, per_layer, MetricDef};
use vpr_snap::manifest::parse_json;

fn harness() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_vpr-perfbench"))
}

fn serve_bin() -> PathBuf {
    let bin = harness().with_file_name("vpr-serve");
    assert!(
        bin.exists(),
        "{} is missing: build it with `cargo build --manifest-path perfbench/Cargo.toml \
         -p vpr-serve --bin vpr-serve` first",
        bin.display()
    );
    bin
}

fn run(workload: &str, trace: bool) {
    let dir = std::env::temp_dir().join(format!(
        "vpr-perfbench-tiny-{workload}-{}-{}",
        trace as u8,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(harness())
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "4", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--serve-bin")
        .arg(serve_bin())
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("some output");
    let doc = parse_json(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    let root = doc.as_object().expect("result object");
    assert!(
        matches!(
            root.get("correct"),
            Some(vpr_snap::manifest::JsonValue::Bool(true))
        ),
        "{workload} trace={trace}: outputs incorrect\n{stdout}"
    );
    assert!(root.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
    assert_eq!(root.get("failed").and_then(|v| v.as_u64()), Some(0));
    let metrics = root
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics");
    let defs: Vec<MetricDef> = if trace { per_layer() } else { end_to_end() };
    for d in &defs {
        let m = metrics
            .get(&d.name)
            .and_then(|m| m.as_object())
            .unwrap_or_else(|| panic!("{workload}: metric {} missing", d.name));
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(d.unit));
        assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
    }
    if !trace {
        for d in &defs {
            let v = metrics.get(&d.name).and_then(|m| m.as_object());
            let v = v.and_then(|m| m.get("value")).and_then(|v| v.as_f64());
            assert!(v.unwrap_or(0.0) > 0.0, "{workload}: {} reads 0", d.name);
        }
    }
    // The run cleans up after itself; only a traced run's spans remain.
    let work = dir.join(".bench_work");
    let left: Vec<_> = std::fs::read_dir(&work)
        .map(|d| d.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    let spans = left
        .iter()
        .filter(|n| n.to_string_lossy().starts_with("spans-"));
    assert_eq!(spans.count(), left.len(), "{workload} left {left:?} behind");
    assert_eq!(left.len(), trace as usize);
    let _ = std::fs::remove_dir_all(Path::new(&dir));
}

#[test]
fn eval_untraced() {
    run("eval", false);
}

#[test]
fn eval_traced() {
    run("eval", true);
}

#[test]
fn sampled_untraced() {
    run("sampled", false);
}

#[test]
fn sampled_traced() {
    run("sampled", true);
}

#[test]
fn serve_untraced() {
    run("serve", false);
}

#[test]
fn serve_traced() {
    run("serve", true);
}
