//! Per-instruction pipeline lifecycle tracing (`--trace-pipeline` of the
//! experiment suite, packaged as its own binary).
//!
//! Runs one benchmark/scheme configuration with the ring-buffered
//! [`vpr_obs::PipelineTrace`] attached and emits the retained lifecycle
//! records as compact JSONL (machine-checkable, see `--validate`) or
//! Konata-compatible pipeline-viewer text:
//!
//! ```text
//! cargo run --release -p vpr-bench --bin pipetrace -- \
//!     [--bench NAME]          # workload (default: go)
//!     [--scheme LABEL]        # conventional | conv-er | vp-issue-nrrN | vp-wb-nrrN
//!     [--regs N]              # physical registers per class (default 64)
//!     [--out PATH]            # trace file; `-` = stdout (default: pipetrace.jsonl)
//!     [--format jsonl|konata] # rendering (default: jsonl)
//!     [--ring N]              # ring capacity, i.e. last-N events kept (default 65536)
//!     [--last N]              # anomaly-dump tail length (default 256)
//!     [--verify-governor]     # compare against the single-cycle reference kernel
//!     [--inject-divergence]   # perturb the reference (tests the anomaly hook)
//!     [--validate PATH]       # validate an existing JSONL trace and exit
//!     [--warmup N] [--measure N] [--seed N] [--miss-penalty N]
//! ```
//!
//! `--verify-governor` reruns the same configuration through
//! [`Processor::step_single_cycle`] — the governor-free reference kernel
//! — and compares measurement-window `SimStats` bit-for-bit. On
//! divergence the **anomaly hook** fires: the last `--last` ring records
//! are dumped to `<out>.anomaly.jsonl` and the process exits 2.
//! `--inject-divergence` deliberately runs the reference under a
//! different miss penalty so CI can assert the hook end-to-end.

use std::io::{BufRead, Write};
use vpr_bench::cli::{self, or_exit};
use vpr_bench::workloads::parse_scheme;
use vpr_bench::ExperimentConfig;
use vpr_core::{Processor, SimConfig, SimObserver, SimStats};
use vpr_isa::OpClass;
use vpr_obs::trace::validate_jsonl_line;
use vpr_obs::PipelineTrace;
use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Validates an existing JSONL trace file line by line; exits 1 on the
/// first malformed line. Self-contained (no simulation) so CI can check
/// artefacts produced elsewhere.
fn validate_file(path: &str) -> ! {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
    let mut lines = 0usize;
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        if let Err(e) = validate_jsonl_line(&line) {
            eprintln!("{path}:{}: {e}", i + 1);
            std::process::exit(1);
        }
        lines += 1;
    }
    println!("{path}: {lines} valid trace record(s)");
    std::process::exit(0);
}

/// Runs the single-cycle reference kernel over the same skip-then-measure
/// window and returns its window stats.
fn reference_stats(
    benchmark: Benchmark,
    scheme: vpr_core::RenameScheme,
    regs: usize,
    exp: &ExperimentConfig,
    miss_penalty: u64,
) -> SimStats {
    let config = SimConfig::builder()
        .scheme(scheme)
        .physical_regs(regs)
        .miss_penalty(miss_penalty)
        .build();
    let trace = TraceBuilder::new(benchmark).seed(exp.seed).build();
    let mut cpu: Processor<TraceGen> = Processor::new(config, trace);
    while cpu.absolute_committed() < exp.warmup && !cpu.is_done() {
        cpu.step_single_cycle();
    }
    cpu.reset_window();
    // Anchor the measurement target at the *achieved* warm-up count —
    // `Processor::run` counts from wherever warm-up overshot to, and the
    // comparison must mirror that exactly.
    let target = cpu.absolute_committed() + exp.measure;
    while cpu.absolute_committed() < target && !cpu.is_done() {
        cpu.step_single_cycle();
    }
    cpu.stats()
}

fn main() {
    let mut args = cli::args();
    if let Some(path) = or_exit(cli::value(&mut args, "--validate")) {
        validate_file(&path);
    }
    let benchmark: Benchmark = or_exit(cli::value(&mut args, "--bench"))
        .unwrap_or_else(|| "go".into())
        .parse()
        .unwrap_or_else(|e| die(&format!("{e}")));
    let scheme = or_exit(parse_scheme(
        &or_exit(cli::value(&mut args, "--scheme")).unwrap_or_else(|| "vp-wb-nrr32".into()),
    ));
    let regs = or_exit(cli::number(&mut args, "--regs")).unwrap_or(64);
    let out = or_exit(cli::value(&mut args, "--out")).unwrap_or_else(|| "pipetrace.jsonl".into());
    let format = or_exit(cli::value(&mut args, "--format")).unwrap_or_else(|| "jsonl".into());
    if format != "jsonl" && format != "konata" {
        die(&format!("unknown --format `{format}` (jsonl|konata)"));
    }
    let ring = or_exit(cli::number(&mut args, "--ring")).unwrap_or(65_536);
    let last = or_exit(cli::number(&mut args, "--last")).unwrap_or(256);
    let verify = cli::flag(&mut args, "--verify-governor");
    let inject = cli::flag(&mut args, "--inject-divergence");
    let mut exp = ExperimentConfig::quick();
    or_exit(exp.apply_args(args));

    // The traced, governed run — the subject under observation.
    let op_names: Vec<String> = OpClass::ALL.iter().map(|o| o.to_string()).collect();
    let obs = SimObserver::with_trace(PipelineTrace::new(ring, op_names));
    let (stats, obs) = vpr_bench::run_benchmark_observed(benchmark, scheme, regs, &exp, obs);
    let trace = obs.trace.expect("observer was constructed with a trace");
    eprintln!(
        "traced {benchmark:?}/{scheme:?}@{regs}r: {} commits in {} cycles, {} record(s) retained \
         ({} dropped by the {}-entry ring)",
        stats.committed,
        stats.cycles,
        trace.len(),
        trace.dropped(),
        trace.capacity(),
    );

    // Anomaly hook: a governed/reference comparison that diverges dumps
    // the last-N ring for post-mortem before exiting non-zero.
    if verify || inject {
        let mp = if inject {
            exp.miss_penalty + 13
        } else {
            exp.miss_penalty
        };
        let reference = reference_stats(benchmark, scheme, regs, &exp, mp);
        if reference != stats {
            let anomaly = format!("{out}.anomaly.jsonl");
            let mut f = std::fs::File::create(&anomaly)
                .unwrap_or_else(|e| die(&format!("cannot write {anomaly}: {e}")));
            trace
                .dump_last(last, &mut f)
                .unwrap_or_else(|e| die(&format!("cannot write {anomaly}: {e}")));
            eprintln!(
                "DIVERGENCE: governed run and single-cycle reference disagree \
                 (committed {} vs {}, cycles {} vs {}); last {} trace record(s) dumped to {anomaly}",
                stats.committed,
                reference.committed,
                stats.cycles,
                reference.cycles,
                last.min(trace.len()),
            );
            std::process::exit(2);
        }
        eprintln!("governor-equivalence check passed (SimStats bit-identical)");
    }

    let render = |mut w: &mut dyn Write| match format.as_str() {
        "konata" => trace.emit_konata(&mut w),
        _ => trace.emit_jsonl(&mut w),
    };
    if out == "-" {
        let stdout = std::io::stdout();
        render(&mut stdout.lock()).unwrap_or_else(|e| die(&format!("cannot write trace: {e}")));
    } else {
        let mut f = std::fs::File::create(&out)
            .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        render(&mut f).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        println!("wrote {out}");
    }
}
