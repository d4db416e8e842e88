//! Benchmark entry point.
//!
//! ```text
//! vpr-perfbench --workload eval|sampled|serve --seed N --seconds S --trace 0|1
//!               [--serve-bin PATH] [--scale bench|tiny]
//! vpr-perfbench --record-refs        # rewrite refs/ from the current code
//! ```
//!
//! `perfbench/run.py` builds this binary and `vpr-serve`, then runs it
//! from the root of a checkout. Each run works in its own directory under
//! `.bench_work/` and removes it at exit, except the traced run's spans
//! file. The last line of standard output is the JSON result.

use std::path::{Path, PathBuf};

use vpr_perfbench::report::{self, Outcome};
use vpr_perfbench::{refs, Options, Scale, Workload};

fn usage(msg: &str) -> ! {
    eprintln!(
        "vpr-perfbench: {msg}\nusage: vpr-perfbench --workload eval|sampled|serve --seed N \
         --seconds S --trace 0|1 [--serve-bin PATH] [--scale bench|tiny]"
    );
    std::process::exit(2);
}

fn take(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        usage(&format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn number<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    v.unwrap_or_else(|| usage(&format!("missing {flag}")))
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take(&mut args, "--scale").map_or(Scale::Bench, |s| {
        Scale::parse(&s).unwrap_or_else(|| usage(&format!("unknown scale {s}")))
    });
    if let Some(w) = take(&mut args, "--setup-probe") {
        let w = Workload::parse(&w).unwrap_or_else(|| usage(&format!("unknown workload {w}")));
        vpr_perfbench::setup_probe(w, scale);
        return;
    }
    if args.iter().any(|a| a == "--record-refs") {
        record_refs();
        return;
    }
    let workload = take(&mut args, "--workload")
        .map(|w| Workload::parse(&w).unwrap_or_else(|| usage(&format!("unknown workload {w}"))))
        .unwrap_or_else(|| usage("missing --workload"));
    let seed: u64 = number(take(&mut args, "--seed"), "--seed");
    let seconds: f64 = number(take(&mut args, "--seconds"), "--seconds");
    let trace: u8 = number(take(&mut args, "--trace"), "--trace");
    let serve_bin = take(&mut args, "--serve-bin").map(PathBuf::from);
    if let Some(extra) = args.first() {
        usage(&format!("unrecognised argument {extra}"));
    }
    if trace > 1 || seconds.is_nan() || seconds < 0.0 {
        usage("--trace takes 0 or 1 and --seconds a non-negative number");
    }
    let opts = Options {
        workload,
        seed,
        seconds,
        trace: trace == 1,
        scale,
        serve_bin: serve_bin.map(|p| absolute(&p)),
        harness_bin: std::env::current_exe().expect("own executable path"),
    };

    let root = std::env::current_dir().expect("working directory");
    let base = root.join(".bench_work");
    let work = base.join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|()| std::env::set_current_dir(&work)) {
        eprintln!("vpr-perfbench: cannot enter {}: {e}", work.display());
        std::process::exit(1);
    }
    let out = vpr_perfbench::run(&opts);
    let _ = std::env::set_current_dir(&root);
    if opts.trace {
        let spans = base.join(format!("spans-{}-seed{}.json", workload.name(), seed));
        let _ = std::fs::rename(work.join("spans.json"), spans);
    }
    let _ = std::fs::remove_dir_all(&work);
    finish(&out, opts.trace);
}

fn absolute(p: &Path) -> PathBuf {
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::env::current_dir().expect("working directory").join(p)
    }
}

fn finish(out: &Outcome, traced: bool) {
    let defs = if traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let (lines, result) = out.render(&defs);
    for l in lines {
        println!("{l}");
    }
    println!("{result}");
}

/// Re-records every reference file from the current code, in a scratch
/// directory under the current one.
fn record_refs() {
    let work = std::env::current_dir()
        .expect("working directory")
        .join(".bench_work")
        .join(format!("record-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create scratch directory");
    std::env::set_current_dir(&work).expect("enter scratch directory");
    for scale in [Scale::Bench, Scale::Tiny] {
        for &seed in refs::recorded_seeds(scale) {
            for (name, text) in vpr_perfbench::reference_documents(scale, seed) {
                let p = refs::path(scale, name, seed);
                std::fs::create_dir_all(p.parent().expect("refs dir")).expect("create refs dir");
                std::fs::write(&p, text).expect("write reference");
                println!("wrote {}", p.display());
            }
        }
    }
    let _ = std::env::set_current_dir(work.parent().expect("parent"));
    let _ = std::fs::remove_dir_all(&work);
}
