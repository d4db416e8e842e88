//! The experiment front end: every figure/table artefact keeps its bytes,
//! and the shared command-line parser refuses bad input before any
//! simulation runs.
//!
//! * The JSON of `table2`, `fig4`–`fig7` and `asm_eval` (exact, plus
//!   sampled `table2` and `asm_eval`) over {swim, `asm:matmul`} at a tiny
//!   scale must match the byte goldens in `tests/golden/front_end_*.json`.
//! * [`ExperimentArgs::parse`] returns an error, and runs no sweep, for an
//!   unknown flag, a non-numeric value, an unknown workload, and a
//!   `--sampled` run whose plan [`vpr_bench::SamplingPlan::try_validate`]
//!   rejects.
//!
//! Regenerate the goldens only for an intentional change to an artefact:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test experiment_front_end
//! ```

use std::path::PathBuf;
use vpr_bench::cli::ExperimentArgs;
use vpr_bench::{experiments, ExperimentConfig, SweepContext, Workload};

fn exp() -> ExperimentConfig {
    ExperimentConfig {
        warmup: 150,
        measure: 1_500,
        jobs: 2,
        ..ExperimentConfig::default()
    }
}

fn workloads() -> Vec<Workload> {
    ["swim", "asm:matmul"]
        .map(|name| Workload::parse(name).unwrap())
        .to_vec()
}

#[test]
fn artefacts_match_their_byte_goldens() {
    let (exp, ws) = (exp(), workloads());
    let exact = SweepContext::exact();
    let sampled = SweepContext::new(true, None);
    let artefacts = [
        (
            "table2",
            experiments::table2_for(&ws, &exp, &exact).to_json(),
        ),
        ("fig4", experiments::fig4_for(&ws, &exp, &exact).to_json()),
        ("fig5", experiments::fig5_for(&ws, &exp, &exact).to_json()),
        ("fig6", experiments::fig6_for(&ws, &exp, &exact).to_json()),
        ("fig7", experiments::fig7_for(&ws, &exp, &exact).to_json()),
        (
            "asm_eval",
            experiments::asm_eval_for(&ws, &exp, &exact).to_json(),
        ),
        (
            "table2_sampled",
            experiments::table2_for(&ws, &exp, &sampled).to_json(),
        ),
        (
            "asm_eval_sampled",
            experiments::asm_eval_for(&ws, &exp, &sampled).to_json(),
        ),
    ];
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut diverged = Vec::new();
    for (name, json) in &artefacts {
        let path = dir.join(format!("front_end_{name}.json"));
        if update {
            std::fs::write(&path, json).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if &golden != json {
            diverged.push(format!(
                "{} diverged\n--- golden ---\n{golden}--- current ---\n{json}",
                path.display()
            ));
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

#[test]
fn the_shared_parser_refuses_bad_input_before_any_sweep() {
    let dir = std::env::temp_dir().join(format!("vpr-front-end-{}", std::process::id()));
    let parse = |extra: &[&str]| {
        let mut args = vec!["--checkpoint-dir".to_string(), dir.display().to_string()];
        args.extend(extra.iter().map(|a| a.to_string()));
        ExperimentArgs::parse(args, "front_end.json")
    };
    let ok = parse(&[
        "--sampled",
        "--workload",
        "swim,asm:matmul",
        "--measure",
        "1500",
    ])
    .expect("a valid command line parses");
    assert!(ok.ctx.is_sampled());
    assert_eq!(ok.workloads, Some(workloads()));
    assert_eq!(
        (ok.exp.measure, ok.json),
        (1_500, PathBuf::from("front_end.json"))
    );
    for (args, names) in [
        (&["--bogus"][..], "--bogus"),
        (&["--measure", "ten"], "--measure"),
        (&["--workload", "swim,nosuch"], "nosuch"),
        (&["--sampled", "--measure", "10"], "sampling plan"),
    ] {
        let err = parse(args).expect_err(&format!("{args:?} must be refused"));
        assert!(err.contains(names), "{args:?}: `{err}` should name {names}");
        assert!(!err.contains('\n'), "{args:?}: one line, not `{err}`");
    }
    // Parsing opened nothing: no checkpoint directory, no artefact.
    assert!(!dir.exists());
    assert!(!PathBuf::from("front_end.json").exists());
}
