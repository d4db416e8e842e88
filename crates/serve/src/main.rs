//! The `vpr-serve` binary: daemon, client, and drill tooling in one.
//!
//! ```text
//! vpr-serve serve   --socket S --dir D [--workers N] [--lease-ms M]
//!                   [--retries N] [--backoff-base-ms B] [--backoff-cap-ms C]
//!                   [--abort-after-appends N]
//! vpr-serve submit  --socket S [--json OUT] [--workloads a,b] [--schemes x,y]
//!                   [--regs N] [--warmup N] [--measure N] [--seed N]
//!                   [--miss-penalty N] [--timeout-s T]
//! vpr-serve metrics --socket S
//! vpr-serve check   --results R.json --golden table2.json
//! ```
//!
//! `submit` is idempotent: a spec the daemon already holds (and has not
//! failed) comes back under its existing id and is not run again.
//!
//! `--abort-after-appends N` is a drill hook: it aborts the process
//! (SIGKILL-equivalent) after N journalled job records.
//! `tests/daemon_lifecycle.rs` uses it to rehearse the kill-and-restart
//! contract.

use std::path::PathBuf;
use std::time::Duration;

use vpr_bench::cli::{self, or_exit};
use vpr_bench::jobs::JobSpec;
use vpr_bench::workloads::{Workload, TABLE2_SCHEMES};
use vpr_bench::ExperimentConfig;
use vpr_core::par::RetryPolicy;
use vpr_serve::{Client, ServeConfig, Server};
use vpr_snap::json::{self, Value};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args.remove(0);
    match command.as_str() {
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "metrics" => cmd_metrics(args),
        "check" => cmd_check(args),
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: vpr-serve <serve|submit|metrics|check> [flags]\n\
         see docs/service.md for the full protocol and operator playbook"
    );
    std::process::exit(2);
}

fn required(args: &mut Vec<String>, flag: &str) -> String {
    or_exit(cli::value(args, flag)).unwrap_or_else(|| {
        eprintln!("missing required flag {flag}");
        std::process::exit(2);
    })
}

/// `flag N` taken out of `args`, if present; a malformed value exits 2.
fn numeric<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    or_exit(cli::number(args, flag))
}

fn reject_leftovers(args: &[String]) {
    if let Some(extra) = args.first() {
        eprintln!("unrecognised argument: {extra}");
        std::process::exit(2);
    }
}

fn cmd_serve(mut args: Vec<String>) {
    let socket = PathBuf::from(required(&mut args, "--socket"));
    let dir = PathBuf::from(required(&mut args, "--dir"));
    let mut cfg = ServeConfig::new(socket, dir);
    cfg.workers = numeric(&mut args, "--workers").unwrap_or(cfg.workers);
    cfg.lease_ms = numeric(&mut args, "--lease-ms").unwrap_or(cfg.lease_ms);
    cfg.retry = RetryPolicy::backoff(
        numeric(&mut args, "--retries").unwrap_or(cfg.retry.budget),
        numeric(&mut args, "--backoff-base-ms").unwrap_or(cfg.retry.base_ms),
        numeric(&mut args, "--backoff-cap-ms").unwrap_or(cfg.retry.cap_ms),
    );
    cfg.abort_after_appends = numeric(&mut args, "--abort-after-appends");
    reject_leftovers(&args);

    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("vpr-serve: start failed: {e}");
        std::process::exit(1);
    });
    eprintln!("vpr-serve: listening");
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    server.stop();
}

fn experiment_from(args: &mut Vec<String>) -> ExperimentConfig {
    let quick = ExperimentConfig::quick();
    ExperimentConfig {
        warmup: numeric(args, "--warmup").unwrap_or(quick.warmup),
        measure: numeric(args, "--measure").unwrap_or(quick.measure),
        seed: numeric(args, "--seed").unwrap_or(quick.seed),
        miss_penalty: numeric(args, "--miss-penalty").unwrap_or(quick.miss_penalty),
        ..quick
    }
}

fn cmd_submit(mut args: Vec<String>) {
    let socket = required(&mut args, "--socket");
    let out = or_exit(cli::value(&mut args, "--json"));
    let workloads =
        or_exit(cli::workloads(&mut args, "--workloads")).unwrap_or_else(Workload::synthetic);
    let schemes =
        or_exit(cli::schemes(&mut args, "--schemes")).unwrap_or_else(|| TABLE2_SCHEMES.to_vec());
    let regs: usize = numeric(&mut args, "--regs").unwrap_or(64);
    let exp = experiment_from(&mut args);
    let timeout_s: u64 = numeric(&mut args, "--timeout-s").unwrap_or(600);
    reject_leftovers(&args);

    let specs: Vec<JobSpec> = workloads
        .iter()
        .flat_map(|&workload| {
            schemes.iter().map(move |&scheme| JobSpec {
                workload,
                scheme,
                physical_regs: regs,
                exp,
            })
        })
        .collect();

    let client = Client::new(&socket);
    let ids = client.submit(&specs).unwrap_or_else(|e| {
        eprintln!("vpr-serve submit: {e}");
        std::process::exit(1);
    });
    eprintln!("vpr-serve submit: {} jobs accepted", ids.len());
    let results = client
        .wait(&ids, Duration::from_secs(timeout_s))
        .unwrap_or_else(|e| {
            eprintln!("vpr-serve submit: {e}");
            std::process::exit(1);
        });

    let mut rows = Vec::with_capacity(results.len());
    let mut failed = 0usize;
    for (spec, r) in specs.iter().zip(&results) {
        if r.state == "failed" {
            failed += 1;
        }
        let mut row = format!(
            "{{\"id\": {}, \"workload\": \"{}\", \"scheme\": \"{}\", \"regs\": {}, \
             \"state\": \"{}\", \"attempts\": {}",
            r.id,
            json::escape(&spec.workload.name()),
            json::escape(&vpr_bench::workloads::scheme_label(spec.scheme)),
            spec.physical_regs,
            r.state,
            r.attempts
        );
        if let Some(output) = &r.output {
            row.push_str(&format!(", \"output\": {}", output.to_json()));
        }
        if let Some(error) = &r.error {
            row.push_str(&format!(", \"error\": \"{}\"", json::escape(error)));
        }
        row.push('}');
        rows.push(row);
    }
    let doc = format!(
        "{{\n  \"schema\": \"vpr-serve-results/v1\",\n  \"regs\": {regs},\n  \"results\": {}\n}}\n",
        json::row_array(rows)
    );
    match out {
        Some(path) => cli::write_artifact(std::path::Path::new(&path), &doc),
        None => print!("{doc}"),
    }
    if failed > 0 {
        eprintln!("vpr-serve submit: {failed} job(s) degraded to structured failures");
        std::process::exit(3);
    }
}

fn cmd_metrics(mut args: Vec<String>) {
    let socket = required(&mut args, "--socket");
    reject_leftovers(&args);
    let client = Client::new(&socket);
    match client.metrics() {
        Ok((_, prometheus)) => print!("{prometheus}"),
        Err(e) => {
            eprintln!("vpr-serve metrics: {e}");
            std::process::exit(1);
        }
    }
}

/// Compares a `submit --json` results file against the batch
/// `table2.json` golden: per workload, the conventional IPC, the VP-WB
/// IPC, and the VP executions-per-commit must agree at the golden's own
/// 4-decimal rendering. Byte-identical f64s always pass; anything that
/// diverges enough to move the printed table fails loudly.
fn cmd_check(mut args: Vec<String>) {
    let results_path = required(&mut args, "--results");
    let golden_path = required(&mut args, "--golden");
    reject_leftovers(&args);

    let read = |p: &str| -> Value {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("vpr-serve check: {p}: {e}");
            std::process::exit(1);
        });
        json::parse(&text).unwrap_or_else(|e| {
            eprintln!("vpr-serve check: {p}: {e}");
            std::process::exit(1);
        })
    };
    let results = read(&results_path);
    let golden = read(&golden_path);

    // Index the service results: (workload, scheme) -> (ipc, epc).
    let mut measured: Vec<(String, String, f64, f64)> = Vec::new();
    for r in results
        .as_object()
        .and_then(|o| o.get("results"))
        .and_then(Value::as_array)
        .unwrap_or_else(|| {
            eprintln!("vpr-serve check: results file has no `results` array");
            std::process::exit(1);
        })
    {
        let Some(obj) = r.as_object() else { continue };
        let workload = obj.get("workload").and_then(Value::as_str).unwrap_or("");
        let scheme = obj.get("scheme").and_then(Value::as_str).unwrap_or("");
        let output = obj.get("output").and_then(Value::as_object);
        let num = |k: &str| -> f64 {
            output
                .as_ref()
                .and_then(|o| o.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        measured.push((
            workload.to_string(),
            scheme.to_string(),
            num("ipc"),
            num("executions_per_commit"),
        ));
    }
    let find = |workload: &str, scheme: &str| -> Option<(f64, f64)> {
        measured
            .iter()
            .find(|(w, s, ..)| w == workload && s == scheme)
            .map(|&(_, _, ipc, epc)| (ipc, epc))
    };

    let rows = golden
        .as_object()
        .and_then(|o| o.get("rows"))
        .and_then(Value::as_array)
        .unwrap_or_else(|| {
            eprintln!("vpr-serve check: golden file has no `rows` array");
            std::process::exit(1);
        });
    let mut mismatches = 0usize;
    let mut compared = 0usize;
    for row in rows {
        let Some(obj) = row.as_object() else { continue };
        let bench = obj.get("benchmark").and_then(Value::as_str).unwrap_or("");
        let golden_num = |k: &str| obj.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let mut check = |what: &str, got: Option<f64>, want: f64| {
            compared += 1;
            let got_s = got
                .map(|v| json::fixed(v, 4))
                .unwrap_or_else(|| "absent".into());
            let want_s = json::fixed(want, 4);
            if got_s != want_s {
                eprintln!("MISMATCH {bench} {what}: service {got_s} vs golden {want_s}");
                mismatches += 1;
            }
        };
        let conv = find(bench, "conventional");
        let vp = find(bench, "vp-wb-nrr32");
        check("conv_ipc", conv.map(|(ipc, _)| ipc), golden_num("conv_ipc"));
        check("vp_ipc", vp.map(|(ipc, _)| ipc), golden_num("vp_ipc"));
        check(
            "vp_executions_per_commit",
            vp.map(|(_, epc)| epc),
            golden_num("vp_executions_per_commit"),
        );
    }
    if mismatches > 0 {
        eprintln!("vpr-serve check: {mismatches}/{compared} cells mismatched");
        std::process::exit(1);
    }
    println!("vpr-serve check: {compared} cells match the golden");
}
