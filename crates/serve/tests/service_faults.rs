//! Single-fault byte-identity at the **service** layer: any one injected
//! fault at the daemon's three hook points — a journal append that errors,
//! tears, or bit-flips; a client connection
//! dropped before the response; a worker killed the moment it picks a job
//! up — may cost a retry or a reconnect, but every client's results must
//! stay byte-identical to a fault-free serial run.
//!
//! Seeds sweep [`FaultPlan::from_seed_service`], which covers the whole
//! service matrix (kind × hook × position). Each seed runs an in-process
//! daemon (the fault registry is process-global) with two concurrent
//! tenants submitting overlapping grids, so dedup by job spec is
//! exercised under fault too.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vpr_bench::jobs::{execute_job, JobOutput, JobSpec};
use vpr_bench::ExperimentConfig;
use vpr_core::par::RetryPolicy;
use vpr_core::RenameScheme;
use vpr_serve::{Client, ServeConfig, Server};
use vpr_snap::faults::{self, FaultKind, FaultOp, FaultPlan};
use vpr_trace::Benchmark;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-serve-faults-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grid() -> Vec<JobSpec> {
    let exp = ExperimentConfig {
        warmup: 256,
        measure: 2_048,
        ..ExperimentConfig::quick()
    };
    let mut specs = Vec::new();
    for workload in [Benchmark::Swim, Benchmark::Go] {
        for scheme in [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalWriteback { nrr: 8 },
        ] {
            specs.push(JobSpec {
                workload: workload.into(),
                scheme,
                physical_regs: 64,
                exp,
            });
        }
    }
    specs
}

fn assert_bits(got: &JobOutput, want: &JobOutput, ctx: &str) {
    assert_eq!(
        got.metrics.ipc.to_bits(),
        want.metrics.ipc.to_bits(),
        "{ctx}: ipc"
    );
    assert_eq!(
        got.metrics.miss_ratio.to_bits(),
        want.metrics.miss_ratio.to_bits(),
        "{ctx}: miss ratio"
    );
    assert_eq!(
        got.metrics.executions_per_commit.to_bits(),
        want.metrics.executions_per_commit.to_bits(),
        "{ctx}: executions per commit"
    );
}

#[test]
fn any_single_service_fault_leaves_every_client_byte_identical() {
    // Arming is process-global: serialise against every other fault test.
    let _x = faults::exclusive();

    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    // Pick the smallest seed set that covers the full service matrix:
    // 5 (kind, hook) combos × 2 positions.
    let mut seeds = Vec::new();
    let mut distinct = BTreeSet::new();
    for seed in 0..256u64 {
        let plan = FaultPlan::from_seed_service(seed, "");
        if distinct.insert((plan.kind.label(), plan.nth)) {
            seeds.push(seed);
        }
        if distinct.len() == 10 {
            break;
        }
    }

    let mut covered: BTreeSet<&'static str> = BTreeSet::new();
    for seed in seeds {
        let plan = FaultPlan::from_seed_service(seed, "");
        covered.insert(plan.kind.label());
        let ctx = format!(
            "seed {seed}: {}/{} nth={}",
            plan.kind.label(),
            plan.op.label(),
            plan.nth
        );

        let root = tmp(&format!("seed-{seed}"));
        let socket = root.join("serve.sock");
        let mut cfg = ServeConfig::new(&socket, root.join("state"));
        cfg.workers = 2;
        cfg.retry = RetryPolicy::immediate(3);
        let server = Server::start(cfg).expect("daemon starts");
        faults::arm(plan);

        // Two tenants, overlapping grids, concurrently.
        let handles: Vec<_> = (0..2)
            .map(|tenant| {
                let specs = specs.clone();
                let socket = socket.clone();
                std::thread::spawn(move || {
                    let client = Client::new(socket);
                    let ids = client
                        .submit(&specs)
                        .unwrap_or_else(|e| panic!("tenant {tenant} submit: {e}"));
                    client
                        .wait(&ids, Duration::from_secs(180))
                        .unwrap_or_else(|e| panic!("tenant {tenant} wait: {e}"))
                })
            })
            .collect();
        let tenants: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let fired = faults::disarm();
        server.stop();

        for (tenant, results) in tenants.iter().enumerate() {
            assert_eq!(results.len(), specs.len(), "{ctx}");
            for ((spec, r), want) in specs.iter().zip(results).zip(&reference) {
                let ctx = format!("{ctx} (fired: {fired:?}) tenant {tenant}: {}", spec.label());
                assert_eq!(r.state, "done", "{ctx}: {:?}", r.error);
                assert_bits(r.output.as_ref().expect("done carries output"), want, &ctx);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    // The seed sweep must have touched every service fault kind.
    let expected: BTreeSet<&'static str> = [
        "io-error",
        "truncate",
        "bit-flip",
        "client-disconnect",
        "worker-kill",
    ]
    .into_iter()
    .collect();
    assert_eq!(covered, expected, "seed sweep missed part of the matrix");
}

#[test]
fn exhausted_retry_budget_degrades_into_a_structured_failure() {
    let _x = faults::exclusive();

    // A plan that kills the worker every time it picks this job up would
    // need a multi-shot registry; instead, exhaust the budget with a
    // zero-retry policy and a single worker-kill — one attempt, one
    // injected death, budget gone.
    let spec = grid().remove(0);
    let root = tmp("degrade");
    let socket = root.join("serve.sock");
    let mut cfg = ServeConfig::new(&socket, root.join("state"));
    cfg.workers = 1;
    cfg.retry = RetryPolicy::none();
    let server = Server::start(cfg).expect("daemon starts");
    faults::arm(FaultPlan::new(FaultKind::WorkerKill, FaultOp::Worker, ""));

    let client = Client::new(&socket);
    let ids = client.submit(std::slice::from_ref(&spec)).unwrap();
    let results = client.wait(&ids, Duration::from_secs(60)).unwrap();

    let fired = faults::disarm();
    server.stop();

    assert!(fired.is_some(), "the worker-kill fault must have fired");
    let r = &results[0];
    assert_eq!(
        r.state, "failed",
        "budget 0 means the first death is terminal"
    );
    assert!(
        r.error.as_deref().unwrap_or("").contains("worker kill"),
        "{:?}",
        r.error
    );
    // The degradation is structured: NaN metrics, not a wedged queue.
    assert!(r
        .output
        .as_ref()
        .expect("failed carries the NaN placeholder")
        .metrics
        .is_failed());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_worker_death_is_retried_after_the_backoff_delay() {
    let _x = faults::exclusive();

    // One injected death under a one-retry, 200 ms backoff policy: the
    // worker sleeps the delay, the second attempt runs clean, and the
    // result is the fault-free bits.
    let spec = grid().remove(0);
    let want = execute_job(&spec, None);
    let root = tmp("backoff");
    let socket = root.join("serve.sock");
    let mut cfg = ServeConfig::new(&socket, root.join("state"));
    cfg.workers = 1;
    cfg.retry = RetryPolicy::backoff(1, 200, 200);
    let server = Server::start(cfg).expect("daemon starts");
    faults::arm(FaultPlan::new(FaultKind::WorkerKill, FaultOp::Worker, ""));

    let client = Client::new(&socket);
    let submitted = Instant::now();
    let ids = client.submit(std::slice::from_ref(&spec)).unwrap();
    let results = client.wait(&ids, Duration::from_secs(60)).unwrap();
    let elapsed = submitted.elapsed();
    let (_, prometheus) = client.metrics().unwrap();

    let fired = faults::disarm();
    server.stop();

    assert!(fired.is_some(), "the worker-kill fault must have fired");
    let r = &results[0];
    assert_eq!(r.state, "done", "{:?}", r.error);
    assert_eq!(r.attempts, 2);
    assert!(
        prometheus.contains("vpr_serve_retries_total 1\n"),
        "{prometheus}"
    );
    assert_bits(
        r.output.as_ref().expect("done carries output"),
        &want,
        "backoff",
    );
    assert!(
        elapsed >= Duration::from_millis(200),
        "the retry ran before its 200 ms delay: {elapsed:?}"
    );

    let _ = std::fs::remove_dir_all(&root);
}
