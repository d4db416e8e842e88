//! One run per job spec in the sweep service: submit is idempotent on the
//! [`JobSpec`]. Equal specs get equal ids whether they arrive from two
//! tenants at once, twice in one submission, or after a restart, and the
//! daemon simulates each distinct spec once. Only a spec whose job failed
//! is accepted again, under a fresh id.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use vpr_bench::jobs::{execute_job, JobSpec};
use vpr_bench::ExperimentConfig;
use vpr_core::par::RetryPolicy;
use vpr_core::RenameScheme;
use vpr_serve::{Client, PollResult, ServeConfig, Server};
use vpr_snap::faults::{self, FaultKind, FaultOp, FaultPlan};
use vpr_trace::Benchmark;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-serve-dedup-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(workload: Benchmark, scheme: RenameScheme) -> JobSpec {
    JobSpec {
        workload: workload.into(),
        scheme,
        physical_regs: 64,
        exp: ExperimentConfig {
            warmup: 256,
            measure: 2_048,
            ..ExperimentConfig::quick()
        },
    }
}

/// Two overlapping grids: both tenants share the two swim points, each
/// has two points of its own, and tenant A repeats a shared point inside
/// its one submission. No two distinct specs share a warm checkpoint.
fn grids() -> [Vec<JobSpec>; 2] {
    let conv = RenameScheme::Conventional;
    let vp8 = RenameScheme::VirtualPhysicalWriteback { nrr: 8 };
    let vp16 = RenameScheme::VirtualPhysicalWriteback { nrr: 16 };
    let a = vec![
        spec(Benchmark::Swim, conv),
        spec(Benchmark::Swim, vp8),
        spec(Benchmark::Go, conv),
        spec(Benchmark::Go, vp8),
        spec(Benchmark::Swim, conv),
    ];
    let b = vec![
        spec(Benchmark::Swim, vp8),
        spec(Benchmark::Swim, conv),
        spec(Benchmark::Go, vp16),
        spec(Benchmark::Swim, vp16),
    ];
    [a, b]
}

fn config(root: &Path, workers: usize, retry: RetryPolicy) -> ServeConfig {
    let mut cfg = ServeConfig::new(root.join("serve.sock"), root.join("state"));
    cfg.workers = workers;
    cfg.retry = retry;
    cfg
}

/// Both grids submitted concurrently, one client each; returns each
/// tenant's ids and results.
fn submit_both(socket: &Path, grids: &[Vec<JobSpec>; 2]) -> Vec<(Vec<u64>, Vec<PollResult>)> {
    let handles: Vec<_> = grids
        .iter()
        .cloned()
        .map(|specs| {
            let client = Client::new(socket);
            std::thread::spawn(move || {
                let ids = client.submit(&specs).expect("submit");
                let results = client.wait(&ids, Duration::from_secs(120)).expect("wait");
                (ids, results)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn assert_done_bits(r: &PollResult, spec: &JobSpec) {
    let ctx = spec.label();
    assert_eq!(r.state, "done", "{ctx}: {:?}", r.error);
    let got = &r.output.as_ref().expect("done carries output").metrics;
    let want = execute_job(spec, None).metrics;
    assert_eq!(got.ipc.to_bits(), want.ipc.to_bits(), "{ctx}: ipc");
    assert_eq!(
        got.miss_ratio.to_bits(),
        want.miss_ratio.to_bits(),
        "{ctx}: miss ratio"
    );
    assert_eq!(
        got.executions_per_commit.to_bits(),
        want.executions_per_commit.to_bits(),
        "{ctx}: executions per commit"
    );
}

#[test]
fn equal_specs_share_one_id_and_one_run_across_tenants_and_restarts() {
    // No fault is armed here, but the registry is process-global: keep
    // the other test's worker kill out of this daemon.
    let _x = faults::exclusive();
    let grids = grids();
    let submitted = grids[0].len() + grids[1].len();
    let root = tmp("share");
    let cfg = config(&root, 2, RetryPolicy::backoff(3, 100, 2_000));

    let server = Server::start(cfg.clone()).expect("daemon starts");
    let tenants = submit_both(&cfg.socket, &grids);
    let metrics = server.metrics();
    server.stop();

    let mut id_of: HashMap<&JobSpec, u64> = HashMap::new();
    for (specs, (ids, results)) in grids.iter().zip(&tenants) {
        for ((spec, &id), r) in specs.iter().zip(ids).zip(results) {
            assert_eq!(
                *id_of.entry(spec).or_insert(id),
                id,
                "{}: equal specs must share an id",
                spec.label()
            );
            assert_eq!(r.id, id);
            assert_done_bits(r, spec);
        }
    }
    let distinct = id_of.len();
    let mut unique_ids: Vec<u64> = id_of.values().copied().collect();
    unique_ids.sort_unstable();
    unique_ids.dedup();
    assert_eq!(
        unique_ids.len(),
        distinct,
        "distinct specs need distinct ids"
    );
    assert_eq!(metrics.jobs_completed, distinct as u64, "one run per spec");
    assert_eq!(metrics.jobs_accepted, distinct as u64);
    // Every repeat reused an id; no distinct spec shares a warm-up, so
    // no warm-checkpoint hit adds to the count.
    assert_eq!(metrics.dedup_hits, (submitted - distinct) as u64);

    // A restart on the same directory answers the resubmitted grids from
    // the journal: the same ids, all done, nothing run again.
    let server = Server::start(cfg.clone()).expect("daemon restarts");
    let again = submit_both(&cfg.socket, &grids);
    let metrics = server.metrics();
    server.stop();
    for ((specs, (ids, results)), (first_ids, _)) in grids.iter().zip(&again).zip(&tenants) {
        assert_eq!(ids, first_ids, "resubmission after restart keeps the ids");
        for (spec, r) in specs.iter().zip(results) {
            assert_done_bits(r, spec);
        }
    }
    assert_eq!(metrics.jobs_completed, 0, "nothing re-runs after restart");
    assert_eq!(metrics.jobs_accepted, 0);
    assert_eq!(metrics.replay_hits, distinct as u64);
    assert_eq!(metrics.dedup_hits, submitted as u64);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_failed_spec_is_accepted_again_under_a_fresh_id() {
    let _x = faults::exclusive();
    let spec = spec(Benchmark::Go, RenameScheme::Conventional);
    let root = tmp("failed");
    let cfg = config(&root, 1, RetryPolicy::none());
    let server = Server::start(cfg.clone()).expect("daemon starts");
    let client = Client::new(&cfg.socket);

    // Budget 0 and one injected worker death: the first job fails.
    faults::arm(FaultPlan::new(FaultKind::WorkerKill, FaultOp::Worker, ""));
    let first = client.submit(std::slice::from_ref(&spec)).unwrap();
    let failed = client.wait(&first, Duration::from_secs(60)).unwrap();
    assert!(
        faults::disarm().is_some(),
        "the worker kill must have fired"
    );
    assert_eq!(failed[0].state, "failed");

    let second = client.submit(std::slice::from_ref(&spec)).unwrap();
    let done = client.wait(&second, Duration::from_secs(60)).unwrap();
    let metrics = server.metrics();
    server.stop();

    assert_ne!(first, second, "a failed job's spec gets a fresh id");
    assert_done_bits(&done[0], &spec);
    assert_eq!(metrics.jobs_accepted, 2);
    assert_eq!(metrics.jobs_failed, 1);
    assert_eq!(metrics.jobs_completed, 1);
    assert_eq!(metrics.dedup_hits, 0);

    let _ = std::fs::remove_dir_all(&root);
}
