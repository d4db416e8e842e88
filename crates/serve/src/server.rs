//! The daemon: listener, worker pool, and the shared job table
//! everything coordinates through.
//!
//! ### Ownership of a job
//!
//! A job moves `Queued → Running → {Done, Failed}`. The worker that pops
//! it owns it until it files the terminal outcome: it runs the job
//! through [`vpr_core::par::run_one`], the retry loop batch sweeps use,
//! so a worker death (a panic) is retried on the same worker after the
//! [`RetryPolicy`]'s capped exponential delay. Exactly one execution of a
//! job exists at a time. A job that hangs holds its worker; a simulated
//! deadlock cannot hang, because the kernel's no-commit assert panics
//! and the retry loop takes it from there.
//!
//! ### Crash safety
//!
//! Accepted work and terminal outcomes go through the
//! [`crate::journal`] before they are visible on the wire; everything
//! else (running attempts, the ready queue) is reconstructible state
//! that a restart simply resets: replayed non-terminal jobs start
//! `Queued` with a fresh retry budget.
//!
//! ### One run per spec
//!
//! Submit is idempotent on the [`JobSpec`]: a spec equal to one already
//! accepted gets that job's id back, unless the job `Failed`. The repeat
//! is never journalled or queued, so equal specs from any tenant, before
//! or after a restart, cost one simulation between them.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use vpr_bench::checkpoints::{CheckpointOutcome, CheckpointStore};
use vpr_bench::jobs::{execute_job, JobOutput, JobSpec};
use vpr_core::par::{run_one, JobFailure, RetryPolicy};
use vpr_obs::telemetry::{JobOutcome, JobTelemetry, RunTelemetry};
use vpr_obs::ServeMetrics;
use vpr_snap::faults;

use crate::journal::{Journal, Record};
use crate::protocol::{error_line, parse_request, PollResult, Request};

/// Subdirectory of the working dir holding the shared checkpoint store.
pub const STORE_SUBDIR: &str = "checkpoints";
/// Service run-telemetry artefact inside the working dir.
pub const TELEMETRY_FILE: &str = "serve.run.telemetry.json";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Working directory: journal, checkpoint store, telemetry.
    pub dir: PathBuf,
    /// Worker count (0 = [`vpr_core::par::default_jobs`]).
    pub workers: usize,
    /// Retry discipline for worker deaths.
    pub retry: RetryPolicy,
    /// Test hook: abort the process (as SIGKILL would) after this many
    /// journalled job records — the deterministic "crash at the worst
    /// moment" the kill-and-restart drill uses.
    pub abort_after_appends: Option<u64>,
}

impl ServeConfig {
    /// A config with the production defaults: auto worker count, 3
    /// retries backing off 100 ms → 2 s.
    pub fn new(socket: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            dir: dir.into(),
            workers: 0,
            retry: RetryPolicy::backoff(3, 100, 2_000),
            abort_after_appends: None,
        }
    }
}

#[derive(Debug, Clone)]
enum JobState {
    /// In the ready queue (or about to be popped from it).
    Queued,
    /// On a worker: running an attempt or sleeping its retry delay.
    /// Polls report it as `"leased"`.
    Running,
    /// Terminal success.
    Done { output: JobOutput },
    /// Terminal degradation: retry budget exhausted.
    Failed { error: String, attempts: u32 },
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Attempts started so far (set by the worker as each one begins).
    attempts: u32,
    submitted: Instant,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    dedup_hits: AtomicU64,
    replay_hits: AtomicU64,
    job_appends: AtomicU64,
}

struct Inner {
    cfg: ServeConfig,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    /// The id each spec was last accepted under. A submit holds this
    /// lock for its whole batch, so equal specs racing in from two
    /// tenants resolve to one id.
    by_spec: Mutex<HashMap<JobSpec, u64>>,
    ready: Mutex<VecDeque<u64>>,
    ready_cv: Condvar,
    journal: Mutex<Journal>,
    store: Mutex<CheckpointStore>,
    telemetry: Mutex<RunTelemetry>,
    counters: Counters,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon (in-process handle). Dropping without [`Server::stop`]
/// leaves threads running until the process exits; tests should stop.
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Opens the journal, replays it, binds the socket, and spawns the
    /// listener and the workers.
    ///
    /// # Errors
    ///
    /// Propagates journal, store-directory, and socket-bind failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.dir)?;
        let (journal, replay) = Journal::open(&cfg.dir)?;
        let (store, store_note) = CheckpointStore::open_resilient(&cfg.dir.join(STORE_SUBDIR));
        if let Some(note) = store_note {
            eprintln!("vpr-serve: checkpoint store degraded: {note}");
        }

        // Rebuild the job table: terminal records win over their job
        // record; everything else re-queues with a fresh budget. A spec
        // journalled twice (by an older daemon) keeps both jobs, and the
        // latest id answers later submits.
        let mut jobs: HashMap<u64, JobEntry> = HashMap::new();
        let mut by_spec: HashMap<JobSpec, u64> = HashMap::new();
        let mut max_id = 0u64;
        let now = Instant::now();
        let mut replayed = 0u64;
        for rec in replay.records {
            match rec {
                Record::Job { id, spec } => {
                    max_id = max_id.max(id);
                    by_spec.insert(spec.clone(), id);
                    jobs.insert(
                        id,
                        JobEntry {
                            spec,
                            state: JobState::Queued,
                            attempts: 0,
                            submitted: now,
                        },
                    );
                }
                Record::Done { id, output } => {
                    max_id = max_id.max(id);
                    if let Some(entry) = jobs.get_mut(&id) {
                        entry.state = JobState::Done { output };
                        replayed += 1;
                    }
                }
                Record::Failed {
                    id,
                    error,
                    attempts,
                } => {
                    max_id = max_id.max(id);
                    if let Some(entry) = jobs.get_mut(&id) {
                        entry.state = JobState::Failed { error, attempts };
                        entry.attempts = attempts;
                    }
                }
            }
        }
        let ready: VecDeque<u64> = {
            let mut ids: Vec<u64> = jobs
                .iter()
                .filter(|(_, e)| matches!(e.state, JobState::Queued))
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            ids.into()
        };

        // A stale socket file from a killed daemon blocks the bind.
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;

        let workers = if cfg.workers == 0 {
            vpr_core::par::default_jobs()
        } else {
            cfg.workers
        };
        let inner = Arc::new(Inner {
            telemetry: Mutex::new(RunTelemetry::new(workers)),
            cfg,
            jobs: Mutex::new(jobs),
            by_spec: Mutex::new(by_spec),
            ready: Mutex::new(ready),
            ready_cv: Condvar::new(),
            journal: Mutex::new(journal),
            store: Mutex::new(store),
            counters: Counters::default(),
            next_id: AtomicU64::new(max_id + 1),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        inner
            .counters
            .replay_hits
            .store(replayed, Ordering::Relaxed);
        inner.ready_cv.notify_all();

        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            let handlers = Arc::clone(&handlers);
            threads.push(std::thread::spawn(move || {
                listen_loop(&inner, listener, &handlers)
            }));
        }
        for _ in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        Ok(Server {
            inner,
            threads,
            handlers,
        })
    }

    /// Snapshot of the service metrics.
    pub fn metrics(&self) -> ServeMetrics {
        snapshot_metrics(&self.inner)
    }

    /// True once a shutdown request was received (the binary's main loop
    /// polls this).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful stop: drains the threads and removes the socket file.
    /// In-flight jobs run to their terminal outcome, retries and backoff
    /// delays included; nothing is lost — unfinished jobs replay from the
    /// journal on the next start.
    pub fn stop(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.ready_cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *lock(&self.handlers));
        for t in handlers {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
    }
}

fn snapshot_metrics(inner: &Inner) -> ServeMetrics {
    let queue_depth = lock(&inner.jobs)
        .values()
        .filter(|e| matches!(e.state, JobState::Queued | JobState::Running))
        .count() as u64;
    let c = &inner.counters;
    ServeMetrics {
        jobs_accepted: c.accepted.load(Ordering::Relaxed),
        jobs_completed: c.completed.load(Ordering::Relaxed),
        jobs_failed: c.failed.load(Ordering::Relaxed),
        queue_depth,
        retries: c.retries.load(Ordering::Relaxed),
        dedup_hits: c.dedup_hits.load(Ordering::Relaxed),
        replay_hits: c.replay_hits.load(Ordering::Relaxed),
    }
}

fn listen_loop(
    inner: &Arc<Inner>,
    listener: UnixListener,
    handlers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut conn_seq = 0u64;
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn_seq += 1;
                let inner = Arc::clone(inner);
                let label = format!("conn-{conn_seq}");
                let handle = std::thread::spawn(move || handle_connection(&inner, stream, &label));
                lock(handlers).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: UnixStream, label: &str) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = match parse_request(trimmed) {
            Ok(req) => handle_request(inner, req),
            Err(e) => error_line(&format!("bad request: {e}")),
        };
        // Injected client-disconnect: drop the connection before the
        // response leaves. The client's reconnect-and-repoll discipline
        // must absorb this without ever seeing a torn result.
        if faults::client_disconnects(label) {
            return;
        }
        if stream
            .write_all(format!("{response}\n").as_bytes())
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_request(inner: &Arc<Inner>, req: Request) -> String {
    match req {
        Request::Submit(specs) => {
            let mut ids = Vec::with_capacity(specs.len());
            let mut by_spec = lock(&inner.by_spec);
            for spec in specs {
                if let Some(&id) = by_spec.get(&spec) {
                    let live = lock(&inner.jobs)
                        .get(&id)
                        .is_some_and(|e| !matches!(e.state, JobState::Failed { .. }));
                    if live {
                        inner.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        ids.push(id.to_string());
                        continue;
                    }
                }
                let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
                // Durable first, visible second: the ack below covers
                // only journalled jobs.
                if let Err(e) = lock(&inner.journal).append(&Record::Job {
                    id,
                    spec: spec.clone(),
                }) {
                    return error_line(&format!(
                        "journal append failed after {} accepted: {e}",
                        ids.len()
                    ));
                }
                let appended = inner.counters.job_appends.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(limit) = inner.cfg.abort_after_appends {
                    if appended >= limit {
                        // The drill's simulated SIGKILL: no destructors,
                        // no flushes — only the journal survives.
                        std::process::abort();
                    }
                }
                by_spec.insert(spec.clone(), id);
                lock(&inner.jobs).insert(
                    id,
                    JobEntry {
                        spec,
                        state: JobState::Queued,
                        attempts: 0,
                        submitted: Instant::now(),
                    },
                );
                lock(&inner.ready).push_back(id);
                inner.ready_cv.notify_one();
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                ids.push(id.to_string());
            }
            format!("{{\"ok\": true, \"ids\": [{}]}}", ids.join(", "))
        }
        Request::Poll(ids) => {
            let jobs = lock(&inner.jobs);
            let results: Vec<String> = ids
                .iter()
                .map(|id| {
                    let r = match jobs.get(id) {
                        None => PollResult {
                            id: *id,
                            state: "unknown".into(),
                            output: None,
                            error: None,
                            attempts: 0,
                        },
                        Some(entry) => {
                            let (state, output, error, attempts) = match &entry.state {
                                JobState::Queued => ("queued", None, None, entry.attempts),
                                JobState::Running => ("leased", None, None, entry.attempts),
                                JobState::Done { output } => {
                                    ("done", Some(output.clone()), None, entry.attempts)
                                }
                                JobState::Failed { error, attempts } => (
                                    "failed",
                                    Some(JobOutput {
                                        metrics: vpr_bench::sweep::PointMetrics::failed(),
                                        outcome: CheckpointOutcome::NoStore,
                                        note: None,
                                    }),
                                    Some(error.clone()),
                                    *attempts,
                                ),
                            };
                            PollResult {
                                id: *id,
                                state: state.into(),
                                output,
                                error,
                                attempts,
                            }
                        }
                    };
                    r.to_json()
                })
                .collect();
            format!("{{\"ok\": true, \"results\": [{}]}}", results.join(", "))
        }
        Request::Status => {
            let jobs = lock(&inner.jobs);
            let mut queued = 0u64;
            let mut leased = 0u64;
            let mut done = 0u64;
            let mut failed = 0u64;
            for e in jobs.values() {
                match e.state {
                    JobState::Queued => queued += 1,
                    JobState::Running => leased += 1,
                    JobState::Done { .. } => done += 1,
                    JobState::Failed { .. } => failed += 1,
                }
            }
            format!(
                "{{\"ok\": true, \"queued\": {queued}, \"leased\": {leased}, \
                 \"done\": {done}, \"failed\": {failed}}}"
            )
        }
        Request::Metrics => {
            let m = snapshot_metrics(inner);
            format!(
                "{{\"ok\": true, \"metrics\": {}, \"prometheus\": \"{}\"}}",
                m.to_json_value(),
                vpr_snap::json::escape(&m.to_prometheus())
            )
        }
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.ready_cv.notify_all();
            "{\"ok\": true}".to_string()
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        // Pop a ready id, or park until one appears / shutdown.
        let id = {
            let mut ready = lock(&inner.ready);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = ready.pop_front() {
                    break id;
                }
                let (guard, _) = inner
                    .ready_cv
                    .wait_timeout(ready, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                ready = guard;
            }
        };
        // Claim it (skip stale queue references).
        let (spec, queue_wait) = {
            let mut jobs = lock(&inner.jobs);
            let Some(entry) = jobs.get_mut(&id) else {
                continue;
            };
            if !matches!(entry.state, JobState::Queued) {
                continue;
            }
            entry.state = JobState::Running;
            (entry.spec.clone(), entry.submitted.elapsed().as_secs_f64())
        };
        let label = spec.label();
        let run = run_one(inner.cfg.retry, id as usize, |attempt| {
            if let Some(entry) = lock(&inner.jobs).get_mut(&id) {
                entry.attempts = attempt;
            }
            if attempt > 1 {
                inner.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            let begun = Instant::now();
            // The injected worker-kill fires here — after the claim,
            // before any work — modelling a worker that dies the moment
            // it picks the job up.
            faults::maybe_kill_worker(&label);
            let output = execute_job(&spec, Some(&inner.store));
            (output, begun.elapsed().as_secs_f64())
        });
        match run.result {
            Ok((output, wall_s)) => {
                let recovered = run.recovered.len() as u64;
                complete_job(inner, id, &spec, output, recovered, queue_wait, wall_s);
            }
            Err(failure) => fail_job(inner, id, &label, &failure),
        }
    }
}

fn complete_job(
    inner: &Arc<Inner>,
    id: u64,
    spec: &JobSpec,
    output: JobOutput,
    recovered: u64,
    queue_wait: f64,
    wall_s: f64,
) {
    if let Some(entry) = lock(&inner.jobs).get_mut(&id) {
        entry.state = JobState::Done {
            output: output.clone(),
        };
        // Counted under the table lock: a poll that sees `done` sees the
        // count too.
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
    if let Err(e) = lock(&inner.journal).append(&Record::Done {
        id,
        output: output.clone(),
    }) {
        // The result is still served from memory; a restart will re-run
        // this one job. Degradation, not loss.
        eprintln!("vpr-serve: done-record append failed for job {id}: {e}");
    }
    let telemetry_outcome = match output.outcome {
        CheckpointOutcome::Hit => {
            inner.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
            JobOutcome::CacheHit
        }
        CheckpointOutcome::Miss => JobOutcome::CacheMiss,
        CheckpointOutcome::NoStore => JobOutcome::NoStore,
    };
    let mut telemetry = lock(&inner.telemetry);
    telemetry.push(JobTelemetry {
        label: spec.label(),
        config: spec.exp.job_config(),
        stage: "serve",
        queue_wait_s: queue_wait,
        wall_s,
        outcome: telemetry_outcome,
        recovered,
    });
    telemetry.wall_s = inner.started.elapsed().as_secs_f64();
    let rendered = telemetry.to_json();
    drop(telemetry);
    let _ = vpr_snap::atomic_write(&inner.cfg.dir.join(TELEMETRY_FILE), rendered.as_bytes());
}

/// Files the terminal failure of a job whose retry budget ran out: the
/// structured failure the batch sweep would report (NaN metrics,
/// recovered: false) — the queue moves on.
fn fail_job(inner: &Arc<Inner>, id: u64, label: &str, failure: &JobFailure) {
    let attempts = failure.attempts;
    let error = format!(
        "job {label} failed after {attempts} attempts: {}",
        failure.message
    );
    if let Some(entry) = lock(&inner.jobs).get_mut(&id) {
        entry.state = JobState::Failed {
            error: error.clone(),
            attempts,
        };
    }
    if let Err(e) = lock(&inner.journal).append(&Record::Failed {
        id,
        error,
        attempts,
    }) {
        eprintln!("vpr-serve: failed-record append failed for job {id}: {e}");
    }
    inner.counters.failed.fetch_add(1, Ordering::Relaxed);
}
