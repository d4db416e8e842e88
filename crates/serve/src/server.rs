//! The daemon: listener, worker pool, lease supervisor, and the shared
//! job table everything coordinates through.
//!
//! ### Ownership of a job
//!
//! A job moves `Queued → Leased → {Done, Failed}` with two loops back:
//! a worker death or expired lease sends it to `Backoff` (capped
//! exponential delay per the [`RetryPolicy`]) and the supervisor returns
//! it to `Queued` when the delay elapses. Terminal states are sticky:
//! the first completion wins, and a straggling duplicate execution (its
//! lease was reclaimed while it was still running) is discarded — which
//! is harmless, because jobs are deterministic and both executions
//! produced the same bits.
//!
//! ### Crash safety
//!
//! Accepted work and terminal outcomes go through the
//! [`crate::journal`] before they are visible on the wire; everything
//! else (leases, backoff timers, the ready queue) is reconstructible
//! state that a restart simply resets: replayed non-terminal jobs start
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use vpr_bench::checkpoints::{CheckpointOutcome, CheckpointStore};
use vpr_bench::jobs::{execute_job, JobOutput, JobSpec};
use vpr_core::par::{panic_message, RetryPolicy};
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
    /// Lease deadline per job attempt, in milliseconds.
    pub lease_ms: u64,
    /// Retry discipline for worker deaths and expired leases.
    pub retry: RetryPolicy,
    /// Test hook: abort the process (as SIGKILL would) after this many
    /// journalled job records — the deterministic "crash at the worst
    /// moment" the kill-and-restart drill uses.
    pub abort_after_appends: Option<u64>,
}

impl ServeConfig {
    /// A config with the production defaults: auto worker count, 30 s
    /// leases, 3 retries backing off 100 ms → 2 s.
    pub fn new(socket: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            dir: dir.into(),
            workers: 0,
            lease_ms: 30_000,
            retry: RetryPolicy::backoff(3, 100, 2_000),
            abort_after_appends: None,
        }
    }
}

#[derive(Debug, Clone)]
enum JobState {
    /// In the ready queue (or about to be popped from it).
    Queued,
    /// Waiting out a retry delay; the supervisor re-queues it.
    Backoff { until: Instant },
    /// On a worker, with a reclaim deadline.
    Leased { deadline: Instant },
    /// Terminal success.
    Done { output: JobOutput },
    /// Terminal degradation: retry budget exhausted.
    Failed { error: String, attempts: u32 },
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Attempts started so far.
    attempts: u32,
    submitted: Instant,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    lease_expiries: AtomicU64,
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
    /// listener, workers, and lease supervisor.
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
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || worker_loop(&inner, w)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || supervisor_loop(&inner)));
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
    /// In-flight jobs finish their current attempt; nothing is lost —
    /// unfinished jobs replay from the journal on the next start.
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
        .filter(|e| {
            matches!(
                e.state,
                JobState::Queued | JobState::Backoff { .. } | JobState::Leased { .. }
            )
        })
        .count() as u64;
    let c = &inner.counters;
    ServeMetrics {
        jobs_accepted: c.accepted.load(Ordering::Relaxed),
        jobs_completed: c.completed.load(Ordering::Relaxed),
        jobs_failed: c.failed.load(Ordering::Relaxed),
        queue_depth,
        lease_expiries: c.lease_expiries.load(Ordering::Relaxed),
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
                                JobState::Queued | JobState::Backoff { .. } => {
                                    ("queued", None, None, entry.attempts)
                                }
                                JobState::Leased { .. } => ("leased", None, None, entry.attempts),
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
                    JobState::Queued | JobState::Backoff { .. } => queued += 1,
                    JobState::Leased { .. } => leased += 1,
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

fn worker_loop(inner: &Arc<Inner>, _worker: usize) {
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
        // Lease it (skip stale queue references).
        let (spec, attempt, queue_wait) = {
            let mut jobs = lock(&inner.jobs);
            let Some(entry) = jobs.get_mut(&id) else {
                continue;
            };
            if !matches!(entry.state, JobState::Queued) {
                continue;
            }
            entry.attempts += 1;
            entry.state = JobState::Leased {
                deadline: Instant::now() + Duration::from_millis(inner.cfg.lease_ms),
            };
            (
                entry.spec.clone(),
                entry.attempts,
                entry.submitted.elapsed().as_secs_f64(),
            )
        };
        let label = spec.label();
        let begun = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The injected worker-kill fires here — after the lease,
            // before any work — modelling a worker that dies the moment
            // it picks the job up.
            faults::maybe_kill_worker(&label);
            execute_job(&spec, Some(&inner.store))
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        match outcome {
            Ok(output) => complete_job(inner, id, &spec, output, attempt, queue_wait, begun),
            Err(message) => retry_or_fail(inner, id, &label, &message, attempt),
        }
    }
}

fn complete_job(
    inner: &Arc<Inner>,
    id: u64,
    spec: &JobSpec,
    output: JobOutput,
    attempt: u32,
    queue_wait: f64,
    begun: Instant,
) {
    {
        let mut jobs = lock(&inner.jobs);
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        // First completion wins; a reclaimed-then-finished duplicate
        // computed the same bits and is simply dropped.
        if matches!(entry.state, JobState::Done { .. } | JobState::Failed { .. }) {
            return;
        }
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
        wall_s: begun.elapsed().as_secs_f64(),
        outcome: telemetry_outcome,
        recovered: u64::from(attempt.saturating_sub(1)),
    });
    telemetry.wall_s = inner.started.elapsed().as_secs_f64();
    let rendered = telemetry.to_json();
    drop(telemetry);
    let _ = vpr_snap::atomic_write(&inner.cfg.dir.join(TELEMETRY_FILE), rendered.as_bytes());
}

fn retry_or_fail(inner: &Arc<Inner>, id: u64, label: &str, message: &str, attempt: u32) {
    let mut jobs = lock(&inner.jobs);
    let Some(entry) = jobs.get_mut(&id) else {
        return;
    };
    if matches!(entry.state, JobState::Done { .. } | JobState::Failed { .. }) {
        return;
    }
    if attempt < inner.cfg.retry.attempts() {
        inner.counters.retries.fetch_add(1, Ordering::Relaxed);
        let delay = inner.cfg.retry.delay_ms(attempt);
        if delay == 0 {
            entry.state = JobState::Queued;
            drop(jobs);
            lock(&inner.ready).push_back(id);
            inner.ready_cv.notify_one();
        } else {
            entry.state = JobState::Backoff {
                until: Instant::now() + Duration::from_millis(delay),
            };
        }
        return;
    }
    // Budget exhausted: degrade into the structured failure the batch
    // sweep would report (NaN metrics, recovered: false) — the queue
    // moves on.
    let error = format!("job {label} failed after {attempt} attempts: {message}");
    entry.state = JobState::Failed {
        error: error.clone(),
        attempts: attempt,
    };
    drop(jobs);
    if let Err(e) = lock(&inner.journal).append(&Record::Failed {
        id,
        error,
        attempts: attempt,
    }) {
        eprintln!("vpr-serve: failed-record append failed for job {id}: {e}");
    }
    inner.counters.failed.fetch_add(1, Ordering::Relaxed);
}

fn supervisor_loop(inner: &Arc<Inner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
        let now = Instant::now();
        let mut to_ready: Vec<u64> = Vec::new();
        let mut expired: Vec<(u64, String, u32)> = Vec::new();
        {
            let mut jobs = lock(&inner.jobs);
            for (&id, entry) in jobs.iter_mut() {
                match entry.state {
                    JobState::Backoff { until } if now >= until => {
                        entry.state = JobState::Queued;
                        to_ready.push(id);
                    }
                    JobState::Leased { deadline } => {
                        let label = entry.spec.label();
                        if now >= deadline || faults::lease_expires_early(&label) {
                            expired.push((id, label, entry.attempts));
                            // Reclaim immediately; retry_or_fail decides
                            // requeue vs degrade below, outside this lock.
                            entry.state = JobState::Queued;
                        }
                    }
                    _ => {}
                }
            }
            // retry_or_fail expects a non-terminal entry; mark reclaimed
            // leases as Backoff-pending via the shared path after the
            // scan (it re-locks).
        }
        if !to_ready.is_empty() {
            let mut ready = lock(&inner.ready);
            for id in to_ready {
                ready.push_back(id);
            }
            drop(ready);
            inner.ready_cv.notify_all();
        }
        for (id, label, attempts) in expired {
            inner
                .counters
                .lease_expiries
                .fetch_add(1, Ordering::Relaxed);
            retry_or_fail(inner, id, &label, "lease expired", attempts);
        }
    }
}
