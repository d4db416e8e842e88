//! The `serve` workload: the `vpr-serve serve` daemon as a child process on
//! a fresh working directory, with one worker per core, under a closed
//! loop of two client connections. Each tenant submits a short-window grid
//! and waits for it, round after round; half of each round's grid is the
//! other tenant's too (dedup hits, store reads) and half is new (warm
//! passes, store writes, journal appends).
//!
//! Why: jobs are small, so journal fsyncs, the line-JSON protocol, leases,
//! polling and store I/O dominate; kernel speed barely moves this workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vpr_bench::checkpoints::CheckpointOutcome;
use vpr_bench::sweep::PointMetrics;
use vpr_bench::{execute_job, ExperimentConfig, JobOutput, JobSpec, Workload};
use vpr_core::RenameScheme;
use vpr_serve::{Client, PollResult, Record, JOURNAL_FILE, STORE_SUBDIR, TELEMETRY_FILE};
use vpr_snap::manifest::parse_json;

use crate::eval::write_spans;
use crate::probes;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::{median0, record_latencies, sys, Options, Scale};

/// Completed jobs in the journal each timed spawn replays.
const SETUP_JOURNAL_JOBS: u64 = 400;
/// How long one grid may take before the round counts as failed.
const ROUND_DEADLINE: Duration = Duration::from_secs(120);

/// Warm-up and measurement lengths of every served job.
fn job_experiment(scale: Scale, seed: u64) -> ExperimentConfig {
    let (warmup, measure) = match scale {
        Scale::Bench => (150_000, 60_000),
        Scale::Tiny => (2_000, 5_000),
    };
    ExperimentConfig {
        warmup,
        measure,
        seed,
        miss_penalty: 50,
        jobs: 0,
    }
}

/// A small job spec for probes that need one.
pub(crate) fn probe_spec(exp: &ExperimentConfig) -> JobSpec {
    JobSpec {
        workload: Workload::synthetic()[0],
        scheme: RenameScheme::Conventional,
        physical_regs: 64,
        exp: *exp,
    }
}

fn mix(base: u64, round: u64, tag: u64) -> u64 {
    // splitmix64 finaliser over the (seed, round, tag) coordinate.
    let mut z = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round << 8) | tag);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// Tenant `tenant`'s grid for `round`: two synthetic workloads shared with
/// the other tenant (same seed) and two of its own (its own seed), each
/// under conventional and VP write-back renaming at 64 registers.
pub(crate) fn round_grid(scale: Scale, base: u64, round: u64, tenant: u64) -> Vec<JobSpec> {
    let synth = Workload::synthetic();
    let shared = job_experiment(scale, mix(base, round, 0));
    let own = job_experiment(scale, mix(base, round, 1 + tenant));
    let mut specs = Vec::new();
    for (i, exp) in [(0, shared), (1, shared), (2, own), (3, own)] {
        let workload = synth[(2 * round as usize + i) % synth.len()];
        for scheme in [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ] {
            specs.push(JobSpec {
                workload,
                scheme,
                physical_regs: 64,
                exp,
            });
        }
    }
    specs
}

/// A running daemon.
struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    /// Spawns `vpr-serve serve` on `dir` and waits until its socket answers
    /// (after journal replay). Returns the daemon and the seconds that
    /// took.
    fn start(bin: &Path, dir: &str, workers: usize) -> Result<(Daemon, f64), String> {
        let socket = format!("{dir}.sock");
        let _ = std::fs::remove_file(&socket);
        let start = Instant::now();
        let child = Command::new(bin)
            .args(["serve", "--socket", &socket, "--dir", dir, "--workers"])
            .arg(workers.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut client = Client::new(&socket);
        client.retry_delay = Duration::from_millis(1);
        client.timeout = Duration::from_secs(30);
        let mut daemon = Daemon { child, client };
        match daemon.client.metrics() {
            Ok(_) => Ok((daemon, start.elapsed().as_secs_f64())),
            Err(e) => {
                daemon.stop();
                Err(format!("daemon on {dir} never answered: {e}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks for a graceful shutdown and waits for the process to end
    /// (killing it if it has not ended within 30 s).
    fn stop(&mut self) {
        let _ = self.client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// Never leaves the daemon running, even when the benchmark unwinds
    /// before [`Daemon::stop`] (after `stop` both calls are no-ops).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fixed journal of completed jobs for the set-up spawns to replay.
fn setup_journal(scale: Scale) -> String {
    let mut text = String::new();
    for id in 0..SETUP_JOURNAL_JOBS {
        let spec = round_grid(scale, 0, id / 8, 0)[(id % 8) as usize].clone();
        let output = JobOutput {
            metrics: PointMetrics {
                ipc: 1.0 + (id % 97) as f64 / 97.0,
                miss_ratio: (id % 13) as f64 / 130.0,
                executions_per_commit: 1.0 + (id % 7) as f64 / 70.0,
            },
            outcome: CheckpointOutcome::NoStore,
            note: None,
        };
        for rec in [Record::Job { id, spec }, Record::Done { id, output }] {
            text.push_str(&rec.to_line());
            text.push('\n');
        }
    }
    text
}

/// One tenant round.
struct Round {
    specs: Vec<JobSpec>,
    results: Result<Vec<PollResult>, String>,
    rtt_s: f64,
    traced: bool,
}

/// Per-tenant poll counts of traced rounds: (polls, polls that found the
/// grid terminal).
#[derive(Default)]
struct Polls {
    polls: u64,
    useful: u64,
}

/// Waits for `ids` by polling every 50 ms as `Client::wait` does, with
/// each poll in a span.
fn traced_wait(
    client: &Client,
    ids: &[u64],
    tr: &mut Tracer,
    polls: &mut Polls,
) -> Result<Vec<PollResult>, String> {
    let stop = Instant::now() + ROUND_DEADLINE;
    loop {
        let results = tr.time("serve.poll", || client.poll(ids))?;
        polls.polls += 1;
        if results.iter().all(PollResult::is_terminal) {
            polls.useful += 1;
            return Ok(results);
        }
        if Instant::now() >= stop {
            return Err("grid still pending at the round deadline".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Closed loop of one tenant until `deadline`; rounds after `trace_from`
/// (if any) are traced.
fn tenant(
    opts: &Options,
    socket: &Path,
    tenant: u64,
    deadline: Instant,
    trace_from: Option<Instant>,
    epoch: Instant,
) -> (Vec<Round>, Tracer, Polls) {
    let client = Client::new(socket);
    let mut tr = Tracer::new(epoch);
    let mut polls = Polls::default();
    let mut rounds = Vec::new();
    for r in 0.. {
        if !rounds.is_empty() && Instant::now() >= deadline {
            break;
        }
        let specs = round_grid(opts.scale, opts.seed, r, tenant);
        let traced = trace_from.is_some_and(|t| Instant::now() >= t);
        let start = Instant::now();
        let results = if traced {
            let id = tr.begin("serve.round");
            let res = tr
                .time("serve.submit", || client.submit(&specs))
                .and_then(|ids| traced_wait(&client, &ids, &mut tr, &mut polls));
            tr.end(id);
            res
        } else {
            client
                .submit(&specs)
                .and_then(|ids| client.wait(&ids, ROUND_DEADLINE))
        };
        let failed = results.is_err();
        rounds.push(Round {
            specs,
            results,
            rtt_s: start.elapsed().as_secs_f64(),
            traced,
        });
        if failed {
            break;
        }
    }
    (rounds, tr, polls)
}

/// Checks every result cell for cell against `execute_job` with no store
/// (bit-identical by contract), on up to one thread per core.
fn verify(rounds: &[Round], out: &mut Outcome) {
    let mut expected: BTreeMap<String, (JobSpec, Option<JobOutput>)> = BTreeMap::new();
    for r in rounds {
        for s in &r.specs {
            expected.entry(s.to_json()).or_insert((s.clone(), None));
        }
    }
    let mut todo: Vec<&mut (JobSpec, Option<JobOutput>)> = expected.values_mut().collect();
    let workers = vpr_core::par::default_jobs().max(1);
    let chunk = todo.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for part in todo.chunks_mut(chunk) {
            s.spawn(move || {
                for slot in part {
                    slot.1 = Some(execute_job(&slot.0, None));
                }
            });
        }
    });
    let same = |a: &PointMetrics, b: &PointMetrics| {
        a.ipc.to_bits() == b.ipc.to_bits()
            && a.miss_ratio.to_bits() == b.miss_ratio.to_bits()
            && a.executions_per_commit.to_bits() == b.executions_per_commit.to_bits()
    };
    for r in rounds {
        match &r.results {
            Err(e) => {
                for s in &r.specs {
                    out.check(false, || format!("{}: service error: {e}", s.label()));
                }
            }
            Ok(results) => {
                for (s, res) in r.specs.iter().zip(results) {
                    let want = expected[&s.to_json()].1.as_ref().expect("verified above");
                    let verdict = match &res.output {
                        _ if res.state != "done" => Err(format!(
                            "state {} ({})",
                            res.state,
                            res.error.clone().unwrap_or_default()
                        )),
                        None => Err("no output".to_string()),
                        Some(o) if o.metrics.is_failed() => Err("NaN point".to_string()),
                        Some(o) if !same(&o.metrics, &want.metrics) => Err(format!(
                            "served {} vs execute_job {}",
                            o.to_json(),
                            want.to_json()
                        )),
                        Some(_) => Ok(()),
                    };
                    let ok = verdict.is_ok();
                    out.check(ok, || {
                        format!(
                            "{} seed {}: {}",
                            s.label(),
                            s.exp.seed,
                            verdict.err().unwrap_or_default()
                        )
                    });
                }
            }
        }
        if let Ok(results) = &r.results {
            if results.len() != r.specs.len() {
                out.check(false, || "result count differs from submission".into());
            }
        }
    }
}

pub(crate) fn run(opts: &Options, out: &mut Outcome) {
    let Some(bin) = opts.serve_bin.clone() else {
        out.check(false, || "serve needs --serve-bin".into());
        return;
    };
    let workers = vpr_core::par::default_jobs();
    let probe_exp = job_experiment(opts.scale, mix(opts.seed, 0, 0));
    out.notes.push(format!(
        "serve: {workers} workers, 2 closed-loop tenants, 8-job grids (warmup {} measure {})",
        probe_exp.warmup, probe_exp.measure
    ));

    if !opts.trace {
        let journal = setup_journal(opts.scale);
        let mut setups = Vec::new();
        for i in 0..crate::SETUP_SPAWNS {
            let dir = format!("setup{i}");
            let ok = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(Path::new(&dir).join(JOURNAL_FILE), &journal));
            if let Err(e) = ok {
                out.check(false, || format!("prepare {dir}: {e}"));
                continue;
            }
            match Daemon::start(&bin, &dir, workers) {
                Ok((mut d, s)) => {
                    setups.push(s);
                    d.stop();
                }
                Err(e) => out.check(false, || e),
            }
        }
        out.set("setup_s", median0(&setups));
    }

    let (mut daemon, live_setup) = match Daemon::start(&bin, "live", workers) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || e);
            return;
        }
    };
    out.notes
        .push(format!("live daemon answered after {live_setup} s"));
    let pid = daemon.pid();
    let socket = PathBuf::from("live.sock");
    let cpu0 = sys::cpu_seconds(&pid);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(opts.seconds);
    let trace_from = opts
        .trace
        .then(|| epoch + Duration::from_secs_f64(opts.seconds / 2.0));
    let per_tenant: Vec<(Vec<Round>, Tracer, Polls)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let socket = &socket;
                s.spawn(move || tenant(opts, socket, t, deadline, trace_from, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let busy = sys::cpu_seconds(&pid) - cpu0;
    let rss = sys::peak_rss_mib(&pid);

    let mut tr = Tracer::new(epoch);
    let mut rounds = Vec::new();
    let mut polls = Polls::default();
    for (r, t, p) in per_tenant {
        rounds.extend(r);
        tr.absorb(t);
        polls.polls += p.polls;
        polls.useful += p.useful;
    }
    let service = daemon.client.metrics().map(|(json, _)| json);
    let telemetry = std::fs::read_to_string(Path::new("live").join(TELEMETRY_FILE));
    if opts.trace {
        let store = Path::new("live").join(STORE_SUBDIR);
        let (_, files) = sys::dir_files(&store, ".vprsnap");
        let (bytes, _) = sys::dir_files(&store, "");
        out.set("ckpt.files_written", files as f64);
        out.set("ckpt.bytes_written", bytes as f64);
        probes::store_reads(&store, 1, out, &mut tr);
    }
    daemon.stop();

    let jobs: usize = rounds
        .iter()
        .filter_map(|r| r.results.as_ref().ok())
        .map(|r| r.iter().filter(|x| x.state == "done").count())
        .sum();
    let rtts: Vec<f64> = rounds.iter().map(|r| r.rtt_s).collect();
    out.notes.push(format!(
        "{} rounds in {window_s} s, {jobs} jobs completed",
        rounds.len()
    ));
    verify(&rounds, out);

    if !opts.trace {
        out.set("wall_s", window_s / (rounds.len() as f64 / 2.0));
        out.set("busy_s", busy / rounds.len() as f64);
        out.set("peak_rss_mb", rss);
        out.set("jobs_per_s", jobs as f64 / window_s);
        record_latencies(out, "grid round-trip", &rtts);
        return;
    }

    let (traced, plain): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let med = |v: &[&Round]| median0(&v.iter().map(|r| r.rtt_s).collect::<Vec<_>>());
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (med(&traced) - med(&plain)) / med(&plain),
    );
    let spans = tr.spans().to_vec();
    let ms = |name: &str| 1e3 * median0(&crate::spans::durations(&spans, name));
    out.set("serve.submit_ms", ms("serve.submit"));
    out.set("serve.poll_ms", ms("serve.poll"));
    out.set(
        "serve.poll_useful_frac",
        polls.useful as f64 / polls.polls.max(1) as f64,
    );
    match service
        .map_err(|e| e.to_string())
        .and_then(|j| parse_json(&j).map_err(|e| e.to_string()))
    {
        Ok(v) => {
            let o = v.as_object();
            let n = |k: &str| {
                o.as_ref()
                    .and_then(|o| o.get(k))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            };
            let completed = n("vpr_serve_jobs_completed_total");
            out.set(
                "serve.dedup_hit_frac",
                n("vpr_serve_dedup_hits_total") / completed.max(1.0),
            );
            out.set("serve.retries", n("vpr_serve_retries_total"));
            out.set("serve.lease_expiries", n("vpr_serve_lease_expiries_total"));
        }
        Err(e) => out.check(false, || format!("metrics endpoint: {e}")),
    }
    match telemetry
        .map_err(|e| e.to_string())
        .and_then(|t| parse_json(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => {
            let points: Vec<(f64, f64)> = v
                .as_object()
                .and_then(|o| o.get("points"))
                .and_then(|p| p.as_array())
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| {
                    let o = p.as_object()?;
                    Some((o.get("queue_wait_s")?.as_f64()?, o.get("wall_s")?.as_f64()?))
                })
                .collect();
            let waits: Vec<f64> = points.iter().map(|p| p.0).collect();
            let walls: Vec<f64> = points.iter().map(|p| p.1).collect();
            out.set("serve.queue_wait_s", median0(&waits));
            out.set("serve.job_s", median0(&walls));
        }
        Err(e) => out.check(false, || format!("{TELEMETRY_FILE}: {e}")),
    }

    let specs = round_grid(opts.scale, opts.seed, 0, 0);
    for (name, v) in probes::model_specs(&specs) {
        out.set(name, v);
    }
    let points: Vec<probes::Point> = specs
        .iter()
        .map(|s| (s.workload, s.scheme, s.physical_regs))
        .collect();
    probes::layers(&points, &probe_exp, out, &mut tr);
    probes::journal_append(&specs[0], out, &mut tr);
    write_spans(&tr, out);
}
