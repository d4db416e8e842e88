//! `vpr-serve`: a crash-recoverable sweep service.
//!
//! The batch binaries (`table2`, `fig4`, …) regenerate the paper's
//! artefacts one process invocation at a time. This crate turns the same
//! job execution ([`vpr_bench::jobs`]) into a **long-running daemon**: N
//! clients submit sweep grids over a Unix-domain socket (line-delimited
//! JSON, parsed by the workspace's own [`vpr_snap::json`] module),
//! workers execute them, and each distinct job spec runs once no matter
//! how many tenants submit it.
//!
//! The robustness contract, built from four pieces:
//!
//! 1. **Write-ahead journal** ([`journal`]): every acknowledged job and
//!    every terminal result is fsynced to `jobs.wal` before it is
//!    visible on the wire. A crash (SIGTERM, SIGKILL, power) loses no
//!    accepted work; a restart replays the journal, re-queues unfinished
//!    jobs, and serves finished results without recomputation.
//! 2. **Retries** ([`server`]): a worker runs each job through the
//!    batch sweep's retry loop ([`vpr_core::par::run_one`]), so a worker
//!    death is retried with capped exponential backoff
//!    ([`vpr_core::par::RetryPolicy`]). An exhausted budget degrades
//!    into the structured NaN failure the batch sweep reports — a
//!    poisoned job can never wedge the queue.
//! 3. **Dedup by spec**: submit is idempotent on the
//!    [`vpr_bench::jobs::JobSpec`]. An equal spec whose job has not
//!    failed gets that job's id back and is never journalled or queued
//!    again, across tenants and restarts. Specs that share only a
//!    warm-up restore its checkpoint from the
//!    [`vpr_bench::checkpoints::CheckpointStore`], whose artefacts are
//!    deposited only on success (atomic writes), so a crashed run leaves
//!    nothing torn behind.
//! 4. **Fault hooks**: the daemon consults
//!    [`vpr_snap::faults`] at its three service-specific points —
//!    journal append, client disconnect, worker kill —
//!    and the service fault tests pin that any single injected fault
//!    leaves every client's results byte-identical to a fault-free
//!    serial run.
//!
//! Protocol, journal format, and the operator playbook are documented in
//! `docs/service.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use journal::{Journal, Record, JOURNAL_FILE};
pub use protocol::{PollResult, Request};
pub use server::{ServeConfig, Server, STORE_SUBDIR, TELEMETRY_FILE};
