//! A reconnecting client for the daemon.
//!
//! The transport discipline is deliberately dumb: **one request, one
//! response, one connection**, retried with a bounded backoff until the
//! daemon answers or the client's own deadline passes. That shape makes
//! every failure mode — injected client-disconnects, a daemon killed
//! mid-run and restarted, a socket that does not exist yet — the same
//! case: reconnect and re-ask. Submissions are identified by the ids the
//! daemon returns, and results are journalled server-side, so re-asking
//! never changes an answer.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vpr_bench::jobs::JobSpec;
use vpr_snap::json::Value;

use crate::protocol::{parse_response, poll_line, submit_line, PollResult};

/// A daemon endpoint plus the client's patience.
#[derive(Debug, Clone)]
pub struct Client {
    socket: PathBuf,
    /// Total time to keep retrying one request (covers daemon restarts).
    pub timeout: Duration,
    /// Delay between reconnect attempts.
    pub retry_delay: Duration,
}

impl Client {
    /// A client for `socket` with a 60 s per-request patience.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            timeout: Duration::from_secs(60),
            retry_delay: Duration::from_millis(100),
        }
    }

    /// The socket path.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Sends one request line and returns the parsed response object,
    /// reconnecting as needed until [`Client::timeout`].
    ///
    /// # Errors
    ///
    /// The server's error string, or the last transport error when the
    /// deadline passes without an answer.
    pub fn request(&self, line: &str) -> Result<Value, String> {
        let deadline = Instant::now() + self.timeout;
        loop {
            let last = match self.exchange_once(line) {
                Ok(response) => return parse_response(&response),
                Err(e) => e,
            };
            if Instant::now() >= deadline {
                return Err(format!("request timed out: {last}"));
            }
            std::thread::sleep(self.retry_delay);
        }
    }

    fn exchange_once(&self, line: &str) -> Result<String, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("timeout setup: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if response.is_empty() {
            // The daemon dropped the connection (injected disconnect or
            // a crash) before answering.
            return Err("connection closed before response".into());
        }
        Ok(response)
    }

    /// Submits jobs and returns the daemon-assigned ids (one per job, in
    /// order). The ids are durable: the daemon journalled every one of
    /// them before this call returned.
    ///
    /// # Errors
    ///
    /// Transport or server errors, verbatim.
    pub fn submit(&self, jobs: &[JobSpec]) -> Result<Vec<u64>, String> {
        let v = self.request(&submit_line(jobs))?;
        let obj = v.as_object().ok_or("submit response must be an object")?;
        let ids = obj
            .get("ids")
            .and_then(Value::as_array)
            .ok_or("submit response missing `ids`")?;
        let ids: Option<Vec<u64>> = ids.iter().map(Value::as_u64).collect();
        let ids = ids.ok_or("submit ids must be integers")?;
        if ids.len() != jobs.len() {
            return Err(format!(
                "submitted {} jobs but received {} ids",
                jobs.len(),
                ids.len()
            ));
        }
        Ok(ids)
    }

    /// Polls once for the given ids.
    ///
    /// # Errors
    ///
    /// Transport or server errors, verbatim.
    pub fn poll(&self, ids: &[u64]) -> Result<Vec<PollResult>, String> {
        let v = self.request(&poll_line(ids))?;
        let obj = v.as_object().ok_or("poll response must be an object")?;
        obj.get("results")
            .and_then(Value::as_array)
            .ok_or("poll response missing `results`")?
            .iter()
            .map(PollResult::from_json)
            .collect()
    }

    /// Polls until every id reaches a terminal state (or `deadline`
    /// passes), surviving daemon restarts in between. Returns results in
    /// the order of `ids`.
    ///
    /// # Errors
    ///
    /// The ids still pending when the deadline passes, or any transport
    /// error that outlived the per-request patience.
    pub fn wait(&self, ids: &[u64], deadline: Duration) -> Result<Vec<PollResult>, String> {
        let stop = Instant::now() + deadline;
        loop {
            let results = self.poll(ids)?;
            if results.iter().all(PollResult::is_terminal) {
                return Ok(results);
            }
            if Instant::now() >= stop {
                let pending: Vec<String> = results
                    .iter()
                    .filter(|r| !r.is_terminal())
                    .map(|r| format!("{} ({})", r.id, r.state))
                    .collect();
                return Err(format!("jobs still pending: {}", pending.join(", ")));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Fetches the service metrics: the JSON object (byte-identical to
    /// the daemon's `ServeMetrics::to_json_value`) and the Prometheus
    /// text exposition.
    ///
    /// # Errors
    ///
    /// Transport or server errors, verbatim.
    pub fn metrics(&self) -> Result<(String, String), String> {
        let v = self.request("{\"op\": \"metrics\"}")?;
        let obj = v.as_object().ok_or("metrics response must be an object")?;
        let prom = obj
            .get("prometheus")
            .and_then(Value::as_str)
            .ok_or("metrics response missing `prometheus`")?
            .to_string();
        // The daemon renders the object on one line with `json::float`
        // gauges, so the parsed value re-renders to the daemon's bytes.
        let json = obj
            .get("metrics")
            .map(ToString::to_string)
            .ok_or("metrics response missing `metrics`")?;
        Ok((json, prom))
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport errors, verbatim.
    pub fn shutdown(&self) -> Result<(), String> {
        self.request("{\"op\": \"shutdown\"}").map(|_| ())
    }
}
