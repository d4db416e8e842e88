//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a Unix-domain
//! socket. Both sides use the workspace's one JSON module,
//! [`vpr_snap::json`] ([`json::parse`] to read, [`json::escape`] in the
//! hand-rolled writers), so the daemon stays dependency-free.
//!
//! Requests:
//!
//! ```text
//! {"op": "submit", "jobs": [<job-spec>, ...]}
//! {"op": "poll", "ids": [1, 2, ...]}
//! {"op": "status"}
//! {"op": "metrics"}
//! {"op": "shutdown"}
//! ```
//!
//! Every response is an object with an `"ok"` field; `"ok": false`
//! carries an `"error"` string. Job results travel as
//! [`vpr_bench::jobs::JobOutput`] objects at full round-trip precision —
//! a poll result is bit-identical to what the executing worker computed.

use vpr_bench::jobs::{JobOutput, JobSpec};
use vpr_snap::json::{self, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a batch of jobs; acknowledged only after every job record
    /// is durably journalled.
    Submit(Vec<JobSpec>),
    /// Fetch the state (and results, when terminal) of the given ids.
    Poll(Vec<u64>),
    /// Queue/lease/terminal counts.
    Status,
    /// Service metrics (JSON + Prometheus text).
    Metrics,
    /// Graceful shutdown (used by tests; production restarts just kill
    /// the process — the journal makes that safe).
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Describes the malformed field; the server answers with an
/// `"ok": false` response and keeps the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let obj = v.as_object().ok_or("request must be a JSON object")?;
    match obj.get("op").and_then(Value::as_str) {
        Some("submit") => {
            let jobs = obj
                .get("jobs")
                .and_then(Value::as_array)
                .ok_or("submit needs a `jobs` array")?;
            if jobs.is_empty() {
                return Err("submit needs at least one job".into());
            }
            jobs.iter()
                .map(JobSpec::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Submit)
        }
        Some("poll") => {
            let ids = obj
                .get("ids")
                .and_then(Value::as_array)
                .ok_or("poll needs an `ids` array")?;
            ids.iter()
                .map(|v| v.as_u64().ok_or_else(|| "ids must be integers".to_string()))
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Poll)
        }
        Some("status") => Ok(Request::Status),
        Some("metrics") => Ok(Request::Metrics),
        Some("shutdown") => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders a submit request line.
pub fn submit_line(jobs: &[JobSpec]) -> String {
    let specs: Vec<String> = jobs.iter().map(JobSpec::to_json).collect();
    format!("{{\"op\": \"submit\", \"jobs\": [{}]}}", specs.join(", "))
}

/// Renders a poll request line.
pub fn poll_line(ids: &[u64]) -> String {
    let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
    format!("{{\"op\": \"poll\", \"ids\": [{}]}}", ids.join(", "))
}

/// Renders an error response line.
pub fn error_line(message: &str) -> String {
    format!(
        "{{\"ok\": false, \"error\": \"{}\"}}",
        json::escape(message)
    )
}

/// One job's state in a poll response.
#[derive(Debug, Clone, PartialEq)]
pub struct PollResult {
    /// The job id.
    pub id: u64,
    /// `"queued"`, `"leased"`, `"done"`, `"failed"`, or `"unknown"`.
    pub state: String,
    /// The output, present when `state` is `"done"` (and, as the NaN
    /// placeholder, `"failed"`).
    pub output: Option<JobOutput>,
    /// Terminal error, present when `state` is `"failed"`.
    pub error: Option<String>,
    /// Attempts consumed so far.
    pub attempts: u32,
}

impl PollResult {
    /// True when the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        self.state == "done" || self.state == "failed"
    }

    /// Renders the poll-result object.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"id\": {}, \"state\": \"{}\"", self.id, self.state);
        if let Some(out) = &self.output {
            s.push_str(&format!(", \"output\": {}", out.to_json()));
        }
        if let Some(err) = &self.error {
            s.push_str(&format!(", \"error\": \"{}\"", json::escape(err)));
        }
        s.push_str(&format!(", \"attempts\": {}}}", self.attempts));
        s
    }

    /// Parses one poll-result object.
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("poll result must be an object")?;
        Ok(Self {
            id: obj
                .get("id")
                .and_then(Value::as_u64)
                .ok_or("poll result needs `id`")?,
            state: obj
                .get("state")
                .and_then(Value::as_str)
                .ok_or("poll result needs `state`")?
                .to_string(),
            output: match obj.get("output") {
                Some(v) => Some(JobOutput::from_json(v)?),
                None => None,
            },
            error: obj.get("error").and_then(Value::as_str).map(str::to_string),
            attempts: obj.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
        })
    }
}

/// Parses a response line into its object view, checking the `ok` flag.
///
/// # Errors
///
/// The server's error message on `"ok": false`, or a description of a
/// malformed response.
pub fn parse_response(line: &str) -> Result<Value, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let obj = v.as_object().ok_or("response must be a JSON object")?;
    match obj.get("ok") {
        Some(Value::Bool(true)) => Ok(v),
        Some(Value::Bool(false)) => Err(obj
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unspecified server error")
            .to_string()),
        _ => Err("response missing `ok`".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_bench::ExperimentConfig;
    use vpr_core::RenameScheme;
    use vpr_trace::Benchmark;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Benchmark::Hydro2d.into(),
            scheme: RenameScheme::Conventional,
            physical_regs: 48,
            exp: ExperimentConfig::quick(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let line = submit_line(&[spec(), spec()]);
        match parse_request(&line).unwrap() {
            Request::Submit(jobs) => {
                assert_eq!(jobs.len(), 2);
                assert_eq!(jobs[0], spec());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(&poll_line(&[3, 9])).unwrap(),
            Request::Poll(vec![3, 9])
        );
        assert_eq!(
            parse_request("{\"op\": \"status\"}").unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request("{\"op\": \"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"op\": \"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("nonsense", "bad literal"),
            ("{\"op\": \"warp\"}", "unknown op"),
            ("{\"op\": \"submit\"}", "jobs"),
            ("{\"op\": \"submit\", \"jobs\": []}", "at least one"),
            ("{\"op\": \"poll\", \"ids\": [\"x\"]}", "integers"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn poll_results_round_trip_and_error_lines_parse() {
        let r = PollResult {
            id: 12,
            state: "failed".into(),
            output: Some(JobOutput {
                metrics: vpr_bench::sweep::PointMetrics::failed(),
                outcome: vpr_bench::checkpoints::CheckpointOutcome::NoStore,
                note: None,
            }),
            error: Some("job 12 failed after 4 attempts: injected".into()),
            attempts: 4,
        };
        let parsed = PollResult::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.id, 12);
        assert!(parsed.is_terminal());
        assert!(parsed.output.unwrap().metrics.is_failed());
        assert_eq!(parsed.attempts, 4);

        let err = parse_response(&error_line("queue \"wedged\"")).unwrap_err();
        assert_eq!(err, "queue \"wedged\"");
        assert!(parse_response("{\"ok\": true, \"ids\": [1]}").is_ok());
    }
}
