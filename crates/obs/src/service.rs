//! Sweep-service metrics: the daemon-side counters `vpr-serve` exposes
//! through the same Prometheus text surface as the simulator metrics.
//!
//! The struct is a plain snapshot, not a live registry: the daemon keeps
//! atomics, snapshots them into a [`ServeMetrics`], and renders that
//! through [`crate::Registry`] — so the export path is identical to every
//! other artefact the workspace writes.

use crate::Registry;

/// One snapshot of the sweep service's health counters.
///
/// All fields are additive event counts except `queue_depth`, which is a
/// point-in-time gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// New jobs accepted (journalled and acknowledged) over the process
    /// life; a submitted spec that reused an existing job's id counts in
    /// `dedup_hits` instead.
    pub jobs_accepted: u64,
    /// Jobs that reached a terminal success.
    pub jobs_completed: u64,
    /// Jobs that exhausted their retry budget and degraded to a
    /// structured failure.
    pub jobs_failed: u64,
    /// Jobs currently queued or on a worker (gauge).
    pub queue_depth: u64,
    /// Retry attempts started after a worker death: `attempts − 1` per
    /// job.
    pub retries: u64,
    /// Jobs answered by another job's run: a submitted spec that reused
    /// an existing job's id, or a run that restored a warm checkpoint
    /// another job deposited.
    pub dedup_hits: u64,
    /// Completed results served straight from the journal on replay,
    /// without recomputation.
    pub replay_hits: u64,
}

impl ServeMetrics {
    /// Renders the snapshot into a [`Registry`] under the `vpr_serve_*`
    /// namespace (insertion order is fixed, so the Prometheus text is
    /// byte-stable for equal snapshots).
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        r.gauge(
            "vpr_serve_queue_depth",
            "Jobs currently queued or on a worker in the sweep service",
            self.queue_depth as f64,
        );
        r.counter(
            "vpr_serve_jobs_accepted_total",
            "Jobs accepted and journalled by the sweep service",
            self.jobs_accepted,
        );
        r.counter(
            "vpr_serve_jobs_completed_total",
            "Jobs completed successfully by the sweep service",
            self.jobs_completed,
        );
        r.counter(
            "vpr_serve_jobs_failed_total",
            "Jobs that exhausted their retry budget and degraded to a structured failure",
            self.jobs_failed,
        );
        r.counter(
            "vpr_serve_retries_total",
            "Job retry attempts scheduled by the sweep service",
            self.retries,
        );
        r.counter(
            "vpr_serve_dedup_hits_total",
            "Jobs answered by another job's run: a reused job id or a warm-checkpoint hit",
            self.dedup_hits,
        );
        r.counter(
            "vpr_serve_replay_hits_total",
            "Completed results served from the journal on restart without recomputation",
            self.replay_hits,
        );
        r
    }

    /// Prometheus text exposition of the snapshot.
    pub fn to_prometheus(&self) -> String {
        self.registry().to_prometheus()
    }

    /// JSON object rendering of the snapshot.
    pub fn to_json_value(&self) -> String {
        self.registry().to_json_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> ServeMetrics {
        ServeMetrics {
            jobs_accepted: 10 + k,
            jobs_completed: 7 + k,
            jobs_failed: k % 2,
            queue_depth: 3,
            retries: 2 * k,
            dedup_hits: 5,
            replay_hits: k / 2,
        }
    }

    #[test]
    fn prometheus_surface_has_the_contracted_names() {
        let text = sample(2).to_prometheus();
        for name in [
            "vpr_serve_queue_depth",
            "vpr_serve_retries_total",
            "vpr_serve_dedup_hits_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing {name} in:\n{text}"
            );
        }
        assert!(text.contains("vpr_serve_retries_total 4\n"));
        assert!(text.contains("vpr_serve_dedup_hits_total 5\n"));
        assert!(text.contains("vpr_serve_queue_depth 3\n"));
    }
}
