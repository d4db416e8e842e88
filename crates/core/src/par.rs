//! A dependency-free scoped-thread work-stealing pool.
//!
//! The build environment has no crates.io access, so `rayon` is not an
//! option; this module supplies the narrow slice of it the workspace
//! needs: run N independent jobs on up to `jobs` OS threads and collect
//! the results **in submission order**, so parallel output is byte-
//! identical to a serial run of the same jobs.
//!
//! ### Design
//!
//! Jobs are identified by their index. Indices are dealt round-robin into
//! one deque per worker; a worker pops from the *front* of its own deque
//! (cache-friendly sequential order) and, when it runs dry, steals from
//! the *back* of a sibling's deque — the classic Chase–Lev discipline,
//! here with a `Mutex` per deque instead of lock-free buffers because the
//! pool schedules millisecond-scale simulations, not nanosecond tasks:
//! one uncontended lock per job is noise.
//!
//! Results land in a shared slot table keyed by job index, which is what
//! makes the merge deterministic regardless of which worker ran which job
//! and in which order.
//!
//! ### Panics and poisoning
//!
//! All locking is poison-proof: a panic in one job must not turn into
//! `PoisonError` panics in sibling workers, which would mask the original
//! panic behind a cascade of secondary ones. [`par_map`] catches each
//! job's panic, stops the pool, and re-raises the **first** panic payload
//! after all workers join; [`par_try_map`] goes further and converts each
//! job's panic into a per-job [`JobFailure`] with bounded retry, so one
//! poisoned config cannot tear down a thousand-config sweep.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A sensible default worker count: the host's available parallelism,
/// or 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Locks ignoring poison: the pool's own invariants do not depend on the
/// critical sections completing (slots are `Option`s; a poisoned write
/// left either `None` or a complete value), and respecting poison would
/// cascade one job's panic into every other worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Retry discipline for [`par_try_map`] and the sweep service: a bounded
/// retry budget plus capped exponential backoff between attempts.
///
/// Batch sweeps allow at most one immediate retry:
/// `RetryPolicy::immediate(1)`. A long-running daemon wants a larger
/// budget with growing delays so a struggling resource (a contended
/// checkpoint store, a worker that keeps being preempted) is not hammered
/// at full rate: `RetryPolicy::backoff(budget, base_ms, cap_ms)` delays
/// the n-th retry by `min(cap_ms, base_ms << (n-1))` milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (total attempts = budget+1).
    pub budget: u32,
    /// Delay before the first retry, in milliseconds. 0 = retry at once.
    pub base_ms: u64,
    /// Ceiling on any single inter-attempt delay, in milliseconds.
    pub cap_ms: u64,
}

impl RetryPolicy {
    /// No retries: every job gets exactly one attempt.
    pub const fn none() -> Self {
        Self::immediate(0)
    }

    /// `budget` retries with no delay between attempts (the policy batch
    /// sweeps use: injected faults are single-shot, so an immediate second
    /// attempt sees clean state).
    pub const fn immediate(budget: u32) -> Self {
        Self {
            budget,
            base_ms: 0,
            cap_ms: 0,
        }
    }

    /// `budget` retries with capped exponential backoff.
    pub const fn backoff(budget: u32, base_ms: u64, cap_ms: u64) -> Self {
        Self {
            budget,
            base_ms,
            cap_ms,
        }
    }

    /// Total attempts this policy allows (1 initial + budget retries).
    pub const fn attempts(&self) -> u32 {
        self.budget.saturating_add(1)
    }

    /// Delay in milliseconds before retry number `retry` (1-based: the
    /// first retry is `retry == 1`). Doubles per retry, saturating at
    /// [`RetryPolicy::cap_ms`]; shift overflow also lands on the cap.
    pub fn delay_ms(&self, retry: u32) -> u64 {
        if self.base_ms == 0 || retry == 0 {
            return 0;
        }
        let doublings = retry - 1;
        let raw = if doublings >= 63 {
            u64::MAX
        } else {
            self.base_ms.saturating_mul(1u64 << doublings)
        };
        raw.min(self.cap_ms.max(self.base_ms))
    }
}

/// One job's terminal failure, reported by [`par_try_map`] after its
/// retry budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Attempts made (1 initial + retries), all of which panicked.
    pub attempts: u32,
    /// Panic message of the **last** attempt (downcast from `&str` /
    /// `String` payloads; other payload types render as a placeholder).
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt{}: {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// The text of a caught panic's payload: the `&str` or `String` that
/// `panic!` carried, or a fixed note for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over every item of `items` on up to `jobs` threads and
/// returns the results in item order (byte-identical to the serial
/// `items.into_iter().enumerate().map(...)` for a pure `f`).
///
/// `jobs <= 1`, or an `items` length of 0 or 1, runs entirely on the
/// caller's thread with no pool at all.
///
/// # Panics
///
/// Re-raises the **first** job panic (original payload preserved) after
/// all workers join; remaining queued jobs are abandoned. Sibling workers
/// never die on poisoned locks — the one real panic is the one observed.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.min(n).max(1);
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Item slots: each job takes its input exactly once and writes its
    // result exactly once. A Mutex per table (not per slot) is plenty at
    // this granularity.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // Deal job indices round-robin so each worker starts with a spread of
    // the submission order (neighbouring jobs often have similar cost;
    // dealing avoids one worker drawing all the expensive ones).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();

    // First panic wins; the stop flag drains the pool without running the
    // remaining jobs.
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let stop = AtomicBool::new(false);

    let run_job = |idx: usize| {
        let item = lock(&inputs[idx]).take().expect("job dispatched twice");
        match catch_unwind(AssertUnwindSafe(|| f(idx, item))) {
            Ok(out) => *lock(&results[idx]) = Some(out),
            Err(payload) => {
                let mut slot = lock(&first_panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                stop.store(true, Ordering::SeqCst);
            }
        }
    };

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = &queues;
            let run_job = &run_job;
            let stop = &stop;
            handles.push(scope.spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Own work first, front-out (submission order).
                let mine = lock(&queues[w]).pop_front();
                if let Some(idx) = mine {
                    run_job(idx);
                    continue;
                }
                // Dry: steal from the back of the first sibling that still
                // has work.
                let mut stolen = None;
                for delta in 1..workers {
                    let victim = (w + delta) % workers;
                    if let Some(idx) = lock(&queues[victim]).pop_back() {
                        stolen = Some(idx);
                        break;
                    }
                }
                match stolen {
                    Some(idx) => run_job(idx),
                    None => break,
                }
            }));
        }
        // Join each worker explicitly: the scope alone only waits for the
        // closures to return, not for the threads to exit, so a pool
        // started right after this one (a short sweep's successor) could
        // find their stacks and malloc arenas still held and map fresh
        // ones. Jobs run under `catch_unwind`, so a worker panic is a bug
        // in the pool itself.
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });

    if let Some(payload) = lock(&first_panic).take() {
        resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|slot| lock(&slot).take().expect("every job ran to completion"))
        .collect()
}

/// One job's outcome under [`par_try_map`]: the terminal result plus any
/// earlier panics a retry recovered from (empty on a clean first attempt
/// and on terminal failure — the terminal [`JobFailure`] already counts
/// every attempt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult<R> {
    /// `Ok` with the job's value, or the failure that exhausted the
    /// retry budget.
    pub result: Result<R, JobFailure>,
    /// Panics of earlier attempts that a later attempt recovered from —
    /// transient faults the caller should report but not fail on.
    pub recovered: Vec<JobFailure>,
}

/// Panic-isolated [`par_map`]: every job runs under `catch_unwind`, a
/// panicking job is retried per the [`RetryPolicy`], and the merged
/// output carries a per-job [`JobResult`] in submission order — a failing
/// job never takes the pool (or its sibling jobs) down with it, and a
/// transiently failing one reports what it recovered from.
///
/// Unlike [`par_map`], `f` borrows its item (`&T`) so a retry can re-run
/// the same input.
///
/// Retries happen on the same worker, after the policy's backoff delay
/// (batch sweeps pass an immediate policy: injected faults and transient
/// I/O races clear by the second attempt; a deterministic logic bug
/// simply exhausts the budget and reports).
pub fn par_try_map<T, R, F>(
    jobs: usize,
    policy: RetryPolicy,
    items: Vec<T>,
    f: F,
) -> Vec<JobResult<R>>
where
    T: Send + Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_one = |idx: usize, item: &T| -> JobResult<R> {
        let mut failures = Vec::new();
        for attempt in 1..=policy.attempts() {
            if attempt > 1 {
                let delay = policy.delay_ms(attempt - 1);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
            match catch_unwind(AssertUnwindSafe(|| f(idx, item))) {
                Ok(out) => {
                    return JobResult {
                        result: Ok(out),
                        recovered: failures,
                    }
                }
                Err(payload) => {
                    failures.push(JobFailure {
                        index: idx,
                        attempts: attempt,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        let last = failures.pop().expect("at least one attempt");
        JobResult {
            result: Err(last),
            recovered: Vec::new(),
        }
    };
    par_map(jobs, items, |idx, item| run_one(idx, &item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_submission_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let items: Vec<u64> = (0..37).collect();
            let out = par_map(jobs, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expected: Vec<u64> = (0..37).map(|x| x * x).collect();
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = par_map(4, vec![(); 100], |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn uneven_job_costs_still_merge_in_order() {
        // Early jobs are the slow ones: stealing must not reorder results.
        let out = par_map(4, (0..16u64).collect(), |_, x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_and_single_item_edge_cases() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map(8, vec![7u32], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn job_panics_propagate_with_original_payload() {
        // The first job's own panic message must survive — not a poisoned-
        // mutex cascade from a sibling worker.
        let _ = par_map(2, (0..8).collect(), |i, _x: i32| {
            if i == 3 {
                panic!("job 3 failed");
            }
            i
        });
    }

    #[test]
    fn panic_stops_remaining_jobs_without_poison_cascade() {
        // With many queued jobs, a panic early in the grid must stop the
        // pool (not run everything) and the caller must see the original
        // message.
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, (0..1000).collect(), |i, _x: i32| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 10 {
                    panic!("the real failure");
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
                i
            })
        }));
        let payload = caught.expect_err("must propagate");
        assert_eq!(panic_message(payload.as_ref()), "the real failure");
        assert!(
            ran.load(Ordering::Relaxed) < 1000,
            "stop flag should abandon queued jobs"
        );
    }

    #[test]
    fn try_map_isolates_failures_per_job() {
        let out = par_try_map(4, RetryPolicy::none(), (0..20u64).collect(), |_, &x| {
            if x % 7 == 3 {
                panic!("bad item {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            let x = i as u64;
            if x % 7 == 3 {
                let err = r.result.as_ref().unwrap_err();
                assert_eq!(err.index, i);
                assert_eq!(err.attempts, 1);
                assert!(err.message.contains(&format!("bad item {x}")), "{err}");
            } else {
                assert_eq!(*r.result.as_ref().unwrap(), x * 2);
                assert!(r.recovered.is_empty());
            }
        }
    }

    #[test]
    fn try_map_retries_transient_failures_and_reports_recovery() {
        // Fails on the first attempt only: one retry must recover it, and
        // the recovered panic must be visible to the caller.
        let first = AtomicUsize::new(0);
        let out = par_try_map(
            2,
            RetryPolicy::immediate(1),
            vec![10u64, 20, 30],
            |i, &x| {
                if i == 1 && first.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                x + 1
            },
        );
        let values: Vec<u64> = out.iter().map(|r| *r.result.as_ref().unwrap()).collect();
        assert_eq!(values, vec![11, 21, 31]);
        assert!(out[0].recovered.is_empty());
        assert_eq!(out[1].recovered.len(), 1);
        assert_eq!(out[1].recovered[0].message, "transient");
        assert!(out[2].recovered.is_empty());
    }

    #[test]
    fn try_map_exhausts_retry_budget_and_reports_attempts() {
        let out = par_try_map(1, RetryPolicy::immediate(2), vec![0u8], |_, _| -> u8 {
            panic!("always")
        });
        let err = out[0].result.as_ref().unwrap_err();
        assert_eq!(err.attempts, 3);
        assert_eq!(err.message, "always");
        assert_eq!(err.to_string(), "job 0 failed after 3 attempts: always");
        assert!(
            out[0].recovered.is_empty(),
            "terminal failure recovered nothing"
        );
    }

    #[test]
    fn try_map_is_order_deterministic_across_jobs() {
        let serial = par_try_map(1, RetryPolicy::none(), (0..50u64).collect(), |i, &x| {
            x + i as u64
        });
        let parallel = par_try_map(8, RetryPolicy::none(), (0..50u64).collect(), |i, &x| {
            x + i as u64
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::backoff(10, 5, 40);
        let delays: Vec<u64> = (1..=7).map(|n| p.delay_ms(n)).collect();
        assert_eq!(delays, vec![5, 10, 20, 40, 40, 40, 40]);
        // Huge retry numbers must saturate at the cap, not overflow.
        assert_eq!(p.delay_ms(200), 40);
        // A cap below the base never shrinks the first delay to zero.
        assert_eq!(RetryPolicy::backoff(3, 8, 2).delay_ms(1), 8);
    }

    #[test]
    fn retry_policy_immediate_has_no_delay() {
        let p = RetryPolicy::immediate(3);
        assert_eq!(p.attempts(), 4);
        for n in 0..6 {
            assert_eq!(p.delay_ms(n), 0);
        }
        assert_eq!(RetryPolicy::none().attempts(), 1);
    }

    #[test]
    fn try_map_honours_retry_policy_budget() {
        // budget=2 → exactly 3 attempts, with backoff engaged (tiny delays
        // so the test stays fast) — exhaustion reports every attempt.
        let tries = AtomicUsize::new(0);
        let out = par_try_map(1, RetryPolicy::backoff(2, 1, 2), vec![0u8], |_, _| -> u8 {
            tries.fetch_add(1, Ordering::SeqCst);
            panic!("always")
        });
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        let err = out[0].result.as_ref().unwrap_err();
        assert_eq!(err.attempts, 3);

        // A transient failure under the same policy recovers and reports.
        let first = AtomicUsize::new(0);
        let out = par_try_map(1, RetryPolicy::backoff(2, 1, 2), vec![9u64], |_, &x| {
            if first.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            x
        });
        assert_eq!(*out[0].result.as_ref().unwrap(), 9);
        assert_eq!(out[0].recovered.len(), 1);
    }
}
