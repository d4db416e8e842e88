//! Checkpoint-seeded interval sampling.
//!
//! A full experiment simulates every instruction in detail, so *run
//! length* — not kernel speed — bounds how long a workload can be
//! measured. This module estimates a long run's metrics from a handful of
//! short **detailed windows** spread systematically over the instruction
//! stream, and predicts the gaps between them:
//!
//! ```text
//! |--offset--|==window==|---gap---|==window==|---gap---| ... |
//! ```
//!
//! * Each window is an exact slice of the uninterrupted run. One warm
//!   serial *detailed* pass (`vpr_bench::checkpoints::generate_checkpoints`)
//!   checkpoints every window start and measures every window on its way;
//!   a later run **restores the exact machine state** from the `.vprsnap`
//!   interval checkpoint and re-runs the window bit-identically. No
//!   warm-up, no cold-start bias — only gap extrapolation remains. The
//!   serial pass is an artefact, paid once per configuration and reused
//!   by every later sampled run (`--sampled --checkpoint-dir` on the
//!   figure/table binaries).
//! * A point restores its windows serially into one machine
//!   ([`vpr_core::Processor::restore_into`]), which keeps its
//!   allocations from window to window; the sweep runs points in
//!   parallel with the same submission-order merge as the figure sweeps,
//!   so sampled results are byte-identical for any `--jobs`.
//! * The **per-phase regression estimator** ([`CheckpointedReport::ipc`])
//!   fits window CPI on each span's exact per-phase instruction
//!   composition plus its functional miss/misprediction rates (from one
//!   generation-only pass through a no-timing predictor and cache model),
//!   and prices every unmeasured gap from its own exactly-known
//!   covariates.
//!
//! Accuracy is *reported*, not assumed: `table2 --sampled --check-exact
//! PCT` runs the exact table next to the sampled one, prints the relative
//! per-configuration error and fails beyond its bounds, and
//! `tests/sampling_accuracy.rs` gates ≤ 2 % worst
//! per-configuration error (−1.5 % observed) and ≤ 1 % harmonic-mean
//! error on the quick table2 grid, from windows covering ≈ half the
//! region. On this deliberately tiny CI workload (30 k-instruction region,
//! windows of a few hundred instructions) the estimates carry irreducible
//! sampling variance; at real run lengths both the window count and the
//! window length grow, and the error shrinks with both (the full-size
//! table2 grid samples to within ≈ 0.5 % per configuration).

use crate::harness::ExperimentConfig;
use crate::workloads::{Workload, WorkloadStream};
use vpr_core::{Processor, RenameScheme, SimConfig, SimStats};

/// Shape of one sampled estimate: where the estimated region lies in the
/// instruction stream and how much of it is simulated in detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Instructions skipped before the estimated region (the full run's
    /// warm-up span, which its measurement window never covers either).
    pub offset: u64,
    /// Length of the estimated region, in committed instructions.
    pub region: u64,
    /// Number of detailed windows, spread evenly over the region.
    pub intervals: usize,
    /// Measured commits per window.
    pub detailed_measure: u64,
}

impl SamplingPlan {
    /// The plan used against [`ExperimentConfig::quick`]'s full run
    /// (warm-up 2 000 + measure 30 000): 48 windows of 310 commits. 46.5 %
    /// of the region is simulated in detail: the windows are the *only*
    /// simulation a warm rerun pays (the serial pass that produced the
    /// checkpoints is a reusable artefact, and measures the windows
    /// itself), and windows this dense are what pushes the worst
    /// per-configuration error under 2 %
    /// (empirically −1.5 % on the quick table2 grid).
    pub fn quick() -> Self {
        Self {
            offset: 2_000,
            region: 30_000,
            intervals: 48,
            detailed_measure: 310,
        }
    }

    /// A plan matched to `exp`: the tuned [`SamplingPlan::quick`] for the
    /// quick workload shape, otherwise the same design (windows covering
    /// ≈46.5 % of the region) scaled to the experiment's spans. Tiny
    /// regions get fewer intervals and windows are floored at 16 commits:
    /// consecutive interval starts are never closer than one window, and a
    /// window must exceed the commit-width overshoot (≤ 7) or the serial
    /// pass could be asked to checkpoint behind its own position.
    pub fn for_experiment(exp: &ExperimentConfig) -> Self {
        let quick = Self::quick();
        if exp.warmup == quick.offset && exp.measure == quick.region {
            return quick;
        }
        let min_measure = 16u64;
        let intervals = 48.min((exp.measure / (2 * min_measure)).max(1)) as usize;
        Self {
            offset: exp.warmup,
            region: exp.measure,
            intervals,
            detailed_measure: (exp.measure * 93 / 200 / intervals as u64).max(min_measure),
        }
    }

    /// Fraction of the full run (`offset + region`) simulated in detail.
    pub fn detailed_fraction(&self) -> f64 {
        (self.intervals as u64 * self.detailed_measure) as f64 / (self.offset + self.region) as f64
    }

    /// The plan as a JSON object: the `plan` field of a sampled sweep's
    /// provenance block.
    pub fn to_json_value(&self) -> String {
        format!(
            "{{\"offset\": {}, \"region\": {}, \"intervals\": {}, \"detailed_warmup\": 0, \
             \"detailed_measure\": {}, \"detailed_fraction\": {:.4}}}",
            self.offset,
            self.region,
            self.intervals,
            self.detailed_measure,
            self.detailed_fraction()
        )
    }

    /// Interval start positions (committed-instruction offsets into the
    /// stream): one per stride, jittered inside its stride by a
    /// deterministic golden-ratio sequence so the sample pattern cannot
    /// alias with the workload's loop periodicity (plain systematic
    /// sampling measurably biases phase-heavy workloads).
    pub fn starts(&self) -> Vec<u64> {
        let stride = self.region / self.intervals.max(1) as u64;
        let slack = stride.saturating_sub(self.detailed_measure);
        (0..self.intervals)
            .map(|i| {
                // Low-discrepancy fraction of the stride's slack:
                // frac(i * phi) via 64-bit fixed point.
                let phi = 0x9E37_79B9_7F4A_7C15u64; // 2^64 / golden ratio
                let frac = (i as u64).wrapping_mul(phi) >> 32;
                let jitter = (slack * frac) >> 32;
                self.offset + i as u64 * stride + jitter
            })
            .collect()
    }

    /// Checks the plan's consistency.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint: at least one interval,
    /// a non-empty measure span, and windows that fit the region.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.intervals == 0 {
            return Err("need at least one interval".into());
        }
        if self.detailed_measure == 0 {
            return Err("intervals must measure something".into());
        }
        if self.intervals as u64 * self.detailed_measure > self.region {
            return Err(format!(
                "detailed spans exceed the sampled region ({} intervals x {} > {})",
                self.intervals, self.detailed_measure, self.region
            ));
        }
        Ok(())
    }

    /// Validates the plan.
    ///
    /// # Panics
    ///
    /// Panics if there are no intervals, no measured commits, or the
    /// windows overrun the region ([`SamplingPlan::try_validate`]).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid sampling plan: {e}");
        }
    }
}

/// Solves the dense `n × n` system `a·x = b` by Gaussian elimination with
/// partial pivoting (`n` is the per-phase regression's phase count plus
/// two covariates — single digits); `None` when singular.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-14 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in 0..n {
            if row == col {
                continue;
            }
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            let pivot_row = std::mem::take(&mut a[col]);
            for (k, v) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= f * v;
            }
            a[col] = pivot_row;
            b[row] -= f * b[col];
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

// ----------------------------------------------------------------------
// Checkpoint-seeded sampling
// ----------------------------------------------------------------------

/// Functionally-known description of one committed-stream span: its exact
/// per-phase instruction composition and functional miss/misprediction
/// rates. These are the per-phase regression estimator's covariates — all
/// derived from a generation-only pass, never from timing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanProfile {
    /// First committed-instruction position of the span (inclusive).
    pub begin: u64,
    /// One past the last position (exclusive).
    pub end: u64,
    /// Exact fraction of the span's instructions executed in each
    /// generator loop (phase); sums to 1.
    pub phase_fracs: Vec<f64>,
    /// Functional cache misses per span instruction.
    pub miss_rate: f64,
    /// Functional branch mispredictions per span instruction.
    pub mispred_rate: f64,
}

impl SpanProfile {
    /// Span length in committed instructions.
    pub fn len(&self) -> u64 {
        self.end - self.begin
    }

    /// True when the span is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// One measured window of a checkpoint-seeded sampled run: the span's
/// functional profile plus the *exact* measurement-window statistics of
/// the restored machine (bit-identical to the uninterrupted run over the
/// same span).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedSample {
    /// The window's span and covariates.
    pub span: SpanProfile,
    /// Detailed statistics of the window.
    pub stats: SimStats,
}

/// A checkpoint-seeded sampled estimate: exact window measurements plus
/// functionally-profiled gaps, combined by the **per-phase regression
/// estimator** ([`CheckpointedReport::ipc`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedReport {
    /// The plan that produced it.
    pub plan: SamplingPlan,
    /// Measured windows, in stream order.
    pub windows: Vec<CheckpointedSample>,
    /// Unmeasured gaps between (and after) the windows, in stream order.
    pub gaps: Vec<SpanProfile>,
}

impl CheckpointedReport {
    /// Estimated region IPC — the checkpoint-seeded harness's estimator.
    ///
    /// The measured windows' cycles are **exact** (each window restored
    /// the uninterrupted run's machine state from its checkpoint), so only
    /// the gaps need estimating. Window CPI is regressed on the spans'
    /// functionally-known covariates — the per-phase instruction
    /// composition (an intercept *per generator-loop phase*, entered
    /// fractionally so windows spanning a phase transition inform both
    /// phases) plus cache-miss and branch-misprediction rates, the control
    /// variates — and each gap's CPI is predicted from its own exactly-
    /// known covariates. Predictions falling outside the observed window
    /// CPI range (widened ×1.5) fall back to the pooled window CPI, as
    /// does everything when the fit is singular.
    pub fn ipc(&self) -> f64 {
        let committed: u64 = self
            .windows
            .iter()
            .map(|w| w.stats.committed)
            .chain(self.gaps.iter().map(SpanProfile::len))
            .sum();
        let cycles = self.estimated_cycles();
        if cycles <= 0.0 {
            return 0.0;
        }
        committed as f64 / cycles
    }

    /// Total estimated cycles over windows (measured) plus gaps
    /// (predicted).
    fn estimated_cycles(&self) -> f64 {
        let window_cycles: u64 = self.windows.iter().map(|w| w.stats.cycles).sum();
        let pooled = self.pooled_cpi();
        let predict = self.fit_gap_predictor();
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for w in &self.windows {
            if w.stats.committed > 0 {
                let cpi = w.stats.cycles as f64 / w.stats.committed as f64;
                lo = lo.min(cpi);
                hi = hi.max(cpi);
            }
        }
        let mut cycles = window_cycles as f64;
        for gap in &self.gaps {
            let mut cpi = predict.as_ref().map_or(pooled, |p| p.predict(gap));
            if !cpi.is_finite() || cpi < lo / 1.5 || cpi > hi * 1.5 {
                cpi = pooled;
            }
            cycles += gap.len() as f64 * cpi;
        }
        cycles
    }

    /// Fits the per-phase regression on the measured windows; `None` when
    /// under-determined or singular.
    fn fit_gap_predictor(&self) -> Option<GapPredictor> {
        let phases = self
            .windows
            .iter()
            .map(|w| w.span.phase_fracs.len())
            .max()?;
        // Phases at least one window actually executed in; unseen phases
        // cannot be fitted and are priced at the pooled CPI instead.
        let present: Vec<usize> = (0..phases)
            .filter(|&p| {
                self.windows
                    .iter()
                    .any(|w| w.span.phase_fracs.get(p).copied().unwrap_or(0.0) > 0.0)
            })
            .collect();
        let dims = present.len() + 2;
        if self.windows.len() < dims + 2 {
            return None;
        }
        let mut xtx = vec![vec![0.0f64; dims]; dims];
        let mut xty = vec![0.0f64; dims];
        let mut row = vec![0.0f64; dims];
        for w in &self.windows {
            if w.stats.committed == 0 {
                return None;
            }
            let y = w.stats.cycles as f64 / w.stats.committed as f64;
            for (i, &p) in present.iter().enumerate() {
                row[i] = w.span.phase_fracs.get(p).copied().unwrap_or(0.0);
            }
            row[present.len()] = w.span.miss_rate;
            row[present.len() + 1] = w.span.mispred_rate;
            for i in 0..dims {
                for j in 0..dims {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * y;
            }
        }
        for (i, r) in xtx.iter_mut().enumerate() {
            r[i] += 1e-7;
        }
        let beta = solve_dense(xtx, xty)?;
        Some(GapPredictor {
            present,
            beta,
            pooled: self.pooled_cpi(),
        })
    }

    /// Pooled CPI over the measured windows (the estimator of last
    /// resort).
    fn pooled_cpi(&self) -> f64 {
        let committed: u64 = self.windows.iter().map(|w| w.stats.committed).sum();
        let cycles: u64 = self.windows.iter().map(|w| w.stats.cycles).sum();
        if committed == 0 {
            0.0
        } else {
            cycles as f64 / committed as f64
        }
    }

    /// Cache miss ratio over the measured windows.
    pub fn miss_ratio(&self) -> f64 {
        let (mut miss, mut total) = (0u64, 0u64);
        for w in &self.windows {
            miss += w.stats.cache.misses + w.stats.cache.merged_misses;
            total += w.stats.cache.hits + w.stats.cache.misses + w.stats.cache.merged_misses;
        }
        if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64
        }
    }

    /// Executions per committed instruction over the measured windows (the
    /// re-execution rate Table 2 reports for the VP write-back scheme).
    pub fn executions_per_commit(&self) -> f64 {
        let committed: u64 = self.windows.iter().map(|w| w.stats.committed).sum();
        let executions: u64 = self.windows.iter().map(|w| w.stats.executions).sum();
        if committed == 0 {
            0.0
        } else {
            executions as f64 / committed as f64
        }
    }
}

/// The fitted per-phase regression: CPI ≈ Σ_p frac_p·α_p + β₁·miss +
/// β₂·mispred, with phases absent from every window priced at the pooled
/// window CPI.
struct GapPredictor {
    present: Vec<usize>,
    beta: Vec<f64>,
    pooled: f64,
}

impl GapPredictor {
    fn predict(&self, span: &SpanProfile) -> f64 {
        let k = self.present.len();
        let mut cpi = self.beta[k] * span.miss_rate + self.beta[k + 1] * span.mispred_rate;
        let mut seen_frac = 0.0;
        for (i, &p) in self.present.iter().enumerate() {
            let f = span.phase_fracs.get(p).copied().unwrap_or(0.0);
            cpi += f * self.beta[i];
            seen_frac += f;
        }
        // Instructions in phases no window sampled: pooled CPI.
        cpi + (1.0 - seen_frac).max(0.0) * self.pooled
    }
}

/// Profiles an ordered, disjoint list of spans (given by their
/// `[begin, end)` committed positions) in **one** functional pass over the
/// stream: exact per-phase composition and functional miss/misprediction
/// rates per span.
fn profile_spans(
    workload: Workload,
    seed: u64,
    spans: &[(u64, u64)],
    config: &SimConfig,
) -> Vec<SpanProfile> {
    let mut trace = workload.stream(seed);
    let mut model = FunctionalModel::new(config);
    let phases = trace.loop_count();
    let mut pos = 0u64;
    let mut out = Vec::with_capacity(spans.len());
    for &(begin, end) in spans {
        // Consecutive windows overlap when a window's achieved end runs
        // past the next interval's start; the single forward pass then
        // profiles the later span from where it stands (≤ a few
        // instructions short — covariates only).
        let begin = begin.max(pos);
        let end = end.max(begin);
        while pos < begin {
            let di = trace.next().expect("synthetic traces are infinite");
            model.step(&di);
            pos += 1;
        }
        let mut counts = vec![0u64; phases];
        let (mut misses, mut mispreds) = (0u64, 0u64);
        while pos < end {
            counts[trace.current_loop()] += 1;
            let di = trace.next().expect("synthetic traces are infinite");
            let (miss, mispred) = model.step(&di);
            misses += u64::from(miss);
            mispreds += u64::from(mispred);
            pos += 1;
        }
        let n = (end - begin).max(1) as f64;
        out.push(SpanProfile {
            begin,
            end,
            phase_fracs: counts.into_iter().map(|c| c as f64 / n).collect(),
            miss_rate: misses as f64 / n,
            mispred_rate: mispreds as f64 / n,
        });
    }
    out
}

/// One measured detailed window: `(begin, end, stats)` — the absolute
/// committed positions where it began and ended, and its [`SimStats`].
pub type Window = (u64, u64, SimStats);

/// Runs a **checkpoint-seeded** sampled estimate: every interval restores
/// the exact machine state of the uninterrupted run from its checkpoint
/// (`checkpoints[i] = (interval start, snapshot)`, as produced by
/// `vpr_bench::checkpoints::generate_checkpoints` or loaded from a
/// `.vprsnap` directory) and simulates only the measured window. The
/// windows run serially, each restored into the one machine the first
/// built ([`Processor::restore_into`]) — a sweep runs its points in
/// parallel already; [`estimate_from_windows`] assembles the estimate.
///
/// # Panics
///
/// Panics if the checkpoint list does not match the plan's interval
/// count, if a snapshot fails to restore (a validated checkpoint that
/// does not restore is a bug, not an input error), or if a snapshot was
/// taken under another scheme than `scheme`.
pub fn sample_from_checkpoints(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    checkpoints: &[(u64, vpr_snap::Snapshot)],
) -> CheckpointedReport {
    let workload = workload.into();
    plan.validate();
    assert_eq!(
        checkpoints.len(),
        plan.intervals,
        "need one checkpoint per interval"
    );
    let mut machine: Option<Processor<WorkloadStream>> = None;
    let windows: Vec<Window> = checkpoints
        .iter()
        .map(|(_, snapshot)| {
            let cpu = match &mut machine {
                Some(cpu) => {
                    cpu.restore_into(snapshot)
                        .expect("interval checkpoint restores");
                    cpu
                }
                None => machine.insert(
                    Processor::restore(snapshot, workload.stream(exp.seed))
                        .expect("interval checkpoint restores"),
                ),
            };
            assert_eq!(
                cpu.config().scheme,
                scheme,
                "an interval checkpoint seeds only its own scheme's windows"
            );
            let begin = cpu.absolute_committed();
            cpu.reset_window();
            let stats = cpu.run(plan.detailed_measure);
            (begin, cpu.absolute_committed(), stats)
        })
        .collect();
    estimate_from_windows(workload, scheme, physical_regs, exp, plan, windows)
}

/// Assembles a sampled estimate from the plan's measured windows, in
/// interval order — restored from checkpoints
/// ([`sample_from_checkpoints`]) or measured by the warm pass itself
/// (`vpr_bench::checkpoints::generate_checkpoints`); the two are
/// bit-identical. One functional pass profiles the windows and the gaps
/// between them.
///
/// # Panics
///
/// Panics if the plan is invalid or the window count does not match its
/// interval count.
pub fn estimate_from_windows(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    windows: Vec<Window>,
) -> CheckpointedReport {
    let workload = workload.into();
    plan.validate();
    assert_eq!(
        windows.len(),
        plan.intervals,
        "need one window per interval"
    );
    let config = crate::checkpoints::sim_config(scheme, physical_regs, exp);
    // Span accounting: windows are exact slices of the uninterrupted run;
    // the gaps between them (and the tail out to the region end) are what
    // the estimator predicts. Consecutive windows overlap by a few
    // instructions when a window runs past the next interval's achieved
    // start: a plan may leave no slack between windows, and every pause
    // overshoots its commit target by up to commit-width − 1. The
    // overlapped commits are counted in both windows (numerator and
    // denominator alike, a ≤0.1 % effect at quick scale), and the gap in
    // between is empty.
    let region_end = (plan.offset + plan.region).max(windows.last().map_or(0, |w| w.1));
    let mut gap_spans = Vec::with_capacity(windows.len());
    for (i, &(_, end, _)) in windows.iter().enumerate() {
        let next_begin = windows
            .get(i + 1)
            .map_or(region_end, |&(begin, _, _)| begin);
        if next_begin > end {
            gap_spans.push((end, next_begin));
        }
    }
    // One functional pass profiles windows and gaps together: label the
    // interleaved spans, sort by position, and split the profiles back
    // out afterwards (ordering within each class is preserved).
    let mut labelled: Vec<(u64, u64, bool)> = windows
        .iter()
        .map(|&(b, e, _)| (b, e, false))
        .chain(gap_spans.iter().map(|&(b, e)| (b, e, true)))
        .collect();
    labelled.sort_unstable();
    let spans: Vec<(u64, u64)> = labelled.iter().map(|&(b, e, _)| (b, e)).collect();
    let profiles = profile_spans(workload, exp.seed, &spans, &config);
    let mut window_profiles = Vec::with_capacity(windows.len());
    let mut gap_profiles = Vec::with_capacity(gap_spans.len());
    for (profile, &(_, _, is_gap)) in profiles.into_iter().zip(&labelled) {
        if is_gap {
            gap_profiles.push(profile);
        } else {
            window_profiles.push(profile);
        }
    }
    CheckpointedReport {
        plan: *plan,
        windows: window_profiles
            .into_iter()
            .zip(windows)
            .map(|(span, (_, _, stats))| CheckpointedSample { span, stats })
            .collect(),
        gaps: gap_profiles,
    }
}

/// The no-timing functional machine model: a trained branch predictor and
/// a resident-line cache. Spans are replayed through it to count the
/// functional miss/misprediction events the regression estimator uses as
/// covariates.
struct FunctionalModel {
    bht: vpr_frontend::BranchHistoryTable,
    cache: vpr_mem::DataCache,
}

impl FunctionalModel {
    fn new(config: &SimConfig) -> Self {
        Self {
            bht: vpr_frontend::BranchHistoryTable::new(config.bht_entries),
            cache: vpr_mem::DataCache::new(config.cache),
        }
    }

    /// Processes one instruction; returns `(functional_miss, mispredict)`.
    fn step(&mut self, di: &vpr_isa::DynInst) -> (bool, bool) {
        match di.op() {
            vpr_isa::OpClass::BranchCond => {
                let b = di.branch().expect("trace records outcomes");
                let mispredict = self.bht.predict(di.pc()) != b.taken;
                self.bht.update(di.pc(), b.taken);
                (false, mispredict)
            }
            op if op.is_mem() => {
                let m = di.mem().expect("memory op carries an access");
                let hit = self.cache.would_hit(m.addr);
                self.cache.warm_touch(m.addr, op == vpr_isa::OpClass::Store);
                (!hit, false)
            }
            _ => (false, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_geometry() {
        let plan = SamplingPlan::quick();
        plan.validate();
        assert_eq!(plan.starts().len(), plan.intervals);
        assert_eq!(plan.starts()[0], plan.offset);
        assert!(
            plan.detailed_fraction() <= 0.5,
            "{}",
            plan.detailed_fraction()
        );
        let for_exp = SamplingPlan::for_experiment(&ExperimentConfig::quick());
        assert_eq!(for_exp, plan);
        let scaled = SamplingPlan::for_experiment(&ExperimentConfig {
            warmup: 500,
            measure: 6_000,
            ..ExperimentConfig::default()
        });
        scaled.validate();
        assert!(scaled.detailed_fraction() <= 0.5);
    }

    #[test]
    #[should_panic(expected = "exceed the sampled region")]
    fn oversized_plan_rejected() {
        SamplingPlan {
            offset: 0,
            region: 100,
            intervals: 10,
            detailed_measure: 11,
        }
        .validate();
    }
}
