//! The paper's evaluation artefacts (§4.2), as reusable functions.
//!
//! Each function sweeps the relevant configurations, returns a structured
//! result, and can render it as a [`Table`] shaped like the paper's
//! corresponding table or figure.

use crate::sweep::{
    failures_json, run_sweep_metrics, MetricsBlock, SamplingProvenance, SweepContext, SweepFailure,
    SweepPoint,
};
use crate::workloads::Workload;
use crate::{ExperimentConfig, Table};
use vpr_core::{harmonic_mean, RenameScheme};
use vpr_obs::RunTelemetry;
use vpr_snap::json;

/// The NRR values swept in Figures 4 and 5.
pub const NRR_SWEEP: [usize; 6] = [1, 4, 8, 16, 24, 32];

/// Register-file sizes (and the NRR used with each) swept in Figure 7.
pub const REG_SWEEP: [(usize, usize); 3] = [(48, 16), (64, 32), (96, 64)];

// ----------------------------------------------------------------------
// Table 2
// ----------------------------------------------------------------------

/// One benchmark row of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// The workload (benchmark or assembled program).
    pub workload: Workload,
    /// IPC under conventional renaming.
    pub conv_ipc: f64,
    /// IPC under virtual-physical write-back allocation (NRR = 32).
    pub vp_ipc: f64,
    /// Executions per committed instruction under the VP scheme (the
    /// paper reports 3.3 on average).
    pub vp_executions_per_commit: f64,
}

impl Table2Row {
    /// Percentage IPC improvement of VP over conventional.
    pub fn improvement_percent(&self) -> f64 {
        (self.vp_ipc / self.conv_ipc - 1.0) * 100.0
    }
}

/// The full Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-benchmark rows, integer benchmarks first (paper order).
    pub rows: Vec<Table2Row>,
    /// How the numbers were obtained (exact vs sampled) — recorded into
    /// the JSON artefact so the two are never confusable.
    pub sampling: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run).
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics of the sweep (the artefact's
    /// `metrics` block; per-run series for exact sweeps).
    pub metrics: MetricsBlock,
    /// Sweep-engine run telemetry (written to `run.telemetry.json`, not
    /// into the experiment artefact).
    pub telemetry: RunTelemetry,
}

impl Table2 {
    /// Harmonic means of the two IPC columns `(conventional, vp)`.
    pub fn harmonic_means(&self) -> (f64, f64) {
        let conv: Vec<f64> = self.rows.iter().map(|r| r.conv_ipc).collect();
        let vp: Vec<f64> = self.rows.iter().map(|r| r.vp_ipc).collect();
        (harmonic_mean(&conv), harmonic_mean(&vp))
    }

    /// Mean improvement of the harmonic means, in percent (the paper's
    /// headline 19%).
    pub fn mean_improvement_percent(&self) -> f64 {
        let (c, v) = self.harmonic_means();
        (v / c - 1.0) * 100.0
    }

    /// Renders the result as JSON (`vpr-bench-table2/v4`) through
    /// `vpr_snap::json`. v2 added the `sampling`
    /// provenance block; v3 added `failures` and renders unmeasured
    /// metrics as `null` instead of panicking or emitting bare NaN; v4
    /// adds the aggregated `metrics` block (see `docs/observability.md`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"vpr-bench-table2/v4\",\n");
        let _ = writeln!(s, "  \"sampling\": {},", self.sampling.to_json_value());
        let _ = writeln!(s, "  \"failures\": {},", failures_json(&self.failures));
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics.to_json_value());
        let rows = json::row_array(self.rows.iter().map(|r| {
            format!(
                "{{\"benchmark\": \"{}\", \"conv_ipc\": {}, \"vp_ipc\": {}, \"improvement_percent\": {}, \"vp_executions_per_commit\": {}}}",
                json::escape(&r.workload.name()),
                json::fixed(r.conv_ipc, 4),
                json::fixed(r.vp_ipc, 4),
                json::fixed(r.improvement_percent(), 2),
                json::fixed(r.vp_executions_per_commit, 4)
            )
        }));
        let (c, v) = self.harmonic_means();
        let _ = writeln!(
            s,
            "  \"rows\": {rows},\n  \"harmonic_mean_conv_ipc\": {},\n  \"harmonic_mean_vp_ipc\": {},\n  \"mean_improvement_percent\": {}",
            json::fixed(c, 4),
            json::fixed(v, 4),
            json::fixed(self.mean_improvement_percent(), 2)
        );
        s.push_str("}\n");
        s
    }

    /// Renders the paper-shaped table (with the paper's reference numbers
    /// alongside for comparison).
    pub fn render(&self) -> Table {
        let mut t = Table::new(
            [
                "bench",
                "conv IPC",
                "VP IPC",
                "imp.%",
                "paper conv",
                "paper VP",
                "paper imp.%",
            ]
            .map(String::from)
            .to_vec(),
        );
        let opt = |v: Option<f64>, fmt: fn(f64) -> String| v.map_or_else(|| "\u{2014}".into(), fmt);
        for r in &self.rows {
            t.add_row(vec![
                r.workload.name(),
                format!("{:.2}", r.conv_ipc),
                format!("{:.2}", r.vp_ipc),
                format!("{:+.0}", r.improvement_percent()),
                opt(r.workload.paper_conventional_ipc(), |v| format!("{v:.2}")),
                opt(r.workload.paper_vp_writeback_ipc(), |v| format!("{v:.2}")),
                opt(r.workload.paper_improvement_percent(), |v| {
                    format!("{v:+.0}")
                }),
            ]);
        }
        let (c, v) = self.harmonic_means();
        t.add_row(vec![
            "harm.mean".into(),
            format!("{c:.2}"),
            format!("{v:.2}"),
            format!("{:+.0}", self.mean_improvement_percent()),
            "1.23".into(),
            "1.46".into(),
            "+19".into(),
        ]);
        t
    }
}

/// Regenerates Table 2: conventional vs. VP write-back (NRR = 32) at 64
/// physical registers per file, in `ctx`: exact (optionally restoring
/// warm checkpoints) or sampled (checkpoint-seeded estimation). The grid
/// runs through the parallel sweep engine (`exp.jobs` workers); rows are
/// assembled in benchmark order, so the result is identical for any
/// worker count.
pub fn table2_in(exp: &ExperimentConfig, ctx: &SweepContext) -> Table2 {
    table2_for(&Workload::synthetic(), exp, ctx)
}

/// [`table2_in`] over an explicit workload list (`--workload` on the
/// binary): same two-scheme comparison, any mix of synthetic benchmarks
/// and assembled programs.
pub fn table2_for(workloads: &[Workload], exp: &ExperimentConfig, ctx: &SweepContext) -> Table2 {
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|&w| {
            [
                SweepPoint::at64(w, RenameScheme::Conventional),
                SweepPoint::at64(w, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }),
            ]
        })
        .collect();
    let sweep = run_sweep_metrics(&points, exp, ctx);
    let rows = workloads
        .iter()
        .zip(sweep.points.chunks_exact(2))
        .map(|(&w, pair)| Table2Row {
            workload: w,
            conv_ipc: pair[0].ipc,
            vp_ipc: pair[1].ipc,
            vp_executions_per_commit: pair[1].executions_per_commit,
        })
        .collect();
    Table2 {
        rows,
        sampling: sweep.provenance,
        failures: sweep.failures,
        metrics: sweep.metrics,
        telemetry: sweep.telemetry,
    }
}

// ----------------------------------------------------------------------
// Figures 4 and 5 — speedup vs NRR
// ----------------------------------------------------------------------

/// Speedups of one benchmark across the NRR sweep.
#[derive(Debug, Clone)]
pub struct NrrSweepRow {
    /// The workload.
    pub workload: Workload,
    /// IPC of the conventional baseline.
    pub conv_ipc: f64,
    /// `IPC_vp / IPC_conv` for each NRR in [`NRR_SWEEP`].
    pub speedups: Vec<f64>,
}

/// A Figure-4/Figure-5-shaped result: per-benchmark speedup series over
/// the NRR sweep.
#[derive(Debug, Clone)]
pub struct NrrSweep {
    /// Which allocation policy was swept.
    pub scheme_name: &'static str,
    /// Per-benchmark series.
    pub rows: Vec<NrrSweepRow>,
    /// How the numbers were obtained.
    pub sampling: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run).
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics of the sweep (the artefact's
    /// `metrics` block; per-run series for exact sweeps).
    pub metrics: MetricsBlock,
    /// Sweep-engine run telemetry (written to `run.telemetry.json`, not
    /// into the experiment artefact).
    pub telemetry: RunTelemetry,
}

impl NrrSweep {
    /// Mean (harmonic, over benchmarks) speedup for each NRR value.
    pub fn mean_speedups(&self) -> Vec<f64> {
        (0..NRR_SWEEP.len())
            .map(|i| {
                let conv: Vec<f64> = self.rows.iter().map(|r| r.conv_ipc).collect();
                let vp: Vec<f64> = self
                    .rows
                    .iter()
                    .map(|r| r.conv_ipc * r.speedups[i])
                    .collect();
                harmonic_mean(&vp) / harmonic_mean(&conv)
            })
            .collect()
    }

    /// Renders the result as JSON (`vpr-bench-nrr-sweep/v4`); `scheme`
    /// distinguishes Figure 4 (write-back) from Figure 5 (issue). v2
    /// added the `sampling` provenance block; v3 added `failures` and
    /// `null` for unmeasured metrics; v4 adds the aggregated `metrics`
    /// block.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let join = |xs: &[f64]| {
            xs.iter()
                .map(|x| json::fixed(*x, 4))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"vpr-bench-nrr-sweep/v4\",\n");
        let _ = writeln!(s, "  \"sampling\": {},", self.sampling.to_json_value());
        let _ = writeln!(s, "  \"failures\": {},", failures_json(&self.failures));
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics.to_json_value());
        let _ = writeln!(s, "  \"scheme\": \"{}\",", self.scheme_name);
        let nrrs = NRR_SWEEP
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(s, "  \"nrr\": [{nrrs}],");
        let rows = json::row_array(self.rows.iter().map(|r| {
            format!(
                "{{\"benchmark\": \"{}\", \"conv_ipc\": {}, \"speedups\": [{}]}}",
                json::escape(&r.workload.name()),
                json::fixed(r.conv_ipc, 4),
                join(&r.speedups)
            )
        }));
        let _ = writeln!(
            s,
            "  \"rows\": {rows},\n  \"mean_speedups\": [{}]",
            join(&self.mean_speedups())
        );
        s.push_str("}\n");
        s
    }

    /// Renders the figure as a table: one row per benchmark, one column
    /// per NRR.
    pub fn render(&self) -> Table {
        let mut headers = vec!["bench".to_string()];
        headers.extend(NRR_SWEEP.iter().map(|n| format!("NRR={n}")));
        let mut t = Table::new(headers);
        for r in &self.rows {
            let mut row = vec![r.workload.name()];
            row.extend(r.speedups.iter().map(|s| format!("{s:.2}")));
            t.add_row(row);
        }
        let mut mean_row = vec!["harm.mean".to_string()];
        mean_row.extend(self.mean_speedups().iter().map(|s| format!("{s:.2}")));
        t.add_row(mean_row);
        t
    }
}

fn nrr_sweep(
    workloads: &[Workload],
    exp: &ExperimentConfig,
    ctx: &SweepContext,
    writeback: bool,
) -> NrrSweep {
    let vp = |nrr| {
        if writeback {
            RenameScheme::VirtualPhysicalWriteback { nrr }
        } else {
            RenameScheme::VirtualPhysicalIssue { nrr }
        }
    };
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|&w| {
            std::iter::once(SweepPoint::at64(w, RenameScheme::Conventional)).chain(
                NRR_SWEEP
                    .iter()
                    .map(move |&nrr| SweepPoint::at64(w, vp(nrr))),
            )
        })
        .collect();
    let sweep = run_sweep_metrics(&points, exp, ctx);
    let rows = workloads
        .iter()
        .zip(sweep.points.chunks_exact(1 + NRR_SWEEP.len()))
        .map(|(&w, group)| {
            let conv = group[0].ipc;
            NrrSweepRow {
                workload: w,
                conv_ipc: conv,
                speedups: group[1..].iter().map(|m| m.ipc / conv).collect(),
            }
        })
        .collect();
    NrrSweep {
        scheme_name: if writeback { "write-back" } else { "issue" },
        rows,
        sampling: sweep.provenance,
        failures: sweep.failures,
        metrics: sweep.metrics,
        telemetry: sweep.telemetry,
    }
}

/// Regenerates Figure 4 in `ctx`: VP write-back speedup over
/// conventional for NRR ∈ {1, 4, 8, 16, 24, 32}.
pub fn fig4_in(exp: &ExperimentConfig, ctx: &SweepContext) -> NrrSweep {
    nrr_sweep(&Workload::synthetic(), exp, ctx, true)
}

/// [`fig4_in`] over an explicit workload list.
pub fn fig4_for(workloads: &[Workload], exp: &ExperimentConfig, ctx: &SweepContext) -> NrrSweep {
    nrr_sweep(workloads, exp, ctx, true)
}

/// Regenerates Figure 5 in `ctx`: VP issue-allocation speedup over
/// conventional for the same NRR sweep.
pub fn fig5_in(exp: &ExperimentConfig, ctx: &SweepContext) -> NrrSweep {
    nrr_sweep(&Workload::synthetic(), exp, ctx, false)
}

/// [`fig5_in`] over an explicit workload list.
pub fn fig5_for(workloads: &[Workload], exp: &ExperimentConfig, ctx: &SweepContext) -> NrrSweep {
    nrr_sweep(workloads, exp, ctx, false)
}

// ----------------------------------------------------------------------
// Figure 6 — write-back vs issue
// ----------------------------------------------------------------------

/// One benchmark's head-to-head comparison at the optimal NRR (32).
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// The workload.
    pub workload: Workload,
    /// Speedup of write-back allocation over conventional.
    pub writeback_speedup: f64,
    /// Speedup of issue allocation over conventional.
    pub issue_speedup: f64,
}

/// The Figure 6 result.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig6Row>,
    /// How the numbers were obtained.
    pub sampling: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run).
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics of the sweep (the artefact's
    /// `metrics` block; per-run series for exact sweeps).
    pub metrics: MetricsBlock,
    /// Sweep-engine run telemetry (written to `run.telemetry.json`, not
    /// into the experiment artefact).
    pub telemetry: RunTelemetry,
}

impl Fig6 {
    /// Renders the result as JSON (`vpr-bench-fig6/v4`; v2 added the
    /// `sampling` provenance block, v3 added `failures` and `null` for
    /// unmeasured metrics, v4 adds the aggregated `metrics` block).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"vpr-bench-fig6/v4\",\n");
        let _ = writeln!(s, "  \"sampling\": {},", self.sampling.to_json_value());
        let _ = writeln!(s, "  \"failures\": {},", failures_json(&self.failures));
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics.to_json_value());
        let rows = json::row_array(self.rows.iter().map(|r| {
            format!(
                "{{\"benchmark\": \"{}\", \"writeback_speedup\": {}, \"issue_speedup\": {}}}",
                json::escape(&r.workload.name()),
                json::fixed(r.writeback_speedup, 4),
                json::fixed(r.issue_speedup, 4)
            )
        }));
        let _ = writeln!(
            s,
            "  \"rows\": {rows},\n  \"writeback_win_rate\": {}",
            json::fixed(self.writeback_win_rate(), 4)
        );
        s.push_str("}\n");
        s
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> Table {
        let mut t = Table::new(["bench", "write-back", "issue"].map(String::from).to_vec());
        for r in &self.rows {
            t.add_row(vec![
                r.workload.name(),
                format!("{:.2}", r.writeback_speedup),
                format!("{:.2}", r.issue_speedup),
            ]);
        }
        t
    }

    /// Fraction of benchmarks where write-back beats issue allocation
    /// (the paper: write-back "significantly outperforms" issue).
    pub fn writeback_win_rate(&self) -> f64 {
        let wins = self
            .rows
            .iter()
            .filter(|r| r.writeback_speedup >= r.issue_speedup)
            .count();
        wins as f64 / self.rows.len() as f64
    }
}

/// Regenerates Figure 6 in `ctx`: both allocation policies at NRR = 32,
/// 64 registers.
pub fn fig6_in(exp: &ExperimentConfig, ctx: &SweepContext) -> Fig6 {
    fig6_for(&Workload::synthetic(), exp, ctx)
}

/// [`fig6_in`] over an explicit workload list.
pub fn fig6_for(workloads: &[Workload], exp: &ExperimentConfig, ctx: &SweepContext) -> Fig6 {
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|&w| {
            [
                SweepPoint::at64(w, RenameScheme::Conventional),
                SweepPoint::at64(w, RenameScheme::VirtualPhysicalWriteback { nrr: 32 }),
                SweepPoint::at64(w, RenameScheme::VirtualPhysicalIssue { nrr: 32 }),
            ]
        })
        .collect();
    let sweep = run_sweep_metrics(&points, exp, ctx);
    let rows = workloads
        .iter()
        .zip(sweep.points.chunks_exact(3))
        .map(|(&w, group)| {
            let conv = group[0].ipc;
            Fig6Row {
                workload: w,
                writeback_speedup: group[1].ipc / conv,
                issue_speedup: group[2].ipc / conv,
            }
        })
        .collect();
    Fig6 {
        rows,
        sampling: sweep.provenance,
        failures: sweep.failures,
        metrics: sweep.metrics,
        telemetry: sweep.telemetry,
    }
}

// ----------------------------------------------------------------------
// Figure 7 — varying the number of physical registers
// ----------------------------------------------------------------------

/// One benchmark's IPCs across register-file sizes.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// The workload.
    pub workload: Workload,
    /// `(conv_ipc, vp_ipc)` for each size in [`REG_SWEEP`].
    pub ipcs: Vec<(f64, f64)>,
}

/// The Figure 7 result.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig7Row>,
    /// How the numbers were obtained.
    pub sampling: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run).
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics of the sweep (the artefact's
    /// `metrics` block; per-run series for exact sweeps).
    pub metrics: MetricsBlock,
    /// Sweep-engine run telemetry (written to `run.telemetry.json`, not
    /// into the experiment artefact).
    pub telemetry: RunTelemetry,
}

impl Fig7 {
    /// Mean improvement (of harmonic-mean IPCs) per register-file size,
    /// in percent. The paper reports ≈31%, 19% and 8% for 48/64/96.
    pub fn mean_improvements_percent(&self) -> Vec<f64> {
        (0..REG_SWEEP.len())
            .map(|i| {
                let conv: Vec<f64> = self.rows.iter().map(|r| r.ipcs[i].0).collect();
                let vp: Vec<f64> = self.rows.iter().map(|r| r.ipcs[i].1).collect();
                (harmonic_mean(&vp) / harmonic_mean(&conv) - 1.0) * 100.0
            })
            .collect()
    }

    /// Harmonic-mean IPC columns `(conv, vp)` per register-file size.
    pub fn mean_ipcs(&self) -> Vec<(f64, f64)> {
        (0..REG_SWEEP.len())
            .map(|i| {
                let conv: Vec<f64> = self.rows.iter().map(|r| r.ipcs[i].0).collect();
                let vp: Vec<f64> = self.rows.iter().map(|r| r.ipcs[i].1).collect();
                (harmonic_mean(&conv), harmonic_mean(&vp))
            })
            .collect()
    }

    /// Renders the result as JSON (`vpr-bench-fig7/v4`; v2 added the
    /// `sampling` provenance block, v3 added `failures` and `null` for
    /// unmeasured metrics, v4 adds the aggregated `metrics` block).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"vpr-bench-fig7/v4\",\n");
        let _ = writeln!(s, "  \"sampling\": {},", self.sampling.to_json_value());
        let _ = writeln!(s, "  \"failures\": {},", failures_json(&self.failures));
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics.to_json_value());
        let sizes = REG_SWEEP
            .iter()
            .map(|(size, nrr)| format!("{{\"physical_regs\": {size}, \"nrr\": {nrr}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(s, "  \"sweep\": [{sizes}],");
        let rows = json::row_array(self.rows.iter().map(|r| {
            let ipcs = r
                .ipcs
                .iter()
                .map(|(c, v)| {
                    format!(
                        "{{\"conv_ipc\": {}, \"vp_ipc\": {}}}",
                        json::fixed(*c, 4),
                        json::fixed(*v, 4)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{{\"benchmark\": \"{}\", \"ipcs\": [{ipcs}]}}",
                json::escape(&r.workload.name())
            )
        }));
        let means = self
            .mean_improvements_percent()
            .iter()
            .map(|x| json::fixed(*x, 2))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            s,
            "  \"rows\": {rows},\n  \"mean_improvements_percent\": [{means}]"
        );
        s.push_str("}\n");
        s
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> Table {
        let mut headers = vec!["bench".to_string()];
        for (size, _) in REG_SWEEP {
            headers.push(format!("conv({size})"));
            headers.push(format!("virt({size})"));
        }
        let mut t = Table::new(headers);
        for r in &self.rows {
            let mut row = vec![r.workload.name()];
            for (c, v) in &r.ipcs {
                row.push(format!("{c:.2}"));
                row.push(format!("{v:.2}"));
            }
            t.add_row(row);
        }
        let mut mean_row = vec!["harm.mean".to_string()];
        for (c, v) in self.mean_ipcs() {
            mean_row.push(format!("{c:.2}"));
            mean_row.push(format!("{v:.2}"));
        }
        t.add_row(mean_row);
        t
    }
}

/// Regenerates Figure 7 in `ctx`: conventional vs VP write-back for 48,
/// 64 and 96 physical registers (NRR = 16, 32, 64 respectively).
pub fn fig7_in(exp: &ExperimentConfig, ctx: &SweepContext) -> Fig7 {
    fig7_for(&Workload::synthetic(), exp, ctx)
}

/// [`fig7_in`] over an explicit workload list.
pub fn fig7_for(workloads: &[Workload], exp: &ExperimentConfig, ctx: &SweepContext) -> Fig7 {
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|&w| {
            REG_SWEEP.iter().flat_map(move |&(size, nrr)| {
                [
                    SweepPoint {
                        workload: w,
                        scheme: RenameScheme::Conventional,
                        physical_regs: size,
                    },
                    SweepPoint {
                        workload: w,
                        scheme: RenameScheme::VirtualPhysicalWriteback { nrr },
                        physical_regs: size,
                    },
                ]
            })
        })
        .collect();
    let sweep = run_sweep_metrics(&points, exp, ctx);
    let rows = workloads
        .iter()
        .zip(sweep.points.chunks_exact(2 * REG_SWEEP.len()))
        .map(|(&w, group)| Fig7Row {
            workload: w,
            ipcs: group
                .chunks_exact(2)
                .map(|p| (p[0].ipc, p[1].ipc))
                .collect(),
        })
        .collect();
    Fig7 {
        rows,
        sampling: sweep.provenance,
        failures: sweep.failures,
        metrics: sweep.metrics,
        telemetry: sweep.telemetry,
    }
}

// ----------------------------------------------------------------------
// asm_eval — rename schemes on real (assembled) programs vs synthetic
// ----------------------------------------------------------------------

/// One workload row of the [`asm_eval_in`] figure: IPC of all four rename
/// schemes at 64 physical registers per class.
#[derive(Debug, Clone, Copy)]
pub struct AsmEvalRow {
    /// The workload.
    pub workload: Workload,
    /// IPC under conventional renaming.
    pub conv_ipc: f64,
    /// IPC under conventional renaming with early release.
    pub early_ipc: f64,
    /// IPC under virtual-physical issue allocation (NRR = 32).
    pub vp_issue_ipc: f64,
    /// IPC under virtual-physical write-back allocation (NRR = 32).
    pub vp_wb_ipc: f64,
}

impl AsmEvalRow {
    /// Speedup of the headline VP write-back scheme over conventional.
    pub fn vp_wb_speedup(&self) -> f64 {
        self.vp_wb_ipc / self.conv_ipc
    }
}

/// The `asm_eval` result: every rename scheme over a mixed workload list
/// — assembled programs through the `vpr-exec` emulator next to the
/// synthetic benchmark models — so the paper's claims can be checked on
/// instruction streams that were *executed*, not generated.
#[derive(Debug, Clone)]
pub struct AsmEval {
    /// Per-workload rows, in the order the workloads were given.
    pub rows: Vec<AsmEvalRow>,
    /// How the numbers were obtained.
    pub sampling: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run).
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics of the sweep.
    pub metrics: MetricsBlock,
    /// Sweep-engine run telemetry (written to `run.telemetry.json`, not
    /// into the experiment artefact).
    pub telemetry: RunTelemetry,
}

impl AsmEval {
    /// Harmonic-mean VP write-back speedup over the assembled-program
    /// rows, and over the synthetic rows, in that order (`None` for an
    /// absent group). The headline comparison: does the improvement the
    /// paper measures on synthetic streams survive on real programs?
    pub fn group_speedups(&self) -> (Option<f64>, Option<f64>) {
        let group = |asm: bool| {
            let rows: Vec<&AsmEvalRow> = self
                .rows
                .iter()
                .filter(|r| matches!(r.workload, Workload::Asm(_)) == asm)
                .collect();
            if rows.is_empty() {
                return None;
            }
            let conv: Vec<f64> = rows.iter().map(|r| r.conv_ipc).collect();
            let vp: Vec<f64> = rows.iter().map(|r| r.vp_wb_ipc).collect();
            Some(harmonic_mean(&vp) / harmonic_mean(&conv))
        };
        (group(true), group(false))
    }

    /// Renders the result as JSON (`vpr-bench-asm-eval/v1`), in the
    /// hand-rolled style of the other artefacts.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"vpr-bench-asm-eval/v1\",\n");
        let _ = writeln!(s, "  \"sampling\": {},", self.sampling.to_json_value());
        let _ = writeln!(s, "  \"failures\": {},", failures_json(&self.failures));
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics.to_json_value());
        let rows = json::row_array(self.rows.iter().map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"is_asm\": {}, \"conv_ipc\": {}, \
                 \"early_ipc\": {}, \"vp_issue_ipc\": {}, \"vp_wb_ipc\": {}, \
                 \"vp_wb_speedup\": {}}}",
                json::escape(&r.workload.name()),
                matches!(r.workload, Workload::Asm(_)),
                json::fixed(r.conv_ipc, 4),
                json::fixed(r.early_ipc, 4),
                json::fixed(r.vp_issue_ipc, 4),
                json::fixed(r.vp_wb_ipc, 4),
                json::fixed(r.vp_wb_speedup(), 4)
            )
        }));
        let (asm, synthetic) = self.group_speedups();
        let _ = writeln!(
            s,
            "  \"rows\": {rows},\n  \"asm_harmonic_vp_wb_speedup\": {},\n  \
             \"synthetic_harmonic_vp_wb_speedup\": {}",
            json::fixed(asm.unwrap_or(f64::NAN), 4),
            json::fixed(synthetic.unwrap_or(f64::NAN), 4)
        );
        s.push_str("}\n");
        s
    }

    /// Renders the figure as a table: one row per workload, one IPC
    /// column per scheme, plus the VP write-back speedup.
    pub fn render(&self) -> Table {
        let mut t = Table::new(
            [
                "workload",
                "conv",
                "early",
                "vp-issue",
                "vp-wb",
                "wb-speedup",
            ]
            .map(String::from)
            .to_vec(),
        );
        for r in &self.rows {
            t.add_row(vec![
                r.workload.name(),
                format!("{:.2}", r.conv_ipc),
                format!("{:.2}", r.early_ipc),
                format!("{:.2}", r.vp_issue_ipc),
                format!("{:.2}", r.vp_wb_ipc),
                format!("{:.2}", r.vp_wb_speedup()),
            ]);
        }
        let (asm, synthetic) = self.group_speedups();
        for (label, v) in [("harm.mean asm", asm), ("harm.mean synth", synthetic)] {
            if let Some(v) = v {
                t.add_row(vec![
                    label.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{v:.2}"),
                ]);
            }
        }
        t
    }
}

/// The default `asm_eval` workload list: every bundled assembled program
/// plus two synthetic reference points (one FP-heavy, one branchy
/// integer).
pub fn asm_eval_workloads() -> Vec<Workload> {
    let mut ws = Workload::asm();
    ws.push(vpr_trace::Benchmark::Swim.into());
    ws.push(vpr_trace::Benchmark::Go.into());
    ws
}

/// Regenerates the `asm_eval` figure over the default workload list, in
/// `ctx`.
pub fn asm_eval_in(exp: &ExperimentConfig, ctx: &SweepContext) -> AsmEval {
    asm_eval_for(&asm_eval_workloads(), exp, ctx)
}

/// [`asm_eval_in`] over an explicit workload list.
pub fn asm_eval_for(workloads: &[Workload], exp: &ExperimentConfig, ctx: &SweepContext) -> AsmEval {
    let schemes = crate::workloads::THROUGHPUT_SCHEMES;
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| SweepPoint::at64(w, s)))
        .collect();
    let sweep = run_sweep_metrics(&points, exp, ctx);
    let rows = workloads
        .iter()
        .zip(sweep.points.chunks_exact(schemes.len()))
        .map(|(&w, group)| AsmEvalRow {
            workload: w,
            conv_ipc: group[0].ipc,
            early_ipc: group[1].ipc,
            vp_issue_ipc: group[2].ipc,
            vp_wb_ipc: group[3].ipc,
        })
        .collect();
    AsmEval {
        rows,
        sampling: sweep.provenance,
        failures: sweep.failures,
        metrics: sweep.metrics,
        telemetry: sweep.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_benchmark;
    use vpr_trace::Benchmark;

    #[test]
    fn table2_shapes_up_quickly() {
        let exp = ExperimentConfig {
            warmup: 500,
            measure: 4_000,
            ..ExperimentConfig::default()
        };
        // One FP and one integer benchmark to keep the test fast.
        let conv = run_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp);
        let vp = run_benchmark(
            Benchmark::Swim,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            64,
            &exp,
        );
        assert!(
            vp.ipc() > conv.ipc(),
            "swim must improve: {} vs {}",
            vp.ipc(),
            conv.ipc()
        );
    }

    #[test]
    fn render_shapes() {
        let t2 = Table2 {
            rows: vec![Table2Row {
                workload: Benchmark::Swim.into(),
                conv_ipc: 1.0,
                vp_ipc: 2.0,
                vp_executions_per_commit: 3.3,
            }],
            sampling: SamplingProvenance::Exact,
            failures: Vec::new(),
            metrics: MetricsBlock::Exact(Default::default()),
            telemetry: RunTelemetry::default(),
        };
        let rendered = t2.render().to_string();
        assert!(rendered.contains("swim"));
        assert!(rendered.contains("+100"));
        let (c, v) = t2.harmonic_means();
        assert_eq!((c, v), (1.0, 2.0));
        let json = t2.to_json();
        assert!(json.contains("\"failures\": []"));
        assert!(json.contains("vpr-bench-table2/v4"));
        assert!(json.contains("\"metrics\": {\"mode\": \"exact\""));
    }

    #[test]
    fn failed_points_render_as_null_not_nan() {
        let t2 = Table2 {
            rows: vec![Table2Row {
                workload: Benchmark::Swim.into(),
                conv_ipc: f64::NAN,
                vp_ipc: f64::NAN,
                vp_executions_per_commit: f64::NAN,
            }],
            sampling: SamplingProvenance::Exact,
            failures: vec![SweepFailure {
                point: "swim/conv@64r".into(),
                stage: "simulate",
                error: "injected fault: job panic (swim/conv@64r)".into(),
                attempts: 2,
                recovered: false,
            }],
            metrics: MetricsBlock::Exact(Default::default()),
            telemetry: RunTelemetry::default(),
        };
        let json = t2.to_json();
        assert!(!json.contains("NaN"), "bare NaN is invalid JSON:\n{json}");
        assert!(json.contains("\"conv_ipc\": null"));
        assert!(json.contains("\"stage\": \"simulate\""));
        assert!(json.contains("\"recovered\": false"));
    }
}
