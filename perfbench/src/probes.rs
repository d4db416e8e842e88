//! Layer probes for traced runs: each times one layer alone through its
//! public API, over the running workload's own job mix where it has one.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use vpr_bench::checkpoints::sim_config;
use vpr_bench::{ExperimentConfig, JobSpec, Workload, WorkloadStream};
use vpr_core::{harmonic_mean, Processor, RenameScheme, SimObserver, Stage, StageProfile};
use vpr_obs::SimMetrics;
use vpr_snap::Snapshot;

use crate::report::Outcome;
use crate::spans::Tracer;

/// One simulated configuration of a probe mix.
pub type Point = (Workload, RenameScheme, usize);

/// The Table 2 pair (conventional, VP write-back NRR 32 at 64 registers)
/// for each of `workloads`, duplicates removed.
pub fn table2_pairs(workloads: &[Workload]) -> Vec<Point> {
    let mut out: Vec<Point> = Vec::new();
    for &w in workloads {
        for s in [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ] {
            if !out.contains(&(w, s, 64)) {
                out.push((w, s, 64));
            }
        }
    }
    out
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Host ns per instruction drawn from `w`'s stream alone.
fn drain_ns_per_inst(w: Workload, exp: &ExperimentConfig) -> f64 {
    let n = exp.warmup + exp.measure;
    let mut s = w.stream(exp.seed);
    let t = Instant::now();
    for _ in 0..n {
        black_box(s.next());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Times the instruction streams (`trace.*`, `exec.*`), the kernel
/// (`core.*`, stage profile included), snapshot encode/decode (`snap.*`)
/// and checkpoint writes (`ckpt.atomic_write_ms`) over `points`.
pub fn layers(points: &[Point], exp: &ExperimentConfig, out: &mut Outcome, tr: &mut Tracer) {
    let id = tr.begin("probe.streams");
    let synthetic: Vec<(Workload, f64)> = Workload::synthetic()
        .into_iter()
        .map(|w| (w, drain_ns_per_inst(w, exp)))
        .collect();
    let asm: Vec<(Workload, f64)> = Workload::asm()
        .into_iter()
        .map(|w| (w, drain_ns_per_inst(w, exp)))
        .collect();
    tr.end(id);
    let mean = |v: &[(Workload, f64)]| v.iter().map(|x| x.1).sum::<f64>() / v.len() as f64;
    out.set("trace.ns_per_inst", mean(&synthetic));
    out.set("exec.ns_per_inst", mean(&asm));
    let stream_cost = |w: Workload| {
        synthetic
            .iter()
            .chain(&asm)
            .find(|x| x.0 == w)
            .map_or(0.0, |x| x.1)
    };

    let id = tr.begin("probe.assemble");
    let mut assemble = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        for p in vpr_exec::AsmProgram::ALL {
            black_box(vpr_exec::assemble(p.source()).expect("bundled programs assemble"));
        }
        assemble.push(ms(t));
    }
    tr.end(id);
    out.set("exec.assemble_ms", crate::median0(&assemble));

    let id = tr.begin("probe.core");
    let (mut run_ns, mut stream_ns, mut committed) = (0.0, 0.0, 0u64);
    let (mut snap_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let (mut enc_bytes, mut enc_s, mut dec_s) = (0u64, 0.0, 0.0);
    let mut last_bytes = Vec::new();
    let mut prof = StageProfile::new();
    let mut measured = 0u64;
    for &(w, scheme, regs) in points {
        let config = sim_config(scheme, regs, exp);
        let mut cpu = Processor::new(config.clone(), w.stream(exp.seed));
        let t = Instant::now();
        cpu.warm_up(exp.warmup);
        black_box(cpu.run(exp.measure));
        run_ns += t.elapsed().as_nanos() as f64;
        committed += cpu.absolute_committed();
        stream_ns += stream_cost(w) * cpu.absolute_committed() as f64;

        let t = Instant::now();
        let snap = cpu.snapshot();
        snap_ms.push(ms(t));
        let bytes = snap.to_bytes();
        enc_s += t.elapsed().as_secs_f64();
        enc_bytes += bytes.len() as u64;

        let t = Instant::now();
        let decoded = Snapshot::from_bytes(&bytes).expect("own snapshot decodes");
        let t_restore = Instant::now();
        let restored = Processor::<WorkloadStream>::restore(&decoded, w.stream(exp.seed));
        restore_ms.push(ms(t_restore));
        dec_s += t.elapsed().as_secs_f64();
        black_box(restored.expect("own snapshot restores"));
        last_bytes = bytes;

        let mut cpu = Processor::new(config, w.stream(exp.seed));
        cpu.warm_up(exp.warmup);
        measured += cpu.run_profiled(exp.measure, &mut prof).committed;
    }
    tr.end(id);
    let per_inst = |x: f64| x / committed.max(1) as f64;
    out.set("core.ns_per_inst", per_inst(run_ns) - per_inst(stream_ns));
    for stage in Stage::ALL {
        let rec = prof.stage(stage);
        let m = measured.max(1) as f64;
        out.set(
            format!("core.{}.events_per_inst", stage.name()),
            rec.events as f64 / m,
        );
        out.set(
            format!("core.{}.ns_per_inst", stage.name()),
            rec.ns as f64 / m,
        );
    }
    out.set("core.snapshot_ms", crate::median0(&snap_ms));
    out.set("core.restore_ms", crate::median0(&restore_ms));
    out.set("snap.encode_mb_s", enc_bytes as f64 / 1e6 / enc_s);
    out.set("snap.decode_mb_s", enc_bytes as f64 / 1e6 / dec_s);
    out.set(
        "snap.bytes_per_ckpt",
        enc_bytes as f64 / points.len().max(1) as f64,
    );

    let id = tr.begin("probe.atomic_write");
    let dir = Path::new("probe-io");
    let _ = std::fs::create_dir_all(dir);
    let mut writes = Vec::new();
    for i in 0..16 {
        let t = Instant::now();
        match vpr_snap::atomic_write(&dir.join(format!("probe-{i}.vprsnap")), &last_bytes) {
            Ok(()) => writes.push(ms(t)),
            Err(e) => out.check(false, || format!("atomic_write probe: {e}")),
        }
    }
    tr.end(id);
    let _ = std::fs::remove_dir_all(dir);
    out.set("ckpt.atomic_write_ms", crate::median0(&writes));
}

/// Times `Journal::append` (write, fsync, read-back verify) alone, into a
/// scratch journal (`serve.journal_append_ms`).
pub fn journal_append(spec: &JobSpec, out: &mut Outcome, tr: &mut Tracer) {
    let id = tr.begin("probe.journal");
    let dir = Path::new("probe-journal");
    let mut appends = Vec::new();
    match vpr_serve::Journal::open(dir) {
        Ok((mut journal, _)) => {
            for id in 0..16 {
                let rec = vpr_serve::Record::Job {
                    id,
                    spec: spec.clone(),
                };
                let t = Instant::now();
                match journal.append(&rec) {
                    Ok(()) => appends.push(ms(t)),
                    Err(e) => out.check(false, || format!("journal probe append: {e}")),
                }
            }
        }
        Err(e) => out.check(false, || format!("journal probe open: {e}")),
    }
    tr.end(id);
    let _ = std::fs::remove_dir_all(dir);
    out.set("serve.journal_append_ms", crate::median0(&appends));
}

/// Times opening a checkpoint store and loading (read, envelope check,
/// manifest validation) every `stride`-th artefact it lists.
pub fn store_reads(dir: &Path, stride: usize, out: &mut Outcome, tr: &mut Tracer) {
    let id = tr.begin("probe.store_open");
    let t = Instant::now();
    let store = vpr_bench::checkpoints::CheckpointStore::open(dir);
    out.set("ckpt.store_open_ms", ms(t));
    tr.end(id);
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("open store {}: {e}", dir.display()));
            return;
        }
    };
    let id = tr.begin("probe.store_load");
    let mut loads = Vec::new();
    for e in store.manifest.entries.iter().step_by(stride.max(1)) {
        let t = Instant::now();
        let loaded = store.load(&e.key, e.config_hash);
        loads.push(ms(t));
        if let Err(err) = loaded {
            out.check(false, || format!("load {}: {err}", e.file));
        }
    }
    tr.end(id);
    out.set("ckpt.load_ms", crate::median0(&loads));
}

/// The exact model counters of `points` under `exp`.
pub fn model_points(points: &[Point], exp: &ExperimentConfig) -> Vec<(&'static str, f64)> {
    let specs: Vec<JobSpec> = points
        .iter()
        .map(|&(workload, scheme, physical_regs)| JobSpec {
            workload,
            scheme,
            physical_regs,
            exp: *exp,
        })
        .collect();
    model_specs(&specs)
}

/// The exact model counters of `specs`, each simulated with a metrics
/// observer: harmonic-mean IPC plus the mechanism rates of the merged
/// metrics.
pub fn model_specs(specs: &[JobSpec]) -> Vec<(&'static str, f64)> {
    let mut merged = SimMetrics::default();
    let mut ipcs = Vec::new();
    for s in specs {
        let (stats, obs) = vpr_bench::run_benchmark_observed(
            s.workload,
            s.scheme,
            s.physical_regs,
            &s.exp,
            SimObserver::new(),
        );
        ipcs.push(stats.ipc());
        merged.merge(obs.metrics);
    }
    model_counters(&merged, &ipcs)
}

/// Model counters from merged simulated-machine metrics and point IPCs.
pub fn model_counters(m: &SimMetrics, ipcs: &[f64]) -> Vec<(&'static str, f64)> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("model.ipc_hmean", harmonic_mean(ipcs)),
        (
            "model.reexec_per_commit",
            ratio(m.reexec_register + m.reexec_memory, m.committed),
        ),
        (
            "model.nrr_denials_per_kinst",
            1e3 * ratio(m.nrr_denials[0] + m.nrr_denials[1], m.committed),
        ),
        (
            "model.wrong_path_frac",
            ratio(m.wrong_path_fetched, m.fetched),
        ),
        (
            "model.idle_skip_frac",
            ratio(
                m.idle_skipped_cycles,
                m.idle_skipped_cycles + m.active_cycles,
            ),
        ),
    ]
}

/// Records model counters and counts their comparison with the recorded
/// reference as one operation, flagged loudly on any change (a host-speed
/// change must leave them identical).
pub fn check_model(
    counters: &[(&'static str, f64)],
    reference: Result<(), String>,
    out: &mut Outcome,
) {
    for &(name, v) in counters {
        out.set(name, v);
    }
    let ok = reference.is_ok();
    out.check(ok, || {
        format!(
            "MODEL COUNTERS CHANGED: {}",
            reference.err().unwrap_or_default()
        )
    });
}
