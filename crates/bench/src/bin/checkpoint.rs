//! Manages `.vprsnap` checkpoint artefacts: `create` populates a
//! checkpoint directory from one warm serial pass per configuration,
//! `inspect` lists what a directory holds, `verify` re-validates every
//! artefact against its manifest (optionally continuing each restored
//! machine and comparing bit-for-bit against a fresh uninterrupted run),
//! and `repair` quarantines corrupt artefacts, drops dead manifest
//! entries and sweeps debris left by interrupted writes and packs no
//! manifest entry points at.
//!
//! ```text
//! cargo run --release -p vpr-bench --bin checkpoint -- <create|inspect|verify|repair>
//!     [--dir DIR]                      # checkpoint directory (default: checkpoints)
//!     [--workload a,b,...]             # workload names (synthetic or asm:NAME);
//!                                      #   default: all nine synthetic benchmarks
//!     [--schemes l1,l2,...]            # scheme labels; default: conventional,vp-wb-nrr32
//!     [--regs N]                       # physical registers per class (default 64)
//!     [--intervals]                    # create: also write per-interval checkpoints
//!     [--run N]                        # verify: continue each restore by N commits
//!                                      #         and compare against an exact rerun
//!     [--max-age SECS]                 # repair: also reclaim *.corrupt quarantine
//!                                      #         files at least SECS old (kept otherwise)
//!     [--warmup N] [--measure N] [--seed N] [--miss-penalty N] [--jobs N]
//! ```
//!
//! `create` writes one **warm** checkpoint per (benchmark, scheme) at the
//! end of warm-up; with `--intervals` it additionally checkpoints every
//! start of the checkpoint-seeded sampling plan, which is what
//! `--sampled --checkpoint-dir` experiment runs seed their windows from.
//! Each configuration's checkpoints land in one `.vprsnap` pack; `inspect`
//! lists one row per checkpoint, with the size of the pack it sits in.
//! Every set is filed under the label of the scheme whose pass ran, and
//! every sampled point restores the set of its own configuration — so
//! `create --intervals --schemes vp-wb-nrr16` at 64 registers is the set
//! a sampled sweep's `vp-wb-nrr16@64r` point restores (see
//! `docs/sampling.md` §1.2). Stale artefacts (different configuration,
//! seed, or snapshot format) are rejected at load by the manifest's
//! config hash — `verify` reports them, `create` replaces them.

use std::path::PathBuf;
use vpr_bench::checkpoints::{
    generate_checkpoints, key_config_hash, sim_config, CheckpointStore, RowCheck,
};
use vpr_bench::cli::{self, or_exit};
use vpr_bench::sampling::SamplingPlan;
use vpr_bench::workloads::{parse_scheme, scheme_label, TABLE2_SCHEMES};
use vpr_bench::{ExperimentConfig, Table, Workload, WorkloadStream};
use vpr_core::{par, Processor, RenameScheme};
use vpr_snap::manifest::ManifestEntry;

struct Cli {
    command: String,
    dir: PathBuf,
    workloads: Vec<Workload>,
    schemes: Vec<RenameScheme>,
    regs: usize,
    intervals: bool,
    run: Option<u64>,
    max_age: Option<u64>,
    exp: ExperimentConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: checkpoint <create|inspect|verify|repair> [--dir DIR] [--workload a,b,...] \
         [--schemes l1,l2,...] [--regs N] [--intervals] [--run N] [--max-age SECS] \
         [--warmup N] [--measure N] [--seed N] [--miss-penalty N] [--jobs N]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut args = cli::args();
    if args.is_empty() {
        usage();
    }
    let command = args.remove(0);
    if !matches!(command.as_str(), "create" | "inspect" | "verify" | "repair") {
        eprintln!("unknown command `{command}`");
        usage();
    }
    let dir: PathBuf = or_exit(cli::value(&mut args, "--dir"))
        .unwrap_or_else(|| "checkpoints".into())
        .into();
    let workloads =
        or_exit(cli::workloads(&mut args, "--workload")).unwrap_or_else(Workload::synthetic);
    let schemes =
        or_exit(cli::schemes(&mut args, "--schemes")).unwrap_or_else(|| TABLE2_SCHEMES.to_vec());
    let regs = or_exit(cli::number(&mut args, "--regs")).unwrap_or(64);
    let intervals = cli::flag(&mut args, "--intervals");
    let run = or_exit(cli::number(&mut args, "--run"));
    let max_age = or_exit(cli::number(&mut args, "--max-age"));
    // Remaining flags override the default scale, the one every
    // experiment binary starts from, so that `create` with no scale flags
    // writes the checkpoints a flag-less `--sampled --checkpoint-dir` run
    // looks up.
    let mut exp = ExperimentConfig::default();
    if let Err(e) = exp.apply_args(args) {
        eprintln!("{e}");
        usage();
    }
    Cli {
        command,
        dir,
        workloads,
        schemes,
        regs,
        intervals,
        run,
        max_age,
        exp,
    }
}

fn create(cli: &Cli) {
    // Open (and thereby validate) the target directory before paying for
    // any simulation: a corrupt manifest fails in milliseconds here.
    let mut store = CheckpointStore::open(&cli.dir).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", cli.dir.display());
        std::process::exit(1);
    });
    let plan = cli
        .intervals
        .then(|| SamplingPlan::for_experiment(&cli.exp));
    let (exp, regs) = (cli.exp, cli.regs);
    let grid = vpr_bench::workloads::grid(&cli.workloads, &cli.schemes);
    let generated = par::par_map(exp.effective_jobs(), grid, move |_, (workload, scheme)| {
        generate_checkpoints(workload, scheme, regs, &exp, plan.as_ref()).checkpoints
    });
    let mut files = 0usize;
    for batch in &generated {
        if let Err(e) = store.save_all(batch) {
            eprintln!("cannot write checkpoints: {e}");
            std::process::exit(1);
        }
        files += batch.len();
    }
    if let Err(e) = store.flush() {
        eprintln!("cannot write manifest: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {files} checkpoint(s) for {} configuration(s) into {} ({})",
        generated.len(),
        cli.dir.display(),
        match &plan {
            Some(p) => format!("warm + {} interval starts each", p.intervals),
            None => "warm only".to_string(),
        }
    );
}

/// Renders a file age compactly (`41s`, `12m`, `3h`, `5d`); `-` when the
/// filesystem does not expose an mtime.
fn age_of(meta: &std::fs::Metadata) -> String {
    let Ok(modified) = meta.modified() else {
        return "-".into();
    };
    let secs = std::time::SystemTime::now()
        .duration_since(modified)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    match secs {
        0..=119 => format!("{secs}s"),
        120..=7199 => format!("{}m", secs / 60),
        7200..=172_799 => format!("{}h", secs / 3600),
        _ => format!("{}d", secs / 86_400),
    }
}

fn inspect(cli: &Cli) {
    let store = open_store(cli);
    let mut table = Table::new(
        [
            "benchmark",
            "scheme",
            "kind",
            "target",
            "committed",
            "cycle",
            "cursor",
            "file-bytes",
            "age",
            "config-hash",
        ]
        .map(String::from)
        .to_vec(),
    );
    for e in &store.manifest.entries {
        let meta = std::fs::metadata(store.dir.join(&e.file));
        let (size, age) = match &meta {
            Ok(m) => (m.len().to_string(), age_of(m)),
            Err(_) => ("missing".into(), "-".into()),
        };
        table.add_row(vec![
            e.key.benchmark.clone(),
            e.key.scheme.clone(),
            e.key.kind.clone(),
            e.key.target.to_string(),
            e.committed.to_string(),
            e.cycle.to_string(),
            e.trace_cursor.to_string(),
            size,
            age,
            format!("{:016x}", e.config_hash),
        ]);
    }
    println!(
        "{} checkpoint(s) in {} (snapshot format v{})",
        store.manifest.entries.len(),
        store.dir.display(),
        vpr_snap::FORMAT_VERSION
    );
    print!("{table}");
}

fn open_store(cli: &Cli) -> CheckpointStore {
    CheckpointStore::open(&cli.dir).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", cli.dir.display());
        std::process::exit(1);
    })
}

struct Continuation {
    label: String,
    end_committed: u64,
    stats: vpr_core::SimStats,
    cycle: u64,
}

/// Re-derives the workload `entry` claims and loads its snapshot through
/// the validating path (config hash, format version, payload checksum).
/// `Err` carries the printable failure reason.
fn load_entry(
    store: &CheckpointStore,
    entry: &ManifestEntry,
) -> Result<(Workload, vpr_snap::Snapshot), String> {
    let workload = Workload::parse(&entry.key.benchmark)?;
    let hash = key_config_hash(&entry.key)?;
    let (_, snapshot) = store.load(&entry.key, hash).map_err(|e| e.to_string())?;
    Ok((workload, snapshot))
}

fn verify(cli: &Cli) {
    let store = open_store(cli);
    if store.manifest.entries.is_empty() {
        eprintln!("{} holds no checkpoints", cli.dir.display());
        std::process::exit(1);
    }
    let mut failures = 0usize;
    let mut checked = 0usize;
    type ConfigKey = (String, String, usize, u64, u64);
    let mut continuations: std::collections::BTreeMap<ConfigKey, Vec<Continuation>> =
        Default::default();
    for entry in &store.manifest.entries {
        checked += 1;
        let label = format!(
            "{}/{} {}@{}",
            entry.key.benchmark, entry.key.scheme, entry.key.kind, entry.key.target
        );
        let (workload, snapshot) = match load_entry(&store, entry) {
            Ok(loaded) => loaded,
            Err(e) => {
                println!("FAIL {label}: {e}");
                failures += 1;
                continue;
            }
        };
        let fresh = workload.stream(entry.key.seed);
        let mut restored: Processor<WorkloadStream> = match Processor::restore(&snapshot, fresh) {
            Ok(cpu) => cpu,
            Err(e) => {
                println!("FAIL {label}: restore: {e}");
                failures += 1;
                continue;
            }
        };
        if restored.absolute_committed() != entry.committed || restored.cycle() != entry.cycle {
            println!(
                "FAIL {label}: restored position ({} commits, cycle {}) disagrees with \
                 manifest ({}, {})",
                restored.absolute_committed(),
                restored.cycle(),
                entry.committed,
                entry.cycle
            );
            failures += 1;
            continue;
        }
        if let Some(run) = cli.run {
            // Golden continuation: run the restored machine forward now;
            // all continuations of one configuration are compared against
            // a single shared reference pass afterwards (an uninterrupted
            // run visits every achieved position exactly once, so one pass
            // serves every checkpoint of the configuration).
            restored.run(run);
            continuations
                .entry((
                    entry.key.benchmark.clone(),
                    entry.key.scheme.clone(),
                    entry.key.physical_regs as usize,
                    entry.key.seed,
                    entry.key.miss_penalty,
                ))
                .or_default()
                .push(Continuation {
                    label,
                    end_committed: restored.absolute_committed(),
                    stats: restored.stats(),
                    cycle: restored.cycle(),
                });
        } else {
            println!("ok   {label}");
        }
    }
    // The shared reference passes, one per configuration, stopping at each
    // continuation's achieved end position in stream order.
    for ((workload_name, scheme_label_, regs, seed, miss_penalty), mut group) in continuations {
        let workload = Workload::parse(&workload_name).expect("validated above");
        let exp = ExperimentConfig {
            seed,
            miss_penalty,
            ..cli.exp
        };
        let scheme = parse_scheme(&scheme_label_).expect("validated above");
        let trace = workload.stream(seed);
        let mut reference = Processor::new(sim_config(scheme, regs, &exp), trace);
        group.sort_by_key(|c| c.end_committed);
        for c in group {
            reference.run_to_commit(c.end_committed);
            if reference.stats() != c.stats
                || reference.cycle() != c.cycle
                || reference.absolute_committed() != c.end_committed
            {
                println!(
                    "FAIL {}: continuation diverged from the uninterrupted run",
                    c.label
                );
                failures += 1;
            } else {
                println!("ok   {}", c.label);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures}/{checked} checkpoint(s) failed verification");
        std::process::exit(1);
    }
    println!(
        "all {checked} checkpoint(s) verified{}",
        match cli.run {
            Some(n) => format!(" (with {n}-commit golden continuations)"),
            None => String::new(),
        }
    );
}

/// `repair`: brings a damaged checkpoint directory back to a state every
/// other command accepts without simulating anything. A pack holding a
/// corrupt envelope is quarantined to `*.corrupt` whole (a side effect of
/// the validating load), manifest entries whose artefact is missing,
/// corrupt or unparseable are dropped — every row of a quarantined pack
/// with them ([`CheckpointStore::prune`]) — and `*.tmp` debris left by
/// interrupted atomic writes is swept, as is every `.vprsnap` pack no
/// remaining entry points at
/// ([`CheckpointStore::sweep_unreferenced`]). Stale-but-intact artefacts
/// (config-hash or format mismatch against what this build derives for
/// the row's key) are kept — they may serve another configuration, and
/// `create` replaces them in place.
///
/// Quarantined `*.corrupt` files are evidence and are kept by default;
/// `--max-age SECS` reclaims the ones at least SECS old and reports the
/// bytes freed (`--max-age 0` reclaims them all).
fn repair(cli: &Cli) {
    let (mut store, note) = CheckpointStore::open_resilient(&cli.dir);
    if let Some(note) = note {
        println!("note {note}");
    }
    let mut swept = 0usize;
    let mut reclaimed_files = 0usize;
    let mut reclaimed_bytes = 0u64;
    if let Ok(dir) = std::fs::read_dir(&store.dir) {
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") && std::fs::remove_file(&path).is_ok() {
                println!("swept {}", path.display());
                swept += 1;
                continue;
            }
            // Orphaned quarantine files: evidence from past corruption,
            // reclaimed only when the operator sets a retention age.
            let Some(max_age) = cli.max_age else { continue };
            if path.extension().is_none_or(|e| e != "corrupt") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let age_secs = meta
                .modified()
                .ok()
                .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
                .map(|d| d.as_secs());
            if age_secs.is_some_and(|age| age >= max_age) && std::fs::remove_file(&path).is_ok() {
                println!("reclaimed {} ({} bytes)", path.display(), meta.len());
                reclaimed_files += 1;
                reclaimed_bytes += meta.len();
            }
        }
    }
    let (mut dropped, mut stale) = (0usize, 0usize);
    for (entry, check) in store.prune() {
        let label = format!(
            "{}/{} {}@{}",
            entry.key.benchmark, entry.key.scheme, entry.key.kind, entry.key.target
        );
        match check {
            RowCheck::Valid => println!("ok      {label}"),
            RowCheck::Stale => {
                stale += 1;
                println!("stale   {label} (kept; `create` replaces it)");
            }
            RowCheck::Dropped(reason) => {
                dropped += 1;
                println!("dropped {label}: {reason}");
            }
        }
    }
    if let Err(e) = store.flush() {
        eprintln!("cannot rewrite manifest in {}: {e}", store.dir.display());
        std::process::exit(1);
    }
    let unreferenced = store.sweep_unreferenced();
    for path in &unreferenced {
        println!("swept {}", path.display());
    }
    println!(
        "repaired {}: {} entr{} kept ({stale} stale), {dropped} dropped, {swept} temp file(s) \
         and {} unreferenced pack(s) swept{}",
        store.dir.display(),
        store.manifest.entries.len(),
        if store.manifest.entries.len() == 1 {
            "y"
        } else {
            "ies"
        },
        unreferenced.len(),
        match cli.max_age {
            Some(_) => format!(
                ", {reclaimed_files} quarantine file(s) reclaimed ({reclaimed_bytes} bytes)"
            ),
            None => String::new(),
        },
    );
}

fn main() {
    let cli = parse_cli();
    // Scheme labels round-trip through the manifest; fail early if a
    // requested scheme cannot be expressed.
    for &scheme in &cli.schemes {
        let label = scheme_label(scheme);
        assert_eq!(parse_scheme(&label), Ok(scheme), "label round-trip");
    }
    match cli.command.as_str() {
        "create" => create(&cli),
        "inspect" => inspect(&cli),
        "verify" => verify(&cli),
        "repair" => repair(&cli),
        _ => unreachable!("validated in parse_cli"),
    }
}
