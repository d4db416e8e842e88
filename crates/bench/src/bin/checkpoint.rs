//! Manages `.vprsnap` checkpoint artefacts: `create` populates a
//! checkpoint directory from one warm serial pass per configuration,
//! `inspect` lists what a directory holds, `verify` re-validates every
//! artefact against its manifest (optionally continuing each restored
//! machine and comparing bit-for-bit against a fresh uninterrupted run),
//! and `repair` quarantines corrupt artefacts, drops dead manifest
//! entries and sweeps debris left by interrupted writes.
//!
//! ```text
//! cargo run --release -p vpr-bench --bin checkpoint -- <create|inspect|verify|repair>
//!     [--dir DIR]                      # checkpoint directory (default: checkpoints)
//!     [--workload a,b,...]             # workload names (synthetic or asm:NAME);
//!                                      #   default: all nine synthetic benchmarks
//!                                      #   (--benchmarks is an accepted alias)
//!     [--schemes l1,l2,...]            # scheme labels; default: conventional,vp-wb-nrr32
//!     [--regs N]                       # physical registers per class (default 64)
//!     [--intervals]                    # create: also write per-interval checkpoints
//!     [--shared]                       # create: family (canonical-NRR) artefacts
//!     [--run N]                        # verify: continue each restore by N commits
//!                                      #         and compare against an exact rerun
//!     [--cross-nrr N1,N2]              # verify: shared-artefact re-target contract
//!     [--max-age SECS]                 # repair: also reclaim *.corrupt quarantine
//!                                      #         files at least SECS old (kept otherwise)
//!     [--warmup N] [--measure N] [--seed N] [--miss-penalty N] [--jobs N]
//! ```
//!
//! `create` writes one **warm** checkpoint per (benchmark, scheme) at the
//! end of warm-up; with `--intervals` it additionally checkpoints every
//! start of the checkpoint-seeded sampling plan, which is what
//! `--sampled --checkpoint-dir` experiment runs seed their windows from.
//! With `--shared` it instead writes one set per *scheme family* under
//! the canonical (maximum) NRR — the artefacts a sampled NRR sweep
//! restores for every NRR value via `Processor::retarget_nrr` (see
//! `docs/sampling.md` §1.3). Stale artefacts (different configuration,
//! seed, or snapshot format) are rejected at load by the manifest's
//! config hash — `verify` reports them, `create` replaces them.
//!
//! `verify --cross-nrr N1,N2` additionally pins the shared-artefact
//! contract on every shared interval checkpoint: re-targeting to the
//! canonical NRR must be a bit-exact no-op, and for each requested NRR
//! two independent restore + re-target + run passes must agree on every
//! counter.

use std::path::PathBuf;
use vpr_bench::checkpoints::{
    checkpoint_key_labelled, config_hash, generate_checkpoints, generate_group_checkpoints,
    group_scheme_label, load_usage, parse_checkpoint_scheme, shares_group_pass, sim_config,
    CheckpointLoadError, CheckpointStore, KIND_INTERVAL,
};
use vpr_bench::sampling::SamplingPlan;
use vpr_bench::workloads::{parse_scheme, scheme_label, TABLE2_SCHEMES};
use vpr_bench::{take_flag, take_flag_value, ExperimentConfig, Table, Workload, WorkloadStream};
use vpr_core::{par, Processor, RenameScheme};

struct Cli {
    command: String,
    dir: PathBuf,
    workloads: Vec<Workload>,
    schemes: Vec<RenameScheme>,
    regs: usize,
    intervals: bool,
    shared: bool,
    run: Option<u64>,
    cross_nrr: Option<(usize, usize)>,
    max_age: Option<u64>,
    exp: ExperimentConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: checkpoint <create|inspect|verify|repair> [--dir DIR] [--workload a,b,...] \
         [--schemes l1,l2,...] [--regs N] [--intervals] [--shared] [--run N] \
         [--cross-nrr N1,N2] [--max-age SECS] \
         [--warmup N] [--measure N] [--seed N] [--miss-penalty N] [--jobs N]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args.remove(0);
    if !matches!(command.as_str(), "create" | "inspect" | "verify" | "repair") {
        eprintln!("unknown command `{command}`");
        usage();
    }
    let dir: PathBuf = take_flag_value(&mut args, "--dir")
        .map(Into::into)
        .unwrap_or_else(|| "checkpoints".into());
    // `--workload` is the canonical spelling; `--benchmarks` stays as an
    // alias from before assembled programs joined the workload set.
    let workload_csv = take_flag_value(&mut args, "--workload")
        .or_else(|| take_flag_value(&mut args, "--benchmarks"));
    let workloads = match workload_csv {
        None => Workload::synthetic(),
        Some(csv) => csv
            .split(',')
            .map(|name| {
                Workload::parse(name.trim()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    let schemes = match take_flag_value(&mut args, "--schemes") {
        None => TABLE2_SCHEMES.to_vec(),
        Some(csv) => csv
            .split(',')
            .map(|label| {
                parse_scheme(label).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    let regs = take_flag_value(&mut args, "--regs")
        .map(|v| {
            v.parse().unwrap_or_else(|e| {
                eprintln!("bad value for --regs: {e}");
                std::process::exit(2);
            })
        })
        .unwrap_or(64);
    let intervals = take_flag(&mut args, "--intervals");
    let shared = take_flag(&mut args, "--shared");
    let run = take_flag_value(&mut args, "--run").map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("bad value for --run: {e}");
            std::process::exit(2);
        })
    });
    let max_age = take_flag_value(&mut args, "--max-age").map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("bad value for --max-age: {e}");
            std::process::exit(2);
        })
    });
    let cross_nrr = take_flag_value(&mut args, "--cross-nrr").map(|v| {
        let parts: Vec<usize> = v
            .split(',')
            .map(|n| {
                n.parse().unwrap_or_else(|e| {
                    eprintln!("bad value for --cross-nrr: {e}");
                    std::process::exit(2);
                })
            })
            .collect();
        let [a, b] = parts[..] else {
            eprintln!("--cross-nrr needs exactly two comma-separated NRR values");
            std::process::exit(2);
        };
        (a, b)
    });
    // Remaining flags override the quick defaults (matching the other
    // artefact-producing binaries: checkpoints default to the quick
    // workload every test and smoke gate runs).
    let mut exp = ExperimentConfig::quick();
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
        shared,
        run,
        cross_nrr,
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
    let exp = cli.exp;
    let regs = cli.regs;
    // --shared: create the *family* (canonical-NRR) artefacts the sampled
    // NRR sweeps restore, one set per family rather than per scheme.
    let schemes: Vec<RenameScheme> = if cli.shared {
        let mut labels = Vec::new();
        let mut out = Vec::new();
        for &scheme in &cli.schemes {
            if !shares_group_pass(scheme, regs, &exp) {
                eprintln!(
                    "--shared: scheme {} has no shared family pass",
                    scheme_label(scheme)
                );
                std::process::exit(2);
            }
            let label = group_scheme_label(scheme, regs, &exp);
            if !labels.contains(&label) {
                labels.push(label);
                out.push(scheme);
            }
        }
        out
    } else {
        cli.schemes.clone()
    };
    let grid = vpr_bench::workloads::grid(&cli.workloads, &schemes);
    let shared = cli.shared;
    let generated = par::par_map(exp.effective_jobs(), grid, move |_, (workload, scheme)| {
        if shared {
            generate_group_checkpoints(workload, scheme, regs, &exp, plan.as_ref())
        } else {
            generate_checkpoints(workload, scheme, regs, &exp, plan.as_ref())
        }
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
    // Reuse counts come from the sweeps' best-effort usage ledger
    // (`usage.tsv`); artefacts never restored simply have no entry.
    let usage = load_usage(&store.dir);
    let mut table = Table::new(
        [
            "benchmark",
            "scheme",
            "kind",
            "target",
            "committed",
            "cycle",
            "cursor",
            "bytes",
            "age",
            "config-hash",
            "reuses",
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
        let reuses = usage
            .iter()
            .find(|(file, _)| *file == e.file)
            .map(|(_, n)| n.to_string())
            .unwrap_or_else(|| "0".into());
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
            reuses,
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

/// One manifest entry resolved for verification: the re-derived
/// experiment coordinates plus the snapshot, loaded through the
/// validating path (config hash, format version, payload checksum).
struct ResolvedEntry {
    workload: Workload,
    exp: ExperimentConfig,
    regs: usize,
    snapshot: vpr_snap::Snapshot,
}

/// Re-derives the configuration `entry` claims and loads its snapshot —
/// the shared front half of both verification passes. `Err` carries the
/// printable failure reason.
fn resolve_and_load(
    cli: &Cli,
    store: &CheckpointStore,
    entry: &vpr_snap::manifest::ManifestEntry,
) -> Result<ResolvedEntry, String> {
    let workload = Workload::parse(&entry.key.benchmark)?;
    let exp = ExperimentConfig {
        warmup: entry.key.warmup,
        seed: entry.key.seed,
        miss_penalty: entry.key.miss_penalty,
        ..cli.exp
    };
    let regs = entry.key.physical_regs as usize;
    // Shared family labels resolve to the canonical (maximum-NRR)
    // configuration their warm pass ran under.
    let scheme = parse_checkpoint_scheme(&entry.key.scheme, regs, &exp)?;
    let config = sim_config(scheme, regs, &exp);
    let hash = config_hash(workload, &config, exp.seed);
    let key = checkpoint_key_labelled(
        workload,
        entry.key.scheme.clone(),
        regs,
        &exp,
        &entry.key.kind,
        entry.key.target,
    );
    let (_, snapshot) = store.load(&key, hash).map_err(|e| e.to_string())?;
    Ok(ResolvedEntry {
        workload,
        exp,
        regs,
        snapshot,
    })
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
        let resolved = match resolve_and_load(cli, &store, entry) {
            Ok(r) => r,
            Err(e) => {
                println!("FAIL {label}: {e}");
                failures += 1;
                continue;
            }
        };
        let (workload, exp, regs, snapshot) = (
            resolved.workload,
            resolved.exp,
            resolved.regs,
            resolved.snapshot,
        );
        let fresh = workload.stream(exp.seed);
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
                    regs,
                    exp.seed,
                    exp.miss_penalty,
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
        let scheme = parse_checkpoint_scheme(&scheme_label_, regs, &exp).expect("validated above");
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
    // --cross-nrr: the shared-artefact contract. Each shared interval
    // checkpoint must (a) re-target to the canonical NRR as a bit-exact
    // no-op (snapshot equality), and (b) restore bit-identically for each
    // requested NRR value: two independent restore + re-target + run
    // passes must agree on every counter — the property that lets one
    // warm serial pass serve a whole NRR sweep.
    let mut shared_checked = 0usize;
    if let Some((nrr_a, nrr_b)) = cli.cross_nrr {
        for entry in &store.manifest.entries {
            if !entry.key.scheme.ends_with("-shared") || entry.key.kind != KIND_INTERVAL {
                continue;
            }
            let label = format!(
                "{}/{} {}@{} x-nrr",
                entry.key.benchmark, entry.key.scheme, entry.key.kind, entry.key.target
            );
            let resolved = match resolve_and_load(cli, &store, entry) {
                Ok(r) => r,
                Err(e) => {
                    println!("FAIL {label}: {e}");
                    failures += 1;
                    continue;
                }
            };
            let (workload, exp, snapshot) = (resolved.workload, resolved.exp, resolved.snapshot);
            shared_checked += 1;
            let restore = || {
                let fresh = workload.stream(exp.seed);
                Processor::<WorkloadStream>::restore(&snapshot, fresh)
            };
            let mut canonical = match restore() {
                Ok(cpu) => cpu,
                Err(e) => {
                    println!("FAIL {label}: restore: {e}");
                    failures += 1;
                    continue;
                }
            };
            let canonical_nrr = canonical.config().scheme.nrr().expect("shared implies VP");
            // Re-targets are only legal downward from the canonical NRR
            // (and never to zero): report out-of-range requests as
            // failures instead of letting `retarget_nrr` abort the run.
            if let Some(&bad) = [nrr_a, nrr_b]
                .iter()
                .find(|&&n| n == 0 || n > canonical_nrr)
            {
                println!(
                    "FAIL {label}: --cross-nrr {bad} outside this artefact's legal \
                     range 1..={canonical_nrr}"
                );
                failures += 1;
                continue;
            }
            canonical.retarget_nrr(canonical_nrr);
            if canonical.snapshot() != snapshot {
                println!("FAIL {label}: canonical re-target is not a bit-exact no-op");
                failures += 1;
                continue;
            }
            let run = cli.run.unwrap_or(500);
            let mut ok = true;
            for nrr in [nrr_a, nrr_b] {
                let (mut first, mut second) = match (restore(), restore()) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(e), _) | (_, Err(e)) => {
                        println!("FAIL {label}: restore: {e}");
                        failures += 1;
                        ok = false;
                        continue;
                    }
                };
                first.retarget_nrr(nrr);
                second.retarget_nrr(nrr);
                if first.snapshot() != second.snapshot() {
                    println!("FAIL {label}: NRR {nrr} re-targets disagree at restore");
                    failures += 1;
                    ok = false;
                    continue;
                }
                first.run(run);
                second.run(run);
                if first.stats() != second.stats() || first.cycle() != second.cycle() {
                    println!("FAIL {label}: NRR {nrr} continuations diverge");
                    failures += 1;
                    ok = false;
                }
            }
            if ok {
                println!("ok   {label} (nrr {nrr_a}/{nrr_b})");
            }
        }
        if shared_checked == 0 {
            eprintln!(
                "--cross-nrr: {} holds no shared interval artefacts",
                cli.dir.display()
            );
            std::process::exit(1);
        }
    }
    if failures > 0 {
        eprintln!("{failures}/{checked} checkpoint(s) failed verification");
        std::process::exit(1);
    }
    println!(
        "all {checked} checkpoint(s) verified{}{}",
        match cli.run {
            Some(n) => format!(" (with {n}-commit golden continuations)"),
            None => String::new(),
        },
        match cli.cross_nrr {
            Some((a, b)) =>
                format!(" ({shared_checked} shared artefacts cross-checked at NRR {a}/{b})"),
            None => String::new(),
        }
    );
}

/// `repair`: brings a damaged checkpoint directory back to a state every
/// other command accepts without simulating anything. Corrupt artefacts
/// are quarantined to `*.corrupt` (a side effect of the validating load),
/// manifest entries whose artefact is missing, corrupt or unparseable are
/// dropped, and `*.tmp` debris left by interrupted atomic writes is
/// swept. Stale-but-intact artefacts (config-hash or format mismatch
/// against this invocation's flags) are kept — they may serve another
/// configuration, and `create` replaces them in place.
///
/// Quarantined `*.corrupt` files are evidence and are kept by default;
/// `--max-age SECS` reclaims the ones at least SECS old and reports the
/// bytes freed (`--max-age 0` reclaims them all).
fn repair(cli: &Cli) {
    use vpr_snap::manifest::ManifestError;
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
    let entries = store.manifest.entries.clone();
    let mut keep = vec![true; entries.len()];
    let (mut dropped, mut stale) = (0usize, 0usize);
    for (i, entry) in entries.iter().enumerate() {
        let label = format!(
            "{}/{} {}@{}",
            entry.key.benchmark, entry.key.scheme, entry.key.kind, entry.key.target
        );
        let loaded = Workload::parse(&entry.key.benchmark).and_then(|workload| {
            let exp = ExperimentConfig {
                warmup: entry.key.warmup,
                seed: entry.key.seed,
                miss_penalty: entry.key.miss_penalty,
                ..cli.exp
            };
            let regs = entry.key.physical_regs as usize;
            let scheme = parse_checkpoint_scheme(&entry.key.scheme, regs, &exp)?;
            let hash = config_hash(workload, &sim_config(scheme, regs, &exp), exp.seed);
            let key = checkpoint_key_labelled(
                workload,
                entry.key.scheme.clone(),
                regs,
                &exp,
                &entry.key.kind,
                entry.key.target,
            );
            store.load(&key, hash).map_err(|e| match e {
                // Stale entries are intact artefacts for some other
                // configuration: keep them on disk and in the manifest.
                CheckpointLoadError::Manifest(
                    ManifestError::StaleConfig { .. } | ManifestError::StaleFormat { .. },
                ) => String::new(),
                other => other.to_string(),
            })
        });
        match loaded {
            Ok(_) => println!("ok      {label}"),
            Err(reason) if reason.is_empty() => {
                stale += 1;
                println!("stale   {label} (kept; `create` replaces it)");
            }
            Err(reason) => {
                keep[i] = false;
                dropped += 1;
                println!("dropped {label}: {reason}");
            }
        }
    }
    let mut it = keep.iter();
    store
        .manifest
        .entries
        .retain(|_| *it.next().expect("same length"));
    if let Err(e) = store.flush() {
        eprintln!("cannot rewrite manifest in {}: {e}", store.dir.display());
        std::process::exit(1);
    }
    println!(
        "repaired {}: {} entr{} kept ({stale} stale), {dropped} dropped, {swept} temp file(s) swept{}",
        store.dir.display(),
        store.manifest.entries.len(),
        if store.manifest.entries.len() == 1 { "y" } else { "ies" },
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
