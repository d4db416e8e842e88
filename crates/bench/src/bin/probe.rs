//! Detailed single-run diagnostics: run one benchmark under one scheme
//! and dump every counter the simulator keeps. Useful for model
//! calibration and for understanding *why* a configuration performs the
//! way it does.
//!
//! ```text
//! cargo run --release -p vpr-bench --bin probe -- swim vp-wb 64 32
//!     [--measure N] [--warmup N] [--seed N] [--miss-penalty N]
//! ```
//!
//! Scheme names: `conv`, `conv-er`, `vp-issue`, `vp-wb`. A malformed
//! register count or NRR is a usage error (exit 2), like a bad flag.

use vpr_bench::cli::{self, parse_number};
use vpr_bench::{run_benchmark, ExperimentConfig};
use vpr_core::RenameScheme;
use vpr_isa::RegClass;
use vpr_trace::Benchmark;

fn main() {
    let mut args = cli::args();
    let json = cli::or_exit(cli::value(&mut args, "--json")).unwrap_or_else(|| "probe.json".into());
    if args.len() < 4 {
        eprintln!(
            "usage: probe <benchmark> <conv|conv-er|vp-issue|vp-wb> <physical-regs> <nrr> [flags]"
        );
        std::process::exit(2);
    }
    let benchmark: Benchmark = cli::or_exit(args[0].parse().map_err(|e| format!("{e}")));
    let regs: usize = cli::or_exit(parse_number("<physical-regs>", &args[2]));
    let nrr: usize = cli::or_exit(parse_number("<nrr>", &args[3]));
    let scheme = match args[1].as_str() {
        "conv" => RenameScheme::Conventional,
        "conv-er" => RenameScheme::ConventionalEarlyRelease,
        "vp-issue" => RenameScheme::VirtualPhysicalIssue { nrr },
        "vp-wb" => RenameScheme::VirtualPhysicalWriteback { nrr },
        other => {
            eprintln!("unknown scheme `{other}` (conv|conv-er|vp-issue|vp-wb)");
            std::process::exit(2);
        }
    };
    let exp = cli::or_exit(ExperimentConfig::from_args(args[4..].iter().cloned()));
    let s = run_benchmark(benchmark, scheme, regs, &exp);
    println!("{benchmark} / {scheme:?} / {regs} regs");
    println!("  cycles                 {}", s.cycles);
    println!("  committed              {}", s.committed);
    println!("  IPC                    {:.3}", s.ipc());
    println!("  exec/commit            {:.2}", s.executions_per_commit());
    println!("  reexec (register)      {}", s.register_reexecutions);
    println!("  reexec (memory)        {}", s.memory_reexecutions);
    println!("  early releases         {}", s.early_releases);
    println!("  issue alloc stalls     {}", s.issue_allocation_stalls);
    println!("  wb port stalls         {}", s.writeback_port_stalls);
    println!(
        "  rob/iq/lsq full        {}/{}/{}",
        s.rob_full_stalls, s.iq_full_stalls, s.lsq_full_stalls
    );
    println!("  store-buffer stalls    {}", s.store_buffer_stalls);
    for class in [RegClass::Int, RegClass::Fp] {
        let cs = s.class(class);
        println!(
            "  [{class}] alloc {} free {} mean-hold {:.1} occ {:.1} empty-cycles {} rename-stalls {}",
            cs.allocations,
            cs.frees,
            cs.mean_hold(),
            s.mean_occupancy(class),
            cs.empty_free_list_cycles,
            cs.rename_stalls
        );
    }
    println!(
        "  fetch: {} fetched, {} cond branches, {} mispredicted, {} stall cycles",
        s.fetch.fetched, s.fetch.cond_branches, s.fetch.mispredictions, s.fetch.stall_cycles
    );
    println!("  bht accuracy           {:.3}", s.bht.accuracy());
    println!(
        "  cache: {} hits, {} misses, {} merged, miss ratio {:.3}, {} port retries, {} mshr retries",
        s.cache.hits, s.cache.misses, s.cache.merged_misses, s.cache.miss_ratio(),
        s.cache.port_retries, s.cache.mshr_retries
    );
    println!(
        "  lsq: {} forwards, {} speculative, {} violations",
        s.lsq.forwards, s.lsq.speculative_loads, s.lsq.violations
    );
    // The machine-readable counterpart: the full counter set, wrapped
    // with the probed configuration in a versioned schema like every
    // other artefact.
    let wrapped = format!(
        "{{\"schema\": \"vpr-bench-probe/v1\",\n \"benchmark\": \"{benchmark}\", \"scheme\": \"{}\", \"physical_regs\": {regs},\n \"stats\": {}}}\n",
        args[1],
        s.to_json().trim_end(),
    );
    cli::write_artifact(std::path::Path::new(&json), &wrapped);
}
