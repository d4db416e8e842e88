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
//! Scheme names: `conv`, `vp-issue`, `vp-wb`.

use vpr_bench::{run_benchmark, take_flag_value, write_json_artifact, ExperimentConfig};
use vpr_core::RenameScheme;
use vpr_isa::RegClass;
use vpr_trace::Benchmark;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag_value(&mut args, "--json").unwrap_or_else(|| "probe.json".into());
    if args.len() < 4 {
        eprintln!(
            "usage: probe <benchmark> <conv|conv-er|vp-issue|vp-wb> <physical-regs> <nrr> [flags]"
        );
        std::process::exit(2);
    }
    let benchmark: Benchmark = args[0].parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let regs: usize = args[2].parse().expect("physical-regs must be a number");
    let nrr: usize = args[3].parse().expect("nrr must be a number");
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
    let exp = ExperimentConfig::from_args(args[4..].iter().cloned()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
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
    write_json_artifact(std::path::Path::new(&json), &wrapped);
}
