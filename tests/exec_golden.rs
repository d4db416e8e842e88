//! Golden regression guard for the assembled workload programs.
//!
//! For every program in [`AsmProgram::ALL`] this pins, against goldens
//! checked into `tests/golden/`:
//!
//! * the pure emulator's functional outcome — executed-instruction
//!   count, final integer/FP register files (non-zero entries), and the
//!   memory checksum — so any assembler or emulator change that alters
//!   a program's architectural behaviour is caught; and
//! * the timing pipeline's cycle count and committed count for one full
//!   program run under all four renaming schemes, so kernel changes
//!   that shift timing on *real programs* (not just synthetic traces)
//!   are caught, mirroring the window goldens of `tests/exact_counts.rs`.
//!
//! To regenerate after an intentional behavioural change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test exec_golden
//! ```
//!
//! and review the diff like any other source change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use vpr::core::{Processor, SimConfig};
use vpr::exec::{AsmProgram, ExecStream, Machine, Mode};
use vpr_bench::workloads::{scheme_label, THROUGHPUT_SCHEMES};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Renders one program's golden record: functional outcome first, then
/// per-scheme timing.
fn render(program: AsmProgram) -> String {
    let mut out = String::new();
    let image = program.program();

    let mut machine = Machine::new(Arc::clone(&image));
    let executed = machine.run_to_halt();
    let state = machine.arch_state();
    writeln!(out, "program: {}", program.name()).unwrap();
    writeln!(out, "executed: {executed}").unwrap();
    writeln!(out, "final_pc: {:#x}", state.pc).unwrap();
    writeln!(out, "mem_checksum: {:#018x}", state.mem_checksum).unwrap();
    for (i, v) in state.x.iter().enumerate() {
        if *v != 0 {
            writeln!(out, "x{i}: {v:#x}").unwrap();
        }
    }
    for (i, v) in state.f.iter().enumerate() {
        if *v != 0 {
            writeln!(out, "f{i}: {v:#018x}").unwrap();
        }
    }

    for scheme in THROUGHPUT_SCHEMES {
        let config = SimConfig::builder()
            .scheme(scheme)
            .physical_regs(64)
            .build();
        let stream = ExecStream::new(Arc::clone(&image), Mode::Once);
        let stats = Processor::new(config, stream).run_to_completion();
        assert_eq!(
            stats.committed,
            executed,
            "{}/{}: pipeline must commit exactly the emulated program",
            program.name(),
            scheme_label(scheme)
        );
        writeln!(
            out,
            "scheme {}: cycles={} committed={}",
            scheme_label(scheme),
            stats.cycles,
            stats.committed
        )
        .unwrap();
    }
    out
}

#[test]
fn assembled_programs_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for program in AsmProgram::ALL {
        let rendered = render(program);
        let path = dir.join(format!("asm_{}.txt", program.name()));
        if update {
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if rendered != golden {
            failures.push(format!(
                "{}: behaviour diverged from golden\n--- golden ---\n{golden}\n--- current ---\n{rendered}",
                program.name()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden violations for {} program(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
