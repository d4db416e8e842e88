//! `vpr-exec`: the real-program frontend.
//!
//! Everything upstream of this crate feeds the timing pipeline with
//! *synthetic* instruction streams shaped by statistical models
//! (`vpr-trace`). This crate feeds it *programs*: a minimal RISC-V-style
//! ISA, a two-pass assembler ([`assemble`]), and a functional emulator
//! ([`Machine`]) whose architecturally-committed instruction stream
//! ([`ExecStream`]) implements the same `InstStream` + `Resumable`
//! contracts the synthetic generators do — so all four rename schemes,
//! checkpointing and sampled simulation work on real control flow and
//! real live ranges without modification.
//!
//! The crate is deliberately *functional-first*: the [`Machine`] computes
//! real 64-bit register and memory values, and the differential tests
//! (`tests/exec_differential.rs`) use it as an oracle — the pipeline must
//! commit exactly the instructions the pure emulator executes, leaving
//! architectural state bit-identical.
//!
//! See `docs/isa.md` for the ISA table, assembler syntax, and memory
//! model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod machine;
pub mod program;
pub mod stream;

pub use asm::{assemble, AsmError, AsmErrorKind};
pub use machine::{ArchState, Machine, SparseMem, Step};
pub use program::{AsmInst, Opcode, Program, DATA_BASE, SCRATCH_BASE, STACK_TOP, TEXT_BASE};
pub use stream::{ExecStream, Mode};

use std::sync::{Arc, OnceLock};

/// The bundled benchmark programs under `asm/`, compiled into the binary
/// so benchmarks need no filesystem access at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsmProgram {
    /// 12×12 dense double-precision matrix multiply (FP-heavy, regular
    /// loads with long FP live ranges).
    Matmul,
    /// Recursive quicksort over 64 pseudo-random `u64`s (data-dependent
    /// branches, real call stack).
    Quicksort,
    /// Sieve of Eratosthenes to 2000 with byte flags (byte stores,
    /// highly-biased inner branches).
    PrimeSieve,
    /// 4 KiB forward copy plus a stride-64 gather pass (load/store
    /// dominated, two distinct access patterns).
    MemcpyStride,
    /// Naively recursive `fib(14)` (call/return dominated, deep stack
    /// traffic).
    Fib,
}

impl AsmProgram {
    /// Every bundled program, in catalog order.
    pub const ALL: [AsmProgram; 5] = [
        AsmProgram::Matmul,
        AsmProgram::Quicksort,
        AsmProgram::PrimeSieve,
        AsmProgram::MemcpyStride,
        AsmProgram::Fib,
    ];

    /// The short name used in `--workload asm:<name>` and file names.
    pub fn name(&self) -> &'static str {
        match self {
            AsmProgram::Matmul => "matmul",
            AsmProgram::Quicksort => "quicksort",
            AsmProgram::PrimeSieve => "prime_sieve",
            AsmProgram::MemcpyStride => "memcpy_stride",
            AsmProgram::Fib => "fib",
        }
    }

    /// Parses a catalog name (as produced by [`name`](Self::name)).
    pub fn parse(name: &str) -> Option<AsmProgram> {
        AsmProgram::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// The program's assembly source text.
    pub fn source(&self) -> &'static str {
        match self {
            AsmProgram::Matmul => include_str!("../../../asm/matmul.s"),
            AsmProgram::Quicksort => include_str!("../../../asm/quicksort.s"),
            AsmProgram::PrimeSieve => include_str!("../../../asm/prime_sieve.s"),
            AsmProgram::MemcpyStride => include_str!("../../../asm/memcpy_stride.s"),
            AsmProgram::Fib => include_str!("../../../asm/fib.s"),
        }
    }

    /// The assembled program, cached after the first call (the bundled
    /// sources are pinned by tests, so assembly cannot fail).
    pub fn program(&self) -> Arc<Program> {
        static CACHE: OnceLock<[Arc<Program>; 5]> = OnceLock::new();
        let cache = CACHE.get_or_init(|| {
            AsmProgram::ALL.map(|p| {
                Arc::new(assemble(p.source()).unwrap_or_else(|e| {
                    panic!("bundled program {} failed to assemble: {e}", p.name())
                }))
            })
        });
        let idx = AsmProgram::ALL
            .iter()
            .position(|p| p == self)
            .expect("in ALL");
        Arc::clone(&cache[idx])
    }

    /// A fresh instruction stream over this program.
    pub fn stream(&self, mode: Mode) -> ExecStream {
        ExecStream::new(self.program(), mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bundled_programs_assemble() {
        for p in AsmProgram::ALL {
            let prog = p.program();
            assert!(!prog.insts.is_empty(), "{} is empty", p.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for p in AsmProgram::ALL {
            assert_eq!(AsmProgram::parse(p.name()), Some(p));
        }
        assert_eq!(AsmProgram::parse("nope"), None);
    }

    #[test]
    fn all_bundled_programs_halt_with_plausible_lengths() {
        for p in AsmProgram::ALL {
            let mut m = Machine::new(p.program());
            let n = m.run_to_halt();
            assert!(
                (1_000..5_000_000).contains(&n),
                "{} ran {n} instructions — outside the expected envelope",
                p.name()
            );
        }
    }

    #[test]
    fn streams_preserve_continuity_across_a_wrap() {
        for p in AsmProgram::ALL {
            let mut s = p.stream(Mode::Repeat);
            // One full iteration plus a bit, checking every link.
            let mut m = Machine::new(p.program());
            let len = m.run_to_halt();
            let mut prev: Option<vpr_isa::DynInst> = None;
            for _ in 0..(len + 50) {
                let di = s.next().expect("repeat stream is infinite");
                if let Some(pr) = prev {
                    assert_eq!(pr.next_pc(), di.pc(), "{}: continuity broken", p.name());
                }
                prev = Some(di);
            }
            assert_eq!(s.iterations(), 1, "{}", p.name());
        }
    }
}
