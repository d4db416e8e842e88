//! # vpr — virtual-physical registers
//!
//! Facade crate for the reproduction of *"Virtual-Physical Registers"*
//! (A. González, J. González, M. Valero, HPCA-4, 1998): a cycle-accurate,
//! trace-driven out-of-order superscalar simulator with four register
//! renaming schemes — the conventional R10000-style baseline, the same with
//! counter-based early release (the paper's refs \[8\]/\[10\]), and the
//! paper's virtual-physical scheme with physical-register allocation at
//! either the issue or the write-back stage.
//!
//! The workspace crates are re-exported here under short names:
//!
//! * [`isa`] — instruction-set model (ops, registers, dynamic instructions)
//! * [`trace`] — synthetic SPEC95-like workload generators
//! * [`exec`] — RISC-V-style assembler and functional emulator: assembled
//!   programs (`asm/*.s`) drive the pipeline as real committed-path
//!   instruction streams
//! * [`frontend`] — fetch engine and 2-bit branch-history-table predictor
//! * [`mem`] — lockup-free data cache, bus and memory disambiguation
//! * [`core`] — the out-of-order core and the renaming schemes
//! * [`snap`] — versioned checkpoint/restore of full machine state
//!   (`Processor::snapshot` / `Processor::restore`, bit-identical
//!   continuation)
//!
//! ## Quickstart
//!
//! ```
//! use vpr::core::{Processor, RenameScheme, SimConfig};
//! use vpr::trace::{Benchmark, TraceBuilder};
//!
//! // A small run of the synthetic `swim`-like workload under the paper's
//! // virtual-physical scheme with write-back allocation and NRR = 32.
//! let config = SimConfig::builder()
//!     .scheme(RenameScheme::VirtualPhysicalWriteback { nrr: 32 })
//!     .physical_regs(64)
//!     .build();
//! let trace = TraceBuilder::new(Benchmark::Swim).seed(42).build();
//! let mut cpu = Processor::new(config, trace);
//! let stats = cpu.run(20_000);
//! assert!(stats.ipc() > 0.0);
//! ```
//!
//! ## Performance
//!
//! The simulation kernel is engineered for host throughput — measured as
//! **sim-MIPS**, simulated committed instructions per host second — while
//! staying cycle-exact:
//!
//! * events flow through a bucketed **calendar queue** (`vpr_core::CalendarQueue`)
//!   with O(1) schedule/drain and zero steady-state allocation;
//! * the issue window wakes operands through per-`(class, tag)`
//!   **consumer lists** and issues from an age-sorted ready index, so a
//!   result broadcast touches only actual consumers and issue selection
//!   never scans waiting entries;
//! * **idle-cycle fast-forwarding** jumps the clock over provably dead
//!   cycles (everything stalled behind a cache miss) while replaying the
//!   per-cycle stall counters in closed form, keeping statistics
//!   bit-identical to the naive cycle-by-cycle loop.
//!
//! The invariant that these are *pure* throughput optimisations is pinned
//! by `tests/exact_counts.rs` (golden window `SimStats` under all four
//! renaming schemes, plus exact cycle, step and per-stage event counts, so
//! a kernel that does more work for the same result fails too) and by
//! property tests in `crates/core/tests/proptest_kernel.rs` that check the
//! kernel structures against simple reference models. Host time is
//! tracked by the benchmark in `perfbench/` (`python3 perfbench/run.py`);
//! the swap from map-based structures to this kernel raised the quick
//! table2 workload from ~1.9 to ~4.5 harmonic-mean sim-MIPS (≈2.4×) on the
//! reference container.
#![forbid(unsafe_code)]

pub use vpr_core as core;
pub use vpr_exec as exec;
pub use vpr_frontend as frontend;
pub use vpr_isa as isa;
pub use vpr_mem as mem;
pub use vpr_snap as snap;
pub use vpr_trace as trace;
