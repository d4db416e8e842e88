//! # vpr-trace — synthetic SPEC95-like workload generators
//!
//! The paper drives its simulator with Atom-instrumented Alpha traces of
//! nine SPEC95 benchmarks. Those traces cannot be regenerated here, so
//! this crate provides the substitution described in DESIGN.md §4:
//! deterministic synthetic models, one per benchmark, that reproduce the
//! four workload properties the renaming schemes are sensitive to —
//! instruction mix, dependence-chain depth, working-set size (cache-miss
//! exposure) and branch predictability.
//!
//! * [`Benchmark`] — the nine-program suite, with the paper's reference
//!   IPC numbers attached;
//! * [`TraceBuilder`] → [`TraceGen`] — an infinite, deterministic
//!   [`DynInst`](vpr_isa::DynInst) iterator for a benchmark;
//! * [`Program`]/[`LoopSpec`]/[`SynthOp`] — the building blocks, public so
//!   users can model their own workloads;
//! * [`paper_example_chain`] — the §3.1 motivating code.
//!
//! ## Example
//!
//! ```
//! use vpr_isa::OpClass;
//! use vpr_trace::{Benchmark, TraceBuilder};
//!
//! let mut swim = TraceBuilder::new(Benchmark::Swim).seed(7).build();
//! let window: Vec<_> = (&mut swim).take(1000).collect();
//! assert!(window.iter().any(|d| d.op() == OpClass::FpMul));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod models;
pub mod ops;
mod paper_example;
mod program;

pub use gen::TraceGen;
pub use models::{Benchmark, ParseBenchmarkError, TraceBuilder};
pub use paper_example::{paper_example_chain, paper_example_trace};
pub use program::{LoopSpec, Program, StreamKind, StreamSpec, SynthOp};
