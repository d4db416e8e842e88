//! # vpr-frontend — fetch engine and branch prediction
//!
//! The in-order front end of the simulated machine (paper §4.1):
//!
//! * [`BranchHistoryTable`] — 2048-entry table of 2-bit up/down saturating
//!   counters, indexed by branch PC.
//! * [`FetchUnit`] — fetches up to eight *consecutive* instructions per
//!   cycle from a perfect instruction cache (i.e. straight from the trace),
//!   ending a block at a taken branch. Being trace-driven, a mispredicted
//!   conditional branch stalls fetch until the branch resolves in the core
//!   (plus a one-cycle redirect, as with R10000-style checkpoint repair).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bht;
mod fetch;

pub use bht::{BhtStats, BranchHistoryTable};
pub use fetch::{FetchStats, FetchUnit, FetchedInst};
