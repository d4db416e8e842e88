//! The interface between trace producers and the fetch engine.

use crate::DynInst;

/// A source of dynamic instructions in program order.
///
/// Implemented by the synthetic workload generators in `vpr-trace`, the
/// emulator-driven streams in `vpr-exec`, and anything else that can
/// replay a committed-path instruction stream (a hand-written snippet in a
/// test). The stream is the *correct* execution path: trace-driven
/// simulation never sees wrong-path instructions, because fetch stalls at
/// a mispredicted branch until it resolves.
///
/// Any iterator over [`DynInst`] is automatically a stream:
///
/// ```
/// use vpr_isa::{DynInst, Inst, InstStream, OpClass};
/// let insts = vec![DynInst::new(0, Inst::new(OpClass::Nop))];
/// let mut stream = insts.into_iter();
/// assert!(InstStream::next_inst(&mut stream).is_some());
/// assert!(InstStream::next_inst(&mut stream).is_none());
/// ```
pub trait InstStream {
    /// Produces the next dynamic instruction, or `None` at end of trace.
    fn next_inst(&mut self) -> Option<DynInst>;
}

impl<I: Iterator<Item = DynInst>> InstStream for I {
    #[inline]
    fn next_inst(&mut self) -> Option<DynInst> {
        self.next()
    }
}
