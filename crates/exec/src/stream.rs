//! [`ExecStream`]: adapts a [`Machine`] to the pipeline's `InstStream` +
//! `Resumable` contracts.
//!
//! The stream *is* the committed path: every [`DynInst`] it yields is an
//! architecturally-executed instruction from the functional emulator, so
//! the timing pipeline's committed count equals the emulator's executed
//! count by construction (pinned by `tests/exec_differential.rs`).

use crate::machine::{Machine, Step};
use crate::program::Program;
use std::sync::Arc;
use vpr_isa::{BranchInfo, DynInst, Inst, OpClass};
use vpr_snap::{Decoder, Encoder, Resumable};

/// What the stream does when the program halts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Terminate the stream (`next` returns `None`). Differential tests
    /// use this: the pipeline drains and commits exactly one program run.
    Once,
    /// Emit a wrap-around jump back to the entry point and reset the
    /// machine, making the stream infinite. Benchmarks, warm-up, and
    /// sampled simulation use this — it matches the synthetic
    /// generators' "traces are infinite" contract.
    Repeat,
}

/// An infinite-or-finite committed-path instruction stream over an
/// assembled program.
///
/// Implements `Iterator<Item = DynInst>` (and therefore `InstStream`),
/// plus [`Resumable`] so checkpointing and sampled simulation can save
/// and restore mid-run positions exactly as they do for synthetic traces.
#[derive(Debug, Clone)]
pub struct ExecStream {
    machine: Machine,
    mode: Mode,
    emitted: u64,
    iterations: u64,
}

impl ExecStream {
    /// Creates a stream over `program` with the given halt behaviour.
    pub fn new(program: Arc<Program>, mode: Mode) -> Self {
        ExecStream {
            machine: Machine::new(program),
            mode,
            emitted: 0,
            iterations: 0,
        }
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Completed program iterations (only grows in [`Mode::Repeat`]).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The underlying machine (for architectural-state assertions in
    /// differential tests).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Skips `n` instructions without yielding them. Equivalent to — and
    /// tested against — calling `next` `n` times and discarding the
    /// results.
    pub fn fast_forward(&mut self, n: u64) {
        for _ in 0..n {
            if self.next().is_none() {
                break;
            }
        }
    }
}

impl Iterator for ExecStream {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self.machine.step() {
            Step::Exec(di) => {
                self.emitted += 1;
                Some(di)
            }
            Step::Halted => match self.mode {
                Mode::Once => None,
                Mode::Repeat => {
                    // Emit a wrap-around jump from the halt site back to
                    // the entry so consecutive stream entries keep the
                    // `prev.next_pc() == cur.pc()` continuity invariant,
                    // then restart the machine for the next iteration.
                    let halt_pc = self.machine.halt_pc();
                    let entry = self.machine.program().entry;
                    self.machine.reset();
                    self.iterations += 1;
                    self.emitted += 1;
                    Some(
                        DynInst::new(halt_pc, Inst::new(OpClass::BranchUncond)).with_branch(
                            BranchInfo {
                                taken: true,
                                next_pc: entry,
                            },
                        ),
                    )
                }
            },
        }
    }
}

impl Resumable for ExecStream {
    fn save_state(&self, enc: &mut Encoder) {
        self.machine.save_into(enc);
        enc.put_u8(match self.mode {
            Mode::Once => 0,
            Mode::Repeat => 1,
        });
        enc.put_u64(self.emitted);
        enc.put_u64(self.iterations);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) {
        self.machine.restore_from(dec);
        self.mode = match dec.take_u8() {
            0 => Mode::Once,
            1 => Mode::Repeat,
            m => panic!("corrupt ExecStream snapshot: unknown mode {m}"),
        };
        self.emitted = dec.take_u64();
        self.iterations = dec.take_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    const LOOPY: &str = "    li t0, 4\nloop:\n    addi t0, t0, -1\n    slli t1, t0, 3\n    sd t0, 0x100(t1)\n    bnez t0, loop\n    halt\n";

    fn stream(mode: Mode) -> ExecStream {
        ExecStream::new(Arc::new(assemble(LOOPY).unwrap()), mode)
    }

    #[test]
    fn once_mode_terminates_with_emitted_equal_to_executed() {
        let mut s = stream(Mode::Once);
        let insts: Vec<_> = s.by_ref().collect();
        assert_eq!(insts.len() as u64, s.emitted());
        assert_eq!(s.emitted(), s.machine().executed());
        assert!(s.machine().halted());
    }

    #[test]
    fn repeat_mode_wraps_with_continuity() {
        let mut s = stream(Mode::Repeat);
        let mut prev: Option<DynInst> = None;
        for _ in 0..100 {
            let di = s.next().expect("repeat stream is infinite");
            if let Some(p) = prev {
                assert_eq!(p.next_pc(), di.pc(), "continuity broken at wrap");
            }
            prev = Some(di);
        }
        assert!(s.iterations() >= 2);
    }

    #[test]
    fn fast_forward_equals_replay() {
        let mut a = stream(Mode::Repeat);
        let mut b = stream(Mode::Repeat);
        a.fast_forward(37);
        for _ in 0..37 {
            b.next();
        }
        assert_eq!(a.emitted(), b.emitted());
        assert_eq!(a.machine().arch_state(), b.machine().arch_state());
        for _ in 0..50 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn resumable_roundtrip_is_bit_identical() {
        let mut s = stream(Mode::Repeat);
        s.fast_forward(23);
        let mut enc = Encoder::new();
        s.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut restored = stream(Mode::Repeat);
        restored.restore_state(&mut Decoder::new(&bytes));
        assert_eq!(restored.emitted(), s.emitted());
        for _ in 0..200 {
            assert_eq!(restored.next(), s.next());
        }
    }
}
