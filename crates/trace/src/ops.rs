//! Terse constructors for synthetic loop bodies.
//!
//! Benchmark models build their bodies from these helpers; register
//! numbers are plain `usize` indices into the integer (`r`) or FP (`f`)
//! file.

use crate::program::SynthOp;
use vpr_isa::{Inst, LogicalReg, OpClass};

/// `load f<dest>, [stream]` with base register `r<base>`.
pub fn fload(dest: usize, base: usize, stream: usize) -> SynthOp {
    SynthOp::Load {
        inst: Inst::new(OpClass::Load)
            .with_dest(LogicalReg::fp(dest))
            .with_src1(LogicalReg::int(base)),
        stream,
    }
}

/// `load r<dest>, [stream]` with base register `r<base>`.
pub fn iload(dest: usize, base: usize, stream: usize) -> SynthOp {
    SynthOp::Load {
        inst: Inst::new(OpClass::Load)
            .with_dest(LogicalReg::int(dest))
            .with_src1(LogicalReg::int(base)),
        stream,
    }
}

/// `store [stream], f<data>` with base register `r<base>`.
pub fn fstore(data: usize, base: usize, stream: usize) -> SynthOp {
    SynthOp::Store {
        inst: Inst::new(OpClass::Store)
            .with_src1(LogicalReg::fp(data))
            .with_src2(LogicalReg::int(base)),
        stream,
    }
}

/// `store [stream], r<data>` with base register `r<base>`.
pub fn istore(data: usize, base: usize, stream: usize) -> SynthOp {
    SynthOp::Store {
        inst: Inst::new(OpClass::Store)
            .with_src1(LogicalReg::int(data))
            .with_src2(LogicalReg::int(base)),
        stream,
    }
}

fn fp3(op: OpClass, d: usize, a: usize, b: usize) -> SynthOp {
    SynthOp::Op(
        Inst::new(op)
            .with_dest(LogicalReg::fp(d))
            .with_src1(LogicalReg::fp(a))
            .with_src2(LogicalReg::fp(b)),
    )
}

fn int3(op: OpClass, d: usize, a: usize, b: usize) -> SynthOp {
    SynthOp::Op(
        Inst::new(op)
            .with_dest(LogicalReg::int(d))
            .with_src1(LogicalReg::int(a))
            .with_src2(LogicalReg::int(b)),
    )
}

/// `fadd f<d>, f<a>, f<b>`.
pub fn fadd(d: usize, a: usize, b: usize) -> SynthOp {
    fp3(OpClass::FpAdd, d, a, b)
}

/// `fmul f<d>, f<a>, f<b>`.
pub fn fmul(d: usize, a: usize, b: usize) -> SynthOp {
    fp3(OpClass::FpMul, d, a, b)
}

/// `fdiv f<d>, f<a>, f<b>`.
pub fn fdiv(d: usize, a: usize, b: usize) -> SynthOp {
    fp3(OpClass::FpDiv, d, a, b)
}

/// `fsqrt f<d>, f<a>`.
pub fn fsqrt(d: usize, a: usize) -> SynthOp {
    SynthOp::Op(
        Inst::new(OpClass::FpSqrt)
            .with_dest(LogicalReg::fp(d))
            .with_src1(LogicalReg::fp(a)),
    )
}

/// `add r<d>, r<a>, r<b>` (any simple integer ALU op).
pub fn iadd(d: usize, a: usize, b: usize) -> SynthOp {
    int3(OpClass::IntAlu, d, a, b)
}

/// `mul r<d>, r<a>, r<b>`.
pub fn imul(d: usize, a: usize, b: usize) -> SynthOp {
    int3(OpClass::IntMul, d, a, b)
}

/// A conditional branch that resolves on its own (no source operand):
/// taken with probability `p`, skipping `skip` body slots when taken.
pub fn br(p: f64, skip: usize) -> SynthOp {
    SynthOp::CondBranch {
        taken_prob: p,
        skip,
        src: None,
    }
}

/// A data-dependent conditional branch testing `r<src>`: it cannot resolve
/// until that register's producer executes, so a misprediction costs the
/// producer chain's latency on top of the redirect.
pub fn br_on(src: usize, p: f64, skip: usize) -> SynthOp {
    SynthOp::CondBranch {
        taken_prob: p,
        skip,
        src: Some(src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_shapes() {
        match fload(2, 30, 0) {
            SynthOp::Load { inst, stream } => {
                assert_eq!(inst.op(), OpClass::Load);
                assert_eq!(inst.dest(), Some(LogicalReg::fp(2)));
                assert_eq!(stream, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match fstore(3, 30, 1) {
            SynthOp::Store { inst, stream } => {
                assert_eq!(inst.op(), OpClass::Store);
                assert_eq!(inst.src1(), Some(LogicalReg::fp(3)));
                assert_eq!(stream, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match fdiv(1, 2, 3) {
            SynthOp::Op(inst) => assert_eq!(inst.op(), OpClass::FpDiv),
            other => panic!("unexpected {other:?}"),
        }
        match br(0.3, 2) {
            SynthOp::CondBranch {
                taken_prob,
                skip,
                src,
            } => {
                assert_eq!(taken_prob, 0.3);
                assert_eq!(skip, 2);
                assert_eq!(src, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match br_on(5, 0.5, 1) {
            SynthOp::CondBranch { src, .. } => assert_eq!(src, Some(5)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
