//! Operation classes and the functional-unit kinds that execute them.

use std::fmt;

/// Coarse operation class of an instruction.
///
/// This is the full opcode surface the timing model observes. Each class
/// maps to one functional-unit kind (paper Table 1) via [`OpClass::fu_kind`];
/// execution latencies are configuration of the core, not of the ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU operation (add, sub, logic, shift, compare).
    IntAlu,
    /// Integer multiply (complex integer unit).
    IntMul,
    /// Integer divide (complex integer unit, unpipelined).
    IntDiv,
    /// Memory load (effective-address unit, then a cache port).
    Load,
    /// Memory store (effective-address unit; data written at commit).
    Store,
    /// Conditional branch (resolved on a simple integer unit).
    BranchCond,
    /// Unconditional branch / jump (always taken, no prediction needed for
    /// direction, still redirects fetch).
    BranchUncond,
    /// Simple FP operation (add, sub, convert, compare).
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide (unpipelined).
    FpDiv,
    /// FP square root (unpipelined, shares the FP divide unit).
    FpSqrt,
    /// No-operation (consumes fetch/decode/commit bandwidth only).
    Nop,
}

impl OpClass {
    /// Every operation class, for exhaustive sweeps in tests and generators.
    pub const ALL: [OpClass; 12] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::BranchCond,
        OpClass::BranchUncond,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::FpSqrt,
        OpClass::Nop,
    ];

    /// Dense index of the class, matching its position in [`OpClass::ALL`]
    /// (the enum is declared in `ALL` order). Used wherever a class keys a
    /// table without dragging the type along — snapshot tags, observer
    /// hook arguments, display-name lookups.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The functional-unit kind that executes this operation, or `None` for
    /// a [`OpClass::Nop`], which occupies no unit.
    ///
    /// Loads and stores return [`FuKind::EffAddr`]: the address computation
    /// runs there, after which loads arbitrate for a cache port.
    #[inline]
    pub fn fu_kind(self) -> Option<FuKind> {
        match self {
            OpClass::IntAlu | OpClass::BranchCond | OpClass::BranchUncond => {
                Some(FuKind::SimpleInt)
            }
            OpClass::IntMul | OpClass::IntDiv => Some(FuKind::ComplexInt),
            OpClass::Load | OpClass::Store => Some(FuKind::EffAddr),
            OpClass::FpAdd => Some(FuKind::SimpleFp),
            OpClass::FpMul => Some(FuKind::FpMul),
            OpClass::FpDiv | OpClass::FpSqrt => Some(FuKind::FpDiv),
            OpClass::Nop => None,
        }
    }

    /// True for conditional and unconditional branches.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::BranchCond | OpClass::BranchUncond)
    }

    /// True for loads and stores.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// True if the operation's functional unit is not fully pipelined
    /// (integer divide, FP divide, FP square root — paper Table 1).
    #[inline]
    pub fn is_unpipelined(self) -> bool {
        matches!(self, OpClass::IntDiv | OpClass::FpDiv | OpClass::FpSqrt)
    }
}

impl vpr_snap::Snap for OpClass {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        let tag = OpClass::ALL
            .iter()
            .position(|o| o == self)
            .expect("ALL is exhaustive") as u8;
        enc.put_u8(tag);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        let tag = dec.take_u8() as usize;
        OpClass::ALL[tag]
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int.alu",
            OpClass::IntMul => "int.mul",
            OpClass::IntDiv => "int.div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::BranchCond => "br.cond",
            OpClass::BranchUncond => "br.uncond",
            OpClass::FpAdd => "fp.add",
            OpClass::FpMul => "fp.mul",
            OpClass::FpDiv => "fp.div",
            OpClass::FpSqrt => "fp.sqrt",
            OpClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Functional-unit kinds of the simulated machine (paper Table 1).
///
/// | Kind | Count (paper) | Latency (paper) |
/// |------|---------------|------------------|
/// | `SimpleInt` | 3 | 1 |
/// | `ComplexInt` | 2 | 9 (mul) / 67 (div) |
/// | `EffAddr` | 3 | 1 |
/// | `SimpleFp` | 3 | 4 |
/// | `FpMul` | 2 | 4 |
/// | `FpDiv` | 2 | 16 (div) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Simple integer ALU; also resolves branches.
    SimpleInt,
    /// Complex integer unit (multiply / divide).
    ComplexInt,
    /// Effective-address computation for loads and stores.
    EffAddr,
    /// Simple FP unit (add / sub / convert).
    SimpleFp,
    /// FP multiplier.
    FpMul,
    /// FP divide / square-root unit.
    FpDiv,
}

impl FuKind {
    /// Every functional-unit kind, in a fixed order usable as array index.
    pub const ALL: [FuKind; 6] = [
        FuKind::SimpleInt,
        FuKind::ComplexInt,
        FuKind::EffAddr,
        FuKind::SimpleFp,
        FuKind::FpMul,
        FuKind::FpDiv,
    ];

    /// Dense index of the kind for per-kind state arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuKind::SimpleInt => 0,
            FuKind::ComplexInt => 1,
            FuKind::EffAddr => 2,
            FuKind::SimpleFp => 3,
            FuKind::FpMul => 4,
            FuKind::FpDiv => 5,
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::SimpleInt => "simple-int",
            FuKind::ComplexInt => "complex-int",
            FuKind::EffAddr => "eff-addr",
            FuKind::SimpleFp => "simple-fp",
            FuKind::FpMul => "fp-mul",
            FuKind::FpDiv => "fp-div",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_index_matches_position_in_all() {
        for (i, op) in OpClass::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{op} index must match ALL order");
        }
    }

    #[test]
    fn every_non_nop_op_has_a_unit() {
        for op in OpClass::ALL {
            if op == OpClass::Nop {
                assert_eq!(op.fu_kind(), None);
            } else {
                assert!(op.fu_kind().is_some(), "{op} must map to a unit");
            }
        }
    }

    #[test]
    fn fu_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for kind in FuKind::ALL {
            let i = kind.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn branch_and_mem_predicates() {
        assert!(OpClass::BranchCond.is_branch());
        assert!(OpClass::BranchUncond.is_branch());
        assert!(!OpClass::IntAlu.is_branch());
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::FpMul.is_mem());
    }

    #[test]
    fn unpipelined_ops() {
        assert!(OpClass::IntDiv.is_unpipelined());
        assert!(OpClass::FpDiv.is_unpipelined());
        assert!(OpClass::FpSqrt.is_unpipelined());
        assert!(!OpClass::IntMul.is_unpipelined());
        assert!(!OpClass::FpMul.is_unpipelined());
    }

    #[test]
    fn display_is_nonempty() {
        for op in OpClass::ALL {
            assert!(!op.to_string().is_empty());
        }
        for fu in FuKind::ALL {
            assert!(!fu.to_string().is_empty());
        }
    }
}
