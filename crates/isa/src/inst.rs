//! Static instructions: opcode plus register operands.

use crate::{LogicalReg, OpClass};
use std::fmt;

/// A static instruction: an operation class plus up to one destination and
/// two source registers.
///
/// This is everything the rename/issue machinery observes about an
/// instruction; immediates and actual data values are irrelevant to the
/// timing model and are not represented. Loads carry their destination here
/// and their address in the enclosing [`DynInst`](crate::DynInst); stores
/// have no destination (`src1` = data register, `src2` = base register).
///
/// ```
/// use vpr_isa::{Inst, LogicalReg, OpClass};
/// // fdiv f2, f2, f10
/// let i = Inst::new(OpClass::FpDiv)
///     .with_dest(LogicalReg::fp(2))
///     .with_src1(LogicalReg::fp(2))
///     .with_src2(LogicalReg::fp(10));
/// assert_eq!(i.sources().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    op: OpClass,
    dest: Option<LogicalReg>,
    src1: Option<LogicalReg>,
    src2: Option<LogicalReg>,
}

impl Inst {
    /// Creates an instruction of the given class with no operands.
    #[inline]
    pub fn new(op: OpClass) -> Self {
        Self {
            op,
            dest: None,
            src1: None,
            src2: None,
        }
    }

    /// Sets the destination register (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the operation class cannot have a destination (stores,
    /// branches, nop): such an instruction would silently confuse the
    /// renaming logic, so it is rejected eagerly.
    #[inline]
    pub fn with_dest(mut self, dest: LogicalReg) -> Self {
        assert!(
            !matches!(
                self.op,
                OpClass::Store | OpClass::BranchCond | OpClass::BranchUncond | OpClass::Nop
            ),
            "{} cannot have a destination register",
            self.op
        );
        self.dest = Some(dest);
        self
    }

    /// Sets the first source register (builder style).
    #[inline]
    pub fn with_src1(mut self, src: LogicalReg) -> Self {
        self.src1 = Some(src);
        self
    }

    /// Sets the second source register (builder style).
    #[inline]
    pub fn with_src2(mut self, src: LogicalReg) -> Self {
        self.src2 = Some(src);
        self
    }

    /// The operation class.
    #[inline]
    pub fn op(&self) -> OpClass {
        self.op
    }

    /// The destination register, if any.
    #[inline]
    pub fn dest(&self) -> Option<LogicalReg> {
        self.dest
    }

    /// The first source register, if any.
    #[inline]
    pub fn src1(&self) -> Option<LogicalReg> {
        self.src1
    }

    /// The second source register, if any.
    #[inline]
    pub fn src2(&self) -> Option<LogicalReg> {
        self.src2
    }

    /// Iterates over the present source registers (at most two).
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = LogicalReg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }
}

impl vpr_snap::Snap for Inst {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.op.save(enc);
        self.dest.save(enc);
        self.src1.save(enc);
        self.src2.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            op: vpr_snap::Snap::load(dec),
            dest: vpr_snap::Snap::load(dec),
            src1: vpr_snap::Snap::load(dec),
            src2: vpr_snap::Snap::load(dec),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        let mut sep = " ";
        if let Some(d) = self.dest {
            write!(f, "{sep}{d}")?;
            sep = ",";
        }
        for s in self.sources() {
            write!(f, "{sep}{s}")?;
            sep = ",";
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_operands() {
        let i = Inst::new(OpClass::IntAlu)
            .with_dest(LogicalReg::int(1))
            .with_src1(LogicalReg::int(2))
            .with_src2(LogicalReg::int(3));
        assert_eq!(i.dest(), Some(LogicalReg::int(1)));
        assert_eq!(i.src1(), Some(LogicalReg::int(2)));
        assert_eq!(i.src2(), Some(LogicalReg::int(3)));
        assert_eq!(i.sources().count(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot have a destination")]
    fn store_rejects_destination() {
        let _ = Inst::new(OpClass::Store).with_dest(LogicalReg::int(1));
    }

    #[test]
    #[should_panic(expected = "cannot have a destination")]
    fn branch_rejects_destination() {
        let _ = Inst::new(OpClass::BranchCond).with_dest(LogicalReg::int(1));
    }

    #[test]
    fn sources_iterator_handles_gaps() {
        let i = Inst::new(OpClass::Load).with_src1(LogicalReg::int(6));
        assert_eq!(i.sources().count(), 1);
        let j = Inst::new(OpClass::Nop);
        assert_eq!(j.sources().count(), 0);
    }

    #[test]
    fn display_formats_operands() {
        let i = Inst::new(OpClass::FpMul)
            .with_dest(LogicalReg::fp(2))
            .with_src1(LogicalReg::fp(2))
            .with_src2(LogicalReg::fp(12));
        assert_eq!(i.to_string(), "fp.mul f2,f2,f12");
    }
}
