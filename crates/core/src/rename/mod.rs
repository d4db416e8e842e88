//! Register renaming: common types plus the two schemes under study.
//!
//! * [`ConventionalRenamer`] — the baseline (paper §2): a map table from
//!   logical to physical registers; the destination physical register is
//!   allocated at decode and freed when the *next* writer of the same
//!   logical register commits.
//! * [`VpRenamer`] — the paper's contribution (§3.2): destinations are
//!   renamed to storage-free *virtual-physical* tags at decode; a physical
//!   register is bound to the tag late (at issue or at write-back,
//!   depending on the configured scheme), shrinking the interval each
//!   physical register is held.

mod conventional;
mod early_release;
mod free_list;
mod nrr;
mod virtual_physical;

pub use conventional::ConventionalRenamer;
pub use early_release::{EarlyReleaseRenamer, ReleaseStats};
pub use free_list::FreeList;
pub use nrr::NrrState;
pub use virtual_physical::{AllocGate, GmtEntry, VpRenamer};

use std::fmt;
use vpr_isa::{LogicalReg, RegClass};

/// A physical register identifier within one register class's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u16);

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A virtual-physical register identifier within one class.
///
/// Virtual-physical registers "are not related to any storage location but
/// they are merely tags that are used to keep track of register
/// dependences" (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VpReg(pub u16);

impl fmt::Display for VpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What a renamed source operand waits on (if anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcState {
    /// The value sits in a physical register; the operand is ready.
    Ready(PhysReg),
    /// Waiting for a physical register to be written (conventional
    /// scheme's wake-up tag).
    WaitPhys(PhysReg),
    /// Waiting for a virtual-physical tag to be bound to a physical
    /// register (VP scheme's wake-up broadcast, paper §3.2.2).
    WaitVp(VpReg),
}

impl SrcState {
    /// True when the operand can be read at issue.
    #[inline]
    pub fn is_ready(&self) -> bool {
        matches!(self, SrcState::Ready(_))
    }
}

/// A renamed source operand: its register class (for read-port accounting)
/// and its readiness state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamedSrc {
    /// Register file the operand is read from.
    pub class: RegClass,
    /// Wake-up state.
    pub state: SrcState,
}

/// The renamed destination of an in-flight instruction, including the
/// previous mappings (paper §3.2.2: the reorder buffer keeps the
/// destination logical register and the previous virtual-physical
/// mapping), which commit frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamedDest {
    /// The architectural destination.
    pub logical: LogicalReg,
    /// The virtual-physical tag allocated at rename (VP schemes only).
    pub vp: Option<VpReg>,
    /// The physical register: set at rename (conventional), issue
    /// (VP-issue) or completion (VP-writeback).
    pub preg: Option<PhysReg>,
    /// The previous VP mapping of `logical` (VP schemes), for commit-time
    /// freeing.
    pub prev_vp: Option<VpReg>,
    /// The previous physical mapping of `logical` (conventional scheme).
    pub prev_preg: Option<PhysReg>,
}

impl RenamedDest {
    /// The destination's register class.
    #[inline]
    pub fn class(&self) -> RegClass {
        self.logical.class()
    }
}

impl vpr_snap::Snap for PhysReg {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u16(self.0);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        PhysReg(dec.take_u16())
    }
}

impl vpr_snap::Snap for VpReg {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u16(self.0);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        VpReg(dec.take_u16())
    }
}

impl vpr_snap::Snap for SrcState {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        match self {
            SrcState::Ready(p) => {
                enc.put_u8(0);
                p.save(enc);
            }
            SrcState::WaitPhys(p) => {
                enc.put_u8(1);
                p.save(enc);
            }
            SrcState::WaitVp(v) => {
                enc.put_u8(2);
                v.save(enc);
            }
        }
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        match dec.take_u8() {
            0 => SrcState::Ready(PhysReg::load(dec)),
            1 => SrcState::WaitPhys(PhysReg::load(dec)),
            2 => SrcState::WaitVp(VpReg::load(dec)),
            other => panic!("snapshot SrcState tag {other}: layout mismatch"),
        }
    }
}

impl vpr_snap::Snap for RenamedSrc {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.class.save(enc);
        self.state.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            class: RegClass::load(dec),
            state: SrcState::load(dec),
        }
    }
}

impl vpr_snap::Snap for RenamedDest {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.logical.save(enc);
        self.vp.save(enc);
        self.preg.save(enc);
        self.prev_vp.save(enc);
        self.prev_preg.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            logical: LogicalReg::load(dec),
            vp: Option::<VpReg>::load(dec),
            preg: Option::<PhysReg>::load(dec),
            prev_vp: Option::<VpReg>::load(dec),
            prev_preg: Option::<PhysReg>::load(dec),
        }
    }
}
