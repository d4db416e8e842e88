//! The fetch unit.

use crate::BranchHistoryTable;
use vpr_isa::{DynInst, InstStream, OpClass};

/// One instruction delivered by the fetch unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInst {
    /// The dynamic instruction.
    pub di: DynInst,
    /// For conditional branches, the predicted direction.
    pub predicted_taken: Option<bool>,
    /// True when the prediction was wrong: fetch has stopped behind this
    /// branch and the core must call [`FetchUnit::resolve_branch`] when it
    /// executes.
    pub mispredicted: bool,
}

/// Fetch-engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Instructions delivered.
    pub fetched: u64,
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Conditional branches whose predicted direction was wrong.
    pub mispredictions: u64,
    /// Fetch blocks ended early by a (predicted-)taken branch.
    pub taken_breaks: u64,
    /// Cycles in which fetch delivered nothing because it was waiting for
    /// a mispredicted branch to resolve.
    pub stall_cycles: u64,
}

/// Fetches up to `width` consecutive instructions per cycle from an
/// [`InstStream`], predicting conditional branches with a
/// [`BranchHistoryTable`].
///
/// ### Trace-driven misprediction handling
///
/// The stream contains only the committed path. When the predictor
/// disagrees with the recorded outcome of a conditional branch, fetch
/// stalls, as in the paper's trace-driven methodology: it delivers the
/// branch and then nothing until the core reports the branch resolved
/// ([`FetchUnit::resolve_branch`]); fetch resumes the following cycle
/// (one-cycle redirect, R10000-style checkpoint repair). No wrong-path
/// instruction ever enters the core.
///
/// A correctly-predicted taken branch simply ends the fetch block
/// (instructions must be consecutive; the target block starts next cycle).
#[derive(Debug)]
pub struct FetchUnit {
    width: usize,
    /// Lookahead slot: an instruction pulled from the stream but not yet
    /// delivered (e.g. fetch width exhausted).
    pending: Option<DynInst>,
    /// Set while a mispredicted branch is unresolved.
    wait_resolve: bool,
    /// Fetch may resume at this cycle (set by `resolve_branch`).
    resume_at: u64,
    end_of_stream: bool,
    stats: FetchStats,
}

impl FetchUnit {
    /// Creates a fetch unit delivering at most `width` instructions per
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "fetch width must be positive");
        Self {
            width,
            pending: None,
            wait_resolve: false,
            resume_at: 0,
            end_of_stream: false,
            stats: FetchStats::default(),
        }
    }

    /// Counters.
    #[inline]
    pub fn stats(&self) -> &FetchStats {
        &self.stats
    }

    /// True once the stream is exhausted and all buffered instructions have
    /// been delivered.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.end_of_stream && self.pending.is_none()
    }

    /// True while fetch is blocked behind an unresolved mispredicted
    /// branch.
    #[inline]
    pub fn is_diverted(&self) -> bool {
        self.wait_resolve
    }

    /// The first cycle at which fetch may deliver again after the most
    /// recent [`FetchUnit::resolve_branch`] (0 when never redirected).
    /// Exposed for the core's idle-cycle fast-forwarding: a quiescent
    /// machine must not be skipped past the redirect point.
    #[inline]
    pub fn resume_at(&self) -> u64 {
        self.resume_at
    }

    /// The earliest cycle at or after `now` at which this unit can
    /// deliver instructions on its own — the fetch unit's half of the
    /// core's `next_activity()` governor contract (see `docs/kernel.md`):
    /// the returned cycle is never later than the true next cycle fetch
    /// would do anything, and `None` means fetch generates no activity
    /// until some *external* event changes its state (end of stream, or a
    /// stalled mispredicted branch that only
    /// [`FetchUnit::resolve_branch`] can release).
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        if self.is_done() || self.wait_resolve {
            return None;
        }
        Some(self.resume_at.max(now))
    }

    /// Accounts `n` cycles of fetch stall without calling
    /// [`FetchUnit::fetch_block`]. The core's idle-cycle fast-forwarding
    /// uses this to keep [`FetchStats::stall_cycles`] bit-identical when
    /// it skips cycles in which fetch would have stalled (unresolved
    /// mispredicted branch, or pre-`resume_at` redirect shadow).
    pub fn add_stall_cycles(&mut self, n: u64) {
        self.stats.stall_cycles += n;
    }

    /// The core reports that the oldest mispredicted branch resolved at
    /// `now`; fetch resumes on the correct path at `now + 1`.
    pub fn resolve_branch(&mut self, now: u64) {
        debug_assert!(self.wait_resolve, "no unresolved branch outstanding");
        self.wait_resolve = false;
        self.resume_at = now + 1;
    }

    /// Fetches one block of at most `limit` instructions at cycle `now`
    /// (`limit` allows the core to model a partially full decode buffer;
    /// it is clamped to the configured width).
    pub fn fetch_block<S: InstStream>(
        &mut self,
        now: u64,
        stream: &mut S,
        bht: &BranchHistoryTable,
        limit: usize,
    ) -> Vec<FetchedInst> {
        let mut block = Vec::with_capacity(limit.min(self.width));
        self.fetch_block_into(now, stream, bht, limit, &mut |fi| block.push(fi));
        block
    }

    /// Allocation-free variant of [`FetchUnit::fetch_block`]: delivers each
    /// fetched instruction through `sink` (the core appends straight into
    /// its decode buffer, so the per-cycle block `Vec` disappears from the
    /// hot loop — and the sink is generic, so the per-instruction call
    /// inlines instead of going through a vtable).
    pub fn fetch_block_into<S: InstStream>(
        &mut self,
        now: u64,
        stream: &mut S,
        bht: &BranchHistoryTable,
        limit: usize,
        sink: &mut impl FnMut(FetchedInst),
    ) {
        let limit = limit.min(self.width);
        if limit == 0 {
            return;
        }
        if self.wait_resolve || now < self.resume_at {
            self.stats.stall_cycles += 1;
            return;
        }
        let mut delivered = 0;
        while delivered < limit {
            let Some(di) = self.pending.take().or_else(|| stream.next_inst()) else {
                self.end_of_stream = true;
                break;
            };
            let mut fetched = FetchedInst {
                di,
                predicted_taken: None,
                mispredicted: false,
            };
            let mut end_block = false;
            match di.op() {
                OpClass::BranchCond => {
                    let outcome = di
                        .branch()
                        .expect("trace must record conditional branch outcomes");
                    let predicted = bht.predict(di.pc());
                    fetched.predicted_taken = Some(predicted);
                    self.stats.cond_branches += 1;
                    if predicted != outcome.taken {
                        fetched.mispredicted = true;
                        self.stats.mispredictions += 1;
                        self.wait_resolve = true;
                        end_block = true;
                    } else if outcome.taken {
                        self.stats.taken_breaks += 1;
                        end_block = true;
                    }
                }
                OpClass::BranchUncond => {
                    // Direction is trivially known; a perfect BTB supplies
                    // the target, so the only effect is ending the block.
                    self.stats.taken_breaks += 1;
                    end_block = true;
                }
                _ => {}
            }
            self.stats.fetched += 1;
            sink(fetched);
            delivered += 1;
            if end_block {
                break;
            }
        }
    }
}

impl vpr_snap::Snap for FetchedInst {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        self.di.save(enc);
        self.predicted_taken.save(enc);
        enc.put_bool(self.mispredicted);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            di: DynInst::load(dec),
            predicted_taken: Option::<bool>::load(dec),
            mispredicted: dec.take_bool(),
        }
    }
}

impl vpr_snap::Snap for FetchStats {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.fetched);
        enc.put_u64(self.cond_branches);
        enc.put_u64(self.mispredictions);
        enc.put_u64(self.taken_breaks);
        enc.put_u64(self.stall_cycles);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            fetched: dec.take_u64(),
            cond_branches: dec.take_u64(),
            mispredictions: dec.take_u64(),
            taken_breaks: dec.take_u64(),
            stall_cycles: dec.take_u64(),
        }
    }
}

impl vpr_snap::Snap for FetchUnit {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_usize(self.width);
        self.pending.save(enc);
        enc.put_bool(self.wait_resolve);
        enc.put_u64(self.resume_at);
        enc.put_bool(self.end_of_stream);
        self.stats.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            width: dec.take_usize(),
            pending: Option::<DynInst>::load(dec),
            wait_resolve: dec.take_bool(),
            resume_at: dec.take_u64(),
            end_of_stream: dec.take_bool(),
            stats: FetchStats::load(dec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_isa::{BranchInfo, Inst, LogicalReg};

    fn alu(pc: u64) -> DynInst {
        DynInst::new(
            pc,
            Inst::new(OpClass::IntAlu)
                .with_dest(LogicalReg::int(1))
                .with_src1(LogicalReg::int(2)),
        )
    }

    fn branch(pc: u64, taken: bool) -> DynInst {
        DynInst::new(pc, Inst::new(OpClass::BranchCond)).with_branch(BranchInfo {
            taken,
            next_pc: if taken { pc + 0x100 } else { pc + 4 },
        })
    }

    fn straight_line(n: usize) -> Vec<DynInst> {
        (0..n).map(|i| alu(0x1000 + 4 * i as u64)).collect()
    }

    #[test]
    fn fetches_up_to_width() {
        let mut fu = FetchUnit::new(8);
        let bht = BranchHistoryTable::default();
        let mut stream = straight_line(20).into_iter();
        let b = fu.fetch_block(0, &mut stream, &bht, 8);
        assert_eq!(b.len(), 8);
        let b = fu.fetch_block(1, &mut stream, &bht, 8);
        assert_eq!(b.len(), 8);
        let b = fu.fetch_block(2, &mut stream, &bht, 8);
        assert_eq!(b.len(), 4, "stream exhausted mid-block");
        assert!(fu.is_done());
    }

    #[test]
    fn limit_clamps_block_size() {
        let mut fu = FetchUnit::new(8);
        let bht = BranchHistoryTable::default();
        let mut stream = straight_line(20).into_iter();
        let b = fu.fetch_block(0, &mut stream, &bht, 3);
        assert_eq!(b.len(), 3);
        let b = fu.fetch_block(0, &mut stream, &bht, 100);
        assert_eq!(b.len(), 8, "clamped to fetch width");
    }

    #[test]
    fn correctly_predicted_taken_branch_ends_block() {
        let mut fu = FetchUnit::new(8);
        let mut bht = BranchHistoryTable::default();
        // Train the predictor to taken for this PC.
        bht.update(0x2000, true);
        bht.update(0x2000, true);
        let insts = vec![alu(0x1ff8), alu(0x1ffc), branch(0x2000, true), alu(0x2100)];
        let mut stream = insts.into_iter();
        let b = fu.fetch_block(0, &mut stream, &bht, 8);
        assert_eq!(b.len(), 3, "block ends at the taken branch");
        assert!(!b[2].mispredicted);
        assert_eq!(fu.stats().taken_breaks, 1);
        // Target block next cycle.
        let b = fu.fetch_block(1, &mut stream, &bht, 8);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn misprediction_stalls_until_resolved() {
        let mut fu = FetchUnit::new(8);
        let bht = BranchHistoryTable::default(); // predicts not-taken
        let insts = vec![branch(0x2000, true), alu(0x2100), alu(0x2104)];
        let mut stream = insts.into_iter();
        let b = fu.fetch_block(0, &mut stream, &bht, 8);
        assert_eq!(b.len(), 1);
        assert!(b[0].mispredicted);
        assert!(fu.is_diverted());
        // Stalled while unresolved.
        assert!(fu.fetch_block(1, &mut stream, &bht, 8).is_empty());
        assert!(fu.fetch_block(2, &mut stream, &bht, 8).is_empty());
        assert_eq!(fu.stats().stall_cycles, 2);
        // Resolve at cycle 5: fetch resumes at 6.
        fu.resolve_branch(5);
        assert!(fu.fetch_block(5, &mut stream, &bht, 8).is_empty());
        let b = fu.fetch_block(6, &mut stream, &bht, 8);
        assert_eq!(b.len(), 2);
        assert_eq!(fu.stats().mispredictions, 1);
    }

    #[test]
    fn unconditional_branch_breaks_block_without_prediction() {
        let mut fu = FetchUnit::new(8);
        let bht = BranchHistoryTable::default();
        let j = DynInst::new(0x3000, Inst::new(OpClass::BranchUncond)).with_branch(BranchInfo {
            taken: true,
            next_pc: 0x4000,
        });
        let insts = vec![alu(0x2ffc), j, alu(0x4000)];
        let mut stream = insts.into_iter();
        let b = fu.fetch_block(0, &mut stream, &bht, 8);
        assert_eq!(b.len(), 2);
        assert_eq!(b[1].predicted_taken, None);
        assert!(!b[1].mispredicted);
        assert_eq!(fu.stats().cond_branches, 0);
    }

    #[test]
    fn next_activity_lower_bound() {
        // Live stream, nothing pending: active now.
        let mut fu = FetchUnit::new(8);
        let bht = BranchHistoryTable::default();
        assert_eq!(fu.next_activity(5), Some(5));

        // Stalled behind an unresolved mispredicted branch: no
        // self-generated activity (only resolve_branch releases it).
        let mut stream = vec![branch(0x2000, true), alu(0x2100)].into_iter();
        let b = fu.fetch_block(0, &mut stream, &bht, 8);
        assert!(b[0].mispredicted);
        assert_eq!(fu.next_activity(1), None);

        // Redirect shadow: bounded by resume_at, and fetch really does
        // deliver nothing before it.
        fu.resolve_branch(5);
        assert_eq!(fu.next_activity(3), Some(6));
        assert!(fu.fetch_block(5, &mut stream, &bht, 8).is_empty());
        assert_eq!(fu.fetch_block(6, &mut stream, &bht, 8).len(), 1);

        // Drained: never active again.
        assert!(fu.fetch_block(7, &mut stream, &bht, 8).is_empty());
        assert!(fu.is_done());
        assert_eq!(fu.next_activity(8), None);
    }

    #[test]
    fn pending_lookahead_not_lost_across_blocks() {
        let mut fu = FetchUnit::new(2);
        let bht = BranchHistoryTable::default();
        let mut stream = straight_line(5).into_iter();
        let mut total = 0;
        for t in 0..5 {
            total += fu.fetch_block(t, &mut stream, &bht, 2).len();
        }
        assert_eq!(total, 5);
    }
}
