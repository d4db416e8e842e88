//! The program executor: turns a static [`Program`] into an infinite
//! dynamic instruction stream.

use crate::program::{Program, StreamKind, SynthOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpr_isa::{BranchInfo, DynInst, Inst, MemAccess, OpClass};

/// Per-activation dynamic stream state.
#[derive(Debug, Clone)]
struct StreamState {
    cursor: u64,
}

/// An infinite, deterministic dynamic-instruction generator.
///
/// The generator walks the program loop by loop: a loop is selected by
/// weight, runs a geometrically-distributed number of trips, then control
/// transfers (via an explicit unconditional jump in the stream) to the
/// next loop. Inside a trip, body slots execute in order; data-dependent
/// branches may skip ahead. Loads and stores draw addresses from their
/// stream's cursor.
///
/// Implements [`Iterator`] (and therefore
/// [`InstStream`](vpr_isa::InstStream)) over [`DynInst`].
#[derive(Debug, Clone)]
pub struct TraceGen {
    program: Program,
    rng: StdRng,
    /// Index of the active loop.
    cur: usize,
    /// Remaining trips of the active loop (including the current one).
    trips_left: u64,
    /// Next body slot to execute.
    slot: usize,
    /// Per-loop, per-stream cursors (persist across activations so strided
    /// streams keep walking their arrays).
    streams: Vec<Vec<StreamState>>,
    /// Pending control transfer to emit after a loop exit.
    pending_jump: Option<(u64, u64)>,
    emitted: u64,
}

impl TraceGen {
    /// Creates a generator over `program` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the program is invalid (see [`Program::validate`]).
    pub fn new(program: Program, seed: u64) -> Self {
        program.validate();
        let streams = program
            .loops
            .iter()
            .map(|l| {
                l.streams
                    .iter()
                    .map(|s| StreamState { cursor: s.base })
                    .collect()
            })
            .collect();
        let mut gen = Self {
            rng: StdRng::seed_from_u64(seed),
            cur: 0,
            trips_left: 0,
            slot: 0,
            streams,
            pending_jump: None,
            emitted: 0,
            program,
        };
        gen.enter_next_loop();
        gen
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Index of the loop the generator is currently executing — the
    /// workload's *phase label*. The sampling harness stratifies interval
    /// estimates by it (SimPoint-style: per-phase behaviour is
    /// near-stationary even when the whole stream is not).
    pub fn current_loop(&self) -> usize {
        self.cur
    }

    /// Number of loops (phases) in the underlying program.
    pub fn loop_count(&self) -> usize {
        self.program.loops.len()
    }

    /// Fast-forwards the generator by `n` instructions without yielding
    /// them — a cheap positioning primitive (generation is a few
    /// nanoseconds per instruction; no simulation state is touched). After `fast_forward(n)`, the next instruction is
    /// exactly the one a peer generator would produce after `n` calls to
    /// `next`. (Named to avoid colliding with the by-value
    /// [`Iterator::skip`] adapter, which would win method resolution.)
    pub fn fast_forward(&mut self, n: u64) {
        for _ in 0..n {
            let _ = self.next();
        }
    }

    fn enter_next_loop(&mut self) {
        // Weighted choice.
        let total: f64 = self.program.weights.iter().sum();
        let mut draw = self.rng.gen_range(0.0..total);
        let mut chosen = 0;
        for (i, w) in self.program.weights.iter().enumerate() {
            if draw < *w {
                chosen = i;
                break;
            }
            draw -= *w;
        }
        self.cur = chosen;
        self.slot = 0;
        let mean = self.program.loops[chosen].mean_trips;
        self.trips_left = self.sample_geometric(mean);
    }

    /// Geometric sample with the given mean, at least 1.
    fn sample_geometric(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let mut n = 1;
        while self.rng.gen_range(0.0..1.0) >= p && n < 1_000_000 {
            n += 1;
        }
        n
    }

    fn next_address(&mut self, stream_idx: usize) -> u64 {
        let spec = self.program.loops[self.cur].streams[stream_idx];
        let state = &mut self.streams[self.cur][stream_idx];
        match spec.kind {
            StreamKind::Strided { stride } => {
                let addr = state.cursor;
                let next = state.cursor + stride;
                state.cursor = if next >= spec.base + spec.working_set {
                    spec.base
                } else {
                    next
                };
                addr
            }
            StreamKind::Random => {
                let slots = (spec.working_set / 8).max(1);
                spec.base + 8 * self.rng.gen_range(0..slots)
            }
        }
    }

    fn emit(&mut self, di: DynInst) -> DynInst {
        self.emitted += 1;
        di
    }
}

impl vpr_snap::Resumable for TraceGen {
    /// Saves the dynamic position only: RNG state, active loop, trip/slot
    /// cursors, per-stream address cursors, the pending inter-loop jump
    /// and the emitted count. The static [`Program`] is *not* serialised —
    /// restore happens into a generator freshly built over the same
    /// program (same benchmark model, any seed).
    fn save_state(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.rng.state()[0]);
        enc.put_u64(self.rng.state()[1]);
        enc.put_u64(self.rng.state()[2]);
        enc.put_u64(self.rng.state()[3]);
        enc.put_usize(self.cur);
        enc.put_u64(self.trips_left);
        enc.put_usize(self.slot);
        enc.put_usize(self.streams.len());
        for per_loop in &self.streams {
            enc.put_usize(per_loop.len());
            for s in per_loop {
                enc.put_u64(s.cursor);
            }
        }
        match self.pending_jump {
            None => enc.put_u8(0),
            Some((pc, target)) => {
                enc.put_u8(1);
                enc.put_u64(pc);
                enc.put_u64(target);
            }
        }
        enc.put_u64(self.emitted);
    }

    /// # Panics
    ///
    /// Panics if the stream-cursor shape does not match this generator's
    /// program — the snapshot was taken over a different workload.
    fn restore_state(&mut self, dec: &mut vpr_snap::Decoder<'_>) {
        let s = [
            dec.take_u64(),
            dec.take_u64(),
            dec.take_u64(),
            dec.take_u64(),
        ];
        self.rng = StdRng::from_state(s);
        self.cur = dec.take_usize();
        self.trips_left = dec.take_u64();
        self.slot = dec.take_usize();
        let loops = dec.take_usize();
        assert_eq!(
            loops,
            self.streams.len(),
            "snapshot was taken over a different program (loop count)"
        );
        for per_loop in &mut self.streams {
            let n = dec.take_usize();
            assert_eq!(
                n,
                per_loop.len(),
                "snapshot was taken over a different program (stream count)"
            );
            for st in per_loop {
                st.cursor = dec.take_u64();
            }
        }
        self.pending_jump = match dec.take_u8() {
            0 => None,
            1 => Some((dec.take_u64(), dec.take_u64())),
            other => panic!("snapshot pending_jump flag {other}: layout mismatch"),
        };
        self.emitted = dec.take_u64();
        assert!(
            self.cur < self.program.loops.len(),
            "snapshot was taken over a different program (loop index)"
        );
    }
}

impl Iterator for TraceGen {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        // A pending inter-loop jump goes out first.
        if let Some((pc, target)) = self.pending_jump.take() {
            let di = DynInst::new(pc, Inst::new(OpClass::BranchUncond)).with_branch(BranchInfo {
                taken: true,
                next_pc: target,
            });
            return Some(self.emit(di));
        }
        let spec = &self.program.loops[self.cur];
        // End of body: the back-edge branch decides.
        if self.slot >= spec.body.len() {
            let pc = spec.backedge_pc();
            let taken = self.trips_left > 1;
            let next_pc = if taken { spec.base_pc } else { pc + 4 };
            let di = DynInst::new(pc, Inst::new(OpClass::BranchCond))
                .with_branch(BranchInfo { taken, next_pc });
            if taken {
                self.trips_left -= 1;
                self.slot = 0;
            } else {
                // Exit: queue the jump to the next loop.
                let exit_pc = spec.exit_pc();
                self.enter_next_loop();
                let target = self.program.loops[self.cur].base_pc;
                self.pending_jump = Some((exit_pc, target));
            }
            return Some(self.emit(di));
        }
        let pc = spec.base_pc + 4 * self.slot as u64;
        let op = spec.body[self.slot].clone();
        self.slot += 1;
        let di = match op {
            SynthOp::Op(inst) => DynInst::new(pc, inst),
            SynthOp::Load { inst, stream } => {
                let addr = self.next_address(stream);
                DynInst::new(pc, inst).with_mem(MemAccess::word(addr))
            }
            SynthOp::Store { inst, stream } => {
                let addr = self.next_address(stream);
                DynInst::new(pc, inst).with_mem(MemAccess::word(addr))
            }
            SynthOp::CondBranch {
                taken_prob,
                skip,
                src,
            } => {
                let taken = self.rng.gen_range(0.0..1.0) < taken_prob;
                let next_pc = if taken {
                    self.slot += skip;
                    pc + 4 * (1 + skip as u64)
                } else {
                    pc + 4
                };
                let mut inst = Inst::new(OpClass::BranchCond);
                if let Some(r) = src {
                    inst = inst.with_src1(vpr_isa::LogicalReg::int(r));
                }
                DynInst::new(pc, inst).with_branch(BranchInfo { taken, next_pc })
            }
        };
        Some(self.emit(di))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LoopSpec, StreamSpec};
    use vpr_isa::LogicalReg;

    fn tiny_program() -> Program {
        Program {
            loops: vec![LoopSpec {
                base_pc: 0x1000,
                body: vec![
                    SynthOp::Load {
                        inst: Inst::new(OpClass::Load)
                            .with_dest(LogicalReg::int(1))
                            .with_src1(LogicalReg::int(30)),
                        stream: 0,
                    },
                    SynthOp::Op(
                        Inst::new(OpClass::IntAlu)
                            .with_dest(LogicalReg::int(2))
                            .with_src1(LogicalReg::int(1)),
                    ),
                    SynthOp::Store {
                        inst: Inst::new(OpClass::Store)
                            .with_src1(LogicalReg::int(2))
                            .with_src2(LogicalReg::int(30)),
                        stream: 1,
                    },
                ],
                streams: vec![
                    StreamSpec::strided(0x10000, 256, 8),
                    StreamSpec::strided(0x20000, 256, 8),
                ],
                mean_trips: 10.0,
            }],
            weights: vec![1.0],
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<DynInst> = TraceGen::new(tiny_program(), 7).take(500).collect();
        let b: Vec<DynInst> = TraceGen::new(tiny_program(), 7).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<DynInst> = TraceGen::new(tiny_program(), 8).take(500).collect();
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn loop_structure_has_backedges_and_exits() {
        let insts: Vec<DynInst> = TraceGen::new(tiny_program(), 1).take(2000).collect();
        let backedges = insts
            .iter()
            .filter(|d| d.pc() == 0x1000 + 12 && d.op() == OpClass::BranchCond)
            .count();
        assert!(backedges > 100, "back-edge runs every trip");
        let exits = insts
            .iter()
            .filter(|d| d.pc() == 0x1000 + 12)
            .filter(|d| !d.branch().unwrap().taken)
            .count();
        assert!(exits > 0, "loops eventually exit");
        // Every exit is followed (in the stream) by the uncond jump.
        let jumps = insts
            .iter()
            .filter(|d| d.op() == OpClass::BranchUncond)
            .count();
        assert!(jumps >= exits.saturating_sub(1));
    }

    #[test]
    fn strided_stream_walks_and_wraps() {
        let insts: Vec<DynInst> = TraceGen::new(tiny_program(), 1).take(400).collect();
        let load_addrs: Vec<u64> = insts
            .iter()
            .filter(|d| d.op() == OpClass::Load)
            .map(|d| d.mem().unwrap().addr)
            .collect();
        assert!(load_addrs.len() > 50);
        // All within the stream region.
        assert!(load_addrs.iter().all(|a| (0x10000..0x10100).contains(a)));
        // Mostly +8 strides.
        let strided = load_addrs
            .windows(2)
            .filter(|w| w[1] == w[0] + 8 || w[1] == 0x10000)
            .count();
        assert_eq!(strided, load_addrs.len() - 1);
    }

    #[test]
    fn branch_outcomes_follow_next_pc() {
        let insts: Vec<DynInst> = TraceGen::new(tiny_program(), 3).take(3000).collect();
        for w in insts.windows(2) {
            assert_eq!(
                w[0].next_pc(),
                w[1].pc(),
                "the stream is the committed path: {} then {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn cond_branch_skip_jumps_over_slots() {
        let program = Program {
            loops: vec![LoopSpec {
                base_pc: 0,
                body: vec![
                    SynthOp::CondBranch {
                        taken_prob: 0.5,
                        skip: 1,
                        src: None,
                    },
                    SynthOp::Op(
                        Inst::new(OpClass::IntAlu)
                            .with_dest(LogicalReg::int(1))
                            .with_src1(LogicalReg::int(1)),
                    ),
                    SynthOp::Op(
                        Inst::new(OpClass::IntAlu)
                            .with_dest(LogicalReg::int(2))
                            .with_src1(LogicalReg::int(2)),
                    ),
                ],
                streams: vec![],
                mean_trips: 50.0,
            }],
            weights: vec![1.0],
        };
        let insts: Vec<DynInst> = TraceGen::new(program, 11).take(5000).collect();
        // The skipped slot (pc 4) appears strictly less often than the
        // always-executed one (pc 8).
        let at4 = insts.iter().filter(|d| d.pc() == 4).count();
        let at8 = insts.iter().filter(|d| d.pc() == 8).count();
        assert!(at4 < at8, "taken branches skip pc 4: {at4} vs {at8}");
        for w in insts.windows(2) {
            assert_eq!(w[0].next_pc(), w[1].pc());
        }
    }

    #[test]
    fn geometric_trips_have_roughly_the_right_mean() {
        let mut g = TraceGen::new(tiny_program(), 5);
        let samples: Vec<u64> = (0..2000).map(|_| g.sample_geometric(10.0)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((8.0..12.0).contains(&mean), "mean {mean} should be ≈10");
        assert!(samples.iter().all(|&s| s >= 1));
    }
}
