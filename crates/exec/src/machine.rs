//! The functional emulator: executes an assembled [`Program`] with real
//! 64-bit register and memory values, producing one [`DynInst`] per
//! architecturally-executed instruction.
//!
//! The emulator is the *oracle* for the timing pipeline: it knows nothing
//! about cycles, renaming, or speculation — only architectural state. The
//! differential tests in `tests/exec_differential.rs` run the same program
//! through a pure [`Machine`] and through the full out-of-order pipeline
//! (via [`ExecStream`](crate::ExecStream)) and require bit-identical
//! [`ArchState`] at the end.

use crate::program::{Opcode, Program, STACK_TOP};
use std::collections::BTreeMap;
use std::sync::Arc;
use vpr_isa::{BranchInfo, DynInst, MemAccess};
use vpr_snap::{fnv1a, Decoder, Encoder, Snap};

/// Sparse byte-addressable memory, organised as 4 KiB pages in a
/// `BTreeMap` so iteration (checksums, snapshots) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMem {
    pages: BTreeMap<u64, Vec<u8>>,
}

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

impl SparseMem {
    /// Reads `N` little-endian bytes at `addr` (page crossings are fine;
    /// untouched memory reads as zero).
    pub fn read<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        for (i, byte) in out.iter_mut().enumerate() {
            let a = addr.wrapping_add(i as u64);
            if let Some(page) = self.pages.get(&(a >> PAGE_SHIFT)) {
                *byte = page[(a % PAGE_SIZE) as usize];
            }
        }
        out
    }

    /// Writes `bytes` at `addr`, allocating pages as needed.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            let page = self
                .pages
                .entry(a >> PAGE_SHIFT)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
            page[(a % PAGE_SIZE) as usize] = b;
        }
    }

    /// FNV-1a checksum over all touched pages in address order.
    ///
    /// Pages that were allocated but hold only zeros still contribute, so
    /// the checksum pins the access pattern as well as the values; it is
    /// deterministic because `BTreeMap` iterates in key order.
    pub fn checksum(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.pages.len() * (8 + PAGE_SIZE as usize));
        for (page_no, page) in &self.pages {
            bytes.extend_from_slice(&page_no.to_le_bytes());
            bytes.extend_from_slice(page);
        }
        fnv1a(&bytes)
    }
}

impl Snap for SparseMem {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.pages.len());
        for (page_no, page) in &self.pages {
            enc.put_u64(*page_no);
            page.save(enc);
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        let n = dec.take_usize();
        let mut pages = BTreeMap::new();
        for _ in 0..n {
            let page_no = dec.take_u64();
            let page: Vec<u8> = Snap::load(dec);
            assert_eq!(
                page.len(),
                PAGE_SIZE as usize,
                "corrupt SparseMem snapshot: bad page size"
            );
            pages.insert(page_no, page);
        }
        SparseMem { pages }
    }
}

/// The full architectural state of a [`Machine`], for equality checks in
/// differential tests and goldens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Integer register file (`x0` is always zero).
    pub x: [u64; 32],
    /// FP register file, as raw `f64` bit patterns.
    pub f: [u64; 32],
    /// Instructions executed since construction (cumulative across
    /// [`Machine::reset`]).
    pub executed: u64,
    /// [`SparseMem::checksum`] of memory.
    pub mem_checksum: u64,
}

/// The result of one [`Machine::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// An instruction executed; here is its trace record.
    Exec(DynInst),
    /// The machine has halted (explicit `halt` or control fell off the
    /// end of the text segment). Further steps keep returning this.
    Halted,
}

/// A functional emulator over an assembled [`Program`].
///
/// Execution is fully deterministic: same program ⇒ same instruction
/// stream, same final state. The machine panics only on wild control flow
/// (a computed jump outside the text segment), which a well-formed
/// program cannot produce; all assembler-visible errors are caught at
/// assembly time.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Arc<Program>,
    pc: u64,
    x: [u64; 32],
    f: [u64; 32],
    mem: SparseMem,
    executed: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine at the program entry with a fresh data image and
    /// `sp` = [`STACK_TOP`].
    pub fn new(program: Arc<Program>) -> Self {
        let mut m = Machine {
            program,
            pc: 0,
            x: [0; 32],
            f: [0; 32],
            mem: SparseMem::default(),
            executed: 0,
            halted: false,
        };
        m.reset();
        m
    }

    /// Rewinds to the entry point with fresh registers and memory.
    /// `executed` is *not* reset — it counts instructions across
    /// iterations, matching the stream's emitted count.
    pub fn reset(&mut self) {
        self.pc = self.program.entry;
        self.x = [0; 32];
        self.f = [0; 32];
        self.x[2] = STACK_TOP;
        self.mem = SparseMem::default();
        let data = self.program.data.clone();
        for (addr, bytes) in &data {
            self.mem.write(*addr, bytes);
        }
        self.halted = false;
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Whether the machine has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Instructions executed so far (cumulative across [`reset`](Self::reset)).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The pc the machine halted at: the `halt` instruction's own address,
    /// or the implicit-halt address one past the text segment. This is the
    /// address the last executed instruction's `next_pc` points to, so a
    /// wrap-around jump issued from here preserves stream continuity.
    pub fn halt_pc(&self) -> u64 {
        debug_assert!(self.halted, "halt_pc is only meaningful once halted");
        self.pc
    }

    /// Current architectural state (registers, pc, memory checksum).
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            pc: self.pc,
            x: self.x,
            f: self.f,
            executed: self.executed,
            mem_checksum: self.mem.checksum(),
        }
    }

    /// Read-only view of memory.
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Runs until halt, returning the number of instructions executed by
    /// this call. Pure-emulator runs in tests use this as the oracle.
    pub fn run_to_halt(&mut self) -> u64 {
        let start = self.executed;
        while let Step::Exec(_) = self.step() {}
        self.executed - start
    }

    fn set_x(&mut self, rd: u8, value: u64) {
        if rd != 0 {
            self.x[rd as usize] = value;
        }
    }

    /// Executes one instruction and returns its trace record, or
    /// [`Step::Halted`] if the machine is (or just became) halted.
    pub fn step(&mut self) -> Step {
        if self.halted {
            return Step::Halted;
        }
        if self.pc == self.program.text_end() {
            // Fell off the end of the text: implicit halt.
            self.halted = true;
            return Step::Halted;
        }
        let idx = self.program.inst_index(self.pc).unwrap_or_else(|| {
            panic!(
                "machine jumped outside the text segment: pc={:#x} (text ends at {:#x})",
                self.pc,
                self.program.text_end()
            )
        });
        let ai = self.program.insts[idx];
        let pc = self.pc;
        let mut next_pc = pc + 4;
        let mut dyn_inst = DynInst::new(pc, ai.tinst);

        let rs1 = self.x[ai.rs1 as usize];
        let rs2 = self.x[ai.rs2 as usize];
        let fs1 = f64::from_bits(self.f[ai.rs1 as usize]);
        let fs2 = f64::from_bits(self.f[ai.rs2 as usize]);

        match ai.op {
            Opcode::Add => self.set_x(ai.rd, rs1.wrapping_add(rs2)),
            Opcode::Sub => self.set_x(ai.rd, rs1.wrapping_sub(rs2)),
            Opcode::Mul => self.set_x(ai.rd, rs1.wrapping_mul(rs2)),
            Opcode::Div => {
                let v = if rs2 == 0 {
                    u64::MAX // RISC-V: division by zero yields -1.
                } else {
                    (rs1 as i64).wrapping_div(rs2 as i64) as u64
                };
                self.set_x(ai.rd, v);
            }
            Opcode::Rem => {
                let v = if rs2 == 0 {
                    rs1 // RISC-V: remainder by zero yields the dividend.
                } else {
                    (rs1 as i64).wrapping_rem(rs2 as i64) as u64
                };
                self.set_x(ai.rd, v);
            }
            Opcode::And => self.set_x(ai.rd, rs1 & rs2),
            Opcode::Or => self.set_x(ai.rd, rs1 | rs2),
            Opcode::Xor => self.set_x(ai.rd, rs1 ^ rs2),
            Opcode::Sll => self.set_x(ai.rd, rs1 << (rs2 & 63)),
            Opcode::Srl => self.set_x(ai.rd, rs1 >> (rs2 & 63)),
            Opcode::Sra => self.set_x(ai.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            Opcode::Slt => self.set_x(ai.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
            Opcode::Sltu => self.set_x(ai.rd, (rs1 < rs2) as u64),
            Opcode::Addi => self.set_x(ai.rd, rs1.wrapping_add(ai.imm as u64)),
            Opcode::Andi => self.set_x(ai.rd, rs1 & ai.imm as u64),
            Opcode::Ori => self.set_x(ai.rd, rs1 | ai.imm as u64),
            Opcode::Xori => self.set_x(ai.rd, rs1 ^ ai.imm as u64),
            Opcode::Slli => self.set_x(ai.rd, rs1 << (ai.imm & 63)),
            Opcode::Srli => self.set_x(ai.rd, rs1 >> (ai.imm & 63)),
            Opcode::Srai => self.set_x(ai.rd, ((rs1 as i64) >> (ai.imm & 63)) as u64),
            Opcode::Slti => self.set_x(ai.rd, ((rs1 as i64) < ai.imm) as u64),
            Opcode::Li => self.set_x(ai.rd, ai.imm as u64),
            Opcode::Ld => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                let v = u64::from_le_bytes(self.mem.read::<8>(addr));
                self.set_x(ai.rd, v);
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 8 });
            }
            Opcode::Lw => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                let v = i32::from_le_bytes(self.mem.read::<4>(addr)) as i64 as u64;
                self.set_x(ai.rd, v);
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 4 });
            }
            Opcode::Lb => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                let v = self.mem.read::<1>(addr)[0] as i8 as i64 as u64;
                self.set_x(ai.rd, v);
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 1 });
            }
            Opcode::Lbu => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                let v = self.mem.read::<1>(addr)[0] as u64;
                self.set_x(ai.rd, v);
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 1 });
            }
            Opcode::Fld => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                self.f[ai.rd as usize] = u64::from_le_bytes(self.mem.read::<8>(addr));
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 8 });
            }
            Opcode::Sd => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                self.mem.write(addr, &rs2.to_le_bytes());
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 8 });
            }
            Opcode::Sw => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                self.mem.write(addr, &(rs2 as u32).to_le_bytes());
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 4 });
            }
            Opcode::Sb => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                self.mem.write(addr, &[rs2 as u8]);
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 1 });
            }
            Opcode::Fsd => {
                let addr = rs1.wrapping_add(ai.imm as u64);
                let bits = self.f[ai.rs2 as usize];
                self.mem.write(addr, &bits.to_le_bytes());
                dyn_inst = dyn_inst.with_mem(MemAccess { addr, size: 8 });
            }
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::Bltu | Opcode::Bgeu => {
                let taken = match ai.op {
                    Opcode::Beq => rs1 == rs2,
                    Opcode::Bne => rs1 != rs2,
                    Opcode::Blt => (rs1 as i64) < (rs2 as i64),
                    Opcode::Bge => (rs1 as i64) >= (rs2 as i64),
                    Opcode::Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                if taken {
                    next_pc = ai.imm as u64;
                }
                dyn_inst = dyn_inst.with_branch(BranchInfo { taken, next_pc });
            }
            Opcode::J => {
                next_pc = ai.imm as u64;
                dyn_inst = dyn_inst.with_branch(BranchInfo {
                    taken: true,
                    next_pc,
                });
            }
            Opcode::Jr => {
                next_pc = rs1;
                dyn_inst = dyn_inst.with_branch(BranchInfo {
                    taken: true,
                    next_pc,
                });
            }
            Opcode::FaddD => self.f[ai.rd as usize] = (fs1 + fs2).to_bits(),
            Opcode::FsubD => self.f[ai.rd as usize] = (fs1 - fs2).to_bits(),
            Opcode::FmulD => self.f[ai.rd as usize] = (fs1 * fs2).to_bits(),
            Opcode::FdivD => self.f[ai.rd as usize] = (fs1 / fs2).to_bits(),
            Opcode::FsqrtD => self.f[ai.rd as usize] = fs1.sqrt().to_bits(),
            Opcode::FmvD => self.f[ai.rd as usize] = self.f[ai.rs1 as usize],
            Opcode::FcvtDL => self.f[ai.rd as usize] = ((rs1 as i64) as f64).to_bits(),
            Opcode::FcvtLD => self.set_x(ai.rd, (fs1 as i64) as u64),
            Opcode::FltD => self.set_x(ai.rd, (fs1 < fs2) as u64),
            Opcode::FleD => self.set_x(ai.rd, (fs1 <= fs2) as u64),
            Opcode::FeqD => self.set_x(ai.rd, (fs1 == fs2) as u64),
            Opcode::Nop => {}
            Opcode::Halt => {
                self.halted = true;
                return Step::Halted;
            }
        }

        self.pc = next_pc;
        self.executed += 1;
        Step::Exec(dyn_inst)
    }
}

impl Machine {
    /// Serialises the full machine state (pc, registers, memory,
    /// counters) plus the program fingerprint. The program itself is
    /// *not* serialised — restoring requires a machine built over the
    /// same program, which [`restore_from`](Self::restore_from) enforces.
    pub fn save_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.program.fingerprint);
        enc.put_u64(self.pc);
        self.x.save(enc);
        self.f.save(enc);
        self.mem.save(enc);
        enc.put_u64(self.executed);
        enc.put_bool(self.halted);
    }

    /// Restores state previously written by [`save_into`](Self::save_into),
    /// asserting the snapshot was taken over the same program
    /// (fingerprint match).
    pub fn restore_from(&mut self, dec: &mut Decoder<'_>) {
        let fp = dec.take_u64();
        assert_eq!(
            fp, self.program.fingerprint,
            "snapshot was taken over a different program"
        );
        self.pc = dec.take_u64();
        self.x = Snap::load(dec);
        self.f = Snap::load(dec);
        self.mem = Snap::load(dec);
        self.executed = dec.take_u64();
        self.halted = dec.take_bool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::program::{DATA_BASE, SCRATCH_BASE, TEXT_BASE};

    fn machine(src: &str) -> Machine {
        Machine::new(Arc::new(assemble(src).unwrap()))
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut m = machine("    li t0, 40\n    addi t0, t0, 2\n    halt\n");
        let n = m.run_to_halt();
        assert_eq!(n, 2); // halt itself is not an executed instruction
        assert!(m.halted());
        assert_eq!(m.arch_state().x[5], 42);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut m = machine("    li zero, 99\n    add x0, x0, x0\n    halt\n");
        m.run_to_halt();
        assert_eq!(m.arch_state().x[0], 0);
    }

    #[test]
    fn loads_and_stores_round_trip_with_real_addresses() {
        let mut m = machine(
            "    li t0, 0x20000\n    li t1, -7\n    sd t1, 8(t0)\n    ld t2, 8(t0)\n    lw t3, 8(t0)\n    lb t4, 8(t0)\n    lbu t5, 8(t0)\n    halt\n",
        );
        let mut mems = Vec::new();
        while let Step::Exec(di) = m.step() {
            if let Some(mem) = di.mem() {
                mems.push((mem.addr, mem.size));
            }
        }
        assert_eq!(
            mems,
            vec![
                (SCRATCH_BASE + 8, 8),
                (SCRATCH_BASE + 8, 8),
                (SCRATCH_BASE + 8, 4),
                (SCRATCH_BASE + 8, 1),
                (SCRATCH_BASE + 8, 1),
            ]
        );
        let s = m.arch_state();
        assert_eq!(s.x[7] as i64, -7); // ld
        assert_eq!(s.x[28] as i64, -7); // lw sign-extends
        assert_eq!(s.x[29] as i64, -7); // lb sign-extends
        assert_eq!(s.x[30], 0xf9); // lbu zero-extends
    }

    #[test]
    fn branch_records_taken_and_target() {
        let mut m = machine("    li t0, 1\n    bnez t0, over\n    li t1, 111\nover:\n    halt\n");
        let mut branches = Vec::new();
        while let Step::Exec(di) = m.step() {
            if let Some(b) = di.branch() {
                branches.push(b);
            }
        }
        assert_eq!(branches.len(), 1);
        assert!(branches[0].taken);
        assert_eq!(branches[0].next_pc, TEXT_BASE + 12);
        assert_eq!(m.arch_state().x[6], 0); // skipped
    }

    #[test]
    fn stream_continuity_next_pc_links_each_pair() {
        let mut m = machine(
            "    li t0, 3\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    li t1, 5\n    halt\n",
        );
        let mut prev: Option<DynInst> = None;
        while let Step::Exec(di) = m.step() {
            if let Some(p) = prev {
                assert_eq!(p.next_pc(), di.pc(), "stream continuity broken");
            }
            prev = Some(di);
        }
    }

    #[test]
    fn call_and_ret_nest() {
        let mut m = machine(
            "    li a0, 5\n    call double\n    mv s0, a0\n    halt\ndouble:\n    add a0, a0, a0\n    ret\n",
        );
        m.run_to_halt();
        assert_eq!(m.arch_state().x[8], 10);
    }

    #[test]
    fn fp_ops_and_conversions() {
        let mut m = machine(
            "    li t0, 9\n    fcvt.d.l f1, t0\n    fsqrt.d f2, f1\n    fcvt.l.d t1, f2\n    flt.d t2, f2, f1\n    halt\n",
        );
        m.run_to_halt();
        let s = m.arch_state();
        assert_eq!(f64::from_bits(s.f[2]), 3.0);
        assert_eq!(s.x[6], 3);
        assert_eq!(s.x[7], 1);
    }

    #[test]
    fn division_by_zero_follows_riscv_semantics() {
        let mut m = machine(
            "    li t0, 7\n    li t1, 0\n    div t2, t0, t1\n    rem t3, t0, t1\n    halt\n",
        );
        m.run_to_halt();
        let s = m.arch_state();
        assert_eq!(s.x[7], u64::MAX);
        assert_eq!(s.x[28], 7);
    }

    #[test]
    fn data_image_is_visible_and_reset_restores_it() {
        let mut m = machine(
            "    .data\nv: .dword 17\n    .text\n    la t0, v\n    ld t1, 0(t0)\n    addi t1, t1, 1\n    sd t1, 0(t0)\n    halt\n",
        );
        m.run_to_halt();
        assert_eq!(u64::from_le_bytes(m.mem().read::<8>(DATA_BASE)), 18);
        let executed = m.executed();
        m.reset();
        assert_eq!(
            u64::from_le_bytes(m.mem().read::<8>(DATA_BASE)),
            17,
            "reset must restore the pristine data image"
        );
        assert_eq!(m.executed(), executed, "executed is cumulative");
        assert!(!m.halted());
    }

    #[test]
    fn snapshot_restores_bit_identical_state() {
        let src = "    li t0, 10\nloop:\n    addi t0, t0, -1\n    slli t1, t0, 3\n    sd t0, 0(t1)\n    bnez t0, loop\n    halt\n";
        let mut m = machine(src);
        for _ in 0..7 {
            m.step();
        }
        let mut enc = Encoder::new();
        m.save_into(&mut enc);
        let bytes = enc.into_bytes();

        let mut m2 = machine(src);
        let mut dec = Decoder::new(&bytes);
        m2.restore_from(&mut dec);
        assert_eq!(m.arch_state(), m2.arch_state());
        // Both continue identically to halt.
        m.run_to_halt();
        m2.run_to_halt();
        assert_eq!(m.arch_state(), m2.arch_state());
    }

    #[test]
    #[should_panic(expected = "different program")]
    fn snapshot_rejects_wrong_program() {
        let m = machine("    li t0, 1\n    halt\n");
        let mut enc = Encoder::new();
        m.save_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut other = machine("    li t0, 2\n    halt\n");
        other.restore_from(&mut Decoder::new(&bytes));
    }

    #[test]
    fn fall_off_end_is_implicit_halt() {
        let mut m = machine("    li t0, 1\n");
        assert_eq!(m.run_to_halt(), 1);
        assert!(m.halted());
    }
}
