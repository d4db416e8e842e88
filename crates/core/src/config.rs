//! Simulator configuration.

use vpr_isa::{FuKind, OpClass, NUM_LOGICAL_PER_CLASS};
use vpr_mem::CacheConfig;

/// Which register renaming scheme the core uses.
///
/// This is the experimental variable of the paper: the conventional
/// R10000-style scheme allocates a physical register at decode; the two
/// virtual-physical variants delay allocation to the issue or the
/// write-back stage, tracking dependences through storage-free
/// virtual-physical tags in the meantime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenameScheme {
    /// Allocate the destination physical register at decode (baseline,
    /// paper §2: MIPS R10000 / DEC 21264 style map table + free list).
    Conventional,
    /// Decode-time allocation plus counter-based **early release** — the
    /// complementary technique the paper cites as eliminating its "second
    /// source of register waste" (§3.1, refs \[8\]/\[10\]): a register frees
    /// as soon as it is superseded, fully read, and its producer has
    /// committed, instead of waiting for the next writer's commit (see
    /// [`rename::EarlyReleaseRenamer`](crate::rename::EarlyReleaseRenamer)).
    ConventionalEarlyRelease,
    /// Virtual-physical registers, physical allocation at **issue**
    /// (paper §3.4). An instruction with a destination may only issue if
    /// the NRR rule grants it a register; no re-executions occur.
    VirtualPhysicalIssue {
        /// Number of reserved registers per class (paper §3.3), in
        /// `1..=physical_regs - 32`.
        nrr: usize,
    },
    /// Virtual-physical registers, physical allocation at **write-back**
    /// (paper §3.2, the headline scheme). A completing instruction denied
    /// a register by the NRR rule is squashed and re-executed.
    VirtualPhysicalWriteback {
        /// Number of reserved registers per class (paper §3.3), in
        /// `1..=physical_regs - 32`.
        nrr: usize,
    },
}

impl RenameScheme {
    /// The NRR parameter, if the scheme has one.
    pub fn nrr(&self) -> Option<usize> {
        match *self {
            RenameScheme::Conventional | RenameScheme::ConventionalEarlyRelease => None,
            RenameScheme::VirtualPhysicalIssue { nrr }
            | RenameScheme::VirtualPhysicalWriteback { nrr } => Some(nrr),
        }
    }

    /// True for either virtual-physical variant.
    pub fn is_virtual_physical(&self) -> bool {
        matches!(
            self,
            RenameScheme::VirtualPhysicalIssue { .. }
                | RenameScheme::VirtualPhysicalWriteback { .. }
        )
    }
}

/// Execution latencies in cycles (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Simple integer ALU ops and branch resolution.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide (unpipelined).
    pub int_div: u64,
    /// Effective-address computation for loads/stores.
    pub eff_addr: u64,
    /// Simple FP (add/sub/convert).
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide (unpipelined).
    pub fp_div: u64,
    /// FP square root (unpipelined).
    pub fp_sqrt: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            int_alu: 1,
            int_mul: 9,
            int_div: 67,
            eff_addr: 1,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 16,
            fp_sqrt: 16,
        }
    }
}

impl Latencies {
    /// The execution latency of an operation class.
    ///
    /// Loads return the effective-address latency only: the cache access
    /// that follows is modelled by the memory system. [`OpClass::Nop`] has
    /// latency zero (it never issues).
    pub fn of(&self, op: OpClass) -> u64 {
        match op {
            OpClass::Nop => 0,
            OpClass::IntAlu | OpClass::BranchCond | OpClass::BranchUncond => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::IntDiv => self.int_div,
            OpClass::Load | OpClass::Store => self.eff_addr,
            OpClass::FpAdd => self.fp_add,
            OpClass::FpMul => self.fp_mul,
            OpClass::FpDiv => self.fp_div,
            OpClass::FpSqrt => self.fp_sqrt,
        }
    }
}

impl vpr_snap::Snap for RenameScheme {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        match *self {
            RenameScheme::Conventional => enc.put_u8(0),
            RenameScheme::ConventionalEarlyRelease => enc.put_u8(1),
            RenameScheme::VirtualPhysicalIssue { nrr } => {
                enc.put_u8(2);
                enc.put_usize(nrr);
            }
            RenameScheme::VirtualPhysicalWriteback { nrr } => {
                enc.put_u8(3);
                enc.put_usize(nrr);
            }
        }
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        match dec.take_u8() {
            0 => RenameScheme::Conventional,
            1 => RenameScheme::ConventionalEarlyRelease,
            2 => RenameScheme::VirtualPhysicalIssue {
                nrr: dec.take_usize(),
            },
            3 => RenameScheme::VirtualPhysicalWriteback {
                nrr: dec.take_usize(),
            },
            other => panic!("snapshot RenameScheme tag {other}: layout mismatch"),
        }
    }
}

impl vpr_snap::Snap for Latencies {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.int_alu);
        enc.put_u64(self.int_mul);
        enc.put_u64(self.int_div);
        enc.put_u64(self.eff_addr);
        enc.put_u64(self.fp_add);
        enc.put_u64(self.fp_mul);
        enc.put_u64(self.fp_div);
        enc.put_u64(self.fp_sqrt);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            int_alu: dec.take_u64(),
            int_mul: dec.take_u64(),
            int_div: dec.take_u64(),
            eff_addr: dec.take_u64(),
            fp_add: dec.take_u64(),
            fp_mul: dec.take_u64(),
            fp_div: dec.take_u64(),
            fp_sqrt: dec.take_u64(),
        }
    }
}

/// Full machine configuration. Build one with [`SimConfig::builder`].
///
/// Defaults reproduce the paper's machine (§4.1): 8-wide fetch/commit,
/// 128-entry reorder buffer, 64 physical registers per file, 2048-entry
/// BHT, a 16 KB lockup-free L1 and the virtual-physical write-back scheme
/// with the maximum NRR (32).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Instructions fetched per cycle (consecutive; paper: 8).
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle (paper: 8).
    pub rename_width: usize,
    /// Maximum instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle (paper: 8).
    pub commit_width: usize,
    /// Reorder buffer entries — the instruction window (paper: 128).
    pub rob_size: usize,
    /// Instruction queue entries.
    pub iq_size: usize,
    /// Load/store queue entries (memory disambiguation window).
    pub lsq_size: usize,
    /// Post-commit store buffer entries.
    pub store_buffer_size: usize,
    /// Physical registers in *each* file (paper sweeps 48, 64, 96).
    pub physical_regs: usize,
    /// Read ports per register file (paper: 16).
    pub regfile_read_ports: u32,
    /// Write ports per register file (paper: 8).
    pub regfile_write_ports: u32,
    /// The renaming scheme under test.
    pub scheme: RenameScheme,
    /// Branch-history-table entries (paper: 2048).
    pub bht_entries: usize,
    /// Data-cache geometry and timing.
    pub cache: CacheConfig,
    /// Functional-unit count per [`FuKind`] (indexed by `FuKind::index()`).
    pub fu_counts: [usize; 6],
    /// Execution latencies.
    pub latencies: Latencies,
    /// Model the possible one-cycle commit delay of the virtual-physical
    /// scheme caused by the PMT look-up (paper §3.2.2; off by default).
    pub vp_commit_delay: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            fetch_width: 8,
            rename_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_size: 128,
            iq_size: 128,
            lsq_size: 128,
            store_buffer_size: 16,
            physical_regs: 64,
            regfile_read_ports: 16,
            regfile_write_ports: 8,
            scheme: RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            bht_entries: 2048,
            cache: CacheConfig::default(),
            // SimpleInt, ComplexInt, EffAddr, SimpleFp, FpMul, FpDiv
            fu_counts: [3, 2, 3, 3, 2, 2],
            latencies: Latencies::default(),
            vp_commit_delay: false,
        }
    }
}

impl SimConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// Number of virtual-physical tags per class: logical registers plus
    /// the window size, which guarantees rename never stalls for tags
    /// (paper §3.2.1).
    pub fn virtual_regs(&self) -> usize {
        NUM_LOGICAL_PER_CLASS + self.rob_size
    }

    /// The maximum legal NRR for this configuration
    /// (`physical_regs - NUM_LOGICAL_PER_CLASS`, paper §3.3).
    pub fn max_nrr(&self) -> usize {
        self.physical_regs - NUM_LOGICAL_PER_CLASS
    }

    /// Number of functional units of `kind`.
    pub fn fu_count(&self, kind: FuKind) -> usize {
        self.fu_counts[kind.index()]
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: widths and
    /// sizes must be positive, there must be more physical than logical
    /// registers, and NRR must lie in `1..=max_nrr`.
    pub fn validate(&self) -> Result<(), String> {
        macro_rules! positive {
            ($($f:ident),+) => {$(
                if self.$f == 0 {
                    return Err(format!(concat!(stringify!($f), " must be positive")));
                }
            )+};
        }
        positive!(
            fetch_width,
            rename_width,
            issue_width,
            commit_width,
            rob_size,
            iq_size,
            lsq_size,
            store_buffer_size,
            bht_entries
        );
        if self.regfile_read_ports == 0 || self.regfile_write_ports == 0 {
            return Err("register files need read and write ports".into());
        }
        if self.physical_regs <= NUM_LOGICAL_PER_CLASS {
            return Err(format!(
                "need more than {NUM_LOGICAL_PER_CLASS} physical registers per class, got {}",
                self.physical_regs
            ));
        }
        if self.fu_counts.iter().all(|&c| c == 0) {
            return Err("at least one functional unit is required".into());
        }
        if let Some(nrr) = self.scheme.nrr() {
            if nrr == 0 || nrr > self.max_nrr() {
                return Err(format!("NRR must be in 1..={}, got {nrr}", self.max_nrr()));
            }
        }
        if !self.bht_entries.is_power_of_two() {
            return Err("bht_entries must be a power of two".into());
        }
        Ok(())
    }
}

impl vpr_snap::Snap for SimConfig {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_usize(self.fetch_width);
        enc.put_usize(self.rename_width);
        enc.put_usize(self.issue_width);
        enc.put_usize(self.commit_width);
        enc.put_usize(self.rob_size);
        enc.put_usize(self.iq_size);
        enc.put_usize(self.lsq_size);
        enc.put_usize(self.store_buffer_size);
        enc.put_usize(self.physical_regs);
        enc.put_u32(self.regfile_read_ports);
        enc.put_u32(self.regfile_write_ports);
        self.scheme.save(enc);
        enc.put_usize(self.bht_entries);
        self.cache.save(enc);
        self.fu_counts.save(enc);
        self.latencies.save(enc);
        enc.put_bool(self.vp_commit_delay);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            fetch_width: dec.take_usize(),
            rename_width: dec.take_usize(),
            issue_width: dec.take_usize(),
            commit_width: dec.take_usize(),
            rob_size: dec.take_usize(),
            iq_size: dec.take_usize(),
            lsq_size: dec.take_usize(),
            store_buffer_size: dec.take_usize(),
            physical_regs: dec.take_usize(),
            regfile_read_ports: dec.take_u32(),
            regfile_write_ports: dec.take_u32(),
            scheme: RenameScheme::load(dec),
            bht_entries: dec.take_usize(),
            cache: CacheConfig::load(dec),
            fu_counts: <[usize; 6]>::load(dec),
            latencies: Latencies::load(dec),
            vp_commit_delay: dec.take_bool(),
        }
    }
}

/// Builder for [`SimConfig`] (non-consuming, per the Rust API guidelines).
///
/// ```
/// use vpr_core::{RenameScheme, SimConfig};
/// let cfg = SimConfig::builder()
///     .scheme(RenameScheme::Conventional)
///     .physical_regs(48)
///     .build();
/// assert_eq!(cfg.physical_regs, 48);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Starts from the paper's default machine.
    pub fn new() -> Self {
        Self {
            config: SimConfig::default(),
        }
    }

    /// Sets the renaming scheme.
    pub fn scheme(&mut self, scheme: RenameScheme) -> &mut Self {
        self.config.scheme = scheme;
        self
    }

    /// Sets the number of physical registers per file.
    pub fn physical_regs(&mut self, n: usize) -> &mut Self {
        self.config.physical_regs = n;
        self
    }

    /// Sets the reorder-buffer (instruction window) size; the instruction
    /// and load/store queues are sized to match unless set explicitly
    /// afterwards.
    pub fn rob_size(&mut self, n: usize) -> &mut Self {
        self.config.rob_size = n;
        self.config.iq_size = n;
        self.config.lsq_size = n;
        self
    }

    /// Sets all of fetch, rename, issue and commit width.
    pub fn width(&mut self, w: usize) -> &mut Self {
        self.config.fetch_width = w;
        self.config.rename_width = w;
        self.config.issue_width = w;
        self.config.commit_width = w;
        self
    }

    /// Sets the data-cache configuration.
    pub fn cache(&mut self, cache: CacheConfig) -> &mut Self {
        self.config.cache = cache;
        self
    }

    /// Sets the cache miss penalty (Table 2 also reports a 20-cycle
    /// variant).
    pub fn miss_penalty(&mut self, cycles: u64) -> &mut Self {
        self.config.cache.miss_penalty = cycles;
        self
    }

    /// Sets execution latencies.
    pub fn latencies(&mut self, latencies: Latencies) -> &mut Self {
        self.config.latencies = latencies;
        self
    }

    /// Sets the functional-unit count for one kind.
    pub fn fu_count(&mut self, kind: FuKind, count: usize) -> &mut Self {
        self.config.fu_counts[kind.index()] = count;
        self
    }

    /// Models the +1-cycle PMT commit delay of the VP schemes.
    pub fn vp_commit_delay(&mut self, enabled: bool) -> &mut Self {
        self.config.vp_commit_delay = enabled;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent; see
    /// [`SimConfig::validate`]. Use [`SimConfigBuilder::try_build`] for a
    /// fallible version.
    pub fn build(&self) -> SimConfig {
        self.try_build().expect("invalid simulator configuration")
    }

    /// Finishes the build, returning the validation error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// See [`SimConfig::validate`].
    pub fn try_build(&self) -> Result<SimConfig, String> {
        self.config.validate()?;
        Ok(self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.physical_regs, 64);
        assert_eq!(c.bht_entries, 2048);
        assert_eq!(c.cache.miss_penalty, 50);
        assert_eq!(c.fu_counts, [3, 2, 3, 3, 2, 2]);
        assert_eq!(c.max_nrr(), 32);
        assert_eq!(c.virtual_regs(), 32 + 128);
        c.validate().expect("default config is valid");
    }

    #[test]
    fn latency_table_matches_paper() {
        let l = Latencies::default();
        assert_eq!(l.of(OpClass::IntAlu), 1);
        assert_eq!(l.of(OpClass::IntMul), 9);
        assert_eq!(l.of(OpClass::IntDiv), 67);
        assert_eq!(l.of(OpClass::FpAdd), 4);
        assert_eq!(l.of(OpClass::FpMul), 4);
        assert_eq!(l.of(OpClass::FpDiv), 16);
        assert_eq!(l.of(OpClass::Load), 1, "EA portion only");
    }

    #[test]
    fn builder_round_trip() {
        let c = SimConfig::builder()
            .scheme(RenameScheme::VirtualPhysicalIssue { nrr: 8 })
            .physical_regs(96)
            .rob_size(64)
            .width(4)
            .build();
        assert_eq!(c.scheme.nrr(), Some(8));
        assert_eq!(c.physical_regs, 96);
        assert_eq!(c.rob_size, 64);
        assert_eq!(c.iq_size, 64);
        assert_eq!(c.fetch_width, 4);
    }

    #[test]
    fn nrr_out_of_range_rejected() {
        let err = SimConfig::builder()
            .scheme(RenameScheme::VirtualPhysicalWriteback { nrr: 33 })
            .try_build()
            .unwrap_err();
        assert!(err.contains("NRR"), "{err}");
        let err = SimConfig::builder()
            .scheme(RenameScheme::VirtualPhysicalWriteback { nrr: 0 })
            .try_build()
            .unwrap_err();
        assert!(err.contains("NRR"), "{err}");
    }

    #[test]
    fn too_few_physical_regs_rejected() {
        let err = SimConfig::builder()
            .physical_regs(32)
            .try_build()
            .unwrap_err();
        assert!(err.contains("physical"), "{err}");
    }

    #[test]
    fn scheme_predicates() {
        assert!(!RenameScheme::Conventional.is_virtual_physical());
        assert!(RenameScheme::VirtualPhysicalIssue { nrr: 1 }.is_virtual_physical());
        assert_eq!(RenameScheme::Conventional.nrr(), None);
    }

    #[test]
    fn zero_width_rejected() {
        let mut b = SimConfig::builder();
        b.width(0);
        assert!(b.try_build().is_err());
    }
}
