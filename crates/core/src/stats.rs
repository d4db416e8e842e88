//! Simulation statistics.

use vpr_frontend::{BhtStats, FetchStats};
use vpr_isa::RegClass;
use vpr_mem::{CacheStats, LsqStats};

/// Per-register-class counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Physical registers allocated over the run.
    pub allocations: u64,
    /// Physical registers freed over the run.
    pub frees: u64,
    /// Sum over freed registers of (free cycle − allocation cycle): the
    /// paper's "register pressure" integral (§3.1 measures it for one
    /// value chain; Table 2's improvements stem from shrinking it).
    pub hold_cycles: u64,
    /// Sum over measured cycles of the number of allocated registers
    /// (divide by cycles for mean occupancy).
    pub occupancy_sum: u64,
    /// Cycles in which the free list was empty.
    pub empty_free_list_cycles: u64,
    /// Rename stalls caused by this class's free list (conventional
    /// scheme only).
    pub rename_stalls: u64,
}

impl ClassStats {
    /// Mean cycles a physical register stays allocated per produced value.
    pub fn mean_hold(&self) -> f64 {
        if self.frees == 0 {
            0.0
        } else {
            self.hold_cycles as f64 / self.frees as f64
        }
    }
}

/// Counters and derived metrics for one simulation window.
///
/// All counters cover the *measurement window*: [`SimStats::reset_window`]
/// zeroes them after warm-up while the machine keeps its microarchitectural
/// state (caches, predictor, in-flight instructions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (architecturally retired) instructions.
    pub committed: u64,
    /// Committed instructions that had a register destination.
    pub committed_with_dest: u64,
    /// Executions begun (issue events), including re-executions.
    pub executions: u64,
    /// Re-executions caused by the virtual-physical write-back scheme
    /// denying a register at completion (paper §3.3: "squashed and sent
    /// back to the instruction queue").
    pub register_reexecutions: u64,
    /// Re-executions caused by memory-ordering violations (PA-8000
    /// disambiguation).
    pub memory_reexecutions: u64,
    /// Completions deferred for lack of a register-file write port.
    pub writeback_port_stalls: u64,
    /// Issue opportunities lost because the NRR rule denied a register at
    /// issue (virtual-physical issue-allocation scheme).
    pub issue_allocation_stalls: u64,
    /// Rename/dispatch stalls: reorder buffer full.
    pub rob_full_stalls: u64,
    /// Rename/dispatch stalls: instruction queue full.
    pub iq_full_stalls: u64,
    /// Rename/dispatch stalls: load/store queue full.
    pub lsq_full_stalls: u64,
    /// Commit stalls: store buffer full.
    pub store_buffer_stalls: u64,
    /// Registers released before the next writer's commit (the
    /// `ConventionalEarlyRelease` scheme's wins over the baseline).
    pub early_releases: u64,
    /// Per-class register counters.
    pub int: ClassStats,
    /// Per-class register counters.
    pub fp: ClassStats,
    /// Front-end counters (fetch, prediction).
    pub fetch: FetchStats,
    /// Predictor accuracy counters.
    pub bht: BhtStats,
    /// Data-cache counters.
    pub cache: CacheStats,
    /// Disambiguation counters.
    pub lsq: LsqStats,
}

impl SimStats {
    /// Committed instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean number of executions per committed instruction (the paper
    /// reports 3.3 for the write-back scheme at 64 registers).
    pub fn executions_per_commit(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.executions as f64 / self.committed as f64
        }
    }

    /// The per-class counters for `class`.
    pub fn class(&self, class: RegClass) -> &ClassStats {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    /// Mutable per-class counters for `class`.
    pub fn class_mut(&mut self, class: RegClass) -> &mut ClassStats {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Mean allocated physical registers per cycle in `class`.
    pub fn mean_occupancy(&self, class: RegClass) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.class(class).occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Renders every counter as a small, stable JSON object
    /// (`vpr-sim-stats/v2`), for machine-readable experiment artefacts.
    /// Hand-rolled: the build environment has no serde.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let class = |cs: &ClassStats| {
            format!(
                "{{\"allocations\": {}, \"frees\": {}, \"hold_cycles\": {}, \
                 \"occupancy_sum\": {}, \"empty_free_list_cycles\": {}, \
                 \"rename_stalls\": {}}}",
                cs.allocations,
                cs.frees,
                cs.hold_cycles,
                cs.occupancy_sum,
                cs.empty_free_list_cycles,
                cs.rename_stalls
            )
        };
        let mut s = String::new();
        s.push_str("{\"schema\": \"vpr-sim-stats/v2\",\n");
        let _ = writeln!(
            s,
            " \"cycles\": {}, \"committed\": {}, \"committed_with_dest\": {}, \
             \"executions\": {},",
            self.cycles, self.committed, self.committed_with_dest, self.executions
        );
        let _ = writeln!(
            s,
            " \"ipc\": {:.6}, \"executions_per_commit\": {:.6},",
            self.ipc(),
            self.executions_per_commit()
        );
        let _ = writeln!(
            s,
            " \"register_reexecutions\": {}, \"memory_reexecutions\": {}, \
             \"writeback_port_stalls\": {}, \"issue_allocation_stalls\": {},",
            self.register_reexecutions,
            self.memory_reexecutions,
            self.writeback_port_stalls,
            self.issue_allocation_stalls
        );
        let _ = writeln!(
            s,
            " \"rob_full_stalls\": {}, \"iq_full_stalls\": {}, \"lsq_full_stalls\": {}, \
             \"store_buffer_stalls\": {}, \"early_releases\": {},",
            self.rob_full_stalls,
            self.iq_full_stalls,
            self.lsq_full_stalls,
            self.store_buffer_stalls,
            self.early_releases
        );
        let _ = writeln!(s, " \"int\": {},", class(&self.int));
        let _ = writeln!(s, " \"fp\": {},", class(&self.fp));
        let _ = writeln!(
            s,
            " \"fetch\": {{\"fetched\": {}, \"cond_branches\": {}, \"mispredictions\": {}, \
             \"taken_breaks\": {}, \"stall_cycles\": {}}},",
            self.fetch.fetched,
            self.fetch.cond_branches,
            self.fetch.mispredictions,
            self.fetch.taken_breaks,
            self.fetch.stall_cycles
        );
        let _ = writeln!(
            s,
            " \"bht\": {{\"updates\": {}, \"correct\": {}, \"accuracy\": {:.6}}},",
            self.bht.updates,
            self.bht.correct,
            self.bht.accuracy()
        );
        let _ = writeln!(
            s,
            " \"cache\": {{\"hits\": {}, \"misses\": {}, \"merged_misses\": {}, \
             \"port_retries\": {}, \"mshr_retries\": {}, \"dirty_evictions\": {}, \
             \"miss_ratio\": {:.6}}},",
            self.cache.hits,
            self.cache.misses,
            self.cache.merged_misses,
            self.cache.port_retries,
            self.cache.mshr_retries,
            self.cache.dirty_evictions,
            self.cache.miss_ratio()
        );
        let _ = write!(
            s,
            " \"lsq\": {{\"forwards\": {}, \"speculative_loads\": {}, \"violations\": {}}}}}",
            self.lsq.forwards, self.lsq.speculative_loads, self.lsq.violations
        );
        s.push('\n');
        s
    }

    /// Zeroes every counter (ends the warm-up phase). Microarchitectural
    /// state is unaffected; only the measurement window restarts.
    pub fn reset_window(&mut self) {
        *self = SimStats::default();
    }

    /// Field-wise difference `self − base`, used to express counters over
    /// a measurement window that started at snapshot `base`.
    pub fn minus(&self, base: &SimStats) -> SimStats {
        fn class(a: &ClassStats, b: &ClassStats) -> ClassStats {
            ClassStats {
                allocations: a.allocations - b.allocations,
                frees: a.frees - b.frees,
                hold_cycles: a.hold_cycles - b.hold_cycles,
                occupancy_sum: a.occupancy_sum - b.occupancy_sum,
                empty_free_list_cycles: a.empty_free_list_cycles - b.empty_free_list_cycles,
                rename_stalls: a.rename_stalls - b.rename_stalls,
            }
        }
        SimStats {
            cycles: self.cycles - base.cycles,
            committed: self.committed - base.committed,
            committed_with_dest: self.committed_with_dest - base.committed_with_dest,
            executions: self.executions - base.executions,
            register_reexecutions: self.register_reexecutions - base.register_reexecutions,
            memory_reexecutions: self.memory_reexecutions - base.memory_reexecutions,
            writeback_port_stalls: self.writeback_port_stalls - base.writeback_port_stalls,
            issue_allocation_stalls: self.issue_allocation_stalls - base.issue_allocation_stalls,
            rob_full_stalls: self.rob_full_stalls - base.rob_full_stalls,
            iq_full_stalls: self.iq_full_stalls - base.iq_full_stalls,
            lsq_full_stalls: self.lsq_full_stalls - base.lsq_full_stalls,
            store_buffer_stalls: self.store_buffer_stalls - base.store_buffer_stalls,
            early_releases: self.early_releases - base.early_releases,
            int: class(&self.int, &base.int),
            fp: class(&self.fp, &base.fp),
            fetch: vpr_frontend::FetchStats {
                fetched: self.fetch.fetched - base.fetch.fetched,
                cond_branches: self.fetch.cond_branches - base.fetch.cond_branches,
                mispredictions: self.fetch.mispredictions - base.fetch.mispredictions,
                taken_breaks: self.fetch.taken_breaks - base.fetch.taken_breaks,
                stall_cycles: self.fetch.stall_cycles - base.fetch.stall_cycles,
            },
            bht: vpr_frontend::BhtStats {
                updates: self.bht.updates - base.bht.updates,
                correct: self.bht.correct - base.bht.correct,
            },
            cache: vpr_mem::CacheStats {
                hits: self.cache.hits - base.cache.hits,
                misses: self.cache.misses - base.cache.misses,
                merged_misses: self.cache.merged_misses - base.cache.merged_misses,
                port_retries: self.cache.port_retries - base.cache.port_retries,
                mshr_retries: self.cache.mshr_retries - base.cache.mshr_retries,
                dirty_evictions: self.cache.dirty_evictions - base.cache.dirty_evictions,
            },
            lsq: vpr_mem::LsqStats {
                forwards: self.lsq.forwards - base.lsq.forwards,
                speculative_loads: self.lsq.speculative_loads - base.lsq.speculative_loads,
                violations: self.lsq.violations - base.lsq.violations,
            },
        }
    }
}

impl vpr_snap::Snap for ClassStats {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.allocations);
        enc.put_u64(self.frees);
        enc.put_u64(self.hold_cycles);
        enc.put_u64(self.occupancy_sum);
        enc.put_u64(self.empty_free_list_cycles);
        enc.put_u64(self.rename_stalls);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            allocations: dec.take_u64(),
            frees: dec.take_u64(),
            hold_cycles: dec.take_u64(),
            occupancy_sum: dec.take_u64(),
            empty_free_list_cycles: dec.take_u64(),
            rename_stalls: dec.take_u64(),
        }
    }
}

impl vpr_snap::Snap for SimStats {
    fn save(&self, enc: &mut vpr_snap::Encoder) {
        enc.put_u64(self.cycles);
        enc.put_u64(self.committed);
        enc.put_u64(self.committed_with_dest);
        enc.put_u64(self.executions);
        enc.put_u64(self.register_reexecutions);
        enc.put_u64(self.memory_reexecutions);
        enc.put_u64(self.writeback_port_stalls);
        enc.put_u64(self.issue_allocation_stalls);
        enc.put_u64(self.rob_full_stalls);
        enc.put_u64(self.iq_full_stalls);
        enc.put_u64(self.lsq_full_stalls);
        enc.put_u64(self.store_buffer_stalls);
        enc.put_u64(self.early_releases);
        self.int.save(enc);
        self.fp.save(enc);
        self.fetch.save(enc);
        self.bht.save(enc);
        self.cache.save(enc);
        self.lsq.save(enc);
    }

    fn load(dec: &mut vpr_snap::Decoder<'_>) -> Self {
        Self {
            cycles: dec.take_u64(),
            committed: dec.take_u64(),
            committed_with_dest: dec.take_u64(),
            executions: dec.take_u64(),
            register_reexecutions: dec.take_u64(),
            memory_reexecutions: dec.take_u64(),
            writeback_port_stalls: dec.take_u64(),
            issue_allocation_stalls: dec.take_u64(),
            rob_full_stalls: dec.take_u64(),
            iq_full_stalls: dec.take_u64(),
            lsq_full_stalls: dec.take_u64(),
            store_buffer_stalls: dec.take_u64(),
            early_releases: dec.take_u64(),
            int: ClassStats::load(dec),
            fp: ClassStats::load(dec),
            fetch: vpr_frontend::FetchStats::load(dec),
            bht: vpr_frontend::BhtStats::load(dec),
            cache: vpr_mem::CacheStats::load(dec),
            lsq: vpr_mem::LsqStats::load(dec),
        }
    }
}

/// Harmonic mean of a set of rates (the paper's Table 2 reports the
/// harmonic mean of per-benchmark IPCs).
///
/// Returns 0.0 for an empty slice.
///
/// ```
/// let hm = vpr_core::harmonic_mean(&[1.0, 2.0]);
/// assert!((hm - 4.0 / 3.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum_recip: f64 = values.iter().map(|v| 1.0 / v).sum();
    values.len() as f64 / sum_recip
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn ipc_is_committed_over_cycles() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn executions_per_commit() {
        let s = SimStats {
            committed: 10,
            executions: 33,
            ..SimStats::default()
        };
        assert!((s.executions_per_commit() - 3.3).abs() < 1e-12);
    }

    #[test]
    fn class_accessors_agree() {
        let mut s = SimStats::default();
        s.class_mut(RegClass::Fp).allocations = 7;
        assert_eq!(s.fp.allocations, 7);
        assert_eq!(s.class(RegClass::Fp).allocations, 7);
        assert_eq!(s.class(RegClass::Int).allocations, 0);
    }

    #[test]
    fn mean_hold_and_occupancy() {
        let mut s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        s.int.frees = 4;
        s.int.hold_cycles = 40;
        s.int.occupancy_sum = 350;
        assert!((s.int.mean_hold() - 10.0).abs() < 1e-12);
        assert!((s.mean_occupancy(RegClass::Int) - 35.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_examples() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[3.0]) - 3.0).abs() < 1e-12);
        // Paper Table 2 conventional column: harmonic mean ≈ 1.23.
        let ipcs = [0.73, 0.98, 1.75, 1.14, 1.37, 1.12, 1.32, 2.16, 1.64];
        let hm = harmonic_mean(&ipcs);
        assert!((hm - 1.23).abs() < 0.01, "paper reports 1.23, got {hm}");
    }

    #[test]
    fn reset_window_zeroes_counters() {
        let mut s = SimStats {
            cycles: 5,
            committed: 5,
            ..SimStats::default()
        };
        s.reset_window();
        assert_eq!(s, SimStats::default());
    }
}
