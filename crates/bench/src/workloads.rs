//! Shared workload tables, the [`Workload`] abstraction, and
//! scheme-label plumbing.
//!
//! Several binaries sweep the same standard grids — the throughput
//! harness, the `sample` accuracy report, and the `checkpoint`
//! artefact manager all iterate (benchmark × scheme) tables that used to
//! be set up independently in each `main`. This module is the single
//! source of those tables, plus the label ↔ [`RenameScheme`] mapping the
//! JSON artefacts and the checkpoint manifest key entries use.
//!
//! Since the `vpr-exec` crate landed, a sweep point's instruction source
//! is no longer always a synthetic [`Benchmark`] model: it can also be a
//! real assembled program run through the functional emulator
//! ([`vpr_exec::AsmProgram`]). [`Workload`] is the closed union of both,
//! and [`WorkloadStream`] the matching committed-path stream — every
//! harness entry point (sweeps, checkpoints, sampling) runs over these,
//! so the rename schemes, checkpointing and sampled simulation work
//! unchanged on either source.

use vpr_core::RenameScheme;
use vpr_exec::{AsmProgram, ExecStream};
use vpr_snap::{Decoder, Encoder, Resumable};
use vpr_trace::{Benchmark, TraceBuilder, TraceGen};

/// An instruction source a sweep point can run: a synthetic benchmark
/// model (the paper's SPEC95 stand-ins) or a real assembled program
/// executed by the `vpr-exec` functional emulator.
///
/// Names are stable identifiers used in labels, JSON artefacts and
/// checkpoint keys: the benchmark's paper name (`"swim"`) or
/// `"asm:<program>"` (`"asm:matmul"`). [`Workload::parse`] inverts
/// [`Workload::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A synthetic benchmark model from `vpr-trace`.
    Synthetic(Benchmark),
    /// An assembled program emulated by `vpr-exec`.
    Asm(AsmProgram),
}

impl From<Benchmark> for Workload {
    fn from(b: Benchmark) -> Self {
        Workload::Synthetic(b)
    }
}

impl From<AsmProgram> for Workload {
    fn from(p: AsmProgram) -> Self {
        Workload::Asm(p)
    }
}

impl Workload {
    /// Every built-in workload: the nine synthetic benchmarks followed by
    /// the bundled assembly programs.
    pub fn all() -> Vec<Workload> {
        Benchmark::ALL
            .iter()
            .map(|&b| Workload::Synthetic(b))
            .chain(AsmProgram::ALL.iter().map(|&p| Workload::Asm(p)))
            .collect()
    }

    /// The default experiment grid: the paper's nine synthetic
    /// benchmarks.
    pub fn synthetic() -> Vec<Workload> {
        Benchmark::ALL
            .iter()
            .map(|&b| Workload::Synthetic(b))
            .collect()
    }

    /// The bundled assembly programs, in `AsmProgram::ALL` order.
    pub fn asm() -> Vec<Workload> {
        AsmProgram::ALL.iter().map(|&p| Workload::Asm(p)).collect()
    }

    /// Stable identifier: the benchmark's paper name, or `asm:<program>`.
    pub fn name(&self) -> String {
        match self {
            Workload::Synthetic(b) => b.name().to_string(),
            Workload::Asm(p) => format!("asm:{}", p.name()),
        }
    }

    /// Parses a [`Workload::name`] identifier.
    ///
    /// # Errors
    ///
    /// Lists the accepted forms when `name` matches none of them.
    pub fn parse(name: &str) -> Result<Workload, String> {
        if let Some(asm) = name.strip_prefix("asm:") {
            return AsmProgram::parse(asm).map(Workload::Asm).ok_or_else(|| {
                let known = AsmProgram::ALL
                    .iter()
                    .map(|p| format!("asm:{}", p.name()))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("unknown asm workload `{name}` (expected one of {known})")
            });
        }
        name.parse::<Benchmark>()
            .map(Workload::Synthetic)
            .map_err(|_| {
                format!(
                    "unknown workload `{name}` (expected a benchmark name like `swim` \
                     or an assembled program like `asm:matmul`)"
                )
            })
    }

    /// Opens the committed-path instruction stream for this workload.
    ///
    /// Synthetic benchmarks are seeded generators; assembled programs run
    /// in [`vpr_exec::Mode::Repeat`] (the wrap-around jump keeps the
    /// stream infinite, matching the generators' contract) and ignore the
    /// seed — a real program's instruction stream is what it is.
    pub fn stream(&self, seed: u64) -> WorkloadStream {
        match self {
            Workload::Synthetic(b) => {
                WorkloadStream::Synthetic(TraceBuilder::new(*b).seed(seed).build())
            }
            Workload::Asm(p) => WorkloadStream::Asm(p.stream(vpr_exec::Mode::Repeat)),
        }
    }

    /// The paper's Table 2 conventional IPC, for synthetic benchmarks
    /// only — assembled programs have no paper reference column.
    pub fn paper_conventional_ipc(&self) -> Option<f64> {
        match self {
            Workload::Synthetic(b) => Some(b.paper_conventional_ipc()),
            Workload::Asm(_) => None,
        }
    }

    /// The paper's Table 2 VP write-back IPC, when this workload has one.
    pub fn paper_vp_writeback_ipc(&self) -> Option<f64> {
        match self {
            Workload::Synthetic(b) => Some(b.paper_vp_writeback_ipc()),
            Workload::Asm(_) => None,
        }
    }

    /// The paper's Table 2 improvement percentage, when available.
    pub fn paper_improvement_percent(&self) -> Option<f64> {
        match self {
            Workload::Synthetic(b) => Some(b.paper_improvement_percent()),
            Workload::Asm(_) => None,
        }
    }
}

/// The committed-path stream of a [`Workload`]: either a synthetic
/// generator or an emulator-backed [`ExecStream`].
///
/// Implements `Iterator<Item = DynInst>` (and therefore `InstStream`) and
/// [`Resumable`], so every [`vpr_core::Processor`] facility — warm-up,
/// snapshots, checkpoint-seeded sampling — works identically on both
/// variants. The `Resumable` encoding delegates to the inner stream with
/// no added framing: the variant is part of the workload's identity (and
/// of every checkpoint key), so synthetic snapshots stay byte-compatible
/// with those written before this type existed.
// One stream exists per processor, never in bulk collections, so the
// size gap between a TraceGen and a full emulator is irrelevant; boxing
// would only add indirection on the hot `next()` path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WorkloadStream {
    /// A seeded synthetic trace generator.
    Synthetic(TraceGen),
    /// An assembled program's emulator stream.
    Asm(ExecStream),
}

impl WorkloadStream {
    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        match self {
            WorkloadStream::Synthetic(t) => t.emitted(),
            WorkloadStream::Asm(s) => s.emitted(),
        }
    }

    /// Skips `n` instructions without yielding them (positioning without
    /// simulation).
    pub fn fast_forward(&mut self, n: u64) {
        match self {
            WorkloadStream::Synthetic(t) => t.fast_forward(n),
            WorkloadStream::Asm(s) => s.fast_forward(n),
        }
    }

    /// Number of phases (generator loops) this stream distinguishes. An
    /// assembled program is treated as a single phase: the sampling
    /// estimators then stratify on the covariates alone, which is exactly
    /// the right degeneration (phase weights carry no information).
    pub fn loop_count(&self) -> usize {
        match self {
            WorkloadStream::Synthetic(t) => t.loop_count(),
            WorkloadStream::Asm(_) => 1,
        }
    }

    /// The phase the stream is currently in (always 0 for assembled
    /// programs).
    pub fn current_loop(&self) -> usize {
        match self {
            WorkloadStream::Synthetic(t) => t.current_loop(),
            WorkloadStream::Asm(_) => 0,
        }
    }
}

impl Iterator for WorkloadStream {
    type Item = vpr_isa::DynInst;

    fn next(&mut self) -> Option<vpr_isa::DynInst> {
        match self {
            WorkloadStream::Synthetic(t) => t.next(),
            WorkloadStream::Asm(s) => s.next(),
        }
    }
}

impl Resumable for WorkloadStream {
    fn save_state(&self, enc: &mut Encoder) {
        match self {
            WorkloadStream::Synthetic(t) => t.save_state(enc),
            WorkloadStream::Asm(s) => s.save_state(enc),
        }
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) {
        match self {
            WorkloadStream::Synthetic(t) => t.restore_state(dec),
            WorkloadStream::Asm(s) => s.restore_state(dec),
        }
    }
}

/// The two schemes of the paper's Table 2: the conventional baseline and
/// the headline virtual-physical write-back allocator at NRR = 32.
pub const TABLE2_SCHEMES: [RenameScheme; 2] = [
    RenameScheme::Conventional,
    RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
];

/// The renaming schemes the throughput harness sweeps: all four
/// implementations at their headline parameters.
pub const THROUGHPUT_SCHEMES: [RenameScheme; 4] = [
    RenameScheme::Conventional,
    RenameScheme::ConventionalEarlyRelease,
    RenameScheme::VirtualPhysicalIssue { nrr: 32 },
    RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
];

/// The benchmarks the throughput harness runs each scheme on (one
/// FP-heavy, one branchy integer workload).
pub const THROUGHPUT_BENCHMARKS: [Benchmark; 2] = [Benchmark::Swim, Benchmark::Go];

/// A short, stable identifier for a scheme (used in labels, JSON
/// artefacts, and checkpoint manifest keys). [`parse_scheme`] inverts it.
pub fn scheme_label(scheme: RenameScheme) -> String {
    match scheme {
        RenameScheme::Conventional => "conventional".into(),
        RenameScheme::ConventionalEarlyRelease => "conventional-early-release".into(),
        RenameScheme::VirtualPhysicalIssue { nrr } => format!("vp-issue-nrr{nrr}"),
        RenameScheme::VirtualPhysicalWriteback { nrr } => format!("vp-wb-nrr{nrr}"),
    }
}

/// Parses a label produced by [`scheme_label`].
///
/// # Errors
///
/// Describes the accepted forms when `label` matches none of them.
pub fn parse_scheme(label: &str) -> Result<RenameScheme, String> {
    let nrr_suffix = |prefix: &str| -> Option<Result<usize, String>> {
        label.strip_prefix(prefix).map(|digits| {
            digits
                .parse::<usize>()
                .map_err(|e| format!("bad NRR in scheme label `{label}`: {e}"))
        })
    };
    match label {
        "conventional" => Ok(RenameScheme::Conventional),
        "conventional-early-release" => Ok(RenameScheme::ConventionalEarlyRelease),
        _ => {
            if let Some(nrr) = nrr_suffix("vp-issue-nrr") {
                return Ok(RenameScheme::VirtualPhysicalIssue { nrr: nrr? });
            }
            if let Some(nrr) = nrr_suffix("vp-wb-nrr") {
                return Ok(RenameScheme::VirtualPhysicalWriteback { nrr: nrr? });
            }
            Err(format!(
                "unknown scheme `{label}` (expected conventional, conventional-early-release, \
                 vp-issue-nrrN or vp-wb-nrrN)"
            ))
        }
    }
}

/// The Table 2 workload grid: all nine benchmarks under both
/// [`TABLE2_SCHEMES`], in paper row order.
pub fn table2_grid() -> Vec<(Benchmark, RenameScheme)> {
    grid(&Benchmark::ALL, &TABLE2_SCHEMES)
}

/// The throughput grid: [`THROUGHPUT_BENCHMARKS`] × [`THROUGHPUT_SCHEMES`].
pub fn throughput_grid() -> Vec<(Benchmark, RenameScheme)> {
    grid(&THROUGHPUT_BENCHMARKS, &THROUGHPUT_SCHEMES)
}

/// Cross product of a workload (or benchmark) list and a scheme list,
/// workload-major.
pub fn grid<W: Copy>(workloads: &[W], schemes: &[RenameScheme]) -> Vec<(W, RenameScheme)> {
    workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| (w, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for scheme in THROUGHPUT_SCHEMES {
            assert_eq!(parse_scheme(&scheme_label(scheme)), Ok(scheme));
        }
        assert_eq!(
            parse_scheme("vp-issue-nrr8"),
            Ok(RenameScheme::VirtualPhysicalIssue { nrr: 8 })
        );
        assert!(parse_scheme("vp-wb-nrr").is_err());
        assert!(parse_scheme("vp-wb-nrrx").is_err());
        assert!(parse_scheme("something").is_err());
    }

    #[test]
    fn workload_names_round_trip_through_parse() {
        for w in Workload::all() {
            assert_eq!(Workload::parse(&w.name()), Ok(w), "{}", w.name());
        }
        assert!(Workload::parse("asm:missing").is_err());
        assert!(Workload::parse("nope").is_err());
        assert_eq!(Workload::all().len(), 9 + 5);
    }

    #[test]
    fn workload_streams_emit_and_resume() {
        for w in [
            Workload::from(Benchmark::Swim),
            Workload::from(AsmProgram::Fib),
        ] {
            let mut s = w.stream(42);
            s.fast_forward(100);
            assert_eq!(s.emitted(), 100);
            assert!(s.current_loop() < s.loop_count());
            let mut enc = Encoder::new();
            s.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut r = w.stream(42);
            r.restore_state(&mut Decoder::new(&bytes));
            for _ in 0..50 {
                assert_eq!(r.next(), s.next(), "{} diverged after restore", w.name());
            }
        }
    }

    #[test]
    fn grids_have_the_expected_shapes() {
        assert_eq!(table2_grid().len(), 18);
        assert_eq!(throughput_grid().len(), 8);
        // Benchmark-major: the first two rows share a benchmark.
        let t2 = table2_grid();
        assert_eq!(t2[0].0, t2[1].0);
        assert_eq!(t2[0].1, RenameScheme::Conventional);
    }
}
