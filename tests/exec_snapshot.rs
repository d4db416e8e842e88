//! Snapshot coverage for assembled workloads: checkpointing a pipeline
//! mid-run over an `ExecStream` (or a bench-layer `WorkloadStream`
//! wrapping one) must be bit-exact, at *any* commit point.
//!
//! * save → restore → run: a processor snapshotted at a random commit
//!   point and restored into a fresh machine must continue bit-identically
//!   to the uninterrupted original — same stats, same cycle, same
//!   follow-up snapshot bytes;
//! * `Resumable` fast-forward vs replay: skipping `n` instructions with
//!   [`ExecStream::fast_forward`] must be indistinguishable — including
//!   in serialized state — from consuming them one by one.

use proptest::prelude::*;
use std::sync::Arc;
use vpr::core::{Processor, RenameScheme, SimConfig};
use vpr::exec::{AsmProgram, ExecStream, Mode};
use vpr::snap::{Decoder, Encoder, Resumable};
use vpr_bench::Workload;

fn config(scheme: RenameScheme) -> SimConfig {
    SimConfig::builder()
        .scheme(scheme)
        .physical_regs(64)
        .build()
}

const SCHEMES: [RenameScheme; 4] = [
    RenameScheme::Conventional,
    RenameScheme::ConventionalEarlyRelease,
    RenameScheme::VirtualPhysicalIssue { nrr: 32 },
    RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Save → restore → run bit-identity at a random commit point, for a
    /// random program and scheme.
    #[test]
    fn snapshot_restore_continues_bit_identically(
        prog_idx in 0usize..AsmProgram::ALL.len(),
        scheme_idx in 0usize..SCHEMES.len(),
        warm in 100u64..3_000,
        run in 200u64..2_000,
    ) {
        let program = AsmProgram::ALL[prog_idx];
        let scheme = SCHEMES[scheme_idx];
        let image = program.program();

        let mut original = Processor::new(
            config(scheme),
            ExecStream::new(Arc::clone(&image), Mode::Repeat),
        );
        original.run(warm);
        let snapshot = original.snapshot();

        let fresh = ExecStream::new(Arc::clone(&image), Mode::Repeat);
        let mut restored: Processor<ExecStream> =
            Processor::restore(&snapshot, fresh).expect("restore");
        prop_assert_eq!(restored.absolute_committed(), original.absolute_committed());
        prop_assert_eq!(restored.cycle(), original.cycle());

        original.run(run);
        restored.run(run);
        prop_assert_eq!(restored.stats(), original.stats());
        prop_assert_eq!(restored.cycle(), original.cycle());
        prop_assert_eq!(restored.absolute_committed(), original.absolute_committed());
        // Bit-identity, not just counter agreement: the machines must be
        // indistinguishable to a further checkpoint.
        prop_assert_eq!(restored.snapshot(), original.snapshot());
    }

    /// `fast_forward(n)` is equivalent to `n` discarded `next()` calls —
    /// observably *and* in serialized `Resumable` state.
    #[test]
    fn fast_forward_equals_replay_in_serialized_state(
        prog_idx in 0usize..AsmProgram::ALL.len(),
        skip in 1u64..5_000,
    ) {
        let program = AsmProgram::ALL[prog_idx];
        let mut skipped = program.stream(Mode::Repeat);
        let mut replayed = program.stream(Mode::Repeat);
        skipped.fast_forward(skip);
        for _ in 0..skip {
            replayed.next();
        }
        let bytes = |s: &ExecStream| {
            let mut enc = Encoder::new();
            s.save_state(&mut enc);
            enc.into_bytes()
        };
        prop_assert_eq!(bytes(&skipped), bytes(&replayed));
        for _ in 0..100 {
            prop_assert_eq!(skipped.next(), replayed.next());
        }
    }

    /// The same contract holds one layer up, through the bench harness's
    /// `WorkloadStream`: restoring serialized state into a fresh stream
    /// resumes the identical instruction sequence.
    #[test]
    fn workload_stream_resumes_identically(
        prog_idx in 0usize..AsmProgram::ALL.len(),
        skip in 1u64..4_000,
    ) {
        let workload: Workload = AsmProgram::ALL[prog_idx].into();
        let mut stream = workload.stream(42);
        stream.fast_forward(skip);
        let mut enc = Encoder::new();
        stream.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut resumed = workload.stream(42);
        resumed.restore_state(&mut Decoder::new(&bytes));
        prop_assert_eq!(resumed.emitted(), stream.emitted());
        for _ in 0..100 {
            prop_assert_eq!(resumed.next(), stream.next());
        }
    }
}
