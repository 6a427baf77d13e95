//! # dpl-store
//!
//! On-disk, chunked, columnar power-trace archives and the out-of-core
//! streaming attacks that run over them.
//!
//! The paper's DPA experiment is the workload that motivates constant-power
//! DPDN synthesis; this crate removes its memory ceiling.  A capture
//! campaign streams traces through an [`ArchiveWriter`] into a binary,
//! versioned, self-checking file (see [`mod@format`] for the exact layout), and
//! attacks later fold over the file chunk by chunk:
//!
//! * [`ArchiveWriter`] — buffered writer; implements
//!   `dpl_power::TraceSink`, so `dpl-crypto`'s trace generators stream
//!   straight to disk without materializing a `TraceSet`,
//! * [`ArchiveReader`] — header-validating, checksum-verifying chunk
//!   iterator with a configurable in-memory chunk budget,
//! * [`mod@fold`] — the fold engine: [`fold()`] runs any [`Fold`] statistic
//!   over a [`ChunkSource`] under a strict or salvage [`Reading`] on the
//!   calling thread, [`fold_read_ahead`] runs the same loop on a relay of
//!   threads that each read their chunks and fold them in turn, and
//!   [`fold_parallel`] runs a [`MergeFold`] (CPA's) on the same relay, one
//!   partial per chunk; its module docs state the numeric contracts of
//!   every out-of-core fold,
//! * [`dpa_attack_streaming`] / [`cpa_attack_streaming`] /
//!   [`cpa_attack_parallel_with`] — the out-of-core attacks built on it.
//!
//! Corruption anywhere — header or chunk — surfaces as a typed
//! [`StoreError`], never as silently wrong scores.
//!
//! The fault-tolerant trace plane adds three layers on top:
//!
//! * [`mod@recover`] — crash recovery: [`fn@recover`] scans an interrupted
//!   capture's valid chunk prefix and [`ArchiveWriter::resume`] continues
//!   appending to it, bit-identical to an uninterrupted capture,
//! * [`mod@salvage`] — [`ReadPolicy::Salvage`] reads that skip damaged
//!   chunks into a [`DamageReport`] and feed survivors to any fold
//!   ([`Reading::Salvage`]), plus [`repair_archive`] for quarantined-clean
//!   copies,
//! * [`mod@fault`] — [`FaultStream`] deterministic fault injection and the
//!   bounded [`RetryPolicy`], the machinery that proves the two layers
//!   above by exhaustively failing every I/O operation.
//!
//! The sharded trace plane scales campaigns past one file:
//!
//! * [`mod@encode`] — compact sample encodings
//!   ([`SampleEncoding`], with a typed [`Quantization`] contract) and the
//!   zero-dependency chunk compressor ([`Compression::Shuffle`]),
//! * [`mod@shard`] — [`CampaignManifest`] multi-archive campaigns and the
//!   [`ShardedReader`] that folds them as one global-order chunk stream,
//!   bit-identical to a single archive,
//! * [`ChunkSource`] — the storage-backend trait the streaming attacks
//!   fold over, so single archives and sharded campaigns share one attack
//!   path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
pub mod encode;
mod error;
pub mod fault;
pub mod fold;
pub mod format;
mod reader;
pub mod recover;
pub mod salvage;
pub mod shard;
mod writer;

pub use attack::{
    cpa_attack_parallel_with, cpa_attack_streaming, cpa_passes, dpa_attack_streaming, input_profile,
};
pub use encode::{Compression, Quantization, SampleEncoding};
pub use error::{ReadSite, Result, StoreError};
pub use fault::{Fault, FaultPlan, FaultStream, RetryPolicy};
pub use fold::{fold, fold_parallel, fold_read_ahead, worker_count, Fold, MergeFold, Reading};
pub use format::{ArchiveMeta, CampaignKind, ModelTag};
pub use reader::{ArchiveReader, ChunkSource, Chunks};
pub use recover::{recover, HeaderState, Recovery};
pub use salvage::{
    repair_archive, DamageCause, DamageReport, DamagedChunk, ReadPolicy, SalvageOutcome,
};
pub use shard::{is_manifest_file, CampaignManifest, ShardMeta, ShardedReader};
pub use writer::{ArchiveWriter, SyncWrite, Truncate};

#[cfg(test)]
mod tests {
    use super::*;
    use dpl_power::{cpa_attack, dpa_attack, TraceSet, TraceSink};
    use std::io::Cursor;

    /// Deterministic synthetic traces: `wide` controls whether the inputs
    /// exceed the attacks' input-class aggregation limit.
    fn synthetic_traces(count: usize, samples: usize, wide: bool) -> Vec<(u64, Vec<f64>)> {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let raw = next();
                let input = if wide { raw } else { raw % 16 };
                let leak = (input ^ 0x9).count_ones() as f64;
                let samples: Vec<f64> = (0..samples)
                    .map(|s| leak + (next() % 1000) as f64 / 1000.0 + s as f64)
                    .collect();
                (input, samples)
            })
            .collect()
    }

    fn write_archive(traces: &[(u64, Vec<f64>)], meta: ArchiveMeta) -> Vec<u8> {
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        for (input, samples) in traces {
            writer.append(*input, samples).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), traces.len() as u64);
        writer.into_inner().into_inner()
    }

    #[test]
    fn write_read_round_trip_is_bit_exact() {
        let traces = synthetic_traces(217, 3, true);
        let meta = ArchiveMeta {
            samples_per_trace: 3,
            chunk_traces: 50,
            model: ModelTag::GenuineSabl,
            seed: 99,
            campaign: CampaignKind::Attack,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        };
        let bytes = write_archive(&traces, meta);
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.trace_count(), 217);
        assert_eq!(reader.chunk_count(), 5);
        assert_eq!(reader.meta(), &meta);
        let all = reader.read_all().unwrap();
        assert_eq!(all.len(), 217);
        for (t, (input, samples)) in traces.iter().enumerate() {
            assert_eq!(all.inputs()[t], *input);
            let read = all.trace_samples(t);
            for (a, b) in read.iter().zip(samples) {
                assert_eq!(a.to_bits(), b.to_bits(), "trace {t}");
            }
        }
        // The chunk iterator covers every trace exactly once, in order.
        let sizes: Vec<usize> = reader.chunks().map(|c| c.unwrap().len()).collect();
        assert_eq!(sizes, vec![50, 50, 50, 50, 17]);
    }

    #[test]
    fn archives_round_trip_characterized_models_and_digests() {
        let traces = synthetic_traces(100, 1, false);
        let meta = ArchiveMeta::scalar(32, ModelTag::CharacterizedGenuineSabl, 7)
            .with_table_digest(0x1122_3344_5566_7788);
        let bytes = write_archive(&traces, meta);
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.format_version(), format::CURRENT_VERSION);
        assert_eq!(reader.saturated_samples(), Some(0));
        assert_eq!(reader.meta().model, ModelTag::CharacterizedGenuineSabl);
        assert_eq!(reader.table_digest(), Some(0x1122_3344_5566_7788));
        let all = reader.read_all().unwrap();
        assert_eq!(all.len(), 100);
        for (t, (input, samples)) in traces.iter().enumerate() {
            assert_eq!(all.inputs()[t], *input);
            assert_eq!(all.trace_samples(t)[0].to_bits(), samples[0].to_bits());
        }

        // Every campaign is written in the current format, whatever its
        // metadata.
        let plain = write_archive(&traces, ArchiveMeta::scalar(32, ModelTag::HammingWeight, 7));
        assert_eq!(&plain[0..8], b"DPLTRCv4");
        let reader = ArchiveReader::new(Cursor::new(plain)).unwrap();
        assert_eq!(reader.format_version(), format::CURRENT_VERSION);
        assert_eq!(reader.table_digest(), None);
    }

    #[test]
    fn unfinished_archives_are_rejected() {
        let meta = ArchiveMeta::scalar(8, ModelTag::Unspecified, 0);
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        for t in 0..20 {
            writer.append(t, &[t as f64]).unwrap();
        }
        // No finish(): the placeholder header must fail to open.
        let bytes = writer.into_inner().into_inner();
        assert!(matches!(
            ArchiveReader::new(Cursor::new(bytes)),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn writer_misuse_is_rejected() {
        let meta = ArchiveMeta::scalar(4, ModelTag::Unspecified, 0);
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        assert!(matches!(
            writer.append(1, &[1.0, 2.0]),
            Err(StoreError::FormatViolation { .. })
        ));
        writer.append(1, &[1.0]).unwrap();
        assert_eq!(writer.traces_written(), 1);
        writer.finish().unwrap();
        assert!(matches!(
            writer.append(2, &[2.0]),
            Err(StoreError::FormatViolation { .. })
        ));
        assert!(matches!(
            writer.finish(),
            Err(StoreError::FormatViolation { .. })
        ));
    }

    #[test]
    fn empty_archives_round_trip_and_attacks_error_cleanly() {
        let meta = ArchiveMeta::scalar(8, ModelTag::Unspecified, 1);
        let bytes = write_archive(&[], meta);
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.trace_count(), 0);
        assert_eq!(reader.chunk_count(), 0);
        assert!(reader.read_all().unwrap().is_empty());
        assert!(matches!(
            dpa_attack_streaming(&mut reader, 16, |_, _| true),
            Err(StoreError::Power(_))
        ));
        assert!(matches!(
            cpa_attack_streaming(&mut reader, 16, |_, _| 0.0),
            Err(StoreError::Power(_))
        ));
    }

    #[test]
    fn truncated_and_oversized_files_are_detected() {
        let traces = synthetic_traces(40, 1, false);
        let meta = ArchiveMeta::scalar(16, ModelTag::HammingWeight, 3);
        let bytes = write_archive(&traces, meta);

        let mut short = bytes.clone();
        short.truncate(bytes.len() - 5);
        assert!(matches!(
            ArchiveReader::new(Cursor::new(short)),
            Err(StoreError::FormatViolation { .. })
        ));

        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            ArchiveReader::new(Cursor::new(long)),
            Err(StoreError::FormatViolation { .. })
        ));
    }

    #[test]
    fn flipped_chunk_bytes_surface_as_checksum_errors() {
        let traces = synthetic_traces(48, 2, false);
        let meta = ArchiveMeta {
            samples_per_trace: 2,
            chunk_traces: 16,
            model: ModelTag::Unspecified,
            seed: 0,
            campaign: CampaignKind::Attack,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        };
        let bytes = write_archive(&traces, meta);
        // Flip one byte in the middle of chunk 1's payload.
        let chunk_bytes = 8 + 16 * 8 + 16 * 2 * 8 + 8;
        let offset = format::HEADER_LEN_V4 + chunk_bytes + chunk_bytes / 2;
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x40;
        let mut reader = ArchiveReader::new(Cursor::new(corrupt)).unwrap();
        assert!(reader.read_chunk(0).is_ok());
        assert!(matches!(
            reader.read_chunk(1),
            Err(StoreError::ChecksumMismatch { chunk: 1 })
        ));
        // ... and the out-of-core attack refuses rather than mis-scoring.
        assert!(dpa_attack_streaming(&mut reader, 16, |_, _| true).is_err());
    }

    #[test]
    fn distinct_input_count_is_recorded_in_the_header() {
        // 16 distinct plaintext nibbles -> the writer records the exact
        // count and readers get the class-aggregation fast path.
        let few: Vec<(u64, Vec<f64>)> = (0..200u64).map(|t| (t % 16, vec![t as f64])).collect();
        let meta = ArchiveMeta::scalar(64, ModelTag::Unspecified, 0);
        let bytes = write_archive(&few, meta);
        let reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.distinct_inputs(), Some(16));

        // 100 distinct 64-bit inputs -> over the limit, recorded as "too
        // many".
        let wide = synthetic_traces(100, 1, true);
        let bytes = write_archive(&wide, meta);
        let reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.distinct_inputs(), None);
    }

    #[test]
    fn chunk_budget_is_enforced() {
        let traces = synthetic_traces(64, 1, false);
        let meta = ArchiveMeta::scalar(32, ModelTag::Unspecified, 0);
        let bytes = write_archive(&traces, meta);
        let reader = ArchiveReader::new(Cursor::new(bytes.clone())).unwrap();
        assert_eq!(reader.chunk_budget(), 32);
        assert!(matches!(
            reader.with_chunk_budget(16),
            Err(StoreError::ChunkBudgetExceeded {
                chunk_traces: 32,
                budget: 16
            })
        ));
        let reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.with_chunk_budget(32).unwrap().chunk_budget(), 32);
    }

    #[test]
    fn streaming_attacks_are_bit_identical_to_in_memory() {
        for wide in [false, true] {
            let traces = synthetic_traces(300, 2, wide);
            let meta = ArchiveMeta {
                samples_per_trace: 2,
                chunk_traces: 64,
                model: ModelTag::Unspecified,
                seed: 0,
                campaign: CampaignKind::Attack,
                table_digest: 0,
                encoding: SampleEncoding::F64,
                compression: Compression::None,
            };
            let bytes = write_archive(&traces, meta);
            let mut in_memory = TraceSet::new();
            for (input, samples) in &traces {
                TraceSink::record(&mut in_memory, *input, samples).unwrap();
            }
            let selection = |input: u64, guess: u64| (input ^ guess).count_ones() >= 2;
            let model = |input: u64, guess: u64| (input ^ guess).count_ones() as f64;

            let mut reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
            let dpa = dpa_attack_streaming(&mut reader, 16, selection).unwrap();
            let dpa_mem = dpa_attack(&in_memory, 16, selection).unwrap();
            assert_eq!(dpa.scores, dpa_mem.scores, "wide={wide}");
            assert_eq!(dpa.best_guess, dpa_mem.best_guess);

            let cpa = cpa_attack_streaming(&mut reader, 16, model).unwrap();
            let cpa_mem = cpa_attack(&in_memory, 16, model).unwrap();
            assert_eq!(cpa.scores, cpa_mem.scores, "wide={wide}");
            assert_eq!(cpa.best_guess, cpa_mem.best_guess);
        }
    }

    #[test]
    fn append_trace_set_round_trips() {
        let mut set = TraceSet::new();
        for t in 0..37u64 {
            set.push_samples(t % 5, &[t as f64, -(t as f64)]);
        }
        let meta = ArchiveMeta {
            samples_per_trace: 2,
            chunk_traces: 10,
            model: ModelTag::Unspecified,
            seed: 0,
            campaign: CampaignKind::Attack,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        };
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        writer.append_trace_set(&set).unwrap();
        writer.finish().unwrap();
        let bytes = writer.into_inner().into_inner();
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.read_all().unwrap(), set);
    }
}
