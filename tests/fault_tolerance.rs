//! Fault-tolerance properties of the trace plane, SQLite-style: a capture
//! is driven through a deterministic fault injector that fails **every**
//! I/O operation site in turn, and each failure must either leave a file
//! that resumes to a bit-identical archive or surface as a typed error —
//! never a silently wrong archive.  Salvage reads over damaged archives
//! must equal strict reads over archives written without the lost traces.

use std::cell::Cell;
use std::io::{Cursor, ErrorKind, Read, Seek, SeekFrom};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dpl_eval::{
    interleaved_partition, EvalError, SecondOrderWelchAccumulator, TvlaOrder, TvlaResult,
    WelchAccumulator,
};
use dpl_obs::{names, Obs};
use dpl_power::{AttackResult, CpaAccumulator, DpaAccumulator, TraceSet};
use dpl_store::{
    cpa_attack_streaming, dpa_attack_streaming, fold, fold_read_ahead, input_profile, recover,
    repair_archive, ArchiveMeta, ArchiveReader, ArchiveWriter, ChunkSource, Compression,
    DamageCause, DamageReport, DamagedChunk, Fault, FaultPlan, FaultStream, HeaderState, ModelTag,
    ReadPolicy, ReadSite, Reading, RetryPolicy, SampleEncoding, StoreError,
};

const SEED: u64 = 42;

/// A retry policy with no real delay — tests must never sleep.
fn instant_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_delay: Duration::ZERO,
    }
}

fn attack_meta(samples: usize, chunk: usize) -> ArchiveMeta {
    ArchiveMeta {
        samples_per_trace: samples,
        chunk_traces: chunk,
        model: ModelTag::Unspecified,
        seed: SEED,
        campaign: dpl_store::CampaignKind::Attack,
        table_digest: 0,
        encoding: SampleEncoding::F64,
        compression: Compression::None,
    }
}

fn tvla_meta(samples: usize, chunk: usize) -> ArchiveMeta {
    ArchiveMeta {
        campaign: dpl_store::CampaignKind::TvlaInterleaved,
        ..attack_meta(samples, chunk)
    }
}

/// Deterministic traces with nibble inputs (at most 16 distinct values), so
/// that an archive and any chunk-subset of it land in the same input
/// profile — the precondition for comparing their attack folds bit-exactly.
fn nibble_traces(count: usize, samples: usize) -> Vec<(u64, Vec<f64>)> {
    let mut state = 0x0123_4567_89AB_CDEF_u64 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let input = next() % 16;
            let values = (0..samples)
                .map(|_| (next() % 10_000) as f64 / 97.0 + input as f64)
                .collect();
            (input, values)
        })
        .collect()
}

/// Interleaved fixed-vs-random traces (the TVLA capture discipline): even
/// indices carry the fixed input, odd indices a random nibble.
fn interleaved_traces(count: usize, samples: usize) -> Vec<(u64, Vec<f64>)> {
    let random = nibble_traces(count, samples);
    random
        .into_iter()
        .enumerate()
        .map(|(t, (input, values))| {
            if t % 2 == 0 {
                (0x3, values)
            } else {
                (input, values)
            }
        })
        .collect()
}

/// Writes an archive of the given traces into a fresh in-memory buffer.
fn write_archive(traces: &[(u64, Vec<f64>)], meta: ArchiveMeta) -> Vec<u8> {
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    for (input, values) in traces {
        writer.append(*input, values).expect("append");
    }
    writer.finish().expect("finish");
    writer.into_inner().into_inner()
}

/// Byte offset of chunk `index` for an archive of full chunks.
fn chunk_offset(meta: &ArchiveMeta, index: usize) -> usize {
    // [k: u32][body_len: u32][inputs][samples][checksum]
    let chunk_bytes =
        8 + meta.chunk_traces * 8 + meta.chunk_traces * meta.samples_per_trace * 8 + 8;
    meta.header_len() + index * chunk_bytes
}

fn selection(input: u64, guess: u64) -> bool {
    (input ^ guess).count_ones() >= 2
}

fn model(input: u64, guess: u64) -> f64 {
    ((input ^ guess).count_ones()) as f64 + (input % 3) as f64 * 0.25
}

/// Drives a full capture of `traces` through the given stream.
type Salvaged<T, E> = Result<(T, DamageReport), E>;

/// A salvage DPA through the fold engine, with the bookkeeping the strict
/// entry points pick.
fn salvage_dpa<S: ChunkSource>(
    source: &mut S,
    retry: &RetryPolicy,
) -> Salvaged<AttackResult, StoreError> {
    let acc = DpaAccumulator::with_profile(16, selection, input_profile(source))?;
    fold(source, acc, Reading::Salvage(retry))
}

/// A salvage CPA through the fold engine.
fn salvage_cpa<S: ChunkSource>(
    source: &mut S,
    retry: &RetryPolicy,
) -> Salvaged<AttackResult, StoreError> {
    let acc = CpaAccumulator::with_profile(16, model, input_profile(source))?;
    fold(source, acc, Reading::Salvage(retry))
}

/// A TVLA of either order through the fold engine.
fn tvla_fold<S: ChunkSource>(
    source: &mut S,
    order: TvlaOrder,
    reading: Reading<'_>,
) -> Salvaged<TvlaResult, EvalError> {
    match order {
        TvlaOrder::First => fold(
            source,
            WelchAccumulator::new(interleaved_partition),
            reading,
        ),
        TvlaOrder::Second => fold(
            source,
            SecondOrderWelchAccumulator::new(interleaved_partition),
            reading,
        )
        .map(|((_, second), report)| (second, report)),
    }
}

/// The same TVLA with `workers` read-ahead threads opening sources via
/// `open`.
fn tvla_read_ahead<S, O>(
    open: O,
    order: TvlaOrder,
    reading: Reading<'_>,
    workers: usize,
) -> Salvaged<TvlaResult, EvalError>
where
    S: ChunkSource,
    O: Fn() -> dpl_store::Result<S> + Sync,
{
    let workers = Some(workers);
    match order {
        TvlaOrder::First => {
            let acc = WelchAccumulator::new(interleaved_partition);
            fold_read_ahead(open, acc, reading, workers, None)
        }
        TvlaOrder::Second => {
            let acc = SecondOrderWelchAccumulator::new(interleaved_partition);
            fold_read_ahead(open, acc, reading, workers, None)
                .map(|((_, second), report)| (second, report))
        }
    }
}

fn capture_into<W: dpl_store::SyncWrite>(
    stream: W,
    meta: ArchiveMeta,
    traces: &[(u64, Vec<f64>)],
) -> Result<W, StoreError> {
    let mut writer = ArchiveWriter::new(stream, meta)?;
    for (input, values) in traces {
        writer.append(*input, values)?;
    }
    writer.finish()?;
    Ok(writer.into_inner())
}

/// The tentpole guarantee, exhaustively: inject a fault at **every** I/O
/// operation the capture performs, for every fault kind.  Each run must
/// either (a) produce the clean archive bit-exactly, (b) fail with a typed
/// error from which `resume` rebuilds the clean archive bit-exactly, or
/// (c) "succeed" with silent corruption that every read path then detects
/// as a typed error — never a wrong-but-plausible archive.
#[test]
fn exhaustive_fault_sweep_every_site_fails_closed_or_recovers() {
    let meta = attack_meta(2, 16);
    // 60 traces = 3 full chunks + a 12-trace partial flushed by finish.
    let traces = nibble_traces(60, 2);

    let mut clean = Vec::new();
    let ops = {
        let stream = capture_into(
            FaultStream::counting(Cursor::new(&mut clean)),
            meta,
            &traces,
        )
        .expect("fault-free capture");
        stream.ops()
    };
    assert!(
        ops >= 8,
        "expected a multi-operation capture, counted {ops}"
    );

    let kinds = [
        Fault::Error {
            kind: ErrorKind::Other,
        },
        Fault::TornWrite { keep: 3 },
        Fault::BitFlip { mask: 0x10 },
    ];
    for op in 0..ops {
        for fault in kinds {
            let mut bytes: Vec<u8> = Vec::new();
            let outcome = capture_into(
                FaultStream::new(Cursor::new(&mut bytes), FaultPlan::new().with(op, fault)),
                meta,
                &traces,
            )
            .map(|_| ());
            match outcome {
                Ok(()) => {
                    if bytes == clean {
                        continue;
                    }
                    // Silent corruption (a bit flip): every read path must
                    // detect it.  Either the header refuses to decode, or
                    // strict reads fail typed and the salvage scan pins the
                    // damage to a chunk.
                    match ArchiveReader::new(Cursor::new(bytes.clone())) {
                        Err(_) => {}
                        Ok(mut reader) => {
                            assert!(
                                reader.read_all().is_err(),
                                "op {op} {fault:?}: corrupt archive read back silently"
                            );
                            let mut salvage = ArchiveReader::with_policy(
                                Cursor::new(bytes.clone()),
                                ReadPolicy::Salvage,
                            )
                            .expect("salvage open");
                            let report = salvage.scan(&instant_retry(0)).expect("scan");
                            assert!(
                                !report.is_clean(),
                                "op {op} {fault:?}: salvage scan missed the corruption"
                            );
                        }
                    }
                }
                Err(error) => {
                    // Fail closed: the error is typed, and the crashed file
                    // resumes to the uninterrupted capture, byte for byte.
                    assert!(!error.to_string().is_empty());
                    let (mut writer, recovery) =
                        ArchiveWriter::resume_stream(Cursor::new(&mut bytes), meta)
                            .expect("resume after injected fault");
                    assert_eq!(writer.traces_written(), recovery.recovered_traces());
                    let done = writer.traces_written() as usize;
                    assert!(done <= traces.len());
                    for (input, values) in &traces[done..] {
                        writer.append(*input, values).expect("resumed append");
                    }
                    writer.finish().expect("resumed finish");
                    drop(writer);
                    assert_eq!(
                        bytes, clean,
                        "op {op} {fault:?}: resumed capture is not bit-identical"
                    );
                }
            }
        }
    }
}

/// The recovery scan classifies the header states and reports the valid
/// prefix, and a different campaign's archive is refused outright.
#[test]
fn recover_reports_prefix_and_header_state() {
    let meta = attack_meta(1, 8);
    let traces = nibble_traces(20, 1);
    let finished = write_archive(&traces, meta);

    // A finished archive: everything recovered (the trailing partial chunk
    // re-buffered), nothing dropped.
    let (_, recovery) =
        ArchiveWriter::resume_stream(Cursor::new(finished.clone()), meta).expect("resume");
    assert_eq!(recovery.header, HeaderState::Finished);
    assert_eq!(recovery.full_chunks, 2);
    assert_eq!(recovery.full_traces, 16);
    assert_eq!(recovery.buffered_traces, 4);
    assert_eq!(recovery.dropped_bytes, 0);
    assert_eq!(recovery.recovered_traces(), 20);

    // A mid-capture crash: zeroed header, torn tail dropped.
    let mut unfinished = finished.clone();
    for byte in unfinished[..meta.header_len()].iter_mut() {
        *byte = 0;
    }
    unfinished.truncate(finished.len() - 3);
    let (_, recovery) =
        ArchiveWriter::resume_stream(Cursor::new(unfinished), meta).expect("resume");
    assert_eq!(recovery.header, HeaderState::Placeholder);
    assert_eq!(recovery.full_chunks, 2);
    assert_eq!(recovery.buffered_traces, 0);
    assert!(recovery.dropped_bytes > 0);

    // A different campaign's archive is refused, not "recovered".
    let other = ArchiveMeta {
        seed: SEED + 1,
        ..meta
    };
    let refused = ArchiveWriter::resume_stream(Cursor::new(finished), other).map(|_| ());
    assert!(matches!(refused, Err(StoreError::ResumeMismatch { .. })));
}

/// Resuming a finished archive appends after its last trace; the result is
/// bit-identical to capturing everything in one uninterrupted run.
#[test]
fn resume_extends_a_finished_archive_bit_exactly() {
    let meta = attack_meta(2, 8);
    let traces = nibble_traces(36, 2);
    let full = write_archive(&traces, meta);
    let prefix = write_archive(&traces[..20], meta);

    let (mut writer, recovery) =
        ArchiveWriter::resume_stream(Cursor::new(prefix), meta).expect("resume");
    assert_eq!(recovery.header, HeaderState::Finished);
    assert_eq!(writer.traces_written(), 20);
    for (input, values) in &traces[20..] {
        writer.append(*input, values).expect("append");
    }
    writer.finish().expect("finish");
    assert_eq!(writer.into_inner().into_inner(), full);
}

/// A file that ends inside the header reports `Truncated { at: Header }` —
/// not damage in a nonexistent chunk 0.
#[test]
fn header_truncation_is_typed_as_header_site() {
    let meta = attack_meta(1, 4);
    let bytes = write_archive(&nibble_traces(8, 1), meta);

    for keep in [0usize, 3, 10, meta.header_len() - 1] {
        let result = ArchiveReader::new(Cursor::new(bytes[..keep].to_vec())).map(|_| ());
        assert!(
            matches!(
                result,
                Err(StoreError::Truncated {
                    at: ReadSite::Header
                })
            ),
            "keep {keep}: {result:?}"
        );
    }

    // Truncation inside a chunk names that chunk.
    let mut salvage = ArchiveReader::with_policy(
        Cursor::new(bytes[..bytes.len() - 4].to_vec()),
        ReadPolicy::Salvage,
    )
    .expect("salvage open tolerates the short file");
    let report = salvage.scan(&instant_retry(0)).expect("scan");
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].chunk, 1);
    assert_eq!(report.damaged[0].cause, DamageCause::Truncated);
}

/// The acceptance scenario: corrupt exactly one chunk of an archive; the
/// salvage attack must succeed, report exactly that chunk, and produce
/// scores bit-identical to a strict attack over an archive written without
/// that chunk's traces.
#[test]
fn salvage_attack_equals_strict_attack_without_the_lost_chunk() {
    let meta = attack_meta(2, 16);
    let traces = nibble_traces(80, 2); // 5 full chunks
    let full = write_archive(&traces, meta);

    let damaged_chunk = 2usize;
    let mut corrupt = full.clone();
    corrupt[chunk_offset(&meta, damaged_chunk) + 9] ^= 0xFF;

    // Strict reads refuse the damaged archive outright.
    let mut strict = ArchiveReader::new(Cursor::new(corrupt.clone())).expect("open");
    assert!(matches!(
        strict.read_all(),
        Err(StoreError::ChecksumMismatch { chunk: 2 })
    ));

    // The comparison archive: the same campaign minus the lost chunk.
    let mut survivors = traces.clone();
    survivors.drain(damaged_chunk * 16..(damaged_chunk + 1) * 16);
    let without = write_archive(&survivors, meta);
    let retry = instant_retry(1);

    // DPA.
    let mut damaged = ArchiveReader::with_policy(Cursor::new(corrupt.clone()), ReadPolicy::Salvage)
        .expect("salvage open");
    let (salvaged, report) = salvage_dpa(&mut damaged, &retry).expect("salvage DPA");
    assert_eq!(
        report.damaged,
        vec![DamagedChunk {
            chunk: damaged_chunk,
            cause: DamageCause::ChecksumMismatch,
            traces_lost: 16,
        }]
    );
    assert_eq!(report.traces_read, 64);
    let mut clean = ArchiveReader::new(Cursor::new(without.clone())).expect("open");
    let expected = dpa_attack_streaming(&mut clean, 16, selection).expect("strict DPA");
    assert_eq!(salvaged.best_guess, expected.best_guess);
    for (a, b) in salvaged.scores.iter().zip(&expected.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "DPA scores not bit-identical");
    }

    // CPA.  Only 64 traces survive, so even these nibble inputs take the
    // two-pass fold (sets of at most 64 traces replay), and pass 2 must
    // skip the same chunk.  Larger few-class archives are read once; see
    // `few_class_cpa_salvage_reads_each_intact_chunk_once`.
    let mut damaged = ArchiveReader::with_policy(Cursor::new(corrupt.clone()), ReadPolicy::Salvage)
        .expect("salvage open");
    let (salvaged, report) = salvage_cpa(&mut damaged, &retry).expect("salvage CPA");
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].chunk, damaged_chunk);
    let mut clean = ArchiveReader::new(Cursor::new(without)).expect("open");
    let expected = cpa_attack_streaming(&mut clean, 16, model).expect("strict CPA");
    assert_eq!(salvaged.best_guess, expected.best_guess);
    for (a, b) in salvaged.scores.iter().zip(&expected.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "CPA scores not bit-identical");
    }
}

/// Counts stream operations the way [`FaultStream`] does (one per `read`
/// or `seek` call) into a counter the test keeps, so it can locate the
/// operations of one chunk read inside a longer workload.
struct OpCounter<R> {
    inner: R,
    ops: Rc<Cell<u64>>,
}

impl<R: Read> Read for OpCounter<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.ops.set(self.ops.get() + 1);
        self.inner.read(buf)
    }
}

impl<R: Seek> Seek for OpCounter<R> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.ops.set(self.ops.get() + 1);
        self.inner.seek(pos)
    }
}

/// A chunk that verifies on its first read but is corrupted on its second
/// must fail a diverse-input salvage CPA closed: the two passes would fold
/// different traces, so the call returns the error instead of scores.
#[test]
fn cpa_salvage_fails_closed_when_a_chunk_fails_only_its_second_read() {
    let meta = attack_meta(2, 16);
    // Full 64-bit inputs: 96 distinct values, past class aggregation, so
    // the CPA takes its two-pass path.
    let traces: Vec<(u64, Vec<f64>)> = nibble_traces(96, 2)
        .into_iter()
        .enumerate()
        .map(|(t, (input, values))| ((t as u64) << 8 | input, values))
        .collect();
    let bytes = write_archive(&traces, meta);
    let chunks = traces.len() / 16;
    let target = 3usize;
    let retry = instant_retry(0);

    let mut clean = ArchiveReader::with_policy(Cursor::new(bytes.clone()), ReadPolicy::Salvage)
        .expect("salvage open");
    let (expected, report) = salvage_cpa(&mut clean, &retry).expect("clean");
    assert!(report.is_clean());

    // Locate the target chunk's pass-2 read: open, pass 1 over every
    // chunk, pass 2 up to the target.
    let ops = Rc::new(Cell::new(0));
    let stream = OpCounter {
        inner: Cursor::new(bytes.clone()),
        ops: Rc::clone(&ops),
    };
    let mut probe = ArchiveReader::with_policy(stream, ReadPolicy::Salvage).expect("probe");
    for index in (0..chunks).chain(0..target) {
        probe.read_chunk_salvage(index, &retry).expect("probe read");
    }
    let start = ops.get();
    probe
        .read_chunk_salvage(target, &retry)
        .expect("probe read");
    let end = ops.get();
    assert!(end > start);

    let mut failed_closed = 0;
    for op in start..end {
        let stream = FaultStream::new(Cursor::new(bytes.clone()), FaultPlan::bit_flip_at(op, 0x40));
        let mut reader =
            ArchiveReader::with_policy(stream, ReadPolicy::Salvage).expect("salvage open");
        match salvage_cpa(&mut reader, &retry) {
            Err(StoreError::FormatViolation { message }) => {
                assert!(
                    message.contains(&format!(
                        "chunk {target} verified in pass 1 but failed in pass 2"
                    )),
                    "op {op}: {message}"
                );
                failed_closed += 1;
            }
            // A flip on an operation that moves no bytes lands nowhere.
            Ok((result, report)) => {
                assert!(report.is_clean(), "op {op}");
                assert_eq!(result.scores, expected.scores, "op {op}");
            }
            Err(other) => panic!("op {op}: unexpected error {other}"),
        }
    }
    assert!(
        failed_closed > 0,
        "no flip in ops {start}..{end} hit the chunk"
    );
}

/// A few-class salvage CPA takes the one-pass fold: every intact chunk is
/// read and folded exactly once, and the scores equal the strict attack
/// over the archive written without the lost chunk.
#[test]
fn few_class_cpa_salvage_reads_each_intact_chunk_once() {
    let meta = attack_meta(2, 16);
    let traces = nibble_traces(160, 2); // 10 full chunks, 16 classes
    let damaged_chunk = 3usize;
    let mut corrupt = write_archive(&traces, meta);
    corrupt[chunk_offset(&meta, damaged_chunk) + 21] ^= 0x40;
    let mut survivors = traces;
    survivors.drain(damaged_chunk * 16..(damaged_chunk + 1) * 16);
    let without = write_archive(&survivors, meta);

    let obs = Obs::deterministic(10);
    let mut damaged = ArchiveReader::with_policy(Cursor::new(corrupt), ReadPolicy::Salvage)
        .expect("salvage open");
    damaged.set_obs(&obs);
    let (salvaged, report) = salvage_cpa(&mut damaged, &instant_retry(1)).expect("salvage CPA");
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.traces_read, survivors.len() as u64);
    let metrics = obs.metrics();
    assert_eq!(metrics.counter(names::STORE_CHUNK_READS), Some(9));
    assert_eq!(
        metrics.counter(names::FOLD_TRACES),
        Some(survivors.len() as u64)
    );

    let mut clean = ArchiveReader::new(Cursor::new(without)).expect("open");
    let expected = cpa_attack_streaming(&mut clean, 16, model).expect("strict CPA");
    assert_eq!(salvaged.best_guess, expected.best_guess);
    for (a, b) in salvaged.scores.iter().zip(&expected.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "CPA scores not bit-identical");
    }
}

/// The same equality for the Welch t-test: a salvage TVLA over a damaged
/// interleaved archive equals the strict TVLA over the campaign written
/// without the lost chunk (chunks hold an even trace count, so the
/// fixed/random interleaving stays aligned).
#[test]
fn salvage_tvla_equals_strict_tvla_without_the_lost_chunk() {
    let meta = tvla_meta(2, 16);
    let traces = interleaved_traces(96, 2); // 6 full chunks
    let full = write_archive(&traces, meta);

    let damaged_chunk = 3usize;
    let mut corrupt = full;
    corrupt[chunk_offset(&meta, damaged_chunk) + 21] ^= 0x40;

    let mut survivors = traces;
    survivors.drain(damaged_chunk * 16..(damaged_chunk + 1) * 16);
    let without = write_archive(&survivors, meta);
    let retry = instant_retry(1);

    for order in [TvlaOrder::First, TvlaOrder::Second] {
        let mut damaged =
            ArchiveReader::with_policy(Cursor::new(corrupt.clone()), ReadPolicy::Salvage)
                .expect("salvage open");
        let (salvaged, report) =
            tvla_fold(&mut damaged, order, Reading::Salvage(&retry)).expect("salvage TVLA");
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].chunk, damaged_chunk);
        assert_eq!(report.traces_read, 80);

        let mut clean = ArchiveReader::new(Cursor::new(without.clone())).expect("open");
        let (expected, _) = tvla_fold(&mut clean, order, Reading::Strict).expect("strict");
        assert_eq!(salvaged.counts, expected.counts);
        for (a, b) in salvaged.t.iter().zip(&expected.t) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{order:?} t-stats not bit-identical"
            );
        }
    }
}

/// A read-ahead fold fails like the sequential fold, for any worker count:
/// a corrupted chunk surfaces as that chunk's checksum mismatch, and an
/// opener that fails — on the caller's probe or on the workers — returns
/// its error.  Every case returns, so no worker is left waiting.
#[test]
fn read_ahead_failures_match_the_sequential_fold() {
    let meta = tvla_meta(2, 16);
    let clean = write_archive(&interleaved_traces(96, 2), meta); // 6 chunks
    let damaged_chunk = 3usize;
    let mut corrupt = clean.clone();
    corrupt[chunk_offset(&meta, damaged_chunk) + 21] ^= 0x40;
    let mismatch = EvalError::Store(StoreError::ChecksumMismatch {
        chunk: damaged_chunk,
    });
    let unopenable = EvalError::Store(
        ArchiveReader::new(Cursor::new(Vec::new()))
            .map(|_| ())
            .expect_err("an empty archive does not open"),
    );
    let opens = AtomicUsize::new(0);
    for order in [TvlaOrder::First, TvlaOrder::Second] {
        let mut reader = ArchiveReader::new(Cursor::new(corrupt.clone())).expect("open");
        let sequential = tvla_fold(&mut reader, order, Reading::Strict).expect_err("corrupt");
        assert_eq!(sequential, mismatch, "{order:?}");
        for workers in 1..=4 {
            let case = format!("{order:?}, {workers} workers");
            let damaged = || ArchiveReader::new(Cursor::new(corrupt.clone()));
            let failed = tvla_read_ahead(damaged, order, Reading::Strict, workers);
            assert_eq!(failed.expect_err("corrupt"), mismatch, "{case}");

            let never = || ArchiveReader::new(Cursor::new(Vec::new()));
            let failed = tvla_read_ahead(never, order, Reading::Strict, workers);
            assert_eq!(failed.expect_err("no source"), unopenable, "{case}");

            // The caller's probe opens; every worker's open fails.
            opens.store(0, Ordering::SeqCst);
            let probe_only = || {
                let bytes = match opens.fetch_add(1, Ordering::SeqCst) {
                    0 => clean.clone(),
                    _ => Vec::new(),
                };
                ArchiveReader::new(Cursor::new(bytes))
            };
            let failed = tvla_read_ahead(probe_only, order, Reading::Strict, workers);
            assert_eq!(failed.expect_err("no worker source"), unopenable, "{case}");
        }
    }
}

/// A source whose chunk `target` verifies on its first read and fails its
/// checksum on every later one, counted across all sources sharing `reads`:
/// a chunk that fails only its replay, whichever read-ahead thread reads it.
struct FailsOnReplay {
    clean: ArchiveReader<Cursor<Vec<u8>>>,
    corrupt: ArchiveReader<Cursor<Vec<u8>>>,
    target: usize,
    reads: Arc<AtomicUsize>,
}

impl ChunkSource for FailsOnReplay {
    fn meta(&self) -> &ArchiveMeta {
        self.clean.meta()
    }

    fn trace_count(&self) -> u64 {
        self.clean.trace_count()
    }

    fn chunk_count(&self) -> usize {
        self.clean.chunk_count()
    }

    fn distinct_inputs(&self) -> Option<usize> {
        self.clean.distinct_inputs()
    }

    fn read_chunk(&mut self, index: usize) -> dpl_store::Result<TraceSet> {
        if index == self.target && self.reads.fetch_add(1, Ordering::SeqCst) > 0 {
            self.corrupt.read_chunk(index)
        } else {
            self.clean.read_chunk(index)
        }
    }

    fn obs(&self) -> Option<&Obs> {
        None
    }
}

/// A salvage read-ahead fold fails closed, like the sequential one, when a
/// chunk verifies in pass 1 but fails its replay.
#[test]
fn read_ahead_salvage_fails_closed_when_a_chunk_fails_only_its_replay() {
    let meta = tvla_meta(2, 16);
    let clean = write_archive(&interleaved_traces(96, 2), meta); // 6 chunks
    let target = 3usize;
    let mut corrupt = clean.clone();
    corrupt[chunk_offset(&meta, target) + 21] ^= 0x40;
    let retry = instant_retry(0);
    let reads = Arc::new(AtomicUsize::new(0));
    let open = || {
        let reader = |bytes: &Vec<u8>| {
            ArchiveReader::with_policy(Cursor::new(bytes.clone()), ReadPolicy::Salvage)
        };
        Ok(FailsOnReplay {
            clean: reader(&clean)?,
            corrupt: reader(&corrupt)?,
            target,
            reads: Arc::clone(&reads),
        })
    };
    let mut source = open().expect("open");
    let sequential = tvla_fold(&mut source, TvlaOrder::Second, Reading::Salvage(&retry));
    let sequential = sequential.expect_err("the replay fails");
    let EvalError::Store(StoreError::FormatViolation { message }) = &sequential else {
        panic!("unexpected error {sequential}");
    };
    assert!(
        message.contains(&format!(
            "chunk {target} verified in pass 1 but failed in pass 2"
        )),
        "{message}"
    );
    for workers in 1..=4 {
        reads.store(0, Ordering::SeqCst);
        let failed = tvla_read_ahead(open, TvlaOrder::Second, Reading::Salvage(&retry), workers);
        assert_eq!(
            failed.expect_err("the replay fails"),
            sequential,
            "{workers} workers"
        );
    }
}

/// `repair_archive` writes a clean quarantined copy that is byte-identical
/// to an archive captured without the lost traces, and leaves the damaged
/// original untouched.
#[test]
fn repair_round_trips_the_surviving_traces_bit_exactly() {
    let meta = attack_meta(1, 8);
    let traces = nibble_traces(40, 1); // 5 full chunks
    let full = write_archive(&traces, meta);
    let mut corrupt = full;
    corrupt[chunk_offset(&meta, 1) + 5] ^= 0x01;

    let dir = std::env::temp_dir();
    let src = dir.join("dpl_fault_tolerance_repair_src.dpltrc");
    let dst = dir.join("dpl_fault_tolerance_repair_dst.dpltrc");
    std::fs::write(&src, &corrupt).expect("write damaged archive");

    let (report, kept) = repair_archive(&src, &dst, &instant_retry(1)).expect("repair");
    assert_eq!(kept, 32);
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].chunk, 1);

    let mut survivors = traces;
    survivors.drain(8..16);
    let expected = write_archive(&survivors, meta);
    let repaired = std::fs::read(&dst).expect("read repaired copy");
    assert_eq!(repaired, expected, "repaired copy is not bit-identical");
    assert_eq!(
        std::fs::read(&src).expect("reread"),
        corrupt,
        "source modified"
    );

    std::fs::remove_file(&src).ok();
    std::fs::remove_file(&dst).ok();
}

/// `recover` + `resume` on a real file round-trips the valid prefix through
/// the CLI-facing entry points.
#[test]
fn file_backed_resume_round_trips() {
    let meta = attack_meta(1, 8);
    let traces = nibble_traces(30, 1);
    let full = write_archive(&traces, meta);

    // Simulate a crash: valid prefix of 2 chunks, zeroed header, torn tail.
    let mut crashed = full.clone();
    for byte in crashed[..meta.header_len()].iter_mut() {
        *byte = 0;
    }
    crashed.truncate(chunk_offset(&meta, 2) + 7);

    let dir = std::env::temp_dir();
    let path = dir.join("dpl_fault_tolerance_resume.dpltrc");
    std::fs::write(&path, &crashed).expect("write crashed capture");

    let recovery = recover(&path, meta).expect("recover");
    assert_eq!(recovery.header, HeaderState::Placeholder);
    assert_eq!(recovery.full_chunks, 2);
    assert_eq!(recovery.dropped_bytes, 7);

    let (mut writer, recovery) = ArchiveWriter::resume(&path, meta).expect("resume");
    assert_eq!(recovery.recovered_traces(), 16);
    for (input, values) in &traces[16..] {
        writer.append(*input, values).expect("append");
    }
    writer.finish().expect("finish");
    drop(writer);

    assert_eq!(std::fs::read(&path).expect("read"), full);
    std::fs::remove_file(&path).ok();
}

/// Transient read faults are absorbed by the retry policy: for a fault
/// injected at any operation index, a salvage scan with one retry either
/// fails during header decode (open is not retried) or completes with
/// every chunk intact.
#[test]
fn transient_read_faults_are_retried_away() {
    let meta = attack_meta(2, 8);
    let traces = nibble_traces(32, 2);
    let bytes = write_archive(&traces, meta);
    let retry = instant_retry(1);

    let mut survived_past_open = 0u32;
    for op in 0..64 {
        let stream = FaultStream::new(
            Cursor::new(bytes.clone()),
            FaultPlan::error_at(op, ErrorKind::Interrupted),
        );
        match ArchiveReader::with_policy(stream, ReadPolicy::Salvage) {
            Err(e) => assert!(e.is_transient(), "open failed non-transiently: {e}"),
            Ok(mut reader) => {
                survived_past_open += 1;
                let report = reader.scan(&retry).expect("scan with retry");
                assert!(
                    report.is_clean(),
                    "op {op}: a transient fault was misreported as damage: {:?}",
                    report.damaged
                );
                assert_eq!(report.traces_read, 32);
            }
        }
    }
    assert!(survived_past_open > 0, "every fault hit the open path");

    // Without retries the same transient fault is damage — the policy is
    // what distinguishes a flaky read from a lost chunk.
    let stream = FaultStream::new(
        Cursor::new(bytes.clone()),
        // Operation indices: open consumes a handful; pick one inside the
        // chunk reads by probing with the retried scan above having proven
        // indices < 64 cover them.
        FaultPlan::error_at(12, ErrorKind::Interrupted),
    );
    if let Ok(mut reader) = ArchiveReader::with_policy(stream, ReadPolicy::Salvage) {
        let report = reader.scan(&instant_retry(0)).expect("scan");
        // Either the fault fell on a chunk read (→ damage recorded as Io)
        // or it fell outside the scan's reads; both are typed, never wrong.
        for damaged in &report.damaged {
            assert_eq!(
                damaged.cause,
                DamageCause::Io {
                    kind: ErrorKind::Interrupted
                }
            );
        }
    }
}

/// The retry policy's contract, without a single sleep: exponential
/// backoffs are reported to the injected sink, transient errors are retried
/// up to the budget, and non-transient errors are never retried.
#[test]
fn retry_policy_backoff_sequence_is_deterministic() {
    let policy = RetryPolicy {
        max_retries: 3,
        base_delay: Duration::from_millis(2),
    };

    // Succeeds on the final attempt; the sink sees the full backoff ramp.
    let mut delays = Vec::new();
    let mut calls = 0u32;
    let result = policy.run_with(
        || {
            calls += 1;
            if calls <= 3 {
                Err(StoreError::Io {
                    kind: ErrorKind::Interrupted,
                    message: "flaky".into(),
                })
            } else {
                Ok(calls)
            }
        },
        |delay| delays.push(delay),
    );
    assert_eq!(result.expect("recovered"), 4);
    assert_eq!(
        delays,
        vec![
            Duration::from_millis(2),
            Duration::from_millis(4),
            Duration::from_millis(8),
        ]
    );

    // Budget exhaustion returns the last transient error.
    let mut delays = Vec::new();
    let exhausted: Result<(), _> = policy.run_with(
        || {
            Err(StoreError::Io {
                kind: ErrorKind::TimedOut,
                message: "still down".into(),
            })
        },
        |delay| delays.push(delay),
    );
    assert!(matches!(
        exhausted,
        Err(StoreError::Io {
            kind: ErrorKind::TimedOut,
            ..
        })
    ));
    assert_eq!(delays.len(), 3);

    // Corruption is never retried: one call, no backoff.
    let mut calls = 0u32;
    let mut delays = Vec::new();
    let corrupt: Result<(), _> = policy.run_with(
        || {
            calls += 1;
            Err(StoreError::ChecksumMismatch { chunk: 0 })
        },
        |delay| delays.push(delay),
    );
    assert!(matches!(
        corrupt,
        Err(StoreError::ChecksumMismatch { chunk: 0 })
    ));
    assert_eq!(calls, 1);
    assert!(delays.is_empty());
}

/// On an undamaged archive, the salvage scan is clean and salvage reads are
/// exercised through the same accumulators as strict reads — the
/// bit-identity is property-tested over arbitrary shapes in
/// `store_roundtrip.rs`; this pins the report bookkeeping.
#[test]
fn salvage_scan_of_a_clean_archive_reports_clean() {
    let meta = attack_meta(3, 8);
    let traces = nibble_traces(52, 3);
    let bytes = write_archive(&traces, meta);

    let mut reader =
        ArchiveReader::with_policy(Cursor::new(bytes), ReadPolicy::Salvage).expect("open");
    assert_eq!(reader.policy(), ReadPolicy::Salvage);
    let report = reader.scan(&instant_retry(0)).expect("scan");
    assert!(report.is_clean());
    assert_eq!(report.chunks_scanned, 7);
    assert_eq!(report.traces_read, 52);
    assert_eq!(report.traces_total, 52);
    assert_eq!(report.traces_lost(), 0);
    assert!(report.render().contains("archive is clean"));
}
