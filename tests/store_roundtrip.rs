//! Property tests of the on-disk trace archive: write→read round-trips
//! preserve every sample bit-exactly over arbitrary trace counts, lengths
//! and chunkings, a flipped byte anywhere in the chunk data surfaces as a
//! checksum error rather than silently corrupt scores, and forged chunk
//! heads fail typed without reading (or allocating) past the file.

use std::cell::Cell;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::rc::Rc;

use dpl_power::{DpaAccumulator, TraceSet};
use dpl_store::format::{checksum64, HEADER_LEN_V4};
use dpl_store::{
    dpa_attack_streaming, fold, input_profile, ArchiveMeta, ArchiveReader, ArchiveWriter,
    Compression, DamageCause, DamagedChunk, Quantization, ReadPolicy, Reading, RetryPolicy,
    SampleEncoding, StoreError,
};
use proptest::prelude::*;

/// Deterministic trace material, including awkward values (negative,
/// subnormal-ish, huge) that must survive serialization bit-exactly.
fn synthetic_traces(seed: u64, count: usize, samples: usize) -> Vec<(u64, Vec<f64>)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let input = next();
            let values: Vec<f64> = (0..samples)
                .map(|_| {
                    let raw = next();
                    match raw % 5 {
                        0 => -(raw as f64) * 1e-9,
                        1 => raw as f64 * 1e12,
                        2 => f64::from_bits(0x000F_FFFF_FFFF_FFFF & raw) * 1e-300,
                        3 => (raw % 1000) as f64 / 7.0,
                        _ => raw as f64,
                    }
                })
                .collect();
            (input, values)
        })
        .collect()
}

fn write_archive(traces: &[(u64, Vec<f64>)], samples: usize, chunk: usize, seed: u64) -> Vec<u8> {
    let meta = ArchiveMeta {
        samples_per_trace: samples,
        chunk_traces: chunk,
        model: dpl_store::ModelTag::Unspecified,
        seed,
        campaign: dpl_store::CampaignKind::Attack,
        table_digest: 0,
        encoding: SampleEncoding::F64,
        compression: Compression::None,
    };
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    for (input, values) in traces {
        writer.append(*input, values).expect("append");
    }
    assert_eq!(writer.finish().expect("finish"), traces.len() as u64);
    writer.into_inner().into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Write→read round-trips preserve every input and every sample bit,
    /// for any trace count / trace length / chunk size combination.
    #[test]
    fn archive_round_trip_is_bit_exact(
        seed in 0u64..100_000,
        count in 1usize..220,
        samples in 1usize..6,
        chunk in 1usize..70,
    ) {
        let traces = synthetic_traces(seed, count, samples);
        let bytes = write_archive(&traces, samples, chunk, seed);
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).expect("reader");
        prop_assert_eq!(reader.trace_count(), count as u64);
        prop_assert_eq!(reader.chunk_count(), count.div_ceil(chunk));
        prop_assert_eq!(reader.meta().seed, seed);

        let read_back = reader.read_all().expect("read_all");
        prop_assert_eq!(read_back.len(), count);
        for (t, (input, values)) in traces.iter().enumerate() {
            prop_assert_eq!(read_back.inputs()[t], *input);
            let samples_read = read_back.trace_samples(t);
            for (s, (a, b)) in samples_read.iter().zip(values).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "trace {} sample {}: {} != {}",
                    t,
                    s,
                    a,
                    b
                );
            }
        }

        // Chunk-by-chunk iteration covers the same traces in order.
        let mut rebuilt = TraceSet::new();
        for chunk in reader.chunks() {
            let chunk = chunk.expect("chunk");
            for t in 0..chunk.len() {
                rebuilt.push_samples(chunk.inputs()[t], &chunk.trace_samples(t));
            }
        }
        prop_assert_eq!(rebuilt, read_back);
    }

    /// A single flipped byte anywhere in the chunk data (prefix, inputs,
    /// samples or the checksum itself) is reported as a checksum mismatch,
    /// and the out-of-core attack refuses to produce scores from it.
    #[test]
    fn flipped_chunk_byte_surfaces_as_checksum_error(
        seed in 0u64..100_000,
        count in 1usize..150,
        samples in 1usize..4,
        chunk in 1usize..40,
        position in 0usize..1_000_000,
        bit in 0usize..8,
    ) {
        let traces = synthetic_traces(seed, count, samples);
        let bytes = write_archive(&traces, samples, chunk, seed);
        let body = bytes.len() - dpl_store::format::HEADER_LEN_V4;
        prop_assert!(body > 0);
        let offset = dpl_store::format::HEADER_LEN_V4 + position % body;

        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 1 << bit;
        let mut reader = ArchiveReader::new(Cursor::new(corrupt)).expect("header is intact");
        let result = reader.read_all();
        prop_assert!(
            matches!(result, Err(StoreError::ChecksumMismatch { .. })),
            "flip at {} produced {:?}",
            offset,
            result.map(|set| set.len())
        );
        let attack = dpa_attack_streaming(&mut reader, 16, |input, guess| {
            (input ^ guess).count_ones() >= 2
        });
        prop_assert!(attack.is_err());
    }

    /// On an undamaged archive, a salvage read is bit-identical to a strict
    /// read — same traces, same order, same sample bits — for any trace
    /// count / length / chunking, and the salvage scan reports it clean.
    #[test]
    fn salvage_read_of_clean_archive_is_bit_identical_to_strict(
        seed in 0u64..100_000,
        count in 1usize..220,
        samples in 1usize..6,
        chunk in 1usize..70,
    ) {
        let traces = synthetic_traces(seed, count, samples);
        let bytes = write_archive(&traces, samples, chunk, seed);

        let mut strict = ArchiveReader::new(Cursor::new(bytes.clone())).expect("strict reader");
        let strict_all = strict.read_all().expect("strict read");

        let mut salvage = ArchiveReader::with_policy(Cursor::new(bytes), ReadPolicy::Salvage)
            .expect("salvage reader");
        let retry = RetryPolicy::none();
        let report = salvage.scan(&retry).expect("scan");
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.traces_read, count as u64);

        let mut salvaged = TraceSet::new();
        for index in 0..salvage.chunk_count() {
            match salvage.read_chunk_salvage(index, &retry).expect("salvage read") {
                dpl_store::SalvageOutcome::Intact(set) => {
                    for t in 0..set.len() {
                        salvaged.push_samples(set.inputs()[t], &set.trace_samples(t));
                    }
                }
                dpl_store::SalvageOutcome::Damaged(d) => {
                    return Err(TestCaseError::fail(format!("clean chunk damaged: {d:?}")));
                }
            }
        }
        prop_assert_eq!(&salvaged, &strict_all);
        for t in 0..salvaged.len() {
            let a = salvaged.trace_samples(t);
            let b = strict_all.trace_samples(t);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Flipping a byte inside any single chunk degrades exactly that chunk
    /// under salvage: the damage report names it alone, with its exact
    /// trace count, and every other trace is still read back bit-exactly.
    #[test]
    fn flipped_chunk_byte_degrades_exactly_that_chunk(
        seed in 0u64..100_000,
        count in 1usize..150,
        samples in 1usize..4,
        chunk in 1usize..40,
        target in 0usize..1_000_000,
        position in 0usize..1_000_000,
        bit in 0usize..8,
    ) {
        let traces = synthetic_traces(seed, count, samples);
        let bytes = write_archive(&traces, samples, chunk, seed);

        // Pick a chunk, then a byte inside that chunk's span.
        let chunk_count = count.div_ceil(chunk);
        let target = target % chunk_count;
        // [k: u32][body_len: u32][inputs][samples][checksum]
        let full_chunk_bytes = |k: usize| 8 + k * 8 + k * samples * 8 + 8;
        let offset_of = |index: usize| {
            dpl_store::format::HEADER_LEN_V4 + index * full_chunk_bytes(chunk)
        };
        let traces_in_target = if target == chunk_count - 1 && count % chunk != 0 {
            count % chunk
        } else {
            chunk
        };
        let span = full_chunk_bytes(traces_in_target);
        let offset = offset_of(target) + position % span;

        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 1 << bit;

        let mut salvage = ArchiveReader::with_policy(Cursor::new(corrupt), ReadPolicy::Salvage)
            .expect("header is intact");
        let retry = RetryPolicy::none();
        let report = salvage.scan(&retry).expect("scan");
        prop_assert_eq!(report.damaged.len(), 1);
        prop_assert_eq!(report.damaged[0].chunk, target);
        prop_assert_eq!(report.damaged[0].cause.clone(), DamageCause::ChecksumMismatch);
        prop_assert_eq!(report.damaged[0].traces_lost, traces_in_target);
        prop_assert_eq!(report.traces_read, (count - traces_in_target) as u64);

        // Every surviving chunk still round-trips bit-exactly.
        for index in (0..chunk_count).filter(|&i| i != target) {
            match salvage.read_chunk_salvage(index, &retry).expect("salvage read") {
                dpl_store::SalvageOutcome::Intact(set) => {
                    let base = index * chunk;
                    for t in 0..set.len() {
                        prop_assert_eq!(set.inputs()[t], traces[base + t].0);
                        for (x, y) in set
                            .trace_samples(t)
                            .iter()
                            .zip(traces[base + t].1.iter())
                        {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
                dpl_store::SalvageOutcome::Damaged(d) => {
                    return Err(TestCaseError::fail(format!(
                        "intact chunk {index} reported damaged: {d:?}"
                    )));
                }
            }
        }
    }
}

/// A small multi-chunk archive (10 traces of 3 samples, chunks of 4) in the
/// given encoding and compression, with the `(start, len)` byte span of
/// every chunk read off its self-describing heads.
fn framed_archive(
    encoding: SampleEncoding,
    compression: Compression,
) -> (Vec<u8>, Vec<(usize, usize)>) {
    let meta = ArchiveMeta {
        samples_per_trace: 3,
        chunk_traces: 4,
        model: dpl_store::ModelTag::Unspecified,
        seed: 3,
        campaign: dpl_store::CampaignKind::Attack,
        table_digest: 0,
        encoding,
        compression,
    };
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    for t in 0..10u64 {
        let values = [t as f64 * 0.25, -(t as f64) * 0.125, (t % 3) as f64];
        writer.append(t % 16, &values).expect("append");
    }
    writer.finish().expect("finish");
    let bytes = writer.into_inner().into_inner();
    let mut spans = Vec::new();
    let mut at = HEADER_LEN_V4;
    while at < bytes.len() {
        let body_len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        spans.push((at, 16 + body_len));
        at += 16 + body_len;
    }
    assert_eq!(at, bytes.len());
    assert_eq!(spans.len(), 3);
    (bytes, spans)
}

fn framed_configs() -> [(SampleEncoding, Compression); 2] {
    let quantization = Quantization::for_max_magnitude(4.0).expect("quantization");
    [
        (SampleEncoding::F64, Compression::None),
        (SampleEncoding::I16(quantization), Compression::Shuffle),
    ]
}

/// Every single-byte flip of a multi-chunk version-4 archive — header or
/// any chunk, uncompressed f64 or compressed i16 — fails the strict read
/// with a typed error, and a salvage scan damages exactly the chunk hit.
#[test]
fn every_byte_flip_of_a_v4_archive_fails_closed_and_damages_only_its_chunk() {
    for (encoding, compression) in framed_configs() {
        let (bytes, spans) = framed_archive(encoding, compression);
        let traces_in = |chunk: usize| if chunk == 2 { 2 } else { 4 };
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x5A;
            let strict = ArchiveReader::new(Cursor::new(corrupt.clone()))
                .and_then(|mut reader| reader.read_all());
            assert!(
                strict.is_err(),
                "{encoding:?}/{compression:?}: flip at {offset} decoded silently"
            );

            let salvage = ArchiveReader::with_policy(Cursor::new(corrupt), ReadPolicy::Salvage);
            if offset < HEADER_LEN_V4 {
                // The header is the only description of the chunk geometry.
                assert!(salvage.is_err(), "header flip at {offset} opened");
                continue;
            }
            let hit = spans
                .iter()
                .position(|&(start, len)| (start..start + len).contains(&offset))
                .expect("every body byte belongs to a chunk");
            let report = salvage
                .expect("header is intact")
                .scan(&RetryPolicy::none())
                .expect("scan");
            let damaged: Vec<usize> = report.damaged.iter().map(|d| d.chunk).collect();
            assert_eq!(
                damaged,
                [hit],
                "{encoding:?}/{compression:?}: flip at {offset}"
            );
            assert_eq!(report.traces_read, (10 - traces_in(hit)) as u64);
        }
    }
}

/// A `Read + Seek` stream that records the largest single read request —
/// the reader sizes its chunk buffer to the request, so this bounds the
/// allocation a forged length can cause.
struct TrackedCursor {
    inner: Cursor<Vec<u8>>,
    largest: Rc<Cell<usize>>,
}

impl Read for TrackedCursor {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest.set(self.largest.get().max(buf.len()));
        self.inner.read(buf)
    }
}

impl Seek for TrackedCursor {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Forged chunk heads — a trace count of 0 or `u32::MAX`, a body length at
/// or near `u32::MAX` — with a re-sealed, self-consistent chunk checksum
/// fail with a typed error under both policies, and no read ever asks for
/// more bytes than the file holds.
#[test]
fn forged_chunk_heads_fail_typed_without_reading_past_the_file() {
    for (encoding, compression) in framed_configs() {
        let (bytes, spans) = framed_archive(encoding, compression);
        let (start, len) = spans[1];
        for (field, value) in [
            (0, 0u32),
            (0, u32::MAX),
            (4, u32::MAX),
            (4, u32::MAX - 15),
            (4, u32::MAX / 2),
        ] {
            let mut forged = bytes.clone();
            forged[start + field..start + field + 4].copy_from_slice(&value.to_le_bytes());
            let sealed = checksum64(&forged[start..start + len - 8]);
            forged[start + len - 8..start + len].copy_from_slice(&sealed.to_le_bytes());

            let largest = Rc::new(Cell::new(0));
            let stream = || TrackedCursor {
                inner: Cursor::new(forged.clone()),
                largest: Rc::clone(&largest),
            };
            let strict = ArchiveReader::new(stream()).and_then(|mut reader| reader.read_all());
            assert!(
                matches!(
                    strict,
                    Err(StoreError::FormatViolation { .. }
                        | StoreError::Truncated { .. }
                        | StoreError::ChecksumMismatch { .. })
                ),
                "{encoding:?}: forged {value:#X} at +{field} gave {:?}",
                strict.map(|set| set.len())
            );
            let report = ArchiveReader::with_policy(stream(), ReadPolicy::Salvage)
                .expect("header is intact")
                .scan(&RetryPolicy::none())
                .expect("scan");
            let damaged: Vec<usize> = report.damaged.iter().map(|d| d.chunk).collect();
            assert_eq!(damaged, [1], "{encoding:?}: forged {value:#X} at +{field}");
            assert!(
                largest.get() <= forged.len(),
                "{encoding:?}: a read of {} bytes from a {}-byte file",
                largest.get(),
                forged.len()
            );
        }
    }
}

/// Chunk 1 of a [`framed_archive`] with `forge` applied to its head and
/// body (`[k: u32][body_len: u32][body]`) and its checksum re-sealed: a
/// chunk that verifies but does not decode.
fn reseal_chunk_1(
    bytes: &[u8],
    spans: &[(usize, usize)],
    forge: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let (start, len) = spans[1];
    let mut chunk = bytes[start..start + len - 8].to_vec();
    forge(&mut chunk);
    let sealed = checksum64(&chunk);
    chunk.extend_from_slice(&sealed.to_le_bytes());
    [&bytes[..start], &chunk, &bytes[start + len..]].concat()
}

/// A compressed chunk's `inputs_len` prefix (the first body word).
fn inputs_len(chunk: &[u8]) -> usize {
    u32::from_le_bytes(chunk[8..12].try_into().unwrap()) as usize
}

fn set_u32(chunk: &mut [u8], at: usize, value: usize) {
    chunk[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
}

/// Checksum-valid but undecodable chunk bodies — a truncated input varint,
/// an input block overrunning the body, a zero-run group overrunning its
/// plane, trailing bytes after the planes, and (uncompressed) a head whose
/// body length disagrees with the frame — fail the strict read with the
/// parser's message, and both the fsck scan and a salvage fold drop exactly
/// that chunk as a structural violation.
#[test]
fn checksum_valid_undecodable_bodies_are_structural_damage_of_their_chunk() {
    type Forgery = (&'static str, fn(&mut Vec<u8>));
    let compressed: [Forgery; 4] = [
        ("varint stream truncated", |chunk| {
            let last_input = 12 + inputs_len(chunk) - 1;
            chunk[last_input] |= 0x80;
        }),
        ("compressed input block overruns the chunk body", |chunk| {
            let body_len = chunk.len() - 8;
            set_u32(chunk, 8, body_len - 4 + 1);
        }),
        ("run group overruns its sample plane", |chunk| {
            // The first group's zero count: a one-byte varint, since a
            // plane holds 12 bytes.
            let first_group = 12 + inputs_len(chunk);
            chunk[first_group] = 0x7F;
        }),
        ("trailing bytes after the sample planes", |chunk| {
            chunk.push(0);
            let body_len = chunk.len() - 8;
            set_u32(chunk, 4, body_len);
        }),
    ];
    let uncompressed: [Forgery; 1] = [("its frame holds", |chunk| {
        let body_len = chunk.len() - 8;
        set_u32(chunk, 4, body_len - 1);
    })];
    let quantization = Quantization::for_max_magnitude(4.0).expect("quantization");
    let configs: [(SampleEncoding, Compression, &[Forgery]); 3] = [
        (SampleEncoding::F64, Compression::None, &uncompressed),
        (SampleEncoding::F64, Compression::Shuffle, &compressed),
        (
            SampleEncoding::I16(quantization),
            Compression::Shuffle,
            &compressed,
        ),
    ];
    for (encoding, compression, forgeries) in configs {
        let (bytes, spans) = framed_archive(encoding, compression);
        for &(message, forge) in forgeries {
            let case = format!("{encoding:?}/{compression:?}: {message}");
            let forged = reseal_chunk_1(&bytes, &spans, forge);
            let strict = ArchiveReader::new(Cursor::new(forged.clone()))
                .and_then(|mut reader| reader.read_all());
            match strict {
                Err(StoreError::FormatViolation { message: found }) => {
                    assert!(found.contains(message), "{case}: {found}");
                }
                other => panic!("{case}: {:?}", other.map(|set| set.len())),
            }

            let salvage = || {
                ArchiveReader::with_policy(Cursor::new(forged.clone()), ReadPolicy::Salvage)
                    .expect("header is intact")
            };
            let report = salvage().scan(&RetryPolicy::none()).expect("scan");
            assert_eq!(
                report.damaged,
                [DamagedChunk {
                    chunk: 1,
                    cause: DamageCause::Structural,
                    traces_lost: 4,
                }],
                "{case}"
            );
            assert_eq!(report.traces_read, 6, "{case}");
            assert!(
                report.render().contains("chunk 1: structural violation"),
                "{case}"
            );

            let mut reader = salvage();
            let selection = |input: u64, guess: u64| (input ^ guess) & 1 == 1;
            let acc =
                DpaAccumulator::with_profile(16, selection, input_profile(&reader)).expect("dpa");
            let retry = RetryPolicy::none();
            let (_, damage) =
                fold(&mut reader, acc, Reading::Salvage(&retry)).expect("salvage fold");
            assert_eq!(damage, report, "{case}");
        }
    }
}

/// Traces whose `distinct`-th distinct input first appears late (trace 250
/// of 300), so for 65 the class table overflows many chunks into the
/// capture.  Inputs are sparse 64-bit values, not small integers.
fn distinct_input_traces(distinct: u64) -> Vec<(u64, Vec<f64>)> {
    (0..300u64)
        .map(|t| {
            let class = if t >= 250 {
                distinct - 1
            } else {
                t % (distinct - 1).max(1)
            };
            let input = class.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0xA5A5;
            (input, vec![t as f64 * 0.5])
        })
        .collect()
}

/// The header records the exact distinct-input count up to the class
/// limit and 0 ("more than the limit") past it, the writer's table and
/// the reader agree with it, and a capture resumed from any chunk
/// boundary records the same count and bytes as the uninterrupted one.
#[test]
fn header_records_the_distinct_input_count_through_resume() {
    const CHUNK: usize = 16;
    for (distinct, expected) in [(1u64, Some(1)), (16, Some(16)), (64, Some(64)), (65, None)] {
        let traces = distinct_input_traces(distinct);
        let meta = ArchiveMeta::scalar(CHUNK, dpl_store::ModelTag::Unspecified, 5);
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
        for (input, values) in &traces {
            writer.append(*input, values).expect("append");
        }
        writer.finish().expect("finish");
        assert_eq!(writer.input_classes().distinct(), expected, "{distinct}");
        let bytes = writer.into_inner().into_inner();
        let field = u32::from_le_bytes(bytes[40..44].try_into().expect("4 bytes"));
        assert_eq!(field as usize, expected.unwrap_or(0), "{distinct}");
        let reader = ArchiveReader::new(Cursor::new(bytes.clone())).expect("reader");
        assert_eq!(reader.distinct_inputs(), expected, "{distinct}");

        // Crash with the header unwritten after every full chunk, resume.
        let chunk_len = 16 + CHUNK * 8 + CHUNK * 8;
        for kept in 0..traces.len() / CHUNK {
            let mut crashed = bytes[..HEADER_LEN_V4 + kept * chunk_len + 3].to_vec();
            crashed[..HEADER_LEN_V4].fill(0);
            let (mut writer, recovery) =
                ArchiveWriter::resume_stream(Cursor::new(crashed), meta).expect("resume");
            assert_eq!(recovery.recovered_traces(), (kept * CHUNK) as u64);
            for (input, values) in &traces[kept * CHUNK..] {
                writer.append(*input, values).expect("append");
            }
            writer.finish().expect("finish");
            assert_eq!(writer.input_classes().distinct(), expected);
            assert_eq!(
                writer.into_inner().into_inner(),
                bytes,
                "{distinct} distinct, resumed after {kept} chunk(s)"
            );
        }
    }
}
