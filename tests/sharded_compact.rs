//! Integration properties of the sharded trace plane and the compact
//! sample encodings: every encoding round-trips within its documented
//! contract under both compressions, corrupt chunk bodies fail with typed
//! errors, a campaign split across any number of shards folds bit-
//! identically to the single archive holding the same traces (DPA, CPA and
//! TVLA), the concurrent shard scan reports what each shard scanned alone
//! reports, quantized+compressed archives at least halve bytes/trace, and
//! the version-4 layout the writer emits stays byte-stable.  Reads of the
//! legacy v1–v3 layouts are pinned by `tests/legacy_fixtures.rs`.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    present_sbox, simulate_trace_range_into, simulate_tvla_trace_range_into,
    synthesize_sbox_with_key, GateEnergyTable, LeakageModel, LeakageOptions,
};
use dpl_eval::{
    interleaved_partition, tvla, SecondOrderWelchAccumulator, TvlaOrder, WelchAccumulator,
};
use dpl_obs::Obs;
use dpl_power::{CpaAccumulator, DpaAccumulator, InputProfile, TraceSet};
use dpl_store::{
    cpa_attack_parallel_with, cpa_attack_streaming, dpa_attack_streaming, fold, input_profile,
    ArchiveMeta, ArchiveReader, ArchiveWriter, CampaignKind, CampaignManifest, ChunkSource,
    Compression, DamageCause, DamageReport, DamagedChunk, ModelTag, Quantization, ReadPolicy,
    Reading, RetryPolicy, SampleEncoding, ShardMeta, ShardedReader, StoreError,
};
use proptest::prelude::*;

/// Distinct temp-file stems across proptest cases and parallel test
/// binaries.
static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_stem(name: &str) -> String {
    format!(
        "dpl_it_{}_{}_{}",
        name,
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    )
}

fn selection(plaintext: u64, guess: u64) -> bool {
    present_sbox((plaintext ^ guess) as u8).count_ones() >= 2
}

fn model(plaintext: u64, guess: u64) -> f64 {
    present_sbox((plaintext ^ guess) as u8).count_ones() as f64
}

/// Deterministic traces with samples bounded to [-4, 4] so the same
/// material exercises the i16 quantized encoding inside its contract
/// range.
fn bounded_traces(seed: u64, count: usize, samples: usize) -> Vec<(u64, Vec<f64>)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let input = next() % 16;
            let values: Vec<f64> = (0..samples)
                .map(|_| {
                    let raw = next();
                    ((raw % 8001) as f64 / 1000.0) - 4.0
                })
                .collect();
            (input, values)
        })
        .collect()
}

fn meta_with(
    samples: usize,
    chunk: usize,
    seed: u64,
    campaign: CampaignKind,
    encoding: SampleEncoding,
    compression: Compression,
) -> ArchiveMeta {
    ArchiveMeta {
        samples_per_trace: samples,
        chunk_traces: chunk,
        model: ModelTag::Unspecified,
        seed,
        campaign,
        table_digest: 0,
        encoding,
        compression,
    }
}

fn write_bytes(traces: &[(u64, Vec<f64>)], meta: ArchiveMeta) -> Vec<u8> {
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    for (input, values) in traces {
        writer.append(*input, values).expect("append");
    }
    assert_eq!(writer.finish().expect("finish"), traces.len() as u64);
    writer.into_inner().into_inner()
}

/// Splits `traces` into shard archives on disk (chunk-aligned, manifest
/// shape) and returns the manifest path plus every file written.
fn write_campaign(
    stem: &str,
    traces: &[(u64, Vec<f64>)],
    meta: ArchiveMeta,
    shards: usize,
) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir();
    let per_shard = traces
        .len()
        .div_ceil(meta.chunk_traces)
        .div_ceil(shards)
        .max(1)
        * meta.chunk_traces;
    let mut plan = Vec::new();
    let mut files = Vec::new();
    let mut start = 0usize;
    while start < traces.len() {
        let count = per_shard.min(traces.len() - start);
        let name = format!("{stem}-shard-{:03}.dpltrc", plan.len());
        let path = dir.join(&name);
        let mut writer = ArchiveWriter::create(&path, meta).expect("shard create");
        for (input, values) in &traces[start..start + count] {
            writer.append(*input, values).expect("append");
        }
        writer.finish().expect("finish");
        files.push(path);
        plan.push(ShardMeta {
            path: name,
            traces: count as u64,
            start: start as u64,
        });
        start += count;
    }
    // Record the campaign-wide distinct input count exactly as `repro
    // capture --shards` does: the fold picks its accumulation mode off it,
    // so an unknown count here would put the sharded fold in a different
    // (equally valid, but not bit-identical) summation order than the
    // single archive whose header records the true count.
    let mut classes = std::collections::BTreeSet::new();
    for (input, _) in traces {
        if classes.len() <= dpl_power::MAX_INPUT_CLASSES {
            classes.insert(*input);
        }
    }
    let distinct = if classes.len() > dpl_power::MAX_INPUT_CLASSES {
        0
    } else {
        classes.len() as u32
    };
    let manifest_path = dir.join(format!("{stem}.json"));
    CampaignManifest::new(plan, distinct)
        .expect("manifest")
        .save(&manifest_path)
        .expect("manifest save");
    files.push(manifest_path.clone());
    (manifest_path, files)
}

fn remove_all(files: &[PathBuf]) {
    for file in files {
        let _ = std::fs::remove_file(file);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every sample encoding round-trips through a full archive under both
    /// compressions, within its documented contract: f64 bit-exactly, f32
    /// to exactly the nearest single, i16 within the recorded
    /// quantization's half-step error bound.  Inputs always round-trip
    /// bit-exactly.
    #[test]
    fn every_encoding_round_trips_within_its_contract(
        seed in 0u64..100_000,
        count in 1usize..120,
        samples in 1usize..5,
        chunk in 1usize..32,
        encoding_code in 0usize..3,
        compress in 0usize..2,
    ) {
        let quantization = Quantization::for_max_magnitude(4.0).expect("quantization");
        let encoding = match encoding_code {
            0 => SampleEncoding::F64,
            1 => SampleEncoding::F32,
            _ => SampleEncoding::I16(quantization),
        };
        let compress = compress == 1;
        let compression = if compress { Compression::Shuffle } else { Compression::None };
        let traces = bounded_traces(seed, count, samples);
        let meta = meta_with(samples, chunk, seed, CampaignKind::Attack, encoding, compression);
        let bytes = write_bytes(&traces, meta);

        let mut reader = ArchiveReader::new(Cursor::new(bytes)).expect("reader");
        prop_assert_eq!(reader.meta().encoding, encoding);
        prop_assert_eq!(reader.meta().compression, compression);
        prop_assert_eq!(reader.format_version(), 4);
        let read_back = reader.read_all().expect("read_all");
        prop_assert_eq!(read_back.len(), count);
        for (t, (input, values)) in traces.iter().enumerate() {
            prop_assert_eq!(read_back.inputs()[t], *input);
            for (got, want) in read_back.trace_samples(t).iter().zip(values) {
                match encoding {
                    SampleEncoding::F64 => prop_assert_eq!(got.to_bits(), want.to_bits()),
                    SampleEncoding::F32 => {
                        prop_assert_eq!(got.to_bits(), f64::from(*want as f32).to_bits());
                    }
                    SampleEncoding::I16(q) => prop_assert!(
                        (got - want).abs() <= q.max_error(),
                        "trace {} decoded {} vs {} exceeds bound {}",
                        t, got, want, q.max_error()
                    ),
                }
            }
        }
    }

    /// A flipped byte anywhere in a framed `[k][body_len][body][checksum]`
    /// chunk — any encoding, any compression — surfaces as a typed store error from the strict
    /// reader, never as silently wrong samples.
    #[test]
    fn corrupt_v3_bodies_fail_typed(
        seed in 0u64..100_000,
        count in 1usize..80,
        samples in 1usize..4,
        chunk in 1usize..24,
        encoding_code in 0usize..3,
        compress in 0usize..2,
        position in 0usize..1_000_000,
        bit in 0usize..8,
    ) {
        let quantization = Quantization::for_max_magnitude(4.0).expect("quantization");
        let encoding = match encoding_code {
            0 => SampleEncoding::F64,
            1 => SampleEncoding::F32,
            _ => SampleEncoding::I16(quantization),
        };
        let compression = if compress == 1 { Compression::Shuffle } else { Compression::None };
        let traces = bounded_traces(seed, count, samples);
        let meta = meta_with(samples, chunk, seed, CampaignKind::Attack, encoding, compression);
        let bytes = write_bytes(&traces, meta);
        prop_assert_eq!(&bytes[0..8], b"DPLTRCv4");

        let header = meta.header_len();
        let body = bytes.len() - header;
        prop_assert!(body > 0);
        let offset = header + position % body;
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 1 << bit;
        // A flip in the variable-length chunk framing can already fail the
        // open-time bounds scan; that is a typed rejection too.  Anything
        // that opens must then fail `read_all` — never decode silently.
        if let Ok(mut reader) = ArchiveReader::new(Cursor::new(corrupt)) {
            let result = reader.read_all();
            prop_assert!(
                result.is_err(),
                "flip at {} decoded {} traces silently",
                offset,
                result.map(|set| set.len()).unwrap_or(0)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A campaign split across any shard count folds bit-identically to
    /// the single archive holding the same traces: DPA and CPA scores and
    /// the Welch t curve all match bit for bit through the
    /// [`ShardedReader`]'s global-order chunk stream.
    #[test]
    fn shard_merge_folds_bit_identically_for_any_shard_count(
        seed in 0u64..50_000,
        count in 4usize..160,
        samples in 1usize..4,
        chunk in 1usize..12,
        shards in 1usize..6,
    ) {
        let traces = bounded_traces(seed, count, samples);
        for campaign in [CampaignKind::Attack, CampaignKind::TvlaInterleaved] {
            let meta = meta_with(
                samples, chunk, seed, campaign, SampleEncoding::F64, Compression::None,
            );
            let single = write_bytes(&traces, meta);
            let mut single_reader =
                ArchiveReader::new(Cursor::new(single)).expect("single reader");
            let stem = temp_stem("merge");
            let (manifest, files) = write_campaign(&stem, &traces, meta, shards);
            let mut sharded = ShardedReader::open(&manifest).expect("campaign open");
            prop_assert_eq!(sharded.trace_count(), count as u64);
            prop_assert_eq!(sharded.chunk_count(), count.div_ceil(chunk));

            if campaign == CampaignKind::Attack {
                let a = dpa_attack_streaming(&mut single_reader, 16, selection).expect("dpa");
                let b = dpa_attack_streaming(&mut sharded, 16, selection).expect("dpa");
                prop_assert_eq!(a.best_guess, b.best_guess);
                prop_assert_eq!(&a.scores, &b.scores);
                let a = cpa_attack_streaming(&mut single_reader, 16, model).expect("cpa");
                let b = cpa_attack_streaming(&mut sharded, 16, model).expect("cpa");
                prop_assert_eq!(a.best_guess, b.best_guess);
                prop_assert_eq!(&a.scores, &b.scores);
            } else {
                let acc = WelchAccumulator::new(interleaved_partition);
                let (a, _) = fold(&mut single_reader, acc, Reading::Strict).expect("tvla");
                let acc = WelchAccumulator::new(interleaved_partition);
                let (b, _) = fold(&mut sharded, acc, Reading::Strict).expect("tvla");
                prop_assert_eq!(a.counts, b.counts);
                prop_assert_eq!(&a.t, &b.t);
            }
            remove_all(&files);
        }
    }
}

/// The parallel CPA over a few-class campaign seals after its pass-1 merge
/// (no fork stage): for 1-4 workers over 1-4 shards it is bit-identical
/// across every layout, since the chunk-order merge sees the same partials,
/// and within reassociation error of the sequential fold.
#[test]
fn parallel_one_pass_cpa_is_layout_independent_and_near_the_sequential_fold() {
    parallel_cpa_is_layout_independent(&bounded_traces(17, 1500, 3), 1);
}

/// The same contract on the diverse-input path: every trace carries its
/// own plaintext (same low nibble, so the same key leaks), the fold takes
/// a second pass, and each chunk's fork runs the blocked cross-product
/// kernel before the chunk-order merge.
#[test]
fn parallel_two_pass_cpa_is_layout_independent_and_near_the_sequential_fold() {
    let traces: Vec<(u64, Vec<f64>)> = bounded_traces(18, 1500, 3)
        .into_iter()
        .enumerate()
        .map(|(t, (input, values))| (input | (t as u64) << 4, values))
        .collect();
    parallel_cpa_is_layout_independent(&traces, 2);
}

fn parallel_cpa_is_layout_independent(traces: &[(u64, Vec<f64>)], passes: u64) {
    let meta = meta_with(
        3,
        64,
        17,
        CampaignKind::Attack,
        SampleEncoding::F64,
        Compression::None,
    );
    let mut single = ArchiveReader::new(Cursor::new(write_bytes(traces, meta))).expect("reader");
    assert_eq!(dpl_store::cpa_passes(&single), passes);
    let sequential = cpa_attack_streaming(&mut single, 16, model).expect("sequential cpa");

    let mut first: Option<Vec<f64>> = None;
    for shards in 1..=4 {
        let stem = temp_stem("parallel_cpa");
        let (manifest, files) = write_campaign(&stem, traces, meta, shards);
        for workers in 1..=4 {
            let parallel = cpa_attack_parallel_with(
                || ShardedReader::open(&manifest),
                16,
                model,
                Some(workers),
            )
            .expect("parallel cpa");
            assert_eq!(parallel.best_guess, sequential.best_guess);
            for (a, b) in parallel.scores.iter().zip(&sequential.scores) {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "shards={shards} workers={workers}: {a} vs {b}"
                );
            }
            let first = first.get_or_insert_with(|| parallel.scores.clone());
            assert_eq!(&parallel.scores, first, "shards={shards} workers={workers}");
        }
        remove_all(&files);
    }
}

/// Fails the second read of one chunk — bit rot between a fold's passes.
struct FailsOnReplay {
    inner: ShardedReader,
    chunk: usize,
    reads: usize,
}

impl ChunkSource for FailsOnReplay {
    fn meta(&self) -> &ArchiveMeta {
        self.inner.meta()
    }
    fn trace_count(&self) -> u64 {
        self.inner.trace_count()
    }
    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }
    fn distinct_inputs(&self) -> Option<usize> {
        self.inner.distinct_inputs()
    }
    fn read_chunk(&mut self, index: usize) -> dpl_store::Result<TraceSet> {
        if index == self.chunk {
            self.reads += 1;
            if self.reads == 2 {
                return Err(StoreError::ChecksumMismatch { chunk: index });
            }
        }
        self.inner.read_chunk(index)
    }
    fn obs(&self) -> Option<&Obs> {
        None
    }
}

/// Salvage reads over a manifest: with one chunk of shard 2 of a 4-shard
/// campaign corrupted, salvage DPA, CPA (diverse-input path) and TVLA at
/// both orders over the `ShardedReader` equal the strict folds over the
/// campaign written without that chunk's traces, and the damage report
/// names the global chunk index.  A chunk that verifies in pass 1 but
/// fails its pass-2 read fails the fold closed.
#[test]
fn salvage_over_a_sharded_campaign_equals_the_strict_fold_without_the_lost_chunk() {
    const CHUNK: usize = 16;
    const LOCAL: usize = 1; // chunk 1 of shard 2 = global chunk 11
    let retry = RetryPolicy::new(0);
    // 320 traces = 20 chunks = 4 shards of 5 chunks.  The attack campaign's
    // inputs are all distinct, so CPA takes its two-pass path.
    let traces: Vec<(u64, Vec<f64>)> = bounded_traces(23, 320, 3)
        .into_iter()
        .enumerate()
        .map(|(t, (input, values))| ((t as u64) << 8 | input, values))
        .collect();
    for campaign in [CampaignKind::Attack, CampaignKind::TvlaInterleaved] {
        let meta = meta_with(
            3,
            CHUNK,
            23,
            campaign,
            SampleEncoding::F64,
            Compression::None,
        );
        let (manifest, files) = write_campaign(&temp_stem("salvage"), &traces, meta, 4);
        let lost = 2 * 5 + LOCAL;
        let chunk_bytes = 8 + CHUNK * 8 + CHUNK * 3 * 8 + 8;
        let mut shard = std::fs::read(&files[2]).expect("read shard");
        shard[meta.header_len() + LOCAL * chunk_bytes + chunk_bytes / 2] ^= 0x10;
        std::fs::write(&files[2], shard).expect("corrupt shard");
        let mut survivors = traces.clone();
        survivors.drain(lost * CHUNK..(lost + 1) * CHUNK);
        let without = write_bytes(&survivors, meta);
        let damaged = || ShardedReader::open_with_policy(&manifest, ReadPolicy::Salvage);
        let check = |report: &DamageReport| {
            assert_eq!(
                report.damaged,
                vec![DamagedChunk {
                    chunk: lost,
                    cause: DamageCause::ChecksumMismatch,
                    traces_lost: CHUNK,
                }]
            );
            assert_eq!(report.traces_read, survivors.len() as u64);
        };

        if campaign == CampaignKind::Attack {
            let mut source = damaged().expect("salvage open");
            let acc = DpaAccumulator::with_profile(16, selection, input_profile(&source)).unwrap();
            let (salvaged, report) = fold(&mut source, acc, Reading::Salvage(&retry)).unwrap();
            check(&report);
            let mut clean = ArchiveReader::new(Cursor::new(without.clone())).expect("open");
            let expected = dpa_attack_streaming(&mut clean, 16, selection).expect("strict DPA");
            assert_eq!(salvaged.scores, expected.scores, "DPA");

            let mut source = damaged().expect("salvage open");
            assert_eq!(input_profile(&source), InputProfile::Diverse);
            let acc = CpaAccumulator::with_profile(16, model, input_profile(&source)).unwrap();
            let (salvaged, report) = fold(&mut source, acc, Reading::Salvage(&retry)).unwrap();
            check(&report);
            let mut clean = ArchiveReader::new(Cursor::new(without.clone())).expect("open");
            let expected = cpa_attack_streaming(&mut clean, 16, model).expect("strict CPA");
            assert_eq!(salvaged.scores, expected.scores, "CPA");

            let mut flaky = FailsOnReplay {
                inner: damaged().expect("salvage open"),
                chunk: 4,
                reads: 0,
            };
            let acc = CpaAccumulator::with_profile(16, model, InputProfile::Diverse).unwrap();
            match fold(&mut flaky, acc, Reading::Salvage(&retry)) {
                Err(StoreError::FormatViolation { message }) => assert!(
                    message.contains("chunk 4 verified in pass 1 but failed in pass 2"),
                    "{message}"
                ),
                other => panic!("expected a fail-closed error, got {other:?}"),
            }
        } else {
            for order in [TvlaOrder::First, TvlaOrder::Second] {
                let mut source = damaged().expect("salvage open");
                let mut clean = ArchiveReader::new(Cursor::new(without.clone())).expect("open");
                let ((salvaged, report), (expected, _)) = match order {
                    TvlaOrder::First => {
                        let acc = || WelchAccumulator::new(interleaved_partition);
                        (
                            fold(&mut source, acc(), Reading::Salvage(&retry)).unwrap(),
                            fold(&mut clean, acc(), Reading::Strict).unwrap(),
                        )
                    }
                    TvlaOrder::Second => {
                        let acc = || SecondOrderWelchAccumulator::new(interleaved_partition);
                        let ((first, salvaged), report) =
                            fold(&mut source, acc(), Reading::Salvage(&retry)).unwrap();
                        let ((_, expected), clean_report) =
                            fold(&mut clean, acc(), Reading::Strict).unwrap();
                        // The fold's first-order half is the in-memory
                        // first-order test over the surviving traces.
                        let mut oracle = TraceSet::new();
                        for (input, values) in &survivors {
                            oracle.push_samples(*input, values);
                        }
                        assert_eq!(first, tvla(&oracle, interleaved_partition).unwrap());
                        ((salvaged, report), (expected, clean_report))
                    }
                };
                check(&report);
                assert_eq!(salvaged, expected, "{order:?}");
            }
        }
        remove_all(&files);
    }
}

/// `scan_shards` scans the shards concurrently yet reports exactly what
/// scanning each shard file alone reports, in manifest order, whether the
/// campaign has fewer, as many or more shards than scan workers: 13 chunks
/// (the last one partial) over 1, 2, 3 and 5 shards, the last shard short,
/// with one flipped chunk-body byte in the first shard and one flipped
/// chunk-head byte in the last shard.
#[test]
fn concurrent_shard_scan_equals_each_shard_scanned_alone() {
    const CHUNK: usize = 8;
    let traces = bounded_traces(41, 12 * CHUNK + 5, 3);
    let retry = RetryPolicy::new(0);
    let quantization = Quantization::for_max_magnitude(4.0).expect("quantization");
    for (encoding, compression) in [
        (SampleEncoding::F64, Compression::None),
        (SampleEncoding::I16(quantization), Compression::Shuffle),
    ] {
        let meta = meta_with(3, CHUNK, 41, CampaignKind::Attack, encoding, compression);
        for shards in [1, 2, 3, 5] {
            let (manifest, files) = write_campaign(&temp_stem("scan"), &traces, meta, shards);
            let shard_files = &files[..files.len() - 1];
            assert_eq!(shard_files.len(), shards);
            // The second byte of chunk 1's body, the first byte of the last
            // chunk's head (its trace count).
            flip_byte(&shard_files[0], meta.header_len(), |chunks| chunks[1] + 9);
            flip_byte(&shard_files[shards - 1], meta.header_len(), |chunks| {
                chunks[chunks.len() - 1]
            });
            let alone: Vec<DamageReport> = shard_files
                .iter()
                .map(|file| {
                    ArchiveReader::open_with_policy(file, ReadPolicy::Salvage)
                        .expect("shard open")
                        .scan(&retry)
                        .expect("shard scan")
                })
                .collect();
            let damaged: usize = alone.iter().map(|report| report.damaged.len()).sum();
            assert_eq!(damaged, 2, "{shards} shards, {encoding:?}");
            let mut campaign = ShardedReader::open_with_policy(&manifest, ReadPolicy::Salvage)
                .expect("campaign open");
            let scanned = campaign.scan_shards(&retry).expect("campaign scan");
            assert_eq!(scanned, alone, "{shards} shards, {encoding:?}");
            remove_all(&files);
        }
    }
}

/// Flips one byte of the archive at `path`; `at` picks it from the byte
/// offsets of the archive's chunks, walked through their `[k][body_len]`
/// heads from `header_len` on.
fn flip_byte(path: &Path, header_len: usize, at: impl Fn(&[usize]) -> usize) {
    let mut bytes = std::fs::read(path).expect("read shard");
    let mut chunks = Vec::new();
    let mut offset = header_len;
    while offset < bytes.len() {
        chunks.push(offset);
        let body_len = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        offset += 8 + body_len as usize + 8;
    }
    let target = at(&chunks);
    bytes[target] ^= 0x10;
    std::fs::write(path, bytes).expect("corrupt shard");
}

/// The end-to-end contract of `repro capture --shards`: four shard workers
/// each drawing its contiguous block-seeded trace range produce a campaign
/// whose DPA, CPA and TVLA folds are bit-identical to a single archive of
/// the same block-seeded stream — including shard boundaries that fall in
/// the middle of a seed block.
#[test]
fn sharded_capture_matches_single_block_seeded_archive() {
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let cap = CapacitanceModel::default();
    let table = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).expect("energy table");
    let options = LeakageOptions::default();
    let key = 0xAu8;
    let total = 2048u64;
    let chunk = 256usize;
    let shard_traces = 512u64; // mid-block boundaries: TRACE_BLOCK is 1024

    for tvla in [false, true] {
        let campaign = if tvla {
            CampaignKind::TvlaInterleaved
        } else {
            CampaignKind::Attack
        };
        let mut meta = ArchiveMeta::scalar(chunk, ModelTag::HammingWeight, options.seed);
        meta.campaign = campaign;

        // The single archive: one range generator over the whole campaign.
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
        if tvla {
            simulate_tvla_trace_range_into(
                &netlist,
                &table,
                key,
                0x3,
                0,
                total,
                &options,
                &mut writer,
            )
            .expect("capture");
        } else {
            simulate_trace_range_into(&netlist, &table, key, 0, total, &options, &mut writer)
                .expect("capture");
        }
        writer.finish().expect("finish");
        let single = writer.into_inner().into_inner();
        let mut single_reader = ArchiveReader::new(Cursor::new(single)).expect("reader");

        // The sharded campaign: one range generator per contiguous block.
        let stem = temp_stem(if tvla { "e2e_tvla" } else { "e2e" });
        let dir = std::env::temp_dir();
        let mut plan = Vec::new();
        let mut files = Vec::new();
        for start in (0..total).step_by(shard_traces as usize) {
            let name = format!("{stem}-shard-{:03}.dpltrc", plan.len());
            let path = dir.join(&name);
            let mut writer = ArchiveWriter::create(&path, meta).expect("shard create");
            if tvla {
                simulate_tvla_trace_range_into(
                    &netlist,
                    &table,
                    key,
                    0x3,
                    start,
                    shard_traces,
                    &options,
                    &mut writer,
                )
                .expect("shard capture");
            } else {
                simulate_trace_range_into(
                    &netlist,
                    &table,
                    key,
                    start,
                    shard_traces,
                    &options,
                    &mut writer,
                )
                .expect("shard capture");
            }
            writer.finish().expect("finish");
            files.push(path);
            plan.push(ShardMeta {
                path: name,
                traces: shard_traces,
                start,
            });
        }
        assert_eq!(plan.len(), 4);
        let manifest_path = dir.join(format!("{stem}.json"));
        CampaignManifest::new(plan, 16)
            .expect("manifest")
            .save(&manifest_path)
            .expect("manifest save");
        files.push(manifest_path.clone());
        let mut sharded = ShardedReader::open(&manifest_path).expect("campaign open");

        if tvla {
            let acc = WelchAccumulator::new(interleaved_partition);
            let (a, _) = fold(&mut single_reader, acc, Reading::Strict).expect("tvla");
            let acc = WelchAccumulator::new(interleaved_partition);
            let (b, _) = fold(&mut sharded, acc, Reading::Strict).expect("tvla");
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.t, b.t);
        } else {
            let a = dpa_attack_streaming(&mut single_reader, 16, selection).expect("dpa");
            let b = dpa_attack_streaming(&mut sharded, 16, selection).expect("dpa");
            assert_eq!(a.best_guess, u64::from(key));
            assert_eq!(a.best_guess, b.best_guess);
            assert_eq!(a.scores, b.scores);
            let a = cpa_attack_streaming(&mut single_reader, 16, model).expect("cpa");
            let b = cpa_attack_streaming(&mut sharded, 16, model).expect("cpa");
            assert_eq!(a.best_guess, b.best_guess);
            assert_eq!(a.scores, b.scores);
        }
        remove_all(&files);
    }
}

/// The size contract of the compact encodings: i16 fixed-point plus the
/// byte-shuffle compressor stores smooth wide traces in no more than half
/// the bytes/trace of the raw f64 layout, while every decoded sample stays
/// within the recorded quantization's documented error bound.
#[test]
fn quantized_compressed_archives_at_least_halve_bytes_per_trace() {
    let samples = 32usize;
    let count = 512usize;
    let traces = bounded_traces(0x2005, count, samples);
    let raw = write_bytes(
        &traces,
        meta_with(
            samples,
            128,
            7,
            CampaignKind::Attack,
            SampleEncoding::F64,
            Compression::None,
        ),
    );
    let quantization = Quantization::for_max_magnitude(4.0).expect("quantization");
    let compact = write_bytes(
        &traces,
        meta_with(
            samples,
            128,
            7,
            CampaignKind::Attack,
            SampleEncoding::I16(quantization),
            Compression::Shuffle,
        ),
    );
    let raw_per_trace = raw.len() as f64 / count as f64;
    let compact_per_trace = compact.len() as f64 / count as f64;
    assert!(
        compact_per_trace * 2.0 <= raw_per_trace,
        "compact {compact_per_trace:.1} B/trace vs raw {raw_per_trace:.1} B/trace is under 2x"
    );

    let mut reader = ArchiveReader::new(Cursor::new(compact)).expect("reader");
    let recorded = reader
        .meta()
        .encoding
        .quantization()
        .expect("recorded quantization");
    assert_eq!(recorded, quantization);
    let decoded = reader.read_all().expect("read_all");
    let mut worst = 0.0f64;
    for (t, (_, values)) in traces.iter().enumerate() {
        for (got, want) in decoded.trace_samples(t).iter().zip(values) {
            worst = worst.max((got - want).abs());
        }
    }
    assert!(
        worst <= recorded.max_error(),
        "worst decode error {worst} exceeds the documented bound {}",
        recorded.max_error()
    );
}

/// A capture whose fixed-point scale is deliberately too small for its
/// amplitude does not fail: it counts exactly the samples that clamp at the
/// `i16` range bounds and reports the count through the writer, the
/// `store.i16_saturations` counter and the version-4 header — and a capture
/// resumed after a crash records the same count byte for byte.
#[test]
fn i16_saturations_are_counted_exactly() {
    // Scale 1e-3 represents |v| <= 32.767; the first sample of every trace
    // is +-100 and clamps, the others stay well inside.
    let quantization = Quantization::new(1e-3).expect("quantization");
    let bound = quantization.scale * f64::from(i16::MAX);
    let traces: Vec<(u64, Vec<f64>)> = (0..21u64)
        .map(|t| {
            let loud = if t % 2 == 0 { 100.0 } else { -100.0 };
            (t % 16, vec![loud, t as f64 * 0.01, -(t as f64) * 0.5])
        })
        .collect();
    let expected = traces
        .iter()
        .flat_map(|(_, values)| values)
        .filter(|v| v.abs() > bound)
        .count() as u64;
    assert_eq!(expected, 21);

    for compression in [Compression::None, Compression::Shuffle] {
        let meta = meta_with(
            3,
            8,
            5,
            CampaignKind::Attack,
            SampleEncoding::I16(quantization),
            compression,
        );
        let obs = dpl_obs::Obs::monotonic();
        let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
        writer.set_obs(&obs);
        for (input, values) in &traces {
            writer.append(*input, values).expect("append");
        }
        writer
            .finish()
            .expect("a saturating capture still finishes");
        assert_eq!(writer.saturated_samples(), expected);
        assert_eq!(
            obs.metrics().counter(dpl_obs::names::STORE_I16_SATURATIONS),
            Some(expected)
        );
        let bytes = writer.into_inner().into_inner();

        let mut reader = ArchiveReader::new(Cursor::new(bytes.clone())).expect("reader");
        assert_eq!(reader.saturated_samples(), Some(expected));
        let decoded = reader.read_all().expect("read_all");
        for (t, (_, values)) in traces.iter().enumerate() {
            let clamped = if values[0] > 0.0 { i16::MAX } else { i16::MIN };
            assert_eq!(
                decoded.trace_samples(t)[0],
                f64::from(clamped) * quantization.scale
            );
        }

        // Crash after the first full chunk (zeroed header, torn tail):
        // the resumed capture re-counts the kept chunk's saturations.
        let first_chunk = 16 + u32::from_le_bytes(bytes[92..96].try_into().unwrap()) as usize;
        let mut crashed = bytes.clone();
        crashed[..88].fill(0);
        crashed.truncate(88 + first_chunk + 5);
        let (mut writer, recovery) =
            ArchiveWriter::resume_stream(Cursor::new(crashed), meta).expect("resume");
        assert_eq!(recovery.recovered_traces(), 8);
        assert_eq!(writer.saturated_samples(), 8);
        for (input, values) in &traces[8..] {
            writer.append(*input, values).expect("append");
        }
        writer.finish().expect("finish");
        assert_eq!(writer.saturated_samples(), expected);
        assert_eq!(writer.into_inner().into_inner(), bytes);
    }

    // The float encodings record a zero count and emit no counter.
    let meta = meta_with(
        3,
        8,
        5,
        CampaignKind::Attack,
        SampleEncoding::F32,
        Compression::None,
    );
    let obs = dpl_obs::Obs::monotonic();
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    writer.set_obs(&obs);
    for (input, values) in &traces {
        writer.append(*input, values).expect("append");
    }
    writer.finish().expect("finish");
    assert_eq!(
        obs.metrics().counter(dpl_obs::names::STORE_I16_SATURATIONS),
        None
    );
    let reader = ArchiveReader::new(writer.into_inner()).expect("reader");
    assert_eq!(reader.saturated_samples(), Some(0));
}

/// Layout stability of the one format the writer emits: a small
/// multi-chunk version-4 archive keeps its exact bytes (header, framing and
/// the word checksum), so re-written captures diff byte-identically and a
/// change to the on-disk format cannot slip in unnoticed.
#[test]
fn v4_layout_is_byte_stable() {
    let traces = vec![
        (1u64, vec![0.5f64, -1.5]),
        (2, vec![2.0, 0.25]),
        (3, vec![-8.0, 3.0]),
    ];
    let meta = meta_with(
        2,
        2,
        7,
        CampaignKind::Attack,
        SampleEncoding::F64,
        Compression::None,
    )
    .with_table_digest(0x1234_5678_9ABC_DEF0);
    let bytes = write_bytes(&traces, meta);
    assert_eq!(&bytes[0..8], b"DPLTRCv4");
    // 88-byte header, a full chunk of 2 traces and a partial one of 1.
    assert_eq!(bytes.len(), 88 + (16 + 2 * 24) + (16 + 24));
    assert_eq!(fnv1a64(&bytes), GOLDEN_V4_DIGEST, "v4 byte layout changed");

    let mut reader = ArchiveReader::new(Cursor::new(bytes)).expect("reader");
    assert_eq!(reader.format_version(), 4);
    let read_back = reader.read_all().expect("read_all");
    for (t, (input, values)) in traces.iter().enumerate() {
        assert_eq!(read_back.inputs()[t], *input);
        for (got, want) in read_back.trace_samples(t).iter().zip(values) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}

/// FNV-1a 64 over a byte string — enough to pin a golden layout without
/// embedding the whole file.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const GOLDEN_V4_DIGEST: u64 = 11_813_348_986_342_819_880;
