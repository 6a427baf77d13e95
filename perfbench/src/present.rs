//! `present80_i16`: a multi-round PRESENT-80 leakage campaign on the
//! compact, sharded trace plane.
//!
//! 31 samples per trace — the Hamming weight of each round's sBoxLayer
//! output (`Present80::encrypt_trace`) plus Gaussian noise — over 64-bit
//! plaintexts interleaved fixed (even traces) and random (odd traces).
//! Captured as i16 + `Compression::Shuffle` into 2 shards written on 2
//! threads, then analysed through `ShardedReader`: `scan_shards`,
//! `tvla_parallel_with` at first and second order, and
//! `cpa_attack_parallel_with` on the first round's key nibble 0, each with
//! 2 workers.  The archive fits in the last-level cache, so decode outweighs
//! checksums, and the 31-column folds take the diverse-input path.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use dpl_crypto::{present_sbox, Present80, PRESENT_ROUNDS};
use dpl_eval::{interleaved_partition, tvla_parallel_with, TvlaOrder, TVLA_THRESHOLD};
use dpl_power::TraceSink;
use dpl_store::{
    cpa_attack_parallel_with, ArchiveMeta, ArchiveWriter, CampaignKind, CampaignManifest,
    Compression, ModelTag, Quantization, ReadPolicy, RetryPolicy, SampleEncoding, ShardMeta,
    ShardedReader,
};

use crate::ledger::{add_bytes, frame, parallel_frame, Layer};
use crate::pass::Pass;
use crate::seams::{TimedSink, TimedSource, TimedWrite};
use crate::util::{expect_eq, file_len, mix, remove_stale, SplitMix};

const CHUNK_TRACES: usize = 1024;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Standard deviation of the per-sample noise, in Hamming-weight units.
const NOISE_SIGMA: f64 = 2.0;
/// Traces the i16 quantization scale is probed from (as `repro capture
/// --encoding i16` does).
const PROBE_TRACES: u64 = 1024;

struct Inputs {
    cipher: Present80,
    fixed_plaintext: u64,
    /// Nibble 0 of the first round key: what the CPA recovers.
    target: u64,
    noise_seed: u64,
    quantization: Quantization,
}

/// The workload.
pub struct Present80I16 {
    seed: u64,
    traces: u64,
    dir: PathBuf,
    inputs: Option<Inputs>,
}

impl Present80I16 {
    /// A campaign of `traces` traces captured to `dir`.
    pub fn new(seed: u64, traces: u64, dir: &Path) -> Self {
        Present80I16 {
            seed,
            traces,
            dir: dir.to_path_buf(),
            inputs: None,
        }
    }

    /// Key schedule and quantization probe.
    pub fn setup(&mut self) -> Result<(), String> {
        let mut rng = SplitMix::new(mix(self.seed, 1));
        let mut key = [0u8; 10];
        for byte in &mut key {
            *byte = rng.next_u64() as u8;
        }
        let cipher = Present80::new(key);
        let target = cipher.round_keys()[0] & 0xF;
        let mut inputs = Inputs {
            cipher,
            fixed_plaintext: rng.next_u64(),
            target,
            noise_seed: rng.next_u64(),
            quantization: Quantization::new(1.0).map_err(|e| e.to_string())?,
        };
        let mut probe = MaxMagnitude(0.0);
        let Ok(()) = generate(&inputs, 0, PROBE_TRACES.min(self.traces), &mut probe);
        // 2x headroom over the probed magnitude, as the CLI derives it.
        inputs.quantization = Quantization::new(probe.0 * 2.0 / f64::from(i16::MAX))
            .map_err(|e| format!("quantization probe: {e}"))?;
        self.inputs = Some(inputs);
        Ok(())
    }

    /// One campaign: sharded capture, fsck, TVLA 1st/2nd order, CPA.  The
    /// shards and manifest stay until the next pass or the end of the run.
    pub fn pass(&self, pass: &mut Pass) {
        let inputs = self.inputs.as_ref().expect("setup runs before any pass");
        let n = self.traces;
        let manifest = self.dir.join("present80.json");
        let meta = ArchiveMeta {
            samples_per_trace: PRESENT_ROUNDS,
            chunk_traces: CHUNK_TRACES,
            model: ModelTag::Unspecified,
            seed: self.seed,
            campaign: CampaignKind::TvlaInterleaved,
            table_digest: 0,
            encoding: SampleEncoding::I16(inputs.quantization),
            compression: Compression::Shuffle,
        };
        let plan = shard_plan(n);
        let shard_paths: Vec<PathBuf> = plan.iter().map(|s| self.dir.join(&s.path)).collect();
        // The previous campaign is deleted here, not at the end of its pass,
        // so the page freeing that follows a deletion never lands in the
        // set-ups timed between passes.
        for path in shard_paths.iter().chain([&manifest]) {
            remove_stale(path);
        }

        let (captured, wall) = pass.stage(|| capture(inputs, meta, &plan, &shard_paths, &manifest));
        pass.produce.add(n as f64, wall);
        pass.check(
            "sharded capture",
            captured.and_then(|count| expect_eq("traces captured", count, n)),
        );
        let archive_bytes: u64 = shard_paths.iter().map(|p| file_len(p)).sum();
        pass.archive_bytes = archive_bytes;
        pass.bytes_per_trace = archive_bytes as f64 / n as f64;
        let header_bytes = (SHARDS * meta.header_len()) as u64;
        let chunk_bytes = archive_bytes.saturating_sub(header_bytes);
        let mean_chunk_bytes = chunk_bytes / n.div_ceil(CHUNK_TRACES as u64).max(1);

        let (scanned, wall) = pass.stage(|| {
            let mut reader = {
                let _f = frame(Layer::StoreOpen);
                ShardedReader::open_with_policy(&manifest, ReadPolicy::Strict)
            }
            .map_err(|e| e.to_string())?;
            let _f = frame(Layer::StoreScan);
            add_bytes(Layer::StoreScan, chunk_bytes);
            reader
                .scan_shards(&RetryPolicy::new(2))
                .map_err(|e| e.to_string())
        });
        pass.check.add(n as f64, wall);
        pass.check(
            "fsck of every shard",
            scanned.and_then(|reports| match reports.iter().find(|r| !r.is_clean()) {
                Some(damaged) => Err(damaged.render()),
                None => expect_eq(
                    "traces verified",
                    reports.iter().map(|r| r.traces_read).sum(),
                    n,
                ),
            }),
        );

        let opener = |layer: Layer| {
            let manifest = &manifest;
            move || {
                TimedSource::open_with(layer, Some(mean_chunk_bytes), || {
                    ShardedReader::open(manifest)
                })
            }
        };
        for order in [TvlaOrder::First, TvlaOrder::Second] {
            let (tvla, wall) = pass.stage(|| {
                let _f = parallel_frame(Layer::EvalTvla);
                tvla_parallel_with(
                    opener(Layer::EvalTvla),
                    interleaved_partition,
                    order,
                    Some(WORKERS),
                    None,
                )
            });
            let passes = if order == TvlaOrder::First { 1.0 } else { 2.0 };
            pass.analyze.add(passes * n as f64, wall);
            pass.tvla_wall_s += wall;
            pass.check(
                order.label(),
                tvla.map_err(|e| e.to_string()).and_then(|result| {
                    let peak = result.t.iter().fold(0.0f64, |m, t| m.max(t.abs()));
                    if result.t.len() != PRESENT_ROUNDS || result.t.iter().any(|t| !t.is_finite()) {
                        Err(format!(
                            "{} t-values, not {PRESENT_ROUNDS} finite ones",
                            result.t.len()
                        ))
                    } else if order == TvlaOrder::First && peak <= TVLA_THRESHOLD {
                        Err(format!(
                            "max |t| = {peak:.2} does not exceed {TVLA_THRESHOLD}"
                        ))
                    } else {
                        Ok(())
                    }
                }),
            );
        }

        // The fixed group carries no key information; its hypothesis is the
        // model's mean for every guess, so only the random group separates
        // the guesses.
        let fixed = inputs.fixed_plaintext;
        let model = move |input: u64, guess: u64| {
            if input == fixed {
                2.0
            } else {
                f64::from(present_sbox(((input ^ guess) & 0xF) as u8).count_ones())
            }
        };
        let (cpa, wall) = pass.stage(|| {
            let _f = parallel_frame(Layer::PowerFold);
            cpa_attack_parallel_with(opener(Layer::PowerFold), 16, model, Some(WORKERS))
        });
        pass.analyze.add(2.0 * n as f64, wall);
        pass.fold_wall_s += wall;
        pass.check(
            "CPA first-round nibble",
            cpa.map_err(|e| e.to_string())
                .and_then(|r| expect_eq("CPA best guess", r.best_guess, inputs.target)),
        );
    }
}

/// The quantization probe's sink: the largest sample magnitude seen.
struct MaxMagnitude(f64);

impl TraceSink for MaxMagnitude {
    type Error = std::convert::Infallible;

    fn record(&mut self, _input: u64, samples: &[f64]) -> Result<(), Self::Error> {
        self.0 = samples.iter().fold(self.0, |m, v| m.max(v.abs()));
        Ok(())
    }
}

/// Contiguous shard ranges, chunk-aligned except the last (the layout
/// `ShardedReader` requires).
fn shard_plan(n: u64) -> Vec<ShardMeta> {
    let chunks = n.div_ceil(CHUNK_TRACES as u64);
    let per_shard = chunks.div_ceil(SHARDS as u64).max(1) * CHUNK_TRACES as u64;
    let mut plan = Vec::new();
    let mut start = 0;
    while start < n {
        let traces = per_shard.min(n - start);
        plan.push(ShardMeta {
            path: format!("present80-shard-{}.dpltrc", plan.len()),
            traces,
            start,
        });
        start += traces;
    }
    plan
}

/// Captures every shard on its own thread, then saves the manifest.
fn capture(
    inputs: &Inputs,
    meta: ArchiveMeta,
    plan: &[ShardMeta],
    paths: &[PathBuf],
    manifest: &Path,
) -> Result<u64, String> {
    let written = {
        let _f = parallel_frame(Layer::Bench);
        std::thread::scope(|scope| {
            let workers: Vec<_> = plan
                .iter()
                .zip(paths)
                .map(|(shard, path)| scope.spawn(move || capture_shard(inputs, meta, shard, path)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("shard capture thread panicked"))
                .collect::<Result<Vec<u64>, String>>()
        })?
    };
    {
        let _f = frame(Layer::StoreSerialize);
        // Plaintexts are 64-bit random: the distinct-input count is
        // recorded as "over the class-aggregation limit" (0).
        CampaignManifest::new(plan.to_vec(), 0).and_then(|m| m.save(manifest))
    }
    .map_err(|e| format!("manifest: {e}"))?;
    Ok(written.iter().sum())
}

fn capture_shard(
    inputs: &Inputs,
    meta: ArchiveMeta,
    shard: &ShardMeta,
    path: &Path,
) -> Result<u64, String> {
    let _root = frame(Layer::Bench);
    let file = {
        let _f = frame(Layer::StoreWriteIo);
        File::create(path)
    }
    .map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = {
        let _f = frame(Layer::StoreSerialize);
        ArchiveWriter::new(TimedWrite(BufWriter::new(file)), meta)
    }
    .map_err(|e| e.to_string())?;
    {
        let _f = frame(Layer::Crypto);
        generate(
            inputs,
            shard.start,
            shard.traces,
            &mut TimedSink(&mut writer),
        )
    }
    .map_err(|e| e.to_string())?;
    let finished = {
        let _f = frame(Layer::StoreSerialize);
        writer.finish()
    }
    .map_err(|e| e.to_string());
    let _f = frame(Layer::StoreWriteIo);
    drop(writer);
    finished
}

/// Streams traces `start..start + count` of the campaign into `sink`.
/// Every trace draws from its own stream keyed by its global index, so the
/// campaign does not depend on how it is sharded.
fn generate<S: TraceSink>(
    inputs: &Inputs,
    start: u64,
    count: u64,
    sink: &mut S,
) -> Result<(), S::Error> {
    let mut samples = [0.0f64; PRESENT_ROUNDS];
    for index in start..start + count {
        let mut rng = SplitMix::new(mix(inputs.noise_seed, index));
        let plaintext = if index % 2 == 0 {
            inputs.fixed_plaintext
        } else {
            rng.next_u64()
        };
        let (_, states) = inputs.cipher.encrypt_trace(plaintext);
        for (sample, state) in samples.iter_mut().zip(&states) {
            *sample = f64::from(state.count_ones()) + NOISE_SIGMA * rng.near_normal();
        }
        sink.record(plaintext, &samples)?;
    }
    Ok(())
}
