//! Wall-clock performance measurement of the trace/attack hot paths.
//!
//! `cargo run -p dpl-bench --release --bin repro -- bench` runs every
//! measurement and writes `BENCH_dpa.json`, recording the perf trajectory of
//! the pipeline so later PRs can prove regressions or wins.  The streaming
//! attacks are measured against the retained naive implementations
//! ([`dpl_power::reference`]) and the bitsliced energy evaluator against the
//! scalar netlist walk, so every report carries its own speedup context.

use std::fmt::Write as _;
use std::time::Instant;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    predicted_energy, present_sbox, simulate_trace_range_into, simulate_traces_into,
    simulate_traces_parallel, simulate_traces_with_table, simulate_tvla_traces_into,
    synthesize_sbox_with_key, EnergyCache, GateEnergyTable, LeakageModel, LeakageOptions,
};
use dpl_eval::{interleaved_partition, WelchAccumulator};
use dpl_obs::Obs;
use dpl_power::{cpa_attack, dpa_attack, reference, DpaAccumulator, TraceSet};
use dpl_store::{
    dpa_attack_streaming, fold, input_profile, ArchiveMeta, ArchiveReader, ArchiveWriter,
    CampaignManifest, Compression, ModelTag, Quantization, ReadPolicy, Reading, RetryPolicy,
    SampleEncoding, ShardMeta, ShardedReader,
};

/// Workload sizes of one measurement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Traces generated by the trace-generation measurements.
    pub gen_traces: usize,
    /// Traces in the set the attacks run against.
    pub attack_traces: usize,
    /// Timing repeats per measurement (the best run is reported).
    pub repeats: usize,
}

impl PerfConfig {
    /// The full workload the committed `BENCH_dpa.json` is recorded with.
    pub fn full() -> Self {
        PerfConfig {
            gen_traces: 5000,
            attack_traces: 5000,
            repeats: 5,
        }
    }

    /// A CI-sized workload (`repro bench --quick`).
    pub fn quick() -> Self {
        PerfConfig {
            gen_traces: 1000,
            attack_traces: 1000,
            repeats: 2,
        }
    }
}

/// Version of the row schema `BENCH_dpa.json` and `BENCH_history.jsonl`
/// records carry.  Version 2 added the `schema_version` and `git_rev`
/// stamps; the row object shape is unchanged from version 1 (implicit), so
/// comparisons accept unstamped baselines.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// The short git revision of the working tree, or `None` when git (or a
/// repository) is unavailable — bench records are stamped with it so a
/// regression can be traced to the commit that introduced it.
pub fn git_revision() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let rev = String::from_utf8(output.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        None
    } else {
        Some(rev)
    }
}

/// One timed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Stable identifier of the measurement.
    pub name: &'static str,
    /// Number of work items one run processes.
    pub items: usize,
    /// What one work item is (`traces`, `attacks`, `evals`).
    pub unit: &'static str,
    /// Best wall-clock seconds over the configured repeats.
    pub seconds: f64,
    /// `items / seconds` of the best run.
    pub per_second: f64,
}

/// The result of a [`run`]: every measurement plus the workload sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// The workload configuration the rows were measured with.
    pub config: PerfConfig,
    /// One row per measurement.
    pub rows: Vec<PerfRow>,
}

impl PerfReport {
    /// The row with the given name, if present.
    pub fn row(&self, name: &str) -> Option<&PerfRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Throughput ratio between two rows (streaming vs reference style).
    fn speedup(&self, fast: &str, slow: &str) -> Option<f64> {
        match (self.row(fast), self.row(slow)) {
            (Some(f), Some(s)) if f.seconds > 0.0 => Some(s.seconds / f.seconds),
            _ => None,
        }
    }

    /// Human-readable table with speedup annotations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "\n=== Perf — trace pipeline ({} gen traces, {} attack traces, best of {}) ===",
            self.config.gen_traces, self.config.attack_traces, self.config.repeats
        );
        let _ = writeln!(
            out,
            "{:>28} {:>12} {:>14} {:>16}",
            "measurement", "items", "seconds", "throughput"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>28} {:>12} {:>14.6} {:>12.0} {}/s",
                row.name, row.items, row.seconds, row.per_second, row.unit
            );
        }
        for (fast, slow, label) in [
            ("dpa_attack", "dpa_attack_reference", "DPA"),
            ("cpa_attack", "cpa_attack_reference", "CPA"),
            (
                "energy_cache_bitsliced",
                "predicted_energy_scalar",
                "bitsliced energy eval",
            ),
        ] {
            if let Some(x) = self.speedup(fast, slow) {
                let _ = writeln!(
                    out,
                    "speedup {label}: {x:.1}x over the naive implementation"
                );
            }
        }
        if let Some(x) = self.speedup("dpa_attack", "dpa_attack_outofcore") {
            let _ = writeln!(
                out,
                "out-of-core DPA (chunked archive, incl. I/O): {x:.1}x the in-memory attack's \
                 wall clock at O(chunk) peak memory"
            );
        }
        if let Some(x) = self.speedup("capture_sharded", "archive_capture") {
            let _ = writeln!(
                out,
                "sharded capture: {x:.1}x the single-archive capture wall clock (parallel \
                 shard writers, same trace count)"
            );
        }
        if let Some(fold) = self.row("trace_fold_gbps") {
            let _ = writeln!(
                out,
                "fold engine: {:.2} GB/s of sample data through the streaming DPA fold",
                fold.per_second / 1e9
            );
            if let Some(enc) = self.row("encoded_bytes_per_trace") {
                if self.config.attack_traces > 0 && enc.items > 0 {
                    // Raw basis: f64 sample payload plus the 8-byte input
                    // word per trace; encoded basis: the whole compact archive.
                    let traces = self.config.attack_traces as f64;
                    let raw_bpt = fold.items as f64 / traces + 8.0;
                    let enc_bpt = enc.items as f64 / traces;
                    let _ = writeln!(
                        out,
                        "compact encoding: {enc_bpt:.0} bytes/trace (i16 + shuffle archive) vs \
                         {raw_bpt:.0} bytes/trace raw samples+inputs ({:.1}x smaller)",
                        raw_bpt / enc_bpt
                    );
                }
            }
        }
        if let Some(overhead) = self.instrumentation_overhead() {
            let _ = writeln!(
                out,
                "instrumentation overhead: {:+.1} % on the capture+DPA pipeline (budget: 5 %)",
                overhead * 100.0
            );
        }
        out
    }

    /// Relative wall-clock cost of attaching telemetry to the capture+DPA
    /// pipeline (`instrumentation_overhead` vs `capture_dpa_baseline`):
    /// `0.03` means the instrumented run was 3 % slower.
    pub fn instrumentation_overhead(&self) -> Option<f64> {
        match (
            self.row("instrumentation_overhead"),
            self.row("capture_dpa_baseline"),
        ) {
            (Some(instr), Some(base)) if base.seconds > 0.0 => {
                Some(instr.seconds / base.seconds - 1.0)
            }
            _ => None,
        }
    }

    /// The report as a JSON document (the `BENCH_dpa.json` payload),
    /// stamped with the row schema version, the generation time and the git
    /// revision it was measured at (`null` outside a git checkout).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": \"dpa_pipeline\",");
        let _ = writeln!(out, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"gen_traces\": {},", self.config.gen_traces);
        let _ = writeln!(out, "  \"attack_traces\": {},", self.config.attack_traces);
        let _ = writeln!(out, "  \"repeats\": {},", self.config.repeats);
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let _ = writeln!(out, "  \"generated_unix_secs\": {unix_secs},");
        match git_revision() {
            Some(rev) => {
                let _ = writeln!(out, "  \"git_rev\": \"{rev}\",");
            }
            None => {
                let _ = writeln!(out, "  \"git_rev\": null,");
            }
        }
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"items\": {}, \"unit\": \"{}\", \
                 \"seconds\": {:e}, \"per_second\": {:.3}}}{comma}",
                row.name, row.items, row.unit, row.seconds, row.per_second
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One measurements-to-disclosure sweep of the Hamming-weight model under
/// profiled CPA — the workload behind the `mtd_curve` perf row.
fn mtd_probe(
    grid: &[usize],
    repetitions: usize,
    netlist: &dpl_crypto::GateNetlist,
    table: &GateEnergyTable,
    options: &LeakageOptions,
) -> Option<usize> {
    let key = 0xAu8;
    let cache = EnergyCache::new(netlist, table);
    let config = dpl_eval::MtdConfig::new(grid.to_vec(), repetitions, options.seed);
    let curve = dpl_eval::mtd_campaign(
        &config,
        u64::from(key),
        |seed, n| {
            let options = LeakageOptions {
                relative_noise: options.relative_noise,
                seed,
            };
            simulate_traces_with_table(netlist, table, key, n, &options)
        },
        || {
            let cache = cache.clone();
            dpl_eval::PrefixCpa::new(16, move |plaintext, guess| {
                cache.energy(plaintext, guess as u8)
            })
        },
    )
    .expect("mtd sweep");
    curve.mtd
}

fn best_of<F: FnMut()>(repeats: usize, mut routine: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        routine();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn row<F: FnMut()>(
    name: &'static str,
    items: usize,
    unit: &'static str,
    repeats: usize,
    routine: F,
) -> PerfRow {
    let seconds = best_of(repeats, routine);
    PerfRow {
        name,
        items,
        unit,
        seconds,
        per_second: if seconds > 0.0 {
            items as f64 / seconds
        } else {
            f64::INFINITY
        },
    }
}

/// Runs every measurement of the trace/attack pipeline.
///
/// # Panics
///
/// Panics if the S-box datapath cannot be synthesised or simulated (which
/// would be a bug, not an input error).
pub fn run(config: &PerfConfig) -> PerfReport {
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let cap = CapacitanceModel::default();
    let options = LeakageOptions::default();
    let key = 0xAu8;
    let repeats = config.repeats;
    let mut rows = Vec::new();

    let hw_table = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).expect("energy table");
    rows.push(row(
        "simulate_traces",
        config.gen_traces,
        "traces",
        repeats,
        || {
            let set =
                simulate_traces_with_table(&netlist, &hw_table, key, config.gen_traces, &options);
            std::hint::black_box(set.len());
        },
    ));
    rows.push(row(
        "simulate_traces_parallel",
        config.gen_traces,
        "traces",
        repeats,
        || {
            let set = simulate_traces_parallel(
                &netlist,
                LeakageModel::HammingWeight,
                &cap,
                key,
                config.gen_traces,
                &options,
                None,
            )
            .expect("trace generation");
            std::hint::black_box(set.len());
        },
    ));

    let traces: TraceSet =
        simulate_traces_with_table(&netlist, &hw_table, 0x7, config.attack_traces, &options);
    let selection =
        |plaintext: u64, guess: u64| present_sbox((plaintext ^ guess) as u8).count_ones() >= 2;
    let model =
        |plaintext: u64, guess: u64| present_sbox((plaintext ^ guess) as u8).count_ones() as f64;

    rows.push(row("dpa_attack", 1, "attacks", repeats, || {
        let result = dpa_attack(&traces, 16, selection).expect("attack");
        std::hint::black_box(result.best_guess);
    }));
    rows.push(row("dpa_attack_reference", 1, "attacks", repeats, || {
        let result = reference::dpa_attack(&traces, 16, selection).expect("attack");
        std::hint::black_box(result.best_guess);
    }));
    rows.push(row("cpa_attack", 1, "attacks", repeats, || {
        let result = cpa_attack(&traces, 16, model).expect("attack");
        std::hint::black_box(result.best_guess);
    }));
    rows.push(row("cpa_attack_reference", 1, "attacks", repeats, || {
        let result = reference::cpa_attack(&traces, 16, model).expect("attack");
        std::hint::black_box(result.best_guess);
    }));

    // Out-of-core DPA: capture the same trace campaign into a chunked
    // archive and fold the streaming attack over it, one chunk in memory at
    // a time.  The capture row measures the streaming write path; the
    // attack row includes all chunk I/O and checksum verification.
    let archive_path =
        std::env::temp_dir().join(format!("dpl_bench_traces_{}.dpltrc", std::process::id()));
    let archive_meta = ArchiveMeta::scalar(1024, ModelTag::HammingWeight, options.seed);
    rows.push(row(
        "archive_capture",
        config.attack_traces,
        "traces",
        repeats,
        || {
            let mut writer =
                ArchiveWriter::create(&archive_path, archive_meta).expect("archive create");
            simulate_traces_into(
                &netlist,
                &hw_table,
                0x7,
                config.attack_traces,
                &options,
                &mut writer,
            )
            .expect("capture");
            std::hint::black_box(writer.finish().expect("finish"));
        },
    ));
    rows.push(row("dpa_attack_outofcore", 1, "attacks", repeats, || {
        let mut reader = ArchiveReader::open(&archive_path).expect("archive open");
        let result = dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
        std::hint::black_box(result.best_guess);
    }));

    // Fault-tolerance hot paths over the same (undamaged) archive: the
    // fsck-style integrity scan (every chunk read + checksum verified, no
    // accumulator work) and the salvage attack fold (the graceful-
    // degradation read path, which on a clean archive performs the same
    // work as the strict fold plus per-chunk damage bookkeeping).
    let chunk_count = config.attack_traces.div_ceil(1024);
    let retry = RetryPolicy::none();
    rows.push(row(
        "archive_fsck_scan",
        chunk_count,
        "chunks",
        repeats,
        || {
            let mut reader = ArchiveReader::open_with_policy(&archive_path, ReadPolicy::Salvage)
                .expect("archive open");
            let report = reader.scan(&retry).expect("scan");
            std::hint::black_box(report.traces_read);
        },
    ));
    rows.push(row(
        "salvage_read",
        config.attack_traces,
        "traces",
        repeats,
        || {
            let mut reader = ArchiveReader::open_with_policy(&archive_path, ReadPolicy::Salvage)
                .expect("archive open");
            let acc = DpaAccumulator::with_profile(16, selection, input_profile(&reader))
                .expect("accumulator");
            let (result, report) =
                fold(&mut reader, acc, Reading::Salvage(&retry)).expect("attack");
            std::hint::black_box((result.best_guess, report.traces_read));
        },
    ));
    let _ = std::fs::remove_file(&archive_path);

    // Sharded campaigns: the same key-recovery workload captured as a
    // multi-shard campaign — one scoped thread per shard, each drawing its
    // contiguous block-seeded trace range — then folded back through the
    // ShardedReader's global-order chunk stream.  These are the parallel
    // write path of `repro capture --shards` and the merge read path of an
    // attack over a manifest, measured with all file I/O included.
    let shard_chunk = 1024usize;
    let shard_meta = ArchiveMeta::scalar(shard_chunk, ModelTag::HammingWeight, options.seed);
    let campaign_stem = format!("dpl_bench_campaign_{}", std::process::id());
    let manifest_path = std::env::temp_dir().join(format!("{campaign_stem}.json"));
    let per_shard = config
        .attack_traces
        .div_ceil(shard_chunk)
        .div_ceil(4)
        .max(1)
        * shard_chunk;
    let mut shard_plan = Vec::new();
    let mut next_start = 0usize;
    while next_start < config.attack_traces {
        let count = per_shard.min(config.attack_traces - next_start);
        shard_plan.push(ShardMeta {
            path: format!("{campaign_stem}-shard-{:03}.dpltrc", shard_plan.len()),
            traces: count as u64,
            start: next_start as u64,
        });
        next_start += count;
    }
    rows.push(row(
        "capture_sharded",
        config.attack_traces,
        "traces",
        repeats,
        || {
            std::thread::scope(|scope| {
                for shard in &shard_plan {
                    let path = std::env::temp_dir().join(&shard.path);
                    let netlist = &netlist;
                    let hw_table = &hw_table;
                    let options = &options;
                    scope.spawn(move || {
                        let mut writer =
                            ArchiveWriter::create(&path, shard_meta).expect("shard create");
                        simulate_trace_range_into(
                            netlist,
                            hw_table,
                            0x7,
                            shard.start,
                            shard.traces,
                            options,
                            &mut writer,
                        )
                        .expect("shard capture");
                        writer.finish().expect("finish");
                    });
                }
            });
        },
    ));
    CampaignManifest::new(shard_plan.clone(), 16)
        .expect("manifest")
        .save(&manifest_path)
        .expect("manifest save");
    rows.push(row(
        "shard_merge",
        config.attack_traces,
        "traces",
        repeats,
        || {
            let mut reader = ShardedReader::open(&manifest_path).expect("campaign open");
            let result = dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
            std::hint::black_box(result.best_guess);
        },
    ));
    let _ = std::fs::remove_file(&manifest_path);
    for shard in &shard_plan {
        let _ = std::fs::remove_file(std::env::temp_dir().join(&shard.path));
    }

    // The vectorized fold engine on wide traces: streaming DPA over an
    // in-memory archive of 64-sample traces, reported as raw sample-byte
    // throughput (the `trace_fold_gbps` row: per_second is bytes/s).  The
    // single-sample attack rows above exercise the fold's bookkeeping;
    // this one exercises the unrolled sample-column inner loops.
    let wide_samples = 64usize;
    let wide = {
        let mut wide = TraceSet::new();
        let mut samples = vec![0.0f64; wide_samples];
        let mut state = 0x2005_D91F_5EED_2026u64;
        for t in 0..config.attack_traces {
            for slot in samples.iter_mut() {
                // SplitMix64: deterministic wide samples in [0, 1).
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                *slot = (z >> 11) as f64 / (1u64 << 53) as f64;
            }
            wide.push_samples((t % 16) as u64, &samples);
        }
        wide
    };
    let mut wide_meta = ArchiveMeta::scalar(shard_chunk, ModelTag::HammingWeight, options.seed);
    wide_meta.samples_per_trace = wide_samples;
    let wide_bytes = {
        let mut writer =
            ArchiveWriter::new(std::io::Cursor::new(Vec::new()), wide_meta).expect("writer");
        writer.append_trace_set(&wide).expect("append");
        writer.finish().expect("finish");
        writer.into_inner().into_inner()
    };
    rows.push(row(
        "trace_fold_gbps",
        config.attack_traces * wide_samples * 8,
        "bytes",
        repeats,
        || {
            let mut reader =
                ArchiveReader::new(std::io::Cursor::new(wide_bytes.as_slice())).expect("reader");
            let result = dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
            std::hint::black_box(result.best_guess);
        },
    ));

    // Compact encodings: the same wide trace set captured with i16
    // fixed-point samples plus the byte-shuffle/delta/varint compressor —
    // the full encode+write path of `repro capture --encoding i16
    // --compress`.  `items` is the encoded archive size, so `per_second`
    // is encoded bytes/s and `items / attack_traces` the bytes/trace the
    // render line reports against the raw f64 layout.
    let encoded_meta = wide_meta
        .with_encoding(SampleEncoding::I16(
            Quantization::new(2.0 / f64::from(i16::MAX)).expect("quantization"),
        ))
        .with_compression(Compression::Shuffle);
    let encode_run = || {
        let mut writer =
            ArchiveWriter::new(std::io::Cursor::new(Vec::new()), encoded_meta).expect("writer");
        writer.append_trace_set(&wide).expect("append");
        writer.finish().expect("finish");
        writer.into_inner().into_inner().len()
    };
    let encoded_len = encode_run();
    rows.push(row(
        "encoded_bytes_per_trace",
        encoded_len,
        "bytes",
        repeats,
        || {
            std::hint::black_box(encode_run());
        },
    ));

    // Instrumentation overhead: the identical in-memory capture +
    // streaming DPA measured bare and with a live telemetry handle
    // attached to the writer and reader (chunk counters, spans, fold
    // throughput gauges).  Recording is chunk-granular by design, so the
    // instrumented pipeline must stay within a few percent of the bare
    // one; `render()` prints the measured overhead against the 5 % bound.
    let pipeline = |obs: Option<&Obs>| {
        let meta = ArchiveMeta::scalar(1024, ModelTag::HammingWeight, options.seed);
        let mut writer =
            ArchiveWriter::new(std::io::Cursor::new(Vec::new()), meta).expect("writer");
        if let Some(obs) = obs {
            writer.set_obs(obs);
        }
        simulate_traces_into(
            &netlist,
            &hw_table,
            0x7,
            config.attack_traces,
            &options,
            &mut writer,
        )
        .expect("capture");
        writer.finish().expect("finish");
        let bytes = writer.into_inner().into_inner();
        let mut reader = ArchiveReader::new(std::io::Cursor::new(bytes)).expect("reader");
        if let Some(obs) = obs {
            reader.set_obs(obs);
        }
        let result = dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
        std::hint::black_box(result.best_guess);
    };
    rows.push(row(
        "capture_dpa_baseline",
        config.attack_traces,
        "traces",
        repeats,
        || pipeline(None),
    ));
    rows.push(row(
        "instrumentation_overhead",
        config.attack_traces,
        "traces",
        repeats,
        || {
            let obs = Obs::monotonic();
            pipeline(Some(&obs));
            std::hint::black_box(obs.metrics().counter(dpl_obs::names::FOLD_TRACES));
        },
    ));

    // Streaming TVLA: a fixed-vs-random campaign captured once (untimed),
    // then the first-order Welch t-test folded over the archive — chunk
    // I/O, checksums and the per-sample accumulators included.
    let tvla_path =
        std::env::temp_dir().join(format!("dpl_bench_tvla_{}.dpltrc", std::process::id()));
    {
        let meta = ArchiveMeta::scalar_tvla(1024, ModelTag::HammingWeight, options.seed);
        let mut writer = ArchiveWriter::create(&tvla_path, meta).expect("archive create");
        simulate_tvla_traces_into(
            &netlist,
            &hw_table,
            key,
            0x3,
            config.attack_traces,
            &options,
            &mut writer,
        )
        .expect("tvla capture");
        writer.finish().expect("finish");
    }
    rows.push(row(
        "tvla_streaming",
        config.attack_traces,
        "traces",
        repeats,
        || {
            let mut reader = ArchiveReader::open(&tvla_path).expect("archive open");
            let acc = WelchAccumulator::new(interleaved_partition);
            let (result, _) = fold(&mut reader, acc, Reading::Strict).expect("tvla");
            std::hint::black_box(result.max_abs_t());
        },
    ));
    let _ = std::fs::remove_file(&tvla_path);

    // Measurements-to-disclosure: one profiled-CPA sweep over a small grid
    // of the Hamming-weight model (2 repetitions), timing the campaign
    // generation + prefix-evaluated grid scoring end to end.
    let mtd_grid = [
        config.attack_traces / 4,
        config.attack_traces / 2,
        config.attack_traces,
    ];
    let mtd_reps = 2usize;
    rows.push(row(
        "mtd_curve",
        mtd_reps * config.attack_traces,
        "traces",
        repeats,
        || {
            let mtd = mtd_probe(&mtd_grid, mtd_reps, &netlist, &hw_table, &options);
            std::hint::black_box(mtd);
        },
    ));

    // Transient characterisation of one library cell (AND2, genuine
    // DPDN, 4 input events): the uncached per-event simulation behind
    // `GateEnergyTable::characterized` — the cost a characterized model
    // pays per (style, cell) before the process-wide cache kicks in.
    rows.push(row(
        "characterized_table_build",
        4,
        "events",
        repeats,
        || {
            let events = dpl_crypto::characterize_kind_energies(
                LeakageModel::GenuineSabl,
                dpl_core::GateKind::And2,
                &cap,
            )
            .expect("characterisation");
            std::hint::black_box(events.len());
        },
    ));

    // Exact equivalence checking: the full S-box datapath plus the
    // one-round mini-PRESENT, each proven output-by-output against its
    // specification oracle (canonical BDD identity, plus the exhaustive
    // 2^8 sweep for the S-box) — the cost of `repro verify`'s proof
    // obligation per circuit.
    rows.push(row("bdd_equivalence_check", 2, "proofs", repeats, || {
        let sbox = dpl_verify::prove_equivalent(&dpl_verify::VerifiedCircuit::Sbox)
            .expect("sbox equivalence");
        std::hint::black_box(sbox.bdd_nodes);
        let present = dpl_verify::prove_equivalent(&dpl_verify::VerifiedCircuit::MiniPresent(
            dpl_verify::MAX_VERIFIED_ROUNDS,
        ))
        .expect("mini-PRESENT equivalence");
        std::hint::black_box(present.bdd_nodes);
    }));

    let sabl_table = GateEnergyTable::build(LeakageModel::GenuineSabl, &cap).expect("energy table");
    rows.push(row("energy_cache_bitsliced", 256, "evals", repeats, || {
        let cache = EnergyCache::new(&netlist, &sabl_table);
        std::hint::black_box(cache.energy(0xF, 0xF));
    }));
    rows.push(row(
        "predicted_energy_scalar",
        256,
        "evals",
        repeats,
        || {
            let mut acc = 0.0;
            for plaintext in 0..16u64 {
                for guess in 0..16u8 {
                    acc += predicted_energy(&netlist, &sabl_table, plaintext, guess);
                }
            }
            std::hint::black_box(acc);
        },
    ));

    PerfReport {
        config: *config,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_all_rows_and_valid_json() {
        let config = PerfConfig {
            gen_traces: 50,
            attack_traces: 50,
            repeats: 1,
        };
        let report = run(&config);
        for name in [
            "simulate_traces",
            "simulate_traces_parallel",
            "dpa_attack",
            "dpa_attack_reference",
            "cpa_attack",
            "cpa_attack_reference",
            "archive_capture",
            "dpa_attack_outofcore",
            "archive_fsck_scan",
            "salvage_read",
            "capture_sharded",
            "shard_merge",
            "trace_fold_gbps",
            "encoded_bytes_per_trace",
            "capture_dpa_baseline",
            "instrumentation_overhead",
            "tvla_streaming",
            "mtd_curve",
            "characterized_table_build",
            "bdd_equivalence_check",
            "energy_cache_bitsliced",
            "predicted_energy_scalar",
        ] {
            let row = report.row(name).expect(name);
            assert!(row.seconds >= 0.0);
            assert!(row.per_second > 0.0);
        }
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"results\""));
        assert!(json.contains("\"per_second\""));
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"git_rev\""));
        let rendered = report.render();
        assert!(rendered.contains("speedup DPA"));
        assert!(rendered.contains("throughput"));
        assert!(rendered.contains("fold engine"));
        assert!(rendered.contains("compact encoding"));
        // Chunk-granular recording keeps the instrumented pipeline close
        // to the bare one; on this tiny, noisy workload only gross
        // (per-trace-recording-level) regressions are asserted — the
        // committed BENCH_dpa.json records the full-size overhead against
        // the 5 % budget.
        let overhead = report.instrumentation_overhead().expect("overhead rows");
        assert!(
            overhead < 1.0,
            "instrumented capture+DPA more than doubled: {:+.1} %",
            overhead * 100.0
        );
    }
}
