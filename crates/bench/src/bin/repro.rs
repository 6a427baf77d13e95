//! Command-line experiment runner: regenerates every figure of the paper,
//! records the performance trajectory, and drives the out-of-core trace
//! archive workflow — for built-in *and* transient-characterized energy
//! models, over the S-box datapath or any library-cell circuit.
//!
//! ```text
//! cargo run -p dpl-bench --release --bin repro                  # all experiments
//! cargo run -p dpl-bench --release --bin repro -- fig3          # a single one
//! cargo run -p dpl-bench --release --bin repro -- dpa 5000 --seed 7
//! cargo run -p dpl-bench --release --bin repro -- cpa 2000
//! cargo run -p dpl-bench --release --bin repro -- charac-table oai22 --model fc-charac
//! cargo run -p dpl-bench --release --bin repro -- capture traces.dpltrc 100000 --seed 7
//! cargo run -p dpl-bench --release --bin repro -- capture m.dpltrc 5000 --model genuine-charac --circuit maj3
//! cargo run -p dpl-bench --release --bin repro -- capture tvla.dpltrc 20000 --tvla
//! cargo run -p dpl-bench --release --bin repro -- capture traces.dpltrc 100000 --seed 7 --resume
//! cargo run -p dpl-bench --release --bin repro -- capture campaign.json 100000 --shards 4
//! cargo run -p dpl-bench --release --bin repro -- capture compact.dpltrc 50000 --encoding i16 --compress
//! cargo run -p dpl-bench --release --bin repro -- attack traces.dpltrc --dpa --verify
//! cargo run -p dpl-bench --release --bin repro -- attack campaign.json --cpa --verify
//! cargo run -p dpl-bench --release --bin repro -- attack m.dpltrc --cpa --circuit maj3
//! cargo run -p dpl-bench --release --bin repro -- attack damaged.dpltrc --dpa --salvage
//! cargo run -p dpl-bench --release --bin repro -- attack campaign.json --cpa --salvage
//! cargo run -p dpl-bench --release --bin repro -- attack traces.dpltrc --dpa --metrics m.jsonl --report text
//! cargo run -p dpl-bench --release --bin repro -- attack traces.dpltrc --dpa --trace t.json --progress
//! cargo run -p dpl-bench --release --bin repro -- fsck traces.dpltrc --repair
//! cargo run -p dpl-bench --release --bin repro -- info traces.dpltrc
//! cargo run -p dpl-bench --release --bin repro -- info traces.dpltrc --json --fsck
//! cargo run -p dpl-bench --release --bin repro -- tvla tvla.dpltrc --order both
//! cargo run -p dpl-bench --release --bin repro -- mtd --seed 7 --attack cpa
//! cargo run -p dpl-bench --release --bin repro -- mtd --model fc-charac --circuit oai22
//! cargo run -p dpl-bench --release --bin repro -- verify all    # prove + certify + replay
//! cargo run -p dpl-bench --release --bin repro -- verify sbox --model fc
//! ```

use std::env;
use std::fs::File;
use std::path::Path;
use std::process::ExitCode;

use dpl_bench::{CircuitChoice, MtdAttack, TelemetrySession};
use dpl_cells::CapacitanceModel;
use dpl_core::GateKind;
use dpl_crypto::{
    simulate_trace_range_into, simulate_traces_into, simulate_traces_into_observed,
    simulate_tvla_trace_range_into, simulate_tvla_traces_into, simulate_tvla_traces_into_observed,
    EnergyCache, EnergyModel, GateEnergyTable, GateNetlist, LeakageModel, LeakageOptions,
};
use dpl_eval::TvlaOrder;
use dpl_obs::Obs;
use dpl_power::{
    cpa_attack, dpa_attack, AttackResult, CpaAccumulator, DpaAccumulator, InputClasses, TraceSet,
    TraceSink,
};
use dpl_store::{
    cpa_passes, fold, input_profile, is_manifest_file, repair_archive, ArchiveMeta, ArchiveReader,
    ArchiveWriter, CampaignManifest, ChunkSource, Compression, FaultPlan, FaultStream, ModelTag,
    Quantization, ReadPolicy, ReadSite, Reading, RetryPolicy, SampleEncoding, ShardMeta,
    ShardedReader, StoreError, SyncWrite,
};

/// The fixed secret key nibble of every CLI campaign (printed by `capture`
/// and expected back by `attack`).
const CAMPAIGN_KEY: u8 = 0xA;

/// Every flag whose effect is scoped to particular subcommands, with the
/// subcommands that accept it.  [`check_flag_scopes`] rejects such a flag
/// on any other subcommand with one consistent message — the single place
/// this rule lives, instead of per-flag ad-hoc checks.
const FLAG_SCOPES: &[(&str, &[&str])] = &[
    ("--seed", &["dpa", "cpa", "capture", "mtd"]),
    ("--budget", &["attack"]),
    (
        "--model",
        &["capture", "attack", "mtd", "charac-table", "verify"],
    ),
    ("--circuit", &["capture", "attack", "mtd"]),
    ("--chunk", &["capture"]),
    ("--tvla", &["capture"]),
    ("--force", &["capture"]),
    ("--resume", &["capture"]),
    ("--fault-at", &["capture"]),
    ("--shards", &["capture"]),
    ("--encoding", &["capture"]),
    ("--compress", &["capture"]),
    ("--dpa", &["attack"]),
    ("--cpa", &["attack"]),
    ("--verify", &["attack"]),
    ("--salvage", &["attack", "tvla"]),
    ("--repair", &["fsck"]),
    ("--order", &["tvla"]),
    ("--workers", &["tvla"]),
    ("--attack", &["mtd"]),
    ("--reps", &["mtd"]),
    ("--tolerance", &["verify"]),
    ("--metrics", &["capture", "attack", "tvla", "mtd", "verify"]),
    ("--report", &["capture", "attack", "tvla", "mtd", "verify"]),
    ("--trace", &["capture", "attack", "tvla", "mtd", "verify"]),
    (
        "--progress",
        &["capture", "attack", "tvla", "mtd", "verify"],
    ),
    ("--json", &["info"]),
    ("--fsck", &["info"]),
];

/// Rejects any scoped flag that does not apply to `subcommand`, naming the
/// offending subcommand and where the flag is actually supported.
fn check_flag_scopes(subcommand: &str, args: &[String]) -> Result<(), String> {
    for &(flag, scopes) in FLAG_SCOPES {
        if !scopes.contains(&subcommand) && args.iter().any(|a| a == flag) {
            return Err(format!(
                "`{flag}` is not supported by the `{subcommand}` subcommand; it only applies \
                 to: {}",
                scopes.join(", ")
            ));
        }
    }
    Ok(())
}

/// The consistent "unknown flag" message of every subcommand parser.
fn unknown_flag(subcommand: &str, flag: &str, usage: &str) -> String {
    format!("unknown option `{flag}` for the `{subcommand}` subcommand; usage: {usage}")
}

/// Exports a finished subcommand's telemetry — JSON-lines to the
/// `--metrics` file, the Chrome `trace_event` document to the `--trace`
/// file, the rendered `--report` to stdout — and returns the command's
/// final exit code (an export failure fails the command).
fn finish_telemetry(telemetry: Option<TelemetrySession>, command: &str) -> ExitCode {
    if let Some(session) = telemetry {
        match session.finish(command) {
            Ok(report) => print!("{report}"),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Flushes a subcommand's telemetry on **every** exit path and folds the
/// command body's outcome into the final exit code.  A failed campaign
/// still exports the partial telemetry recorded up to the failure (often
/// exactly the evidence needed to diagnose it), but its failure always
/// wins over the export's success.
fn conclude(
    outcome: Result<(), ()>,
    telemetry: Option<TelemetrySession>,
    command: &str,
) -> ExitCode {
    let flushed = finish_telemetry(telemetry, command);
    match outcome {
        Ok(()) => flushed,
        Err(()) => ExitCode::FAILURE,
    }
}

fn model_tag_of(model: EnergyModel) -> ModelTag {
    let base = match model.style {
        LeakageModel::GenuineSabl => ModelTag::GenuineSabl,
        LeakageModel::FullyConnectedSabl => ModelTag::FullyConnectedSabl,
        LeakageModel::EnhancedSabl => ModelTag::EnhancedSabl,
        LeakageModel::HammingWeight => ModelTag::HammingWeight,
    };
    if model.is_characterized() {
        base.characterized().expect("every style has a charac tag")
    } else {
        base
    }
}

fn energy_model_of(tag: ModelTag) -> Option<EnergyModel> {
    let style = match tag.base_style() {
        ModelTag::GenuineSabl => LeakageModel::GenuineSabl,
        ModelTag::FullyConnectedSabl => LeakageModel::FullyConnectedSabl,
        ModelTag::EnhancedSabl => LeakageModel::EnhancedSabl,
        ModelTag::HammingWeight => LeakageModel::HammingWeight,
        _ => return None,
    };
    Some(if tag.is_characterized() {
        EnergyModel::characterized(style)
    } else {
        EnergyModel::builtin(style)
    })
}

/// The digest a capture records in the archive header for a non-default
/// hypothesis: the energy table's digest combined with the attack
/// circuit's name, so `attack` can verify it rebuilt **both** the exact
/// energy model and the exact circuit — for built-in and characterized
/// models alike.
fn hypothesis_digest(table: &GateEnergyTable, circuit: CircuitChoice) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&table.digest().to_le_bytes());
    bytes.extend_from_slice(circuit.name().as_bytes());
    dpl_store::format::fnv1a64(&bytes)
}

/// Parses `--seed <u64>` out of an argument list, returning the remaining
/// arguments and the seed (if present).
fn take_seed(args: &[String]) -> Result<(Vec<String>, Option<u64>), String> {
    let mut rest = Vec::new();
    let mut seed = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--seed" {
            let value = iter.next().ok_or("--seed needs a value")?;
            seed = Some(
                value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid seed `{value}`; expected a u64"))?,
            );
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, seed))
}

/// Parses the value of a `--model` flag.
fn parse_model_arg(value: Option<&String>) -> Result<EnergyModel, String> {
    value
        .and_then(|name| EnergyModel::parse(name))
        .ok_or_else(|| {
            "--model needs one of: hw, genuine, fc, enhanced — optionally with a `-charac` \
             suffix for the transient-characterized source (e.g. genuine-charac)"
                .to_string()
        })
}

/// Parses the value of a `--circuit` flag.
fn parse_circuit_arg(value: Option<&String>) -> Result<CircuitChoice, String> {
    value
        .and_then(|name| CircuitChoice::parse(name))
        .ok_or_else(|| "--circuit needs `sbox` or a library gate name (e.g. oai22, maj3)".into())
}

/// Forwards a campaign's trace stream to an archive writer, discarding the
/// first `remaining` records — how a resumed capture replays the
/// deterministic simulation from trace 0 but only writes the traces the
/// interrupted run never flushed, so the finished file is byte-identical to
/// an uninterrupted capture.
struct SkipSink<'a, W: SyncWrite> {
    writer: &'a mut ArchiveWriter<W>,
    remaining: u64,
}

impl<W: SyncWrite> TraceSink for SkipSink<'_, W> {
    type Error = StoreError;

    fn record(&mut self, input: u64, samples: &[f64]) -> Result<(), StoreError> {
        if self.remaining > 0 {
            self.remaining -= 1;
            Ok(())
        } else {
            self.writer.append(input, samples)
        }
    }
}

/// Everything a capture campaign needs besides the destination stream.
struct CaptureJob {
    netlist: GateNetlist,
    table: GateEnergyTable,
    options: LeakageOptions,
    tvla: bool,
    num_traces: usize,
}

impl CaptureJob {
    /// Simulates the campaign into the writer (skipping whatever the writer
    /// already holds from a resumed prefix) and finishes the archive,
    /// returning the trace count and the `i16` saturation count.  With
    /// `obs`, the writer's chunk/fsync counters and the simulator's span and
    /// throughput gauges are recorded — the trace stream itself is
    /// byte-identical either way.
    fn run<W: SyncWrite>(
        &self,
        writer: &mut ArchiveWriter<W>,
        obs: Option<&Obs>,
    ) -> Result<(u64, u64), String> {
        if let Some(obs) = obs {
            writer.set_obs(obs);
        }
        let skip = writer.traces_written();
        let mut sink = SkipSink {
            writer: &mut *writer,
            remaining: skip,
        };
        let capture = match (self.tvla, obs) {
            (true, Some(obs)) => simulate_tvla_traces_into_observed(
                &self.netlist,
                &self.table,
                CAMPAIGN_KEY,
                dpl_bench::TVLA_FIXED_PLAINTEXT,
                self.num_traces,
                &self.options,
                &mut sink,
                obs,
            ),
            (true, None) => simulate_tvla_traces_into(
                &self.netlist,
                &self.table,
                CAMPAIGN_KEY,
                dpl_bench::TVLA_FIXED_PLAINTEXT,
                self.num_traces,
                &self.options,
                &mut sink,
            ),
            (false, Some(obs)) => simulate_traces_into_observed(
                &self.netlist,
                &self.table,
                CAMPAIGN_KEY,
                self.num_traces,
                &self.options,
                &mut sink,
                obs,
            ),
            (false, None) => simulate_traces_into(
                &self.netlist,
                &self.table,
                CAMPAIGN_KEY,
                self.num_traces,
                &self.options,
                &mut sink,
            ),
        };
        capture.map_err(|e| format!("capture failed: {e}"))?;
        let total = writer
            .finish()
            .map_err(|e| format!("finishing failed: {e}"))?;
        Ok((total, writer.saturated_samples()))
    }
}

/// `repro capture <file> <n> [--seed s] [--model <name>] [--circuit <name>]
/// [--chunk k] [--tvla] [--force] [--resume] [--fault-at k] [--shards n]
/// [--encoding f64|f32|i16] [--compress]`: simulate a campaign and stream
/// it straight to a chunked archive.  `--model` accepts
/// characterisation-derived models (e.g. `genuine-charac`), `--circuit` any
/// library-cell datapath; with `--tvla` the campaign is an interleaved
/// fixed-vs-random capture (even traces = fixed plaintext) tagged as such
/// in the archive header, ready for `repro tvla`.  An existing file is
/// never overwritten unless `--force` is passed; `--resume` continues an
/// interrupted capture from its recovered valid prefix instead, and
/// `--fault-at k` injects a deterministic I/O failure at operation `k`
/// (the crash-recovery smoke test's crash lever).
///
/// `--shards n` captures a **sharded campaign**: `<file>` becomes a JSON
/// campaign manifest and the traces land in `n` shard archives captured by
/// one worker each, drawn from the block-seeded parallel trace stream so
/// the concatenated shards are bit-identical for **any** shard count.
/// `--encoding`/`--compress` select the compact sample encodings
/// (the fixed-point `i16` scale is derived from a deterministic probe of
/// the campaign's first traces and recorded in every header).
fn run_capture(args: &[String]) -> ExitCode {
    let (args, seed) = match take_seed(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let (args, telemetry) = match TelemetrySession::from_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = capture_command(&args, seed, telemetry.as_ref());
    conclude(outcome, telemetry, "repro capture")
}

/// The body of `repro capture`, separated from [`run_capture`] so the
/// telemetry session flushes even when the capture fails mid-campaign.
/// Every error is printed here; `Err(())` only signals the exit code.
fn capture_command(
    args: &[String],
    seed: Option<u64>,
    telemetry: Option<&TelemetrySession>,
) -> Result<(), ()> {
    const USAGE: &str = "repro capture <file> <traces> [--seed s] [--model m] [--circuit c] \
                         [--chunk k] [--tvla] [--force] [--resume] [--fault-at k] [--shards n] \
                         [--encoding f64|f32|i16] [--compress] \
                         [--metrics f] [--report json|text] [--trace f] [--progress]";
    let mut positional = Vec::new();
    let mut model = EnergyModel::builtin(LeakageModel::HammingWeight);
    let mut circuit = CircuitChoice::Sbox;
    let mut chunk_traces = 1024usize;
    let mut tvla = false;
    let mut force = false;
    let mut resume = false;
    let mut fault_at = None;
    let mut shards: Option<usize> = None;
    let mut encoding_arg = "f64";
    let mut compress = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--model" => match parse_model_arg(iter.next()) {
                Ok(m) => model = m,
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            "--circuit" => match parse_circuit_arg(iter.next()) {
                Ok(c) => circuit = c,
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            "--chunk" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(k) if k > 0 => chunk_traces = k,
                _ => {
                    eprintln!("--chunk needs a positive trace count");
                    return Err(());
                }
            },
            "--tvla" => tvla = true,
            "--force" => force = true,
            "--resume" => resume = true,
            "--fault-at" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(op) => fault_at = Some(op),
                None => {
                    eprintln!("--fault-at needs an operation index (a non-negative integer)");
                    return Err(());
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => shards = Some(n),
                _ => {
                    eprintln!("--shards needs a positive shard count");
                    return Err(());
                }
            },
            "--encoding" => match iter.next().map(String::as_str) {
                Some(name @ ("f64" | "f32" | "i16")) => encoding_arg = name,
                _ => {
                    eprintln!("--encoding needs one of: f64, f32, i16");
                    return Err(());
                }
            },
            "--compress" => compress = true,
            other if other.starts_with("--") => {
                eprintln!("{}", unknown_flag("capture", other, USAGE));
                return Err(());
            }
            other => positional.push(other.to_string()),
        }
    }
    let [path, count] = positional.as_slice() else {
        eprintln!("usage: {USAGE}");
        return Err(());
    };
    let num_traces: usize = match count.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("invalid trace count `{count}`; expected a positive integer");
            return Err(());
        }
    };
    if resume && force {
        eprintln!("--resume and --force contradict each other: resume keeps the existing data");
        return Err(());
    }
    if resume && fault_at.is_some() {
        eprintln!("--fault-at applies to fresh captures only");
        return Err(());
    }
    if shards.is_some() && resume {
        eprintln!("--shards captures a fresh campaign; --resume applies to single archives");
        return Err(());
    }
    if shards.is_some() && fault_at.is_some() {
        eprintln!("--fault-at applies to single-archive captures only");
        return Err(());
    }
    let seed = seed.unwrap_or(dpl_bench::DEFAULT_EXPERIMENT_SEED);
    let obs = telemetry.map(|t| t.obs());

    let netlist = circuit.netlist();
    let capacitance = CapacitanceModel::default();
    let table = GateEnergyTable::for_circuit(model, &capacitance, &netlist).expect("energy table");
    let options = LeakageOptions {
        relative_noise: 0.02,
        seed,
    };
    let mut meta = if tvla {
        ArchiveMeta::scalar_tvla(chunk_traces, model_tag_of(model), seed)
    } else {
        ArchiveMeta::scalar(chunk_traces, model_tag_of(model), seed)
    };
    if model.is_characterized() || circuit != CircuitChoice::Sbox {
        // Any non-default hypothesis (characterized table, or a circuit
        // other than the S-box datapath) records its digest so `attack`
        // can verify it rebuilt the exact same energy model *and* circuit.
        meta = meta.with_table_digest(hypothesis_digest(&table, circuit));
    }
    let job = CaptureJob {
        netlist,
        table,
        options,
        tvla,
        num_traces,
    };
    let encoding = match encoding_arg {
        "f32" => SampleEncoding::F32,
        "i16" => match probe_quantization(&job, shards.is_some()) {
            Ok(q) => SampleEncoding::I16(q),
            Err(message) => {
                eprintln!("{message}");
                return Err(());
            }
        },
        _ => SampleEncoding::F64,
    };
    meta = meta.with_encoding(encoding).with_compression(if compress {
        Compression::Shuffle
    } else {
        Compression::None
    });

    if let Some(shards) = shards {
        return capture_sharded(path, shards, meta, &job, circuit, force, telemetry);
    }

    let finished = if resume {
        let (mut writer, recovery) = match ArchiveWriter::resume(path, meta) {
            Ok(resumed) => resumed,
            Err(e) => {
                eprintln!("cannot resume {path}: {e}");
                return Err(());
            }
        };
        println!(
            "resumed {path}: {} full chunk(s) ({} trace(s)) kept, {} trace(s) re-buffered \
             from an interrupted finish, {} byte(s) of torn data dropped",
            recovery.full_chunks,
            recovery.full_traces,
            recovery.buffered_traces,
            recovery.dropped_bytes
        );
        if let Some(obs) = obs {
            recovery.observe(obs);
        }
        let already = writer.traces_written();
        if already > num_traces as u64 {
            eprintln!(
                "{path} already holds {already} trace(s) — more than the {num_traces} requested"
            );
            return Err(());
        }
        if let Some(session) = telemetry {
            // A resumed capture only flushes the traces the interrupted
            // run never wrote; the progress plane counts exactly those.
            session.start_progress(Some(num_traces as u64 - already), "traces");
        }
        job.run(&mut writer, obs)
    } else {
        if Path::new(path).exists() && !force {
            eprintln!(
                "refusing to overwrite {path}: it already exists; pass --force to truncate \
                 it, or --resume to continue an interrupted capture"
            );
            return Err(());
        }
        if let Some(session) = telemetry {
            session.start_progress(Some(num_traces as u64), "traces");
        }
        match fault_at {
            Some(op) => {
                let file = match File::create(path) {
                    Ok(file) => file,
                    Err(e) => {
                        eprintln!("cannot create {path}: {e}");
                        return Err(());
                    }
                };
                let stream =
                    FaultStream::new(file, FaultPlan::error_at(op, std::io::ErrorKind::Other));
                match ArchiveWriter::new(stream, meta) {
                    Ok(mut writer) => job.run(&mut writer, obs),
                    Err(e) => Err(format!("cannot create {path}: {e}")),
                }
            }
            None => match ArchiveWriter::create(path, meta) {
                Ok(mut writer) => job.run(&mut writer, obs),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return Err(());
                }
            },
        }
    };
    match finished {
        Ok((total, saturated)) => {
            let kind = if tvla {
                format!(
                    ", interleaved TVLA campaign (fixed plaintext {:#X})",
                    dpl_bench::TVLA_FIXED_PLAINTEXT
                )
            } else {
                String::new()
            };
            println!(
                "captured {total} traces to {path}: model = {}, seed = {seed}, \
                 chunk = {chunk_traces} traces, secret key nibble = {CAMPAIGN_KEY:#X}{kind}",
                model.label()
            );
            if circuit != CircuitChoice::Sbox {
                println!("circuit: {} ({})", circuit.name(), circuit.label());
            }
            print_encoding(&meta, saturated);
            if meta.table_digest != 0 {
                println!(
                    "hypothesis digest (energy table + circuit): {:#018X} (recorded in the \
                     archive header)",
                    meta.table_digest
                );
            }
            Ok(())
        }
        Err(message) => {
            eprintln!("{message}");
            Err(())
        }
    }
}

/// Prints the compact-encoding facts of a capture (silent for the default
/// lossless layout, whose reports are unchanged), including how many `i16`
/// samples saturated.
fn print_encoding(meta: &ArchiveMeta, saturated: u64) {
    if meta.encoding == SampleEncoding::F64 && meta.compression == Compression::None {
        return;
    }
    println!(
        "encoding: {} samples, compression: {}",
        meta.encoding.label(),
        meta.compression.label()
    );
    if let Some(q) = meta.encoding.quantization() {
        println!(
            "quantization scale: {:.6e} (max abs error {:.3e}, recorded in every header)",
            q.scale,
            q.max_error()
        );
        println!(
            "i16 saturations: {saturated} sample(s) clamped at the integer range, beyond the \
             error bound (recorded in the header)"
        );
    }
}

/// Derives the fixed-point quantization contract of an `--encoding i16`
/// capture from a deterministic probe of the campaign's first traces
/// (up to 1024): the scale leaves 2x headroom over the largest probed
/// magnitude before saturation.  The probe replays the exact stream the
/// capture will write — sequential for a single archive, block-seeded for
/// a sharded campaign — so re-deriving it (e.g. for `--resume`) is
/// reproducible.
fn probe_quantization(job: &CaptureJob, sharded: bool) -> Result<Quantization, String> {
    let probe = job.num_traces.min(1024);
    let mut set = TraceSet::new();
    let outcome = if sharded {
        if job.tvla {
            simulate_tvla_trace_range_into(
                &job.netlist,
                &job.table,
                CAMPAIGN_KEY,
                dpl_bench::TVLA_FIXED_PLAINTEXT,
                0,
                probe as u64,
                &job.options,
                &mut set,
            )
        } else {
            simulate_trace_range_into(
                &job.netlist,
                &job.table,
                CAMPAIGN_KEY,
                0,
                probe as u64,
                &job.options,
                &mut set,
            )
        }
    } else if job.tvla {
        simulate_tvla_traces_into(
            &job.netlist,
            &job.table,
            CAMPAIGN_KEY,
            dpl_bench::TVLA_FIXED_PLAINTEXT,
            probe,
            &job.options,
            &mut set,
        )
    } else {
        simulate_traces_into(
            &job.netlist,
            &job.table,
            CAMPAIGN_KEY,
            probe,
            &job.options,
            &mut set,
        )
    };
    outcome.map_err(|e| format!("quantization probe failed: {e}"))?;
    let mut max_abs = 0.0f64;
    for t in 0..set.len() {
        for v in set.trace_samples(t) {
            max_abs = max_abs.max(v.abs());
        }
    }
    if !max_abs.is_finite() || max_abs <= 0.0 {
        return Err(
            "cannot derive an i16 quantization scale: the probe traces hold no non-zero \
             finite sample"
                .into(),
        );
    }
    Quantization::new(max_abs * 2.0 / f64::from(i16::MAX))
        .map_err(|e| format!("quantization probe failed: {e}"))
}

/// What one shard worker of a sharded capture wrote.
struct ShardCapture {
    /// Traces written.
    written: u64,
    /// `i16` samples clamped at the integer range bounds.
    saturated: u64,
    /// The shard's (bounded) distinct-input table, as its writer tracked it.
    inputs: InputClasses,
}

/// Captures one shard of a sharded campaign: global traces
/// `start..start + count` of the block-seeded stream, written to `path`.
fn capture_one_shard(
    path: &Path,
    meta: ArchiveMeta,
    job: &CaptureJob,
    start: u64,
    count: u64,
    obs: Option<&Obs>,
) -> Result<ShardCapture, String> {
    let display = path.display();
    let mut writer =
        ArchiveWriter::create(path, meta).map_err(|e| format!("cannot create {display}: {e}"))?;
    if let Some(obs) = obs {
        writer.set_obs(obs);
    }
    let outcome = if job.tvla {
        simulate_tvla_trace_range_into(
            &job.netlist,
            &job.table,
            CAMPAIGN_KEY,
            dpl_bench::TVLA_FIXED_PLAINTEXT,
            start,
            count,
            &job.options,
            &mut writer,
        )
    } else {
        simulate_trace_range_into(
            &job.netlist,
            &job.table,
            CAMPAIGN_KEY,
            start,
            count,
            &job.options,
            &mut writer,
        )
    };
    outcome.map_err(|e| format!("capture into {display} failed: {e}"))?;
    let written = writer
        .finish()
        .map_err(|e| format!("finishing {display} failed: {e}"))?;
    Ok(ShardCapture {
        written,
        saturated: writer.saturated_samples(),
        inputs: writer.input_classes().clone(),
    })
}

/// The `--shards n` body of `repro capture`: shard-per-worker parallel
/// capture into `n` archives plus the campaign manifest at `manifest_path`.
/// Every shard but the last holds a multiple of `chunk_traces` traces, so
/// the concatenated chunk streams equal a single archive's; every worker
/// draws its range from the block-seeded stream, so the campaign is
/// bit-identical for any shard count.
fn capture_sharded(
    manifest_path: &str,
    shards: usize,
    meta: ArchiveMeta,
    job: &CaptureJob,
    circuit: CircuitChoice,
    force: bool,
    telemetry: Option<&TelemetrySession>,
) -> Result<(), ()> {
    let num_traces = job.num_traces;
    let total_chunks = num_traces.div_ceil(meta.chunk_traces);
    let per_shard = total_chunks.div_ceil(shards).max(1) * meta.chunk_traces;
    let manifest_file = Path::new(manifest_path);
    let stem = manifest_file
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("campaign");
    let dir = manifest_file.parent().unwrap_or_else(|| Path::new("."));
    // The shard plan: contiguous ranges, chunk-aligned except the last.
    let mut plan: Vec<ShardMeta> = Vec::new();
    let mut start = 0usize;
    while start < num_traces {
        let count = per_shard.min(num_traces - start);
        plan.push(ShardMeta {
            path: format!("{stem}-shard-{:03}.dpltrc", plan.len()),
            traces: count as u64,
            start: start as u64,
        });
        start += count;
    }
    if plan.len() < shards {
        println!(
            "note: {num_traces} trace(s) fill only {} chunk-aligned shard(s), not {shards}",
            plan.len()
        );
    }
    if !force {
        let clash = std::iter::once(manifest_file.to_path_buf())
            .chain(plan.iter().map(|s| dir.join(&s.path)))
            .find(|p| p.exists());
        if let Some(clash) = clash {
            eprintln!(
                "refusing to overwrite {}: it already exists; pass --force to replace the \
                 campaign",
                clash.display()
            );
            return Err(());
        }
    }
    if let Some(session) = telemetry {
        session.start_progress(Some(num_traces as u64), "traces");
    }
    let obs = telemetry.map(|t| t.obs());
    let results: Vec<Result<ShardCapture, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .map(|shard| {
                let path = dir.join(&shard.path);
                let (start, count) = (shard.start, shard.traces);
                scope.spawn(move || capture_one_shard(&path, meta, job, start, count, obs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard capture worker panicked"))
            .collect()
    });
    // The campaign-wide union, merged in shard order exactly as a single
    // archive of the whole campaign would have tracked it.
    let mut distinct = InputClasses::new();
    let mut written = 0u64;
    let mut saturated = 0u64;
    for result in results {
        match result {
            Ok(shard) => {
                written += shard.written;
                saturated += shard.saturated;
                distinct.merge(&shard.inputs);
            }
            Err(message) => {
                eprintln!("{message}");
                return Err(());
            }
        }
    }
    let distinct = distinct.distinct().map_or(0, |n| n as u32);
    let manifest = match CampaignManifest::new(plan, distinct) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("cannot assemble the campaign manifest: {e}");
            return Err(());
        }
    };
    if let Err(e) = manifest.save(manifest_path) {
        eprintln!("cannot write {manifest_path}: {e}");
        return Err(());
    }
    let kind = if job.tvla {
        format!(
            ", interleaved TVLA campaign (fixed plaintext {:#X})",
            dpl_bench::TVLA_FIXED_PLAINTEXT
        )
    } else {
        String::new()
    };
    println!(
        "captured {written} traces to {manifest_path}: {} shard(s), model = {}, seed = {}, \
         chunk = {} traces, secret key nibble = {CAMPAIGN_KEY:#X}{kind}",
        manifest.shards().len(),
        meta.model.label(),
        meta.seed,
        meta.chunk_traces,
    );
    for shard in manifest.shards() {
        println!(
            "  {}: traces {}..{}",
            shard.path,
            shard.start,
            shard.start + shard.traces
        );
    }
    if circuit != CircuitChoice::Sbox {
        println!("circuit: {} ({})", circuit.name(), circuit.label());
    }
    print_encoding(&meta, saturated);
    if meta.table_digest != 0 {
        println!(
            "hypothesis digest (energy table + circuit): {:#018X} (recorded in every shard \
             header)",
            meta.table_digest
        );
    }
    println!("campaign digest: {:#018x}", manifest.digest());
    Ok(())
}

fn attack_label(result: &AttackResult) -> String {
    let verdict = if result.best_guess == u64::from(CAMPAIGN_KEY) {
        "KEY RECOVERED"
    } else {
        "attack failed"
    };
    format!(
        "best guess = {:#X} ({verdict}), distinguishing ratio = {:.2}",
        result.best_guess,
        result.distinguishing_ratio()
    )
}

/// `repro attack <file> [--dpa|--cpa] [--verify] [--salvage]
/// [--budget <traces>] [--model <name>] [--circuit <name>]`: run an
/// out-of-core attack over an archive or a sharded campaign manifest.  The
/// profiled-CPA hypothesis is
/// rebuilt from the archive's recorded model tag (or `--model`), over
/// `--circuit` (default: the S-box datapath); when the archive records an
/// energy-table digest the rebuilt table must match it.  `--verify` also
/// loads the archive in memory and demands bit-identical scores,
/// `--budget` caps the reader's in-memory chunk budget (rejecting archives
/// whose chunks exceed it), and `--salvage` attacks a damaged archive's or
/// campaign's surviving chunks, reporting exactly what was lost.
fn run_attack(args: &[String]) -> ExitCode {
    let (args, telemetry) = match TelemetrySession::from_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = attack_command(&args, telemetry.as_ref());
    conclude(outcome, telemetry, "repro attack")
}

/// The body of `repro attack`, separated from [`run_attack`] so the
/// telemetry session flushes even when the attack fails mid-read.
fn attack_command(args: &[String], telemetry: Option<&TelemetrySession>) -> Result<(), ()> {
    const USAGE: &str = "repro attack <file> [--dpa|--cpa] [--verify] [--salvage] \
                         [--budget <traces>] [--model m] [--circuit c] \
                         [--metrics f] [--report json|text] [--trace f] [--progress]";
    let mut path = None;
    let mut use_cpa = false;
    let mut verify = false;
    let mut salvage = false;
    let mut budget = None;
    let mut model_override = None;
    let mut circuit = CircuitChoice::Sbox;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--dpa" => use_cpa = false,
            "--cpa" => use_cpa = true,
            "--verify" => verify = true,
            "--salvage" => salvage = true,
            "--budget" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(traces) if traces > 0 => budget = Some(traces),
                _ => {
                    eprintln!("--budget needs a positive trace count");
                    return Err(());
                }
            },
            "--model" => match parse_model_arg(iter.next()) {
                Ok(m) => model_override = Some(m),
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            "--circuit" => match parse_circuit_arg(iter.next()) {
                Ok(c) => circuit = c,
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
            }
            other => {
                eprintln!("{}", unknown_flag("attack", other, USAGE));
                return Err(());
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: {USAGE}");
        return Err(());
    };
    if salvage && verify {
        // --verify's contract is bit-identity against *all* traces loaded
        // in memory; a salvage read deliberately reads fewer.
        eprintln!("--verify and --salvage contradict each other: salvage may skip traces");
        return Err(());
    }
    let options = AttackOptions {
        use_cpa,
        verify,
        salvage,
        budget,
        model_override,
        circuit,
    };
    let policy = if salvage {
        ReadPolicy::Salvage
    } else {
        ReadPolicy::Strict
    };
    if is_manifest_file(&path) {
        if budget.is_some() {
            eprintln!(
                "--budget applies to single archives; a campaign already reads shard by shard"
            );
            return Err(());
        }
        let mut source = ShardedReader::open_with_policy(&path, policy)
            .map_err(|e| eprintln!("cannot open {path}: {e}"))?;
        if let Some(session) = telemetry {
            source.set_obs(session.obs());
        }
        let layout = format!("{} shards, ", source.shard_count());
        return attack_source(&mut source, &path, &layout, &options, telemetry);
    }
    let mut reader = ArchiveReader::open_with_policy(&path, policy)
        .map_err(|e| eprintln!("cannot open {path}: {e}"))?;
    if let Some(budget) = budget {
        reader = reader
            .with_chunk_budget(budget)
            .map_err(|e| eprintln!("cannot honour --budget {budget}: {e}"))?;
    }
    if let Some(session) = telemetry {
        reader.set_obs(session.obs());
    }
    attack_source(&mut reader, &path, "", &options, telemetry)
}

/// The parsed flags of `repro attack`.
struct AttackOptions {
    use_cpa: bool,
    verify: bool,
    salvage: bool,
    budget: Option<usize>,
    model_override: Option<EnergyModel>,
    circuit: CircuitChoice,
}

/// The body of `repro attack` over an opened single archive or sharded
/// campaign (`layout` prefixes the header line with the shard count): one
/// strict or salvage fold through the campaign's global-order chunk
/// stream, so a sharded campaign scores bit-identically to a single
/// archive of the same traces.
fn attack_source<S: ChunkSource>(
    source: &mut S,
    path: &str,
    layout: &str,
    options: &AttackOptions,
    telemetry: Option<&TelemetrySession>,
) -> Result<(), ()> {
    let meta = *source.meta();
    if meta.campaign == dpl_store::CampaignKind::TvlaInterleaved {
        // Symmetric with `repro tvla` refusing attack archives: half the
        // traces of a TVLA capture share one fixed plaintext, so a
        // key-recovery attack over it is statistically meaningless.
        eprintln!(
            "{path} records an interleaved TVLA campaign; key-recovery attacks over it are \
             meaningless — run `repro tvla {path}` instead"
        );
        return Err(());
    }
    let use_cpa = options.use_cpa;
    if let Some(session) = telemetry {
        // The fold advances the progress plane per chunk; DPA reads the
        // campaign once, CPA once or twice by its input profile.
        let passes = if use_cpa { cpa_passes(source) } else { 1 };
        session.start_progress(Some(source.trace_count() * passes), "traces");
    }
    println!(
        "{path}: {layout}{} traces, {} samples/trace, {} chunks of {} traces, model = {}, \
         seed = {}",
        source.trace_count(),
        source.samples_per_trace(),
        source.chunk_count(),
        meta.chunk_traces,
        meta.model.label(),
        meta.seed
    );
    if let Some(budget) = options.budget {
        println!("in-memory chunk budget: {budget} traces per resident chunk");
    }
    let circuit = options.circuit;
    if circuit != CircuitChoice::Sbox {
        println!("attack circuit: {} ({})", circuit.name(), circuit.label());
    }
    if let Some(model) = options.model_override {
        println!("hypothesis model override: {}", model.label());
    }

    let selection = circuit.dpa_selection();
    let recorded = match meta.table_digest {
        0 => None,
        digest => Some(digest),
    };
    let model = options
        .model_override
        .or_else(|| energy_model_of(meta.model));
    let profile = rebuild_hypothesis(use_cpa, recorded, model, circuit)?;
    // A profiled CPA needs the device's energy model, falling back to the
    // classic S-box Hamming-weight hypothesis when the tag is unspecified;
    // the DPA path never evaluates it.
    let cache = if use_cpa {
        profile
            .as_ref()
            .map(|(netlist, table)| EnergyCache::new(netlist, table))
    } else {
        None
    };
    let model = move |plaintext: u64, guess: u64| match &cache {
        Some(cache) => cache.energy(plaintext, guess as u8),
        None => dpl_crypto::present_sbox((plaintext ^ guess) as u8).count_ones() as f64,
    };

    let kind = if use_cpa { "CPA" } else { "DPA" };
    let retry = RetryPolicy::new(2);
    let reading = if options.salvage {
        Reading::Salvage(&retry)
    } else {
        Reading::Strict
    };
    let bookkeeping = input_profile(source);
    let folded = if use_cpa {
        CpaAccumulator::with_profile(16, &model, bookkeeping)
            .map_err(StoreError::from)
            .and_then(|acc| fold(source, acc, reading))
    } else {
        DpaAccumulator::with_profile(16, &selection, bookkeeping)
            .map_err(StoreError::from)
            .and_then(|acc| fold(source, acc, reading))
    };
    let streamed = match folded {
        Ok((result, damage)) => {
            if options.salvage {
                println!("salvage: {}", damage.render());
            }
            result
        }
        Err(e) if options.salvage => {
            eprintln!("salvage attack failed: {e}");
            return Err(());
        }
        Err(e) => {
            eprintln!("out-of-core attack failed: {e}");
            return Err(());
        }
    };
    println!("out-of-core {kind}: {}", attack_label(&streamed));

    if options.verify {
        let traces = match read_all_chunks(source) {
            Ok(traces) => traces,
            Err(e) => {
                eprintln!("cannot load the campaign in memory for --verify: {e}");
                return Err(());
            }
        };
        let in_memory = if use_cpa {
            cpa_attack(&traces, 16, &model)
        } else {
            dpa_attack(&traces, 16, &selection)
        }
        .expect("in-memory attack");
        println!("in-memory   {kind}: {}", attack_label(&in_memory));
        if in_memory.scores != streamed.scores || in_memory.best_guess != streamed.best_guess {
            eprintln!("MISMATCH: out-of-core scores differ from the in-memory attack");
            return Err(());
        }
        println!("verify: out-of-core scores are bit-identical to the in-memory attack");
    }
    Ok(())
}

/// Rebuilds the hypothesis a capture recorded (energy model from the
/// header tag or `--model`, circuit from `--circuit`) and verifies any
/// recorded hypothesis digest — for DPA as much as CPA, since a wrong
/// circuit corrupts the selection function just as silently as a wrong
/// profiled table.  Returns the profiled pair when one is needed (CPA, or
/// a digest to verify).  Errors are printed here; `Err(())` only signals
/// the exit code.
fn rebuild_hypothesis(
    use_cpa: bool,
    recorded: Option<u64>,
    model: Option<EnergyModel>,
    circuit: CircuitChoice,
) -> Result<Option<(GateNetlist, GateEnergyTable)>, ()> {
    if !use_cpa && recorded.is_none() {
        return Ok(None);
    }
    match model {
        Some(model) => {
            let netlist = circuit.netlist();
            let table = GateEnergyTable::for_circuit(model, &CapacitanceModel::default(), &netlist)
                .expect("energy table");
            if let Some(recorded) = recorded {
                let rebuilt = hypothesis_digest(&table, circuit);
                if rebuilt != recorded {
                    eprintln!(
                        "hypothesis digest mismatch: archive records {recorded:#018X}, \
                         rebuilt {} table over circuit `{}` digests to {rebuilt:#018X} — \
                         pass the capture's --model/--circuit",
                        model.name(),
                        circuit.name(),
                    );
                    return Err(());
                }
                println!("hypothesis digest verified: {recorded:#018X} (model + circuit)");
            }
            Ok(Some((netlist, table)))
        }
        None => {
            if recorded.is_some() {
                eprintln!(
                    "the archive records a hypothesis digest but no known model tag; \
                     pass --model (and --circuit) so the hypothesis can be verified"
                );
                return Err(());
            }
            Ok(None)
        }
    }
}

/// Loads every chunk of a source into one in-memory [`TraceSet`], for
/// `--verify`.
fn read_all_chunks<S: ChunkSource>(source: &mut S) -> Result<TraceSet, StoreError> {
    let mut all = TraceSet::new();
    let mut chunk = TraceSet::new();
    for index in 0..source.chunk_count() {
        source.read_chunk_into(index, &mut chunk)?;
        for t in 0..chunk.len() {
            all.push_samples(chunk.inputs()[t], &chunk.trace_samples(t));
        }
    }
    Ok(all)
}

/// `repro info <file> [--json [--fsck]]`: print an archive's header
/// metadata — human-readable by default, machine-readable with `--json`.
/// `--json --fsck` additionally verifies every chunk checksum and embeds
/// the damage summary under a `damage` key (the machine-readable
/// counterpart of `repro fsck`).
fn run_info(args: &[String]) -> ExitCode {
    const USAGE: &str = "repro info <file> [--json [--fsck]]";
    let mut path = None;
    let mut json = false;
    let mut fsck = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--fsck" => fsck = true,
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
            }
            other => {
                eprintln!("{}", unknown_flag("info", other, USAGE));
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: {USAGE}");
        return ExitCode::FAILURE;
    };
    if fsck && !json {
        eprintln!(
            "--fsck here augments the JSON document; pass --json too (or use `repro fsck` \
             for the human-readable scan)"
        );
        return ExitCode::FAILURE;
    }
    let report = if json {
        dpl_bench::info_json(&path, fsck)
    } else {
        dpl_bench::info_report(&path)
    };
    match report {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// `repro charac-table <gate> [--model <name>]`: transient-characterize
/// (or, for built-in models, analytically derive) one library cell's
/// per-input-event energy row and print it with its spread and table
/// digest.
fn run_charac_table(args: &[String]) -> ExitCode {
    const USAGE: &str = "repro charac-table <gate> [--model <name>]";
    let mut gate = None;
    let mut model = EnergyModel::characterized(LeakageModel::GenuineSabl);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--model" => match parse_model_arg(iter.next()) {
                Ok(m) => model = m,
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            },
            other if gate.is_none() && !other.starts_with("--") => gate = Some(other.to_string()),
            other => {
                eprintln!("{}", unknown_flag("charac-table", other, USAGE));
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(gate) = gate else {
        eprintln!("usage: {USAGE}");
        return ExitCode::FAILURE;
    };
    let kind = match GateKind::by_name(&gate) {
        Ok(kind) => kind,
        Err(_) => {
            let names: Vec<String> = GateKind::all()
                .iter()
                .map(|k| k.name().to_ascii_lowercase())
                .collect();
            eprintln!(
                "unknown gate `{gate}`; expected one of: {}",
                names.join(", ")
            );
            return ExitCode::FAILURE;
        }
    };
    match dpl_bench::charac_table_report(kind, model) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// `repro tvla <file> [--order 1|2|both] [--workers n] [--salvage]`:
/// streaming Welch t-test over an interleaved fixed-vs-random archive or
/// campaign; `--salvage` assesses a damaged one's surviving chunks.
/// `--order 1` reads the campaign once; `2` and `both` (the default) read
/// it twice, in one fold whose first pass is the first-order test.
/// `--workers n` reads and folds on `n` threads, the calling thread
/// included (`--workers 1`: the caller alone, on its own source); without
/// it the t-test folds inline on the already-open source.
fn run_tvla(args: &[String]) -> ExitCode {
    let (args, telemetry) = match TelemetrySession::from_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = tvla_command(&args, telemetry.as_ref());
    conclude(outcome, telemetry, "repro tvla")
}

/// The body of `repro tvla`, separated from [`run_tvla`] so the telemetry
/// session flushes even when the assessment fails mid-fold.
fn tvla_command(args: &[String], telemetry: Option<&TelemetrySession>) -> Result<(), ()> {
    const USAGE: &str = "repro tvla <file> [--order 1|2|both] [--workers n] [--salvage] \
                         [--metrics f] [--report json|text] [--trace f] [--progress]";
    let mut path = None;
    let mut orders: Vec<TvlaOrder> = vec![TvlaOrder::First, TvlaOrder::Second];
    let mut workers = None;
    let mut salvage = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--salvage" => salvage = true,
            "--order" => match iter.next().map(String::as_str) {
                Some("1") => orders = vec![TvlaOrder::First],
                Some("2") => orders = vec![TvlaOrder::Second],
                Some("both") => orders = vec![TvlaOrder::First, TvlaOrder::Second],
                _ => {
                    eprintln!("--order needs one of: 1, 2, both");
                    return Err(());
                }
            },
            "--workers" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => workers = Some(n),
                _ => {
                    eprintln!("--workers needs a positive count");
                    return Err(());
                }
            },
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
            }
            other => {
                eprintln!("{}", unknown_flag("tvla", other, USAGE));
                return Err(());
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: {USAGE}");
        return Err(());
    };
    if let Some(session) = telemetry {
        // The fold advances the progress plane per chunk; a first-order
        // t-test is one pass over the archive, and any order set with the
        // second order is one two-pass fold (means, then centered moments)
        // that yields both orders.  The total is a header probe — when the
        // file cannot be opened the progress plane just runs without an
        // ETA and the fold below reports the real error.
        let passes: u64 = if orders.contains(&TvlaOrder::Second) {
            2
        } else {
            1
        };
        let total = if is_manifest_file(&path) {
            ShardedReader::open_with_policy(&path, ReadPolicy::Salvage)
                .ok()
                .map(|reader| reader.trace_count() * passes)
        } else {
            ArchiveReader::open_with_policy(&path, ReadPolicy::Salvage)
                .ok()
                .map(|reader| reader.trace_count() * passes)
        };
        session.start_progress(total, "traces");
    }
    let obs = telemetry.map(|t| t.obs());
    match dpl_bench::tvla_report(&path, &orders, workers, salvage, obs) {
        Ok(report) => {
            print!("{report}");
            Ok(())
        }
        Err(message) => {
            eprintln!("{message}");
            Err(())
        }
    }
}

/// `repro fsck <file> [--repair]`: verify every chunk checksum of an
/// archive and report the damage, chunk by chunk.  Exits 0 for a clean
/// archive, 1 for a damaged (or unfinished) one.  `--repair` writes the
/// surviving traces to a quarantined clean copy at `<file>.repaired` —
/// the original is never modified.
fn run_fsck(args: &[String]) -> ExitCode {
    const USAGE: &str = "repro fsck <file> [--repair]";
    let mut path = None;
    let mut repair = false;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
            }
            other => {
                eprintln!("{}", unknown_flag("fsck", other, USAGE));
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: {USAGE}");
        return ExitCode::FAILURE;
    };
    if is_manifest_file(&path) {
        return fsck_campaign(&path, repair);
    }
    // Salvage policy: a wrong file length is damage to report, not a
    // reason to refuse the scan.  Only the header must decode.
    let mut reader = match ArchiveReader::open_with_policy(&path, ReadPolicy::Salvage) {
        Ok(reader) => reader,
        Err(StoreError::BadMagic { found }) if found == [0u8; 8] => {
            eprintln!(
                "{path}: unfinished capture (placeholder header) — the writer never reached \
                 finish; run `repro capture {path} <traces> --resume` with the campaign's \
                 flags to continue it"
            );
            return ExitCode::FAILURE;
        }
        Err(StoreError::Truncated {
            at: ReadSite::Header,
        }) => {
            eprintln!(
                "{path}: unfinished capture (file ends inside the header) — run \
                 `repro capture {path} <traces> --resume` with the campaign's flags to \
                 continue it"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let retry = RetryPolicy::new(2);
    let report = match reader.scan(&retry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fsck of {path} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{path}: {}", report.render());
    if repair {
        let dst = format!("{path}.repaired");
        match repair_archive(&path, &dst, &retry) {
            Ok((_, kept)) => {
                println!("repaired copy: {kept} trace(s) written to {dst}");
            }
            Err(e) => {
                eprintln!("repair into {dst} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The campaign-manifest body of `repro fsck`: scans the shards
/// concurrently (`ShardedReader::scan_shards`, at most one thread per shard
/// and per core, up to 8) and reports per-shard damage in manifest order.
/// A scan error is the lowest-index failing shard's.  Exits 0 only when
/// every shard is clean.
fn fsck_campaign(path: &str, repair: bool) -> ExitCode {
    if repair {
        eprintln!(
            "--repair applies to single archives; repair damaged shards individually with \
             `repro fsck <shard> --repair`"
        );
        return ExitCode::FAILURE;
    }
    // Salvage policy for the same reason as single archives: shard damage
    // is something to report, not a reason to refuse the scan.
    let mut reader = match ShardedReader::open_with_policy(path, ReadPolicy::Salvage) {
        Ok(reader) => reader,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reports = match reader.scan_shards(&RetryPolicy::new(2)) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("fsck of {path} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shards: Vec<String> = reader
        .manifest()
        .shards()
        .iter()
        .map(|shard| shard.path.clone())
        .collect();
    println!("{path}: campaign manifest, {} shard(s)", shards.len());
    let mut clean = true;
    for (name, report) in shards.iter().zip(&reports) {
        // A damaged shard's detail lines sit under the shard, not beside it.
        println!("  {name}: {}", report.render().replace('\n', "\n  "));
        clean &= report.is_clean();
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro mtd [--seed s] [--attack dpa|cpa] [--reps r] [--model <name>]
/// [--circuit <name>]`: the measurements-to-disclosure sweep — across
/// every built-in leakage model by default, or for one (possibly
/// characterisation-derived) model / library circuit with `--model` /
/// `--circuit`.
fn run_mtd(args: &[String]) -> ExitCode {
    let (args, seed) = match take_seed(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let (args, telemetry) = match TelemetrySession::from_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = mtd_command(&args, seed, telemetry.as_ref());
    conclude(outcome, telemetry, "repro mtd")
}

/// The body of `repro mtd`, separated from [`run_mtd`] so the telemetry
/// session flushes on every exit path.
fn mtd_command(
    args: &[String],
    seed: Option<u64>,
    telemetry: Option<&TelemetrySession>,
) -> Result<(), ()> {
    const USAGE: &str = "repro mtd [--seed s] [--attack dpa|cpa] [--reps r] [--model m] \
                         [--circuit c] [--metrics f] [--report json|text] [--trace f] \
                         [--progress]";
    let mut attack = MtdAttack::Cpa;
    let mut repetitions = 8usize;
    let mut model = None;
    let mut circuit = CircuitChoice::Sbox;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--attack" => match iter.next().map(String::as_str) {
                Some("dpa") => attack = MtdAttack::Dpa,
                Some("cpa") => attack = MtdAttack::Cpa,
                _ => {
                    eprintln!("--attack needs one of: dpa, cpa");
                    return Err(());
                }
            },
            "--reps" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(r) if r > 0 => repetitions = r,
                _ => {
                    eprintln!("--reps needs a positive count");
                    return Err(());
                }
            },
            "--model" => match parse_model_arg(iter.next()) {
                Ok(m) => model = Some(m),
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            "--circuit" => match parse_circuit_arg(iter.next()) {
                Ok(c) => circuit = c,
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            other => {
                eprintln!("{}", unknown_flag("mtd", other, USAGE));
                return Err(());
            }
        }
    }
    let seed = seed.unwrap_or(dpl_bench::DEFAULT_EXPERIMENT_SEED);
    if let Some(session) = telemetry {
        // One progress tick per finished disclosure curve: the historical
        // sweep runs one curve per built-in leakage model, the targeted
        // form exactly one.
        let curves = match (model, circuit) {
            (None, CircuitChoice::Sbox) => LeakageModel::all().len() as u64,
            _ => 1,
        };
        session.start_progress(Some(curves), "curves");
    }
    let obs = telemetry.map(|t| t.obs());
    let report = match (model, circuit) {
        // The historical sweep: every built-in model over the S-box
        // datapath (byte-identical output).
        (None, CircuitChoice::Sbox) => {
            dpl_bench::mtd_experiment(seed, dpl_bench::MTD_GRID, repetitions, attack, obs)
        }
        (maybe_model, circuit) => {
            let model = maybe_model.unwrap_or(EnergyModel::builtin(LeakageModel::HammingWeight));
            dpl_bench::mtd_experiment_for(
                model,
                circuit,
                seed,
                dpl_bench::MTD_GRID,
                repetitions,
                attack,
                obs,
            )
        }
    };
    print!("{report}");
    Ok(())
}

/// `repro verify <circuit>|all [--model <name>] [--tolerance <t>]`: prove
/// every output of the synthesized netlist equivalent to its specification
/// oracle, run the DPL security lint under the given (constant-power)
/// energy model, emit the security certificate, and replay it through the
/// independent `check` path — all in memory.  `all` covers every circuit
/// the CLI can capture: the S-box datapath, all 18 library-cell datapaths
/// and the one-round mini-PRESENT.
fn run_verify(args: &[String]) -> ExitCode {
    let (args, telemetry) = match TelemetrySession::from_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = verify_command(&args, telemetry.as_ref());
    conclude(outcome, telemetry, "repro verify")
}

/// The body of `repro verify`, separated from [`run_verify`] so the
/// telemetry session flushes even when a proof or replay fails — the
/// partial span tree then shows exactly which circuit died and in which
/// phase.
fn verify_command(args: &[String], telemetry: Option<&TelemetrySession>) -> Result<(), ()> {
    const USAGE: &str = "repro verify <circuit>|all [--model m] [--tolerance t] \
                         [--metrics f] [--report json|text] [--trace f] [--progress]";
    let mut target = None;
    let mut model = EnergyModel::builtin(LeakageModel::EnhancedSabl);
    let mut tolerance = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--model" => match parse_model_arg(iter.next()) {
                Ok(m) => model = m,
                Err(message) => {
                    eprintln!("{message}");
                    return Err(());
                }
            },
            "--tolerance" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = Some(t),
                _ => {
                    eprintln!("--tolerance needs a non-negative relative spread");
                    return Err(());
                }
            },
            other if target.is_none() && !other.starts_with("--") => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("{}", unknown_flag("verify", other, USAGE));
                return Err(());
            }
        }
    }
    let Some(target) = target else {
        eprintln!("usage: {USAGE}");
        return Err(());
    };
    let circuits = if target == "all" {
        dpl_verify::VerifiedCircuit::all()
    } else {
        match dpl_verify::VerifiedCircuit::parse(&target) {
            Some(circuit) => vec![circuit],
            None => {
                eprintln!(
                    "unknown circuit `{target}`; expected `all`, `sbox`, `presentN` or a \
                     library gate name (e.g. oai22, maj3)"
                );
                return Err(());
            }
        }
    };
    if let Some(session) = telemetry {
        session.start_progress(Some(circuits.len() as u64), "circuits");
    }
    let obs = telemetry.map(|t| t.obs());
    for circuit in &circuits {
        let mut request = dpl_verify::CertificateRequest {
            circuit: *circuit,
            model,
            tolerance: dpl_verify::CertificateRequest::STRICT_TOLERANCE,
        };
        if let Some(tolerance) = tolerance {
            request = request.with_tolerance(tolerance);
        }
        let emitted = match obs {
            Some(obs) => dpl_verify::emit_certificate_observed(&request, obs),
            None => dpl_verify::emit_certificate(&request),
        };
        let certificate = match emitted {
            Ok(certificate) => certificate,
            Err(e) => {
                eprintln!("{}: certification FAILED: {e}", circuit.name());
                return Err(());
            }
        };
        let checked = match obs {
            Some(obs) => dpl_verify::check_certificate_observed(&certificate.to_text(), obs),
            None => dpl_verify::check_certificate(&certificate.to_text()),
        };
        let report = match checked {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{}: certificate replay FAILED: {e}", circuit.name());
                return Err(());
            }
        };
        println!(
            "{}: proven equivalent, lint clean, certificate replayed \
             ({} gates, {} outputs, {} BDD nodes, model {})",
            report.circuit, report.gates, report.outputs, report.bdd_nodes, report.model
        );
        if let Some(obs) = obs {
            obs.progress_advance(1);
        }
    }
    println!(
        "all {} circuit(s) verified under the {} model",
        circuits.len(),
        model.name()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    // One consistent scope check for every flag with subcommand-local
    // meaning, before any subcommand parsing: a flag on the wrong
    // subcommand is refused (naming the subcommand) rather than silently
    // ignored.
    if let Err(message) = check_flag_scopes(which, args.get(1..).unwrap_or(&[])) {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    match which {
        "capture" => return run_capture(&args[1..]),
        "attack" => return run_attack(&args[1..]),
        "info" => return run_info(&args[1..]),
        "charac-table" => return run_charac_table(&args[1..]),
        "tvla" => return run_tvla(&args[1..]),
        "fsck" => return run_fsck(&args[1..]),
        "mtd" => return run_mtd(&args[1..]),
        "verify" => return run_verify(&args[1..]),
        _ => {}
    }
    let (args, seed) = match take_seed(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let seed = seed.unwrap_or(dpl_bench::DEFAULT_EXPERIMENT_SEED);
    let dpa_traces: usize = match args.get(1) {
        None => 2000,
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("invalid trace count `{s}`; expected a positive integer");
                return ExitCode::FAILURE;
            }
        },
    };

    let report = match which {
        "all" => dpl_bench::run_all(dpa_traces),
        "fig2" => dpl_bench::fig2_memory_effect(),
        "fig3" => dpl_bench::fig3_transient(),
        "fig4" => dpl_bench::fig4_capacitance(),
        "fig5" => dpl_bench::fig5_oai22(),
        "fig6" => dpl_bench::fig6_enhanced(),
        "cvsl" => dpl_bench::cvsl_comparison(),
        "dpa" => dpl_bench::dpa_experiment_seeded(dpa_traces, seed),
        "cpa" => dpl_bench::cpa_experiment_seeded(dpa_traces, seed),
        "library" => dpl_bench::library_sweep(),
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of: all, fig2, fig3, fig4, fig5, \
                 fig6, cvsl, dpa, cpa, library, capture, attack, info, charac-table, tvla, \
                 fsck, mtd, verify"
            );
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");
    ExitCode::SUCCESS
}
