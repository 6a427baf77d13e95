//! Integration tests for the observability plane: with an injected test
//! clock, an instrumented capture + attack produces **byte-identical**
//! JSON-lines telemetry across runs; the counters agree exactly with the
//! archive's ground truth (chunk counts, fsyncs, trace totals); a
//! single corrupted chunk surfaces as a salvage-drop counter of exactly 1;
//! a concurrent shard scan counts what the shards scanned alone count; an
//! fsck scan validates chunks without decoding them; and telemetry volume
//! follows the chunk count, never the trace count.

use std::io::Cursor;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    simulate_traces_into_observed, synthesize_sbox_with_key, GateEnergyTable, LeakageModel,
    LeakageOptions,
};
use dpl_eval::{
    interleaved_partition, tvla_parallel_with, SecondOrderWelchAccumulator, TvlaOrder,
    WelchAccumulator,
};
use dpl_obs::{names, Collector, JsonLines, Obs, RunReport, SpanRecord, TraceEventJson};
use dpl_power::{CpaAccumulator, DpaAccumulator, InputProfile};
use dpl_store::{
    dpa_attack_streaming, fold, input_profile, worker_count, ArchiveMeta, ArchiveReader,
    ArchiveWriter, CampaignManifest, ModelTag, ReadPolicy, Reading, RetryPolicy, ShardMeta,
    ShardedReader,
};

const TRACES: usize = 600;
const CHUNK: usize = 128;
const CHUNKS: usize = TRACES.div_ceil(CHUNK);

/// The classic S-box selection bit.
fn selection(input: u64, guess: u64) -> bool {
    dpl_crypto::present_sbox((input ^ guess) as u8).count_ones() >= 2
}

/// Builds a deterministic in-memory archive — optionally instrumented —
/// and returns its bytes.
fn build_archive(obs: Option<&Obs>) -> Vec<u8> {
    let meta = ArchiveMeta::scalar(CHUNK, ModelTag::HammingWeight, 7);
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    if let Some(obs) = obs {
        writer.set_obs(obs);
    }
    for t in 0..TRACES as u64 {
        let input = t % 16;
        // Exactly representable sample values keyed to the input class.
        let sample = (input * 4 + (t % 7)) as f64 * 0.25;
        writer.append(input, &[sample]).expect("append");
    }
    writer.finish().expect("finish");
    writer.into_inner().into_inner()
}

/// One full instrumented run over a fresh deterministic clock: capture into
/// memory, stream a DPA over it, export JSON-lines.
fn observed_run() -> (String, Obs) {
    let obs = Obs::deterministic(50);
    let bytes = build_archive(Some(&obs));
    let mut reader = ArchiveReader::new(Cursor::new(bytes)).expect("reader");
    reader.set_obs(&obs);
    let result = dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
    assert!(result.best_guess < 16);
    let mut out = Vec::new();
    JsonLines
        .collect(&obs.snapshot(), &mut out)
        .expect("export");
    (String::from_utf8(out).expect("utf8"), obs)
}

#[test]
fn observed_runs_are_byte_identical_under_a_test_clock() {
    let (first, _) = observed_run();
    let (second, _) = observed_run();
    assert_eq!(first, second, "telemetry must be deterministic");
    // The deterministic clock also pins the span timings themselves.
    assert!(first.contains(r#""type":"span""#));
    assert!(first.contains(r#""name":"store.dpa_attack_streaming""#));
}

#[test]
fn counters_match_the_archive_ground_truth() {
    let (_, obs) = observed_run();
    let metrics = obs.metrics();
    assert_eq!(
        metrics.counter(names::STORE_CHUNK_WRITES),
        Some(CHUNKS as u64)
    );
    assert_eq!(
        metrics.counter(names::STORE_CHUNK_READS),
        Some(CHUNKS as u64)
    );
    assert_eq!(metrics.counter(names::STORE_FSYNCS), Some(2));
    assert_eq!(metrics.counter(names::FOLD_TRACES), Some(TRACES as u64));
    assert_eq!(metrics.counter(names::FOLD_UPDATES), Some(CHUNKS as u64));
    // Reads and writes cover the same chunk payloads (+8 checksum bytes
    // each, counted on both sides).
    assert_eq!(
        metrics.counter(names::STORE_BYTES_READ),
        metrics.counter(names::STORE_BYTES_WRITTEN)
    );
    // The deterministic clock makes every span non-zero-length, so the
    // fold throughput gauge is present and positive.
    assert!(metrics.gauge(names::FOLD_TRACES_PER_SEC).expect("gauge") > 0.0);
    assert_eq!(metrics.counter(names::STORE_CHECKSUM_FAILURES), None);
}

#[test]
fn one_corrupted_chunk_drops_exactly_one_salvage_chunk() {
    let bytes = build_archive(None);
    let mut corrupt = bytes.clone();
    let target = corrupt.len() / 2; // deep inside a chunk payload
    corrupt[target] ^= 0xFF;

    let obs = Obs::deterministic(50);
    let mut reader =
        ArchiveReader::with_policy(Cursor::new(corrupt), ReadPolicy::Salvage).expect("reader");
    reader.set_obs(&obs);
    let retry = RetryPolicy::new(2);
    let acc = DpaAccumulator::with_profile(16, selection, input_profile(&reader)).expect("dpa");
    let (_, damage) = fold(&mut reader, acc, Reading::Salvage(&retry)).expect("salvage");
    assert_eq!(damage.damaged.len(), 1);

    let metrics = obs.metrics();
    assert_eq!(
        metrics.counter(names::STORE_SALVAGE_DROPPED_CHUNKS),
        Some(1)
    );
    assert_eq!(
        metrics.counter(names::STORE_SALVAGE_DROPPED_TRACES),
        Some(damage.traces_lost())
    );
    assert_eq!(metrics.counter(names::STORE_CHECKSUM_FAILURES), Some(1));
    // Corruption is never retried — only transient I/O errors are.
    assert_eq!(metrics.counter(names::STORE_RETRY_ATTEMPTS), Some(0));
    // The surviving chunks still fold.
    assert_eq!(
        metrics.counter(names::FOLD_TRACES),
        Some(TRACES as u64 - damage.traces_lost())
    );
}

/// A concurrent `scan_shards` counts exactly what scanning each shard alone
/// counts — chunk reads, bytes read and checksum failures — and its spans
/// come from `worker_count(None, shards)` distinct threads: the round-robin
/// deal gives every worker at least one shard.
#[test]
fn concurrent_shard_scan_counts_like_the_shards_scanned_alone() {
    let dir = std::env::temp_dir();
    let stem = format!("dpl_telemetry_scan_{}", std::process::id());
    let meta = ArchiveMeta::scalar(CHUNK, ModelTag::HammingWeight, 7);
    let bounds = [0, 2 * CHUNK, 4 * CHUNK, TRACES];
    let mut table = Vec::new();
    let mut files = Vec::new();
    for (index, range) in bounds.windows(2).enumerate() {
        let name = format!("{stem}-shard-{index:03}.dpltrc");
        let path = dir.join(&name);
        let mut writer = ArchiveWriter::create(&path, meta).expect("shard create");
        for t in range[0] as u64..range[1] as u64 {
            writer
                .append(t % 16, &[(t % 16 * 4 + t % 7) as f64 * 0.25])
                .expect("append");
        }
        writer.finish().expect("finish");
        table.push(ShardMeta {
            path: name,
            traces: (range[1] - range[0]) as u64,
            start: range[0] as u64,
        });
        files.push(path);
    }
    // One chunk of shard 1 fails its checksum.
    let mut bytes = std::fs::read(&files[1]).expect("read shard");
    let target = bytes.len() / 2;
    bytes[target] ^= 0xFF;
    std::fs::write(&files[1], bytes).expect("corrupt shard");
    let manifest = dir.join(format!("{stem}.json"));
    CampaignManifest::new(table, 16)
        .expect("manifest")
        .save(&manifest)
        .expect("manifest save");

    let retry = RetryPolicy::new(0);
    let alone = Obs::deterministic(50);
    for file in &files {
        let mut reader =
            ArchiveReader::open_with_policy(file, ReadPolicy::Salvage).expect("shard open");
        reader.set_obs(&alone);
        reader.scan(&retry).expect("shard scan");
    }
    let obs = Obs::deterministic(50);
    let mut campaign =
        ShardedReader::open_with_policy(&manifest, ReadPolicy::Salvage).expect("campaign open");
    campaign.set_obs(&obs);
    campaign.scan_shards(&retry).expect("campaign scan");

    let (sharded, alone) = (obs.metrics(), alone.metrics());
    for name in [
        names::STORE_CHUNK_READS,
        names::STORE_BYTES_READ,
        names::STORE_CHECKSUM_FAILURES,
    ] {
        assert_eq!(sharded.counter(name), alone.counter(name), "{name}");
    }
    assert_eq!(sharded.counter(names::STORE_CHECKSUM_FAILURES), Some(1));
    let tids: std::collections::BTreeSet<u64> =
        obs.snapshot().spans.iter().map(|span| span.tid).collect();
    assert_eq!(tids.len(), worker_count(None, files.len()));

    files.push(manifest);
    for file in &files {
        let _ = std::fs::remove_file(file);
    }
}

/// Salvage folds attribute their accumulator arithmetic like strict ones:
/// one `fold.update` phase per intact chunk per pass, so `--report` does
/// not lose a salvage attack's fold time.
#[test]
fn salvage_folds_record_one_update_phase_per_intact_chunk_per_pass() {
    let mut corrupt = build_archive(None);
    let target = corrupt.len() / 2;
    corrupt[target] ^= 0xFF;
    let retry = RetryPolicy::new(0);
    let open = |obs: &Obs| {
        let mut reader =
            ArchiveReader::with_policy(Cursor::new(corrupt.clone()), ReadPolicy::Salvage)
                .expect("reader");
        reader.set_obs(obs);
        reader
    };
    let update_phases = |obs: &Obs| {
        obs.metrics()
            .histogram(names::FOLD_UPDATE_NS)
            .map_or(0, |h| h.count())
    };

    let obs = Obs::deterministic(50);
    let mut reader = open(&obs);
    let acc = DpaAccumulator::with_profile(16, selection, input_profile(&reader)).expect("dpa");
    let (_, damage) = fold(&mut reader, acc, Reading::Salvage(&retry)).expect("salvage DPA");
    assert_eq!(damage.damaged.len(), 1);
    assert_eq!(update_phases(&obs), CHUNKS as u64 - 1);

    // The diverse-input CPA replays the intact chunks: two passes.
    let obs = Obs::deterministic(50);
    let mut reader = open(&obs);
    let model = |input: u64, guess: u64| (input ^ guess).count_ones() as f64;
    let acc = CpaAccumulator::with_profile(16, model, InputProfile::Diverse).expect("cpa");
    let (_, damage) = fold(&mut reader, acc, Reading::Salvage(&retry)).expect("salvage CPA");
    assert_eq!(damage.damaged.len(), 1);
    assert_eq!(update_phases(&obs), 2 * (CHUNKS as u64 - 1));
}

#[test]
fn trace_event_export_is_byte_identical_and_carries_phase_spans() {
    let render = || {
        let (_, obs) = observed_run();
        let mut out = Vec::new();
        TraceEventJson
            .collect(&obs.snapshot(), &mut out)
            .expect("export");
        String::from_utf8(out).expect("utf8")
    };
    let first = render();
    assert_eq!(first, render(), "trace export must be deterministic");

    assert!(first.contains(r#""displayTimeUnit""#));
    assert!(first.contains(r#""ph": "X""#));
    // The instrumented run nests named phase spans inside the writer's
    // flushes (serialize, write) and the reader's chunk loads (I/O,
    // checksum, decode) plus the fold's accumulator steps.
    for span in [
        "store.dpa_attack_streaming",
        "store.chunk_serialize",
        "store.chunk_write",
        "store.chunk_io",
        "store.chunk_checksum",
        "store.chunk_decode",
        "fold.update",
    ] {
        assert!(
            first.contains(&format!(r#""name": "{span}""#)),
            "missing {span} span in:\n{first}"
        );
    }
}

#[test]
fn phase_histograms_record_every_chunk() {
    let (_, obs) = observed_run();
    let metrics = obs.metrics();
    // One serialize+write phase per flushed chunk, one I/O+checksum+decode
    // phase per chunk read, one accumulator phase per fold step.
    for name in [
        names::STORE_SERIALIZE_NS,
        names::STORE_WRITE_IO_NS,
        names::STORE_READ_IO_NS,
        names::STORE_CHECKSUM_NS,
        names::STORE_DECODE_NS,
        names::FOLD_UPDATE_NS,
    ] {
        let histogram = metrics.histogram(name).expect(name);
        assert_eq!(histogram.count(), CHUNKS as u64, "{name}");
    }
}

/// An fsck scan validates chunk bodies without decoding them: one
/// `store.chunk_validate` phase per intact chunk and no `store.chunk_decode`
/// span, while its chunk-read, byte and checksum-failure counters equal a
/// salvage fold's over the same damaged archive.
#[test]
fn scan_validates_without_decoding_and_counts_like_a_salvage_read() {
    let mut corrupt = build_archive(None);
    let target = corrupt.len() / 2;
    corrupt[target] ^= 0xFF;
    let retry = RetryPolicy::new(0);
    let open = |obs: &Obs| {
        let mut reader =
            ArchiveReader::with_policy(Cursor::new(corrupt.clone()), ReadPolicy::Salvage)
                .expect("reader");
        reader.set_obs(obs);
        reader
    };

    let scanned = Obs::deterministic(50);
    let report = open(&scanned).scan(&retry).expect("scan");
    assert_eq!(report.damaged.len(), 1);
    let folded = Obs::deterministic(50);
    let mut reader = open(&folded);
    let acc = DpaAccumulator::with_profile(16, selection, input_profile(&reader)).expect("dpa");
    let (_, damage) = fold(&mut reader, acc, Reading::Salvage(&retry)).expect("salvage DPA");
    assert_eq!(damage, report);

    let (scan, read) = (scanned.metrics(), folded.metrics());
    for name in [
        names::STORE_CHUNK_READS,
        names::STORE_BYTES_READ,
        names::STORE_CHECKSUM_FAILURES,
    ] {
        assert_eq!(scan.counter(name), read.counter(name), "{name}");
    }
    assert_eq!(
        scan.counter(names::STORE_CHUNK_READS),
        Some(CHUNKS as u64 - 1)
    );
    let validated = scan
        .histogram(names::STORE_VALIDATE_NS)
        .map_or(0, |h| h.count());
    assert_eq!(validated, CHUNKS as u64 - 1);
    assert!(scan.histogram(names::STORE_DECODE_NS).is_none());
    let spans = scanned.snapshot().spans;
    assert!(spans.iter().all(|span| span.name != "store.chunk_decode"));
    let validate_spans = spans
        .iter()
        .filter(|span| span.name == "store.chunk_validate")
        .count();
    assert_eq!(validate_spans, CHUNKS - 1);
}

#[test]
fn fsync_phase_records_two_samples_per_finished_archive() {
    // `finish` makes the chunk data durable, then the header: two timed
    // `store.fsync` phases per archive, matching the `store.fsyncs` counter.
    let obs = Obs::deterministic(50);
    for archives in 1..=2u64 {
        build_archive(Some(&obs));
        let metrics = obs.metrics();
        let fsync = metrics
            .histogram(names::STORE_FSYNC_NS)
            .expect("fsync histogram");
        assert_eq!(fsync.count(), 2 * archives);
        assert_eq!(metrics.counter(names::STORE_FSYNCS), Some(2 * archives));
    }
    let mut out = Vec::new();
    TraceEventJson
        .collect(&obs.snapshot(), &mut out)
        .expect("export");
    let export = String::from_utf8(out).expect("utf8");
    assert_eq!(export.matches(r#""name": "store.fsync""#).count(), 4);
}

/// A progress sink whose bytes the test can read back after the `Obs`
/// context takes ownership of the writer half.
#[derive(Clone, Default)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn progress_lines_stream_chunk_by_chunk_during_the_fold() {
    let run = || {
        let sink = SharedSink::default();
        let obs = Obs::deterministic(50);
        obs.enable_progress(Some(TRACES as u64), "traces", Box::new(sink.clone()));
        let bytes = build_archive(None);
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).expect("reader");
        reader.set_obs(&obs);
        dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
        let rendered = sink.0.lock().expect("sink lock").clone();
        String::from_utf8(rendered).expect("utf8")
    };
    let text = run();
    let lines: Vec<&str> = text.lines().collect();
    // One line per folded chunk, each advancing by the chunk's traces.
    assert_eq!(lines.len(), CHUNKS, "lines:\n{text}");
    assert!(lines[0].starts_with(&format!("progress: {CHUNK}/{TRACES} traces")));
    assert!(
        lines[CHUNKS - 1].starts_with(&format!("progress: {TRACES}/{TRACES} traces (100.0%)")),
        "last line: {}",
        lines[CHUNKS - 1]
    );
    // The deterministic clock pins the rendered rates and ETAs too.
    assert_eq!(text, run(), "progress lines must be deterministic");
}

/// A three-sample fixed-vs-random archive (even traces fixed, odd random)
/// for the t-tests.
fn build_tvla_archive() -> Vec<u8> {
    let meta = ArchiveMeta {
        samples_per_trace: 3,
        ..ArchiveMeta::scalar_tvla(CHUNK, ModelTag::HammingWeight, 7)
    };
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    for t in 0..TRACES as u64 {
        let input = if t % 2 == 0 { 5 } else { (t * 7) % 16 };
        let base = input as f64 * 0.25;
        writer
            .append(input, &[base, base + (t % 5) as f64, (t % 3) as f64])
            .expect("append");
    }
    writer.finish().expect("finish");
    writer.into_inner().into_inner()
}

#[test]
fn tvla_counts_trace_passes_and_finishes_progress_with_or_without_workers() {
    let bytes = build_tvla_archive();
    let open = || ArchiveReader::new(Cursor::new(bytes.clone()));
    for (order, passes) in [(TvlaOrder::First, 1), (TvlaOrder::Second, 2)] {
        let total = TRACES as u64 * passes;
        let mut t_values = Vec::new();
        for workers in [None, Some(2)] {
            let sink = SharedSink::default();
            let obs = Obs::deterministic(50);
            obs.enable_progress(Some(total), "traces", Box::new(sink.clone()));
            let result = match workers {
                Some(workers) => tvla_parallel_with(
                    open,
                    interleaved_partition,
                    order,
                    Some(workers),
                    Some(&obs),
                ),
                None => {
                    let mut reader = open().expect("reader");
                    reader.set_obs(&obs);
                    match order {
                        TvlaOrder::First => {
                            let acc = WelchAccumulator::new(interleaved_partition);
                            fold(&mut reader, acc, Reading::Strict).map(|(r, _)| r)
                        }
                        TvlaOrder::Second => {
                            let acc = SecondOrderWelchAccumulator::new(interleaved_partition);
                            fold(&mut reader, acc, Reading::Strict).map(|((_, r), _)| r)
                        }
                    }
                }
            }
            .expect("t-test");
            let case = format!("{order:?}, workers {workers:?}");
            assert_eq!(
                obs.metrics().counter(names::FOLD_TRACES),
                Some(total),
                "{case}"
            );
            let text = String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf8");
            let last = text.lines().last().unwrap_or_default();
            assert!(
                last.starts_with(&format!("progress: {total}/{total} traces (100.0%)")),
                "{case}: last line {last:?}"
            );
            t_values.push(result.t);
        }
        assert_eq!(t_values[0], t_values[1], "{order:?}: read-ahead t-values");
    }
}

/// A read-ahead t-test reads each chunk once per pass, whatever the worker
/// count: readers its opener attaches a context to count `store.chunk_reads`
/// = chunks × passes.
#[test]
fn read_ahead_tvla_reads_each_chunk_once_per_pass() {
    let bytes = build_tvla_archive();
    for (order, passes) in [(TvlaOrder::First, 1), (TvlaOrder::Second, 2)] {
        for workers in [1, 2, 4] {
            let obs = Obs::deterministic(50);
            let open = || {
                let mut reader = ArchiveReader::new(Cursor::new(bytes.clone()))?;
                reader.set_obs(&obs);
                Ok(reader)
            };
            tvla_parallel_with(open, interleaved_partition, order, Some(workers), None)
                .expect("t-test");
            assert_eq!(
                obs.metrics().counter(names::STORE_CHUNK_READS),
                Some(CHUNKS as u64 * passes),
                "{order:?}, {workers} workers"
            );
        }
    }
}

#[test]
fn run_report_renders_both_formats_deterministically() {
    let (_, obs) = observed_run();
    let report = RunReport::new("repro attack", obs.snapshot());
    let json = report.render_json();
    assert!(json.starts_with('{'));
    assert!(json.contains(r#""report": "dpl-obs.run/v1""#));
    assert!(json.contains(r#""command": "repro attack""#));
    let text = report.render_text();
    assert!(text.starts_with("run report: repro attack"));
    assert!(text.contains("store.dpa_attack_streaming"));

    let (_, again) = observed_run();
    let report_again = RunReport::new("repro attack", again.snapshot());
    assert_eq!(json, report_again.render_json());
    assert_eq!(text, report_again.render_text());
}

/// Step of the deterministic clock in the capture tests below.
const STEP_NS: u64 = 50;

/// An observed in-memory capture of `traces` simulated S-box traces at
/// `chunk` traces per chunk — the span shape of `repro capture`: the
/// simulator's span, the writer's per-chunk phases, then `finish`.
fn observed_capture(traces: usize, chunk: usize, obs: &Obs) -> Vec<u8> {
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let table = GateEnergyTable::build(LeakageModel::HammingWeight, &CapacitanceModel::default())
        .expect("table");
    let options = LeakageOptions {
        relative_noise: 0.02,
        seed: 99,
    };
    let meta = ArchiveMeta::scalar(chunk, ModelTag::HammingWeight, options.seed);
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).expect("writer");
    writer.set_obs(obs);
    simulate_traces_into_observed(&netlist, &table, 0xA, traces, &options, &mut writer, obs)
        .expect("capture");
    writer.finish().expect("finish");
    writer.into_inner().into_inner()
}

/// The root span a span nests under.
fn root_of<'a>(spans: &'a [SpanRecord], span: &'a SpanRecord) -> &'a SpanRecord {
    let mut cursor = span;
    while let Some(parent) = cursor.parent {
        cursor = &spans[parent as usize];
    }
    cursor
}

#[test]
fn a_capture_with_a_partial_last_chunk_has_exactly_two_roots() {
    assert_ne!(TRACES % CHUNK, 0, "the last chunk must be partial");
    let obs = Obs::deterministic(STEP_NS);
    observed_capture(TRACES, CHUNK, &obs);
    let spans = obs.snapshot().spans;
    let roots: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(roots, ["crypto.simulate_traces", "store.finish"]);

    // Every full chunk flushes inside the simulation; the partial chunk
    // and both durable commits flush inside `finish`.
    let phases_under = |root: &str| -> Vec<&str> {
        spans
            .iter()
            .filter(|s| s.parent.is_some() && root_of(&spans, s).name == root)
            .map(|s| s.name.as_str())
            .collect()
    };
    let full_chunk = ["store.chunk_serialize", "store.chunk_write"];
    assert_eq!(
        phases_under("crypto.simulate_traces"),
        full_chunk.repeat(CHUNKS - 1)
    );
    assert_eq!(
        phases_under("store.finish"),
        [
            "store.chunk_serialize",
            "store.chunk_write",
            "store.fsync",
            "store.fsync"
        ]
    );
}

#[test]
fn telemetry_volume_scales_with_chunks_never_with_traces() {
    // Capture + DPA of N traces at chunk C, then of 2N traces at chunk 2C:
    // the same chunk count, so the same spans and the same clock reads.
    // A per-trace span or clock read anywhere on the path breaks this.
    let run = |traces: usize, chunk: usize| {
        let obs = Obs::deterministic(STEP_NS);
        let bytes = observed_capture(traces, chunk, &obs);
        let mut reader = ArchiveReader::new(Cursor::new(bytes)).expect("reader");
        reader.set_obs(&obs);
        dpa_attack_streaming(&mut reader, 16, selection).expect("attack");
        assert_eq!(
            obs.metrics().counter(names::FOLD_TRACES),
            Some(traces as u64)
        );
        // The test clock advances one step per read; this read is one more.
        let clock_reads = obs.now_ns() / STEP_NS - 1;
        let spans: Vec<String> = obs.snapshot().spans.into_iter().map(|s| s.name).collect();
        (spans, clock_reads)
    };
    let (spans, clock_reads) = run(TRACES, CHUNK);
    let (doubled_spans, doubled_clock_reads) = run(2 * TRACES, 2 * CHUNK);
    assert_eq!(spans, doubled_spans);
    assert_eq!(clock_reads, doubled_clock_reads);
}
