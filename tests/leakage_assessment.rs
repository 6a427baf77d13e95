//! Integration tests of the `dpl-eval` leakage-assessment subsystem — the
//! PR's acceptance criteria:
//!
//! * streaming TVLA over an archive spanning several chunks is
//!   **bit-identical** to the in-memory t-statistics, and the parallel
//!   (read-ahead) fold is bit-identical to the sequential one for any
//!   worker count, salvage reports included,
//! * the measurements-to-disclosure sweep is deterministic in its seed and
//!   reproduces the paper's resistance ordering: the Hamming-weight
//!   (standard CMOS) model discloses at strictly fewer traces than every
//!   SABL implementation.

use std::path::PathBuf;

use dpl_bench::{mtd_curves, mtd_experiment, tvla_report, MtdAttack};
use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    simulate_tvla_traces_into, synthesize_sbox_with_key, GateEnergyTable, LeakageModel,
    LeakageOptions,
};
use dpl_eval::{
    interleaved_partition, tvla, tvla_parallel_with, tvla_second_order,
    SecondOrderWelchAccumulator, TvlaOrder, WelchAccumulator,
};
use dpl_obs::{names, Obs};
use dpl_power::{TraceSet, TraceSink};
use dpl_store::{
    fold, ArchiveMeta, ArchiveReader, ArchiveWriter, CampaignKind, Compression, ModelTag, Reading,
    SampleEncoding,
};

fn temp_archive(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpl_eval_{}_{}.dpltrc", name, std::process::id()))
}

/// Synthetic multi-sample interleaved campaign: the fixed group (even
/// indices) leaks a mean shift on some samples and a variance change on
/// others, so both t-test orders have something to find.
fn synthetic_tvla_traces(count: usize, samples: usize) -> Vec<(u64, Vec<f64>)> {
    let mut state = 0x5DEE_CE66_D201_3E05u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|index| {
            let fixed = index % 2 == 0;
            let input = if fixed { 0x3 } else { next() % 16 };
            let values: Vec<f64> = (0..samples)
                .map(|s| {
                    let noise = (next() % 2000) as f64 / 1000.0 - 1.0;
                    let mean_shift = if fixed && s % 3 == 0 { 0.4 } else { 0.0 };
                    let spread = if fixed && s % 3 == 1 { 2.0 } else { 1.0 };
                    mean_shift + spread * noise + s as f64
                })
                .collect();
            (input, values)
        })
        .collect()
}

/// Acceptance criterion: over an archive spanning >= 4 chunks, the
/// streaming TVLA (both orders) is bit-identical to the in-memory
/// statistics, and the parallel variant is bit-identical to the sequential
/// fold independent of the worker count.
#[test]
fn streaming_tvla_is_bit_identical_and_worker_count_independent() {
    const TRACES: usize = 1100;
    const CHUNK: usize = 128; // 9 chunks, the last one partial.
    const SAMPLES: usize = 6;
    let traces = synthetic_tvla_traces(TRACES, SAMPLES);

    let path = temp_archive("tvla_bit_identical");
    let meta = ArchiveMeta {
        samples_per_trace: SAMPLES,
        chunk_traces: CHUNK,
        model: ModelTag::Unspecified,
        seed: 0,
        campaign: CampaignKind::TvlaInterleaved,
        table_digest: 0,
        encoding: SampleEncoding::F64,
        compression: Compression::None,
    };
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    let mut oracle = TraceSet::new();
    for (input, samples) in &traces {
        writer.append(*input, samples).expect("append");
        TraceSink::record(&mut oracle, *input, samples).expect("oracle");
    }
    assert_eq!(writer.finish().expect("finish"), TRACES as u64);

    let mut reader = ArchiveReader::open(&path).expect("open");
    assert!(reader.chunk_count() >= 4, "need a multi-chunk archive");

    // Sequential streaming == in-memory, bit for bit, both orders.
    let first_mem = tvla(&oracle, interleaved_partition).expect("in-memory");
    let first_acc = WelchAccumulator::new(interleaved_partition);
    let (first_stream, _) = fold(&mut reader, first_acc, Reading::Strict).expect("streaming");
    assert_eq!(first_stream, first_mem);
    assert_eq!(first_mem.counts, [550, 550]);
    assert!(first_mem.leaks(), "max |t| = {}", first_mem.max_abs_t());

    let second_mem = tvla_second_order(&oracle, interleaved_partition).expect("in-memory 2nd");
    let second_acc = SecondOrderWelchAccumulator::new(interleaved_partition);
    let ((first_half, second_stream), _) =
        fold(&mut reader, second_acc, Reading::Strict).expect("streaming 2nd");
    assert_eq!(second_stream, second_mem);
    assert_eq!(first_half, first_mem, "the second-order fold's first pass");
    assert!(second_mem.leaks(), "max |t| = {}", second_mem.max_abs_t());

    // The read-ahead parallel fold is bit-identical to the sequential one
    // for every worker count: the caller alone (1), more workers than
    // samples, and more workers than the 9 chunks (clamped to 9).
    let open = || ArchiveReader::open(&path);
    for workers in [1, 2, 3, 5, 8, 9, 16] {
        let parallel = tvla_parallel_with(
            open,
            interleaved_partition,
            TvlaOrder::First,
            Some(workers),
            None,
        )
        .expect("parallel");
        assert_eq!(parallel, first_mem, "first order, workers = {workers}");
        let parallel = tvla_parallel_with(
            open,
            interleaved_partition,
            TvlaOrder::Second,
            Some(workers),
            None,
        )
        .expect("parallel 2nd");
        assert_eq!(parallel, second_mem, "second order, workers = {workers}");
    }
    let default_workers =
        tvla_parallel_with(open, interleaved_partition, TvlaOrder::First, None, None)
            .expect("parallel");
    assert_eq!(default_workers, first_mem);

    let _ = std::fs::remove_file(&path);
}

/// A 1-sample campaign folds with four read-ahead workers bit-identically
/// to the sequential fold: the workers split chunks, not sample columns.
#[test]
fn one_sample_read_ahead_tvla_is_bit_identical_with_four_workers() {
    const TRACES: usize = 1000; // 16 chunks of 64, the last one partial.
    let traces = synthetic_tvla_traces(TRACES, 1);
    let path = temp_archive("tvla_one_sample");
    let meta = ArchiveMeta::scalar_tvla(64, ModelTag::Unspecified, 0);
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    for (input, samples) in &traces {
        writer.append(*input, samples).expect("append");
    }
    writer.finish().expect("finish");
    let open = || ArchiveReader::open(&path);

    let mut reader = open().expect("open");
    let first_acc = WelchAccumulator::new(interleaved_partition);
    let (first, _) = fold(&mut reader, first_acc, Reading::Strict).expect("first order");
    let second_acc = SecondOrderWelchAccumulator::new(interleaved_partition);
    let ((_, second), _) = fold(&mut reader, second_acc, Reading::Strict).expect("second order");
    let read_ahead = |order| {
        tvla_parallel_with(open, interleaved_partition, order, Some(4), None).expect("read-ahead")
    };
    assert_eq!(read_ahead(TvlaOrder::First), first);
    assert_eq!(read_ahead(TvlaOrder::Second), second);
    let _ = std::fs::remove_file(&path);
}

/// `repro tvla --salvage --workers n` renders byte for byte the report of
/// the single-threaded salvage t-test over a damaged campaign.
#[test]
fn salvage_tvla_report_is_the_same_with_read_ahead_workers() {
    const CHUNK: usize = 64;
    const SAMPLES: usize = 3;
    let traces = synthetic_tvla_traces(640, SAMPLES);
    let path = temp_archive("tvla_salvage_workers");
    let meta = ArchiveMeta {
        samples_per_trace: SAMPLES,
        ..ArchiveMeta::scalar_tvla(CHUNK, ModelTag::Unspecified, 0)
    };
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    for (input, samples) in &traces {
        writer.append(*input, samples).expect("append");
    }
    writer.finish().expect("finish");
    // Flip one sample byte of chunk 4: [k][body_len], inputs, samples.
    let chunk_bytes = 8 + CHUNK * 8 + CHUNK * SAMPLES * 8 + 8;
    let mut bytes = std::fs::read(&path).expect("read back");
    bytes[meta.header_len() + 4 * chunk_bytes + 8 + CHUNK * 8 + 5] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corrupt");

    let path_str = path.to_str().expect("utf-8 temp path");
    let orders = [TvlaOrder::First, TvlaOrder::Second];
    let sequential = tvla_report(path_str, &orders, None, true, None).expect("salvage t-test");
    assert!(
        sequential.contains("archive is damaged: 1 of"),
        "{sequential}"
    );
    for workers in 1..=4 {
        let parallel =
            tvla_report(path_str, &orders, Some(workers), true, None).expect("salvage t-test");
        assert_eq!(parallel, sequential, "{workers} workers");
    }
    let _ = std::fs::remove_file(&path);
}

/// `repro tvla` with both orders runs one two-pass fold: it reads each
/// chunk twice, not three times, and each result line is byte for byte the
/// line of that order's own report — strict and salvage, with and without
/// read-ahead workers.
#[test]
fn both_orders_read_the_campaign_twice_and_render_each_order_unchanged() {
    const TRACES: usize = 640; // 10 chunks of 64.
    const CHUNK: usize = 64;
    let traces = synthetic_tvla_traces(TRACES, 3);
    let path = temp_archive("tvla_both_orders");
    let meta = ArchiveMeta {
        samples_per_trace: 3,
        ..ArchiveMeta::scalar_tvla(CHUNK, ModelTag::Unspecified, 0)
    };
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    for (input, samples) in &traces {
        writer.append(*input, samples).expect("append");
    }
    writer.finish().expect("finish");
    let path_str = path.to_str().expect("utf-8 temp path");
    let result_lines = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|line| line.contains("max |t| = "))
            .map(str::to_string)
            .collect()
    };
    let both = [TvlaOrder::First, TvlaOrder::Second];
    for salvage in [false, true] {
        for workers in [None, Some(2)] {
            let case = format!("salvage {salvage}, workers {workers:?}");
            let obs = Obs::deterministic(50);
            let report = tvla_report(path_str, &both, workers, salvage, Some(&obs)).expect("both");
            let metrics = obs.metrics();
            assert_eq!(
                metrics.counter(names::STORE_CHUNK_READS),
                Some(TRACES.div_ceil(CHUNK) as u64 * 2),
                "{case}"
            );
            assert_eq!(
                metrics.counter(names::FOLD_TRACES),
                Some(TRACES as u64 * 2),
                "{case}"
            );
            assert_eq!(report.matches("salvage: ").count(), usize::from(salvage));
            let mut alone = Vec::new();
            for order in both {
                let report =
                    tvla_report(path_str, &[order], workers, salvage, None).expect("one order");
                alone.extend(result_lines(&report));
            }
            assert_eq!(result_lines(&report), alone, "{case}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// End-to-end TVLA over the paper's device models: a Hamming-weight
/// (standard CMOS) capture fails the t-test within a few thousand traces,
/// a fully-connected SABL capture passes it — streamed to and from a real
/// archive through the `dpl-crypto` fixed-vs-random campaign generator.
#[test]
fn tvla_flags_the_leaky_model_and_clears_the_constant_power_model() {
    const TRACES: usize = 3000;
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let capacitance = CapacitanceModel::default();
    let options = LeakageOptions {
        relative_noise: 0.02,
        seed: 41,
    };

    let mut results = Vec::new();
    for (model, tag) in [
        (LeakageModel::HammingWeight, ModelTag::HammingWeight),
        (
            LeakageModel::FullyConnectedSabl,
            ModelTag::FullyConnectedSabl,
        ),
    ] {
        let table = GateEnergyTable::build(model, &capacitance).expect("table");
        let path = temp_archive(if tag == ModelTag::HammingWeight {
            "tvla_hw"
        } else {
            "tvla_fc"
        });
        let meta = ArchiveMeta::scalar_tvla(256, tag, options.seed);
        let mut writer = ArchiveWriter::create(&path, meta).expect("create");
        simulate_tvla_traces_into(&netlist, &table, 0xA, 0x3, TRACES, &options, &mut writer)
            .expect("capture");
        writer.finish().expect("finish");

        let mut reader = ArchiveReader::open(&path).expect("open");
        assert_eq!(reader.campaign(), CampaignKind::TvlaInterleaved);
        let acc = WelchAccumulator::new(interleaved_partition);
        let (result, _) = fold(&mut reader, acc, Reading::Strict).expect("t-test");

        // The in-memory campaign (same seed, same RNG discipline) gives the
        // identical statistic.
        let mut in_memory = TraceSet::new();
        simulate_tvla_traces_into(&netlist, &table, 0xA, 0x3, TRACES, &options, &mut in_memory)
            .expect("oracle");
        assert_eq!(
            tvla(&in_memory, interleaved_partition).expect("oracle t"),
            result
        );

        results.push((model, result));
        let _ = std::fs::remove_file(&path);
    }

    let (_, hw) = &results[0];
    let (_, fc) = &results[1];
    assert!(
        hw.leaks(),
        "Hamming-weight capture must fail TVLA: max |t| = {}",
        hw.max_abs_t()
    );
    assert!(
        !fc.leaks(),
        "constant-power SABL capture must pass TVLA: max |t| = {}",
        fc.max_abs_t()
    );
}

/// Acceptance criterion: the MTD sweep is deterministic in its seed and
/// reports a strictly lower measurements-to-disclosure for the
/// Hamming-weight model than for every SABL-protected model.
#[test]
fn mtd_reproduces_the_resistance_ordering_deterministically() {
    let grid = [25, 50, 100, 200, 400, 800];
    let repetitions = 4;
    let seed = 7;

    let curves = mtd_curves(seed, &grid, repetitions, MtdAttack::Cpa, None);
    assert_eq!(curves.len(), 4);
    let mtd_of = |model: LeakageModel| {
        curves
            .iter()
            .find(|(m, _)| *m == model)
            .map(|(_, curve)| curve.mtd)
            .expect("model present")
    };

    let hw = mtd_of(LeakageModel::HammingWeight).expect("the CMOS-like model must disclose");
    for protected in [
        LeakageModel::GenuineSabl,
        LeakageModel::FullyConnectedSabl,
        LeakageModel::EnhancedSabl,
    ] {
        let mtd = mtd_of(protected).unwrap_or(usize::MAX);
        assert!(
            hw < mtd,
            "{protected:?}: MTD {mtd} must exceed the Hamming-weight MTD {hw}"
        );
    }
    // The constant-power styles never disclose at all within the grid.
    assert_eq!(mtd_of(LeakageModel::FullyConnectedSabl), None);
    assert_eq!(mtd_of(LeakageModel::EnhancedSabl), None);

    // Bit-for-bit determinism of the whole sweep, and of the rendered
    // report `repro mtd --seed 7` prints.
    assert_eq!(
        curves,
        mtd_curves(seed, &grid, repetitions, MtdAttack::Cpa, None)
    );
    let report = mtd_experiment(seed, &grid, repetitions, MtdAttack::Cpa, None);
    assert_eq!(
        report,
        mtd_experiment(seed, &grid, repetitions, MtdAttack::Cpa, None)
    );
    assert!(report.contains("seed = 7"));

    // The DPA engine agrees on the headline: CMOS discloses, constant
    // power does not.
    let dpa_curves = mtd_curves(seed, &[100, 400], 3, MtdAttack::Dpa, None);
    let dpa_hw = dpa_curves
        .iter()
        .find(|(m, _)| *m == LeakageModel::HammingWeight)
        .unwrap();
    assert!(dpa_hw.1.disclosed());
    let dpa_fc = dpa_curves
        .iter()
        .find(|(m, _)| *m == LeakageModel::FullyConnectedSabl)
        .unwrap();
    assert!(!dpa_fc.1.disclosed());
}
