//! End-to-end out-of-core integration: a capture campaign streamed to a
//! chunked archive, then attacked chunk-by-chunk without ever materializing
//! the full trace set — with scores bit-identical to the in-memory attacks.

use std::path::PathBuf;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    present_sbox, simulate_traces_into, synthesize_sbox_with_key, GateEnergyTable, LeakageModel,
    LeakageOptions, Present80,
};
use dpl_obs::{names, Obs};
use dpl_power::{cpa_attack, dpa_attack, DpaAccumulator, TraceSet, TraceSink};
use dpl_store::{
    cpa_attack_parallel_with, cpa_attack_streaming, cpa_passes, dpa_attack_streaming,
    fold_read_ahead, input_profile, ArchiveMeta, ArchiveReader, ArchiveWriter, CampaignKind,
    ChunkSource, Compression, ModelTag, Reading, SampleEncoding,
};

fn temp_archive(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpl_it_{}_{}.dpltrc", name, std::process::id()))
}

fn selection(plaintext: u64, guess: u64) -> bool {
    present_sbox((plaintext ^ guess) as u8).count_ones() >= 2
}

fn model(plaintext: u64, guess: u64) -> f64 {
    present_sbox((plaintext ^ guess) as u8).count_ones() as f64
}

/// The PR's acceptance criterion: out-of-core DPA/CPA over a multi-chunk
/// archive 8x larger than the reader's in-memory chunk budget return
/// bit-identical scores to the in-memory attacks on the same traces.
#[test]
fn out_of_core_attacks_are_bit_identical_on_a_multi_chunk_archive() {
    const CHUNK: usize = 128;
    const TRACES: usize = 1024; // 8 chunks = 8x the chunk budget.
    let key = 0xAu8;
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let capacitance = CapacitanceModel::default();
    let table = GateEnergyTable::build(LeakageModel::HammingWeight, &capacitance).expect("table");
    let options = LeakageOptions {
        relative_noise: 0.02,
        seed: 99,
    };

    // Capture straight to disk...
    let path = temp_archive("bit_identical");
    let meta = ArchiveMeta::scalar(CHUNK, ModelTag::HammingWeight, options.seed);
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    simulate_traces_into(&netlist, &table, key, TRACES, &options, &mut writer).expect("capture");
    assert_eq!(writer.finish().expect("finish"), TRACES as u64);

    // ...and the same campaign into the in-memory oracle (identical RNG
    // stream by contract).
    let mut oracle = TraceSet::new();
    simulate_traces_into(&netlist, &table, key, TRACES, &options, &mut oracle).expect("oracle");

    let mut reader = ArchiveReader::open(&path)
        .expect("open")
        .with_chunk_budget(CHUNK)
        .expect("budget");
    assert_eq!(reader.trace_count(), TRACES as u64);
    assert_eq!(reader.chunk_count(), TRACES / CHUNK);
    assert!(reader.trace_count() >= 4 * reader.chunk_budget() as u64);

    let dpa_streamed = dpa_attack_streaming(&mut reader, 16, selection).expect("dpa");
    let dpa_memory = dpa_attack(&oracle, 16, selection).expect("dpa oracle");
    assert_eq!(dpa_streamed.scores, dpa_memory.scores);
    assert_eq!(dpa_streamed.best_guess, dpa_memory.best_guess);
    assert_eq!(dpa_streamed.best_guess, u64::from(key));

    let cpa_streamed = cpa_attack_streaming(&mut reader, 16, model).expect("cpa");
    let cpa_memory = cpa_attack(&oracle, 16, model).expect("cpa oracle");
    assert_eq!(cpa_streamed.scores, cpa_memory.scores);
    assert_eq!(cpa_streamed.best_guess, cpa_memory.best_guess);
    assert_eq!(cpa_streamed.best_guess, u64::from(key));

    // Read-ahead DPA folds the decoded chunks one at a time in trace order:
    // bit-identical to the in-memory attack for any worker count, from the
    // caller alone (1) to more threads than the 8 chunks (clamped to 8).
    for workers in [1, 2, 3, 5, 8, 16] {
        let acc = DpaAccumulator::with_profile(16, selection, input_profile(&reader)).unwrap();
        let open = || ArchiveReader::open(&path);
        let (dpa_ahead, report) = fold_read_ahead(open, acc, Reading::Strict, Some(workers), None)
            .expect("read-ahead dpa");
        assert!(report.is_clean(), "workers = {workers}");
        assert_eq!(dpa_ahead.scores, dpa_memory.scores, "workers = {workers}");
        assert_eq!(dpa_ahead.best_guess, dpa_memory.best_guess);
    }

    // Chunk-parallel CPA merges per-chunk partials in chunk order: scores
    // bit-identical for every worker count, the same recovered key, and
    // within floating-point reassociation error of the sequential fold.
    let open = || ArchiveReader::open(&path);
    let cpa_one = cpa_attack_parallel_with(open, 16, model, Some(1)).expect("cpa 1 worker");
    for workers in [2, 3, 4, 5, 8, 16] {
        let cpa = cpa_attack_parallel_with(open, 16, model, Some(workers)).expect("cpa");
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&cpa.scores),
            bits(&cpa_one.scores),
            "workers = {workers}"
        );
    }
    assert_eq!(cpa_one.best_guess, cpa_memory.best_guess);
    for (a, b) in cpa_one.scores.iter().zip(&cpa_memory.scores) {
        assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
    }

    let _ = std::fs::remove_file(&path);
}

/// Multi-round leakage scenario: 31-sample traces (one Hamming-weight
/// sample per PRESENT-80 round) over full 64-bit plaintexts — too many
/// distinct inputs for class aggregation, so the attacks' diverse-input
/// path is exercised out-of-core, and a first-round DPA still recovers the
/// first round-key nibble from the archived traces.
#[test]
fn multi_round_present80_archive_supports_out_of_core_dpa() {
    const TRACES: usize = 3000;
    const CHUNK: usize = 256;
    let cipher = Present80::new([0x42; 10]);
    let key_nibble = cipher.round_keys()[0] & 0xF;

    let path = temp_archive("present80");
    let meta = ArchiveMeta {
        samples_per_trace: dpl_crypto::PRESENT_ROUNDS,
        chunk_traces: CHUNK,
        model: ModelTag::Unspecified,
        seed: 7,
        campaign: CampaignKind::Attack,
        table_digest: 0,
        encoding: SampleEncoding::F64,
        compression: Compression::None,
    };
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    let mut oracle = TraceSet::new();
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..TRACES {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let plaintext = state;
        let (_, rounds) = cipher.encrypt_trace(plaintext);
        let samples: Vec<f64> = rounds
            .iter()
            .map(|&round_state| round_state.count_ones() as f64)
            .collect();
        writer.append(plaintext, &samples).expect("append");
        TraceSink::record(&mut oracle, plaintext, &samples).expect("oracle");
    }
    assert_eq!(writer.finish().expect("finish"), TRACES as u64);

    let first_round_selection = |plaintext: u64, guess: u64| {
        present_sbox(((plaintext ^ guess) & 0xF) as u8).count_ones() >= 2
    };

    let mut reader = ArchiveReader::open(&path).expect("open");
    assert_eq!(reader.samples_per_trace(), dpl_crypto::PRESENT_ROUNDS);
    assert_eq!(reader.read_all().expect("read_all"), oracle);

    let streamed = dpa_attack_streaming(&mut reader, 16, first_round_selection).expect("dpa");
    let in_memory = dpa_attack(&oracle, 16, first_round_selection).expect("dpa oracle");
    assert_eq!(streamed.scores, in_memory.scores);
    assert_eq!(streamed.best_guess, in_memory.best_guess);
    assert_eq!(
        streamed.best_guess, key_nibble,
        "first-round DPA should recover round-key nibble {key_nibble:#X}"
    );

    let _ = std::fs::remove_file(&path);
}

/// A [`ChunkSource`] that counts the chunk reads a fold asks for.
struct CountingSource<S> {
    inner: S,
    reads: usize,
}

impl<S: ChunkSource> ChunkSource for CountingSource<S> {
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
        self.reads += 1;
        self.inner.read_chunk(index)
    }

    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> dpl_store::Result<()> {
        self.reads += 1;
        self.inner.read_chunk_into(index, set)
    }

    fn obs(&self) -> Option<&Obs> {
        self.inner.obs()
    }
}

/// In-memory archive bytes of `traces` (one sample each) in chunks of
/// `chunk` traces.
fn archive_bytes(traces: &TraceSet, chunk: usize) -> Vec<u8> {
    let meta = ArchiveMeta::scalar(chunk, ModelTag::Unspecified, 5);
    let mut writer = ArchiveWriter::new(std::io::Cursor::new(Vec::new()), meta).expect("writer");
    for t in 0..traces.len() {
        writer
            .append(traces.inputs()[t], &traces.trace_samples(t))
            .expect("append");
    }
    writer.finish().expect("finish");
    writer.into_inner().into_inner()
}

/// Folds `bytes` with `cpa_attack_streaming` through a counting source
/// under a telemetry context; returns the result, the chunk reads, the
/// chunk count and the `fold.traces` counter.
fn counted_cpa(bytes: Vec<u8>) -> (dpl_power::AttackResult, usize, usize, u64) {
    let obs = Obs::deterministic(10);
    let mut reader = ArchiveReader::new(std::io::Cursor::new(bytes)).expect("reader");
    reader.set_obs(&obs);
    let mut source = CountingSource {
        inner: reader,
        reads: 0,
    };
    let result = cpa_attack_streaming(&mut source, 16, model).expect("cpa");
    let folded = obs
        .metrics()
        .counter(names::FOLD_TRACES)
        .expect("fold.traces");
    (result, source.reads, source.inner.chunk_count(), folded)
}

/// The one-pass CPA contract out of core: a campaign whose header records
/// few distinct inputs is read once (one read per chunk, `fold.traces ==
/// n`) and stays bit-identical to the in-memory attack for any chunk size;
/// a diverse-input campaign, and a few-class one of at most 64 traces, is
/// read twice.  `cpa_passes` predicts each count from the header.
#[test]
fn few_class_streaming_cpa_reads_each_chunk_once() {
    let few = |n: usize| {
        let mut set = TraceSet::new();
        for t in 0..n as u64 {
            let input = (t * 7 + 3) % 16;
            let leak = model(input, 0x9) + ((t * 2_654_435_761) % 1000) as f64 / 250.0;
            set.push_samples(input, &[leak + 3.0]);
        }
        set
    };
    let traces = few(3000);
    let memory = cpa_attack(&traces, 16, model).expect("in-memory cpa");
    assert_eq!(memory.best_guess, 0x9);
    for chunk in [1, 7, 1024] {
        let bytes = archive_bytes(&traces, chunk);
        let reader = ArchiveReader::new(std::io::Cursor::new(bytes.clone())).expect("reader");
        assert_eq!(cpa_passes(&reader), 1);
        let (streamed, reads, chunks, folded) = counted_cpa(bytes);
        assert_eq!(streamed.scores, memory.scores, "chunk = {chunk}");
        assert_eq!(reads, chunks, "chunk = {chunk}: one read per chunk");
        assert_eq!(folded, traces.len() as u64, "chunk = {chunk}");
    }

    // Two passes where the accumulator asks for the replay.
    let mut diverse = TraceSet::new();
    for t in 0..200u64 {
        let input = t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        diverse.push_samples(input, &[model(input, 0x9) + (t % 5) as f64]);
    }
    for (set, label) in [(&diverse, "diverse"), (&few(64), "64-trace few-class")] {
        let bytes = archive_bytes(set, 16);
        let reader = ArchiveReader::new(std::io::Cursor::new(bytes.clone())).expect("reader");
        assert_eq!(cpa_passes(&reader), 2, "{label}");
        let (streamed, reads, chunks, folded) = counted_cpa(bytes);
        assert_eq!(
            streamed.scores,
            cpa_attack(set, 16, model).expect("cpa").scores
        );
        assert_eq!(reads, 2 * chunks, "{label}");
        assert_eq!(folded, 2 * set.len() as u64, "{label}");
    }
}
