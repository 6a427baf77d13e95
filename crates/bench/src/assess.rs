//! Leakage-assessment experiments: TVLA reports over archives,
//! measurements-to-disclosure sweeps across the paper's logic styles, and
//! characterisation-table reports
//! (`repro tvla`, `repro mtd`, `repro info`, `repro charac-table`).

use std::fmt::Write as _;

use dpl_cells::CapacitanceModel;
use dpl_core::GateKind;
use dpl_crypto::{
    present_sbox, simulate_traces_with_table, synthesize_library_circuit, synthesize_sbox_with_key,
    EnergyCache, EnergyModel, GateEnergyTable, GateNetlist, LeakageModel, LeakageOptions,
};
use dpl_eval::{
    interleaved_partition, mtd_campaign, MtdConfig, MtdCurve, PrefixCpa, PrefixDpa,
    SecondOrderWelchAccumulator, TvlaOrder, TvlaResult, WelchAccumulator, TVLA_THRESHOLD,
};
use dpl_obs::{Json, Obs};
use dpl_store::{
    fold, fold_read_ahead, is_manifest_file, ArchiveMeta, ArchiveReader, CampaignKind, ChunkSource,
    Compression, DamageReport, Fold, ReadPolicy, Reading, RetryPolicy, SampleEncoding,
    ShardedReader, StoreError,
};

/// The fixed plaintext nibble of every CLI TVLA campaign (the random group
/// draws uniformly from all 16 nibbles, collisions included, per the TVLA
/// methodology).
pub const TVLA_FIXED_PLAINTEXT: u64 = 0x3;

/// The default trace-count grid of `repro mtd`.
pub const MTD_GRID: &[usize] = &[25, 50, 100, 200, 400, 800, 1600, 3200];

/// Which attack a measurements-to-disclosure sweep replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtdAttack {
    /// Difference-of-means DPA with the classic S-box selection bit.
    Dpa,
    /// Profiled CPA: the hypothesis is the device's own gate-level energy
    /// model (the strongest first-order attacker of the paper's threat
    /// discussion).
    Cpa,
}

impl MtdAttack {
    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MtdAttack::Dpa => "difference-of-means DPA",
            MtdAttack::Cpa => "profiled CPA",
        }
    }
}

/// The secret key nibble of every MTD campaign (matches the `repro`
/// campaign key).
const MTD_KEY: u8 = 0xA;

/// The attack-target circuit of a CLI campaign: the classic key-mixing +
/// PRESENT S-box datapath, or a key-mixed single-library-cell datapath
/// (`dpl_crypto::synthesize_library_circuit`) for any standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitChoice {
    /// The key-mixing + PRESENT S-box datapath (the historical default).
    Sbox,
    /// A key-mixed datapath around one standard-library cell.
    Cell(GateKind),
}

impl CircuitChoice {
    /// Parses a circuit name: `sbox`, or any library gate name (`oai22`,
    /// `maj3`, ... — case insensitive).
    pub fn parse(name: &str) -> Option<CircuitChoice> {
        if name.eq_ignore_ascii_case("sbox") {
            return Some(CircuitChoice::Sbox);
        }
        GateKind::by_name(name).ok().map(CircuitChoice::Cell)
    }

    /// The canonical CLI name.
    pub fn name(&self) -> String {
        match self {
            CircuitChoice::Sbox => "sbox".into(),
            CircuitChoice::Cell(kind) => kind.name().to_ascii_lowercase(),
        }
    }

    /// A human-readable description.
    pub fn label(&self) -> String {
        match self {
            CircuitChoice::Sbox => "key-mixing + PRESENT S-box datapath".into(),
            CircuitChoice::Cell(kind) => format!("key-mixed {} library-cell datapath", kind),
        }
    }

    /// Synthesises the circuit.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails (a bug, not an input error).
    pub fn netlist(&self) -> GateNetlist {
        match self {
            CircuitChoice::Sbox => synthesize_sbox_with_key().expect("synthesis"),
            CircuitChoice::Cell(kind) => {
                synthesize_library_circuit(*kind).expect("library circuit synthesis")
            }
        }
    }

    /// The difference-of-means DPA selection function of the circuit: the
    /// classic `HW(sbox(p ^ g)) >= 2` bit for the S-box datapath, and the
    /// majority of the circuit's output bits for library-cell datapaths
    /// (precomputed over the 16x16 plaintext/guess nibble space).
    pub fn dpa_selection(&self) -> impl Fn(u64, u64) -> bool + Clone {
        let table: Option<[[bool; 16]; 16]> = match self {
            CircuitChoice::Sbox => None,
            CircuitChoice::Cell(_) => {
                let netlist = self.netlist();
                let outputs = netlist.outputs().len() as u32;
                let mut table = [[false; 16]; 16];
                for (guess, row) in table.iter_mut().enumerate() {
                    for (plaintext, bit) in row.iter_mut().enumerate() {
                        let input = plaintext as u64 | ((guess as u64) << 4);
                        *bit = 2 * netlist.evaluate(input).0.count_ones() >= outputs;
                    }
                }
                Some(table)
            }
        };
        move |plaintext: u64, guess: u64| match &table {
            None => present_sbox((plaintext ^ guess) as u8).count_ones() >= 2,
            Some(table) => table[(guess & 0xF) as usize][(plaintext & 0xF) as usize],
        }
    }
}

/// One measurements-to-disclosure sweep of a single (model, circuit) pair.
#[allow(clippy::too_many_arguments)]
fn mtd_curve_for(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    circuit: CircuitChoice,
    seed: u64,
    grid: &[usize],
    repetitions: usize,
    attack: MtdAttack,
    obs: Option<&Obs>,
) -> MtdCurve {
    let cache = EnergyCache::new(netlist, table);
    let config = MtdConfig::new(grid.to_vec(), repetitions, seed);
    let generate = |rep_seed: u64, n: usize| {
        let options = LeakageOptions {
            relative_noise: 0.02,
            seed: rep_seed,
        };
        simulate_traces_with_table(netlist, table, MTD_KEY, n, &options)
    };
    match attack {
        MtdAttack::Dpa => {
            let selection = circuit.dpa_selection();
            let make = move || {
                let selection = selection.clone();
                PrefixDpa::new(16, selection)
            };
            mtd_campaign(&config, u64::from(MTD_KEY), generate, make, obs)
        }
        MtdAttack::Cpa => {
            let make = || {
                let cache = cache.clone();
                PrefixCpa::new(16, move |plaintext, guess| {
                    cache.energy(plaintext, guess as u8)
                })
            };
            mtd_campaign(&config, u64::from(MTD_KEY), generate, make, obs)
        }
    }
    .expect("mtd campaign")
}

/// Runs the measurements-to-disclosure sweep for every built-in leakage
/// model over the S-box datapath and returns the per-model curves,
/// deterministically in `seed`.  When `obs` is given, every per-model
/// campaign runs through the observed sweep (spans plus
/// grid/repetition/trace counters).
///
/// # Panics
///
/// Panics if the S-box datapath cannot be synthesised or the sweep
/// configuration is invalid (both would be bugs, not input errors).
pub fn mtd_curves(
    seed: u64,
    grid: &[usize],
    repetitions: usize,
    attack: MtdAttack,
    obs: Option<&Obs>,
) -> Vec<(LeakageModel, MtdCurve)> {
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let capacitance = CapacitanceModel::default();
    let mut curves = Vec::new();
    for &model in LeakageModel::all() {
        let table = GateEnergyTable::build(model, &capacitance).expect("energy table");
        let curve = mtd_curve_for(
            &netlist,
            &table,
            CircuitChoice::Sbox,
            seed,
            grid,
            repetitions,
            attack,
            obs,
        );
        if let Some(obs) = obs {
            obs.progress_advance(1);
        }
        curves.push((model, curve));
    }
    curves
}

/// Experiment: measurements-to-disclosure across every leakage model —
/// the paper's core quantitative comparison (`repro mtd`), with optional
/// telemetry (the `repro mtd --metrics` path).
pub fn mtd_experiment(
    seed: u64,
    grid: &[usize],
    repetitions: usize,
    attack: MtdAttack,
    obs: Option<&Obs>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== Measurements to disclosure — {} over the PRESENT S-box datapath ===",
        attack.label()
    );
    let _ = writeln!(
        out,
        "secret key nibble = {MTD_KEY:#X}, {repetitions} repetitions per grid point, 2 % noise, \
         seed = {seed}, disclosure threshold = 80 % success rate"
    );
    let _ = writeln!(out, "trace grid: {grid:?}");
    for (model, curve) in mtd_curves(seed, grid, repetitions, attack, obs) {
        render_mtd_curve(&mut out, model.label(), &curve, grid);
    }
    let _ = writeln!(
        out,
        "expected shape: the Hamming-weight (standard CMOS) implementation discloses at the \
         bottom of the grid; the genuine-DPDN SABL needs substantially more traces, and the \
         fully connected / enhanced SABL implementations never disclose — the paper's \
         resistance ordering."
    );
    out
}

/// Renders one MTD curve in the sweep's row format.
fn render_mtd_curve(out: &mut String, label: &str, curve: &MtdCurve, grid: &[usize]) {
    let sr: Vec<String> = curve
        .success_rate
        .iter()
        .map(|r| format!("{r:.2}"))
        .collect();
    let ge: Vec<String> = curve
        .guessing_entropy
        .iter()
        .map(|g| format!("{g:.1}"))
        .collect();
    let mtd = match curve.mtd {
        Some(n) => format!("{n} traces"),
        None => format!("> {} traces (no disclosure observed)", grid.last().unwrap()),
    };
    let _ = writeln!(out, "{label:>32}: MTD = {mtd}");
    let _ = writeln!(out, "{:>32}  success rate  [{}]", "", sr.join(" "));
    let _ = writeln!(out, "{:>32}  mean key rank [{}]", "", ge.join(" "));
}

/// Experiment: measurements-to-disclosure of a **single energy model** —
/// including characterisation-derived models — over any CLI circuit
/// (`repro mtd --model <name> [--circuit <name>]`), with optional
/// telemetry (the `repro mtd --model ... --metrics` path).
///
/// # Panics
///
/// Panics if synthesis, table construction or the sweep fail (bugs, not
/// input errors).
#[allow(clippy::too_many_arguments)]
pub fn mtd_experiment_for(
    model: EnergyModel,
    circuit: CircuitChoice,
    seed: u64,
    grid: &[usize],
    repetitions: usize,
    attack: MtdAttack,
    obs: Option<&Obs>,
) -> String {
    let netlist = circuit.netlist();
    let capacitance = CapacitanceModel::default();
    let table = GateEnergyTable::for_circuit(model, &capacitance, &netlist).expect("energy table");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== Measurements to disclosure — {} over the {} ===",
        attack.label(),
        circuit.label()
    );
    let _ = writeln!(
        out,
        "secret key nibble = {MTD_KEY:#X}, {repetitions} repetitions per grid point, 2 % noise, \
         seed = {seed}, disclosure threshold = 80 % success rate"
    );
    let _ = writeln!(out, "trace grid: {grid:?}");
    if model.is_characterized() {
        let _ = writeln!(
            out,
            "energy table: transient-characterized, digest = {:#018X}",
            table.digest()
        );
    }
    let curve = mtd_curve_for(
        &netlist,
        &table,
        circuit,
        seed,
        grid,
        repetitions,
        attack,
        obs,
    );
    if let Some(obs) = obs {
        obs.progress_advance(1);
    }
    render_mtd_curve(&mut out, &model.label(), &curve, grid);
    out
}

/// Report of one cell's per-event energy row under an energy model
/// (`repro charac-table <gate> [--model <name>]`): the characterized
/// (transient-simulated) or built-in (analytic) energies, their spread and
/// the digest of the resulting single-cell table.
///
/// # Errors
///
/// Returns a rendered error message when the table cannot be built.
pub fn charac_table_report(kind: GateKind, model: EnergyModel) -> Result<String, String> {
    let capacitance = CapacitanceModel::default();
    let table = if model.is_characterized() {
        GateEnergyTable::characterized(model.style, &capacitance, &[kind])
    } else {
        GateEnergyTable::builtin(model.style, &capacitance)
    }
    .map_err(|e| format!("cannot build the {} table for {kind}: {e}", model.name()))?;
    let op = dpl_crypto::GateOp::cell(kind);
    let events = 1usize << kind.arity();
    let row = table.event_energies(op);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== Energy table row — {} under {} ===",
        kind.name(),
        model.label()
    );
    let _ = writeln!(
        out,
        "source: {}",
        if model.is_characterized() && model.style != LeakageModel::HammingWeight {
            "transient simulation of the SABL cell (one precharge/evaluate cycle per event)"
        } else if model.is_characterized() {
            "built-in constants (the Hamming-weight style has no differential cell)"
        } else {
            "analytic charge-sharing constants (DischargeProfile)"
        }
    );
    let _ = writeln!(out, "{:>10} {:>14}", "event", "energy (fJ)");
    for (assignment, &energy) in row.iter().enumerate().take(events) {
        let _ = writeln!(
            out,
            "{:>10} {:>14.4}",
            format!("{assignment:0width$b}", width = kind.arity()),
            energy * 1e15
        );
    }
    let max = row[..events]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let min = row[..events].iter().copied().fold(f64::INFINITY, f64::min);
    let ned = if max > 0.0 { (max - min) / max } else { 0.0 };
    let _ = writeln!(
        out,
        "spread: max - min = {:.4} fJ, NED (max-min)/max = {:.2} %",
        (max - min) * 1e15,
        100.0 * ned
    );
    let _ = writeln!(out, "table digest: {:#018X}", table.digest());
    Ok(out)
}

fn render_tvla(out: &mut String, order: TvlaOrder, result: &TvlaResult) {
    let max_t = result.max_abs_t();
    let verdict = if result.leaks() {
        "LEAKAGE DETECTED"
    } else {
        "no leakage detected"
    };
    let _ = writeln!(
        out,
        "{:>34}: max |t| = {max_t:.2} over {} samples, groups = {} fixed / {} random -> \
         {verdict} (threshold {TVLA_THRESHOLD})",
        order.label(),
        result.t.len(),
        result.counts[0],
        result.counts[1],
    );
}

/// Experiment: streaming TVLA over an interleaved fixed-vs-random archive
/// or sharded campaign (`repro tvla <file>`).  `orders` selects
/// first-order, second-order or both; any set with the second order runs
/// one two-pass fold whose first pass is the first-order test, so both
/// orders read the campaign twice and each renders what it renders alone.
/// `workers` switches to the read-ahead fold on that many threads, the
/// calling thread included, each decoding its chunks while an earlier one
/// is folded (the result is the same, bit for bit; `Some(1)` reads on the
/// caller alone).
/// `salvage` folds whatever chunks of a damaged campaign survive and
/// renders the damage once, above the statistics (`repro tvla <file>
/// --salvage`), with or without workers.
/// With `obs`, the fold's span and throughput gauges land there, and so do
/// the chunk counters and salvage drops of every reader, workers' included.
///
/// # Errors
///
/// Returns a rendered error message for unreadable archives, a non-TVLA
/// campaign, or damage that leaves no usable traces.
pub fn tvla_report(
    path: &str,
    orders: &[TvlaOrder],
    workers: Option<usize>,
    salvage: bool,
    obs: Option<&Obs>,
) -> Result<String, String> {
    let policy = if salvage {
        ReadPolicy::Salvage
    } else {
        ReadPolicy::Strict
    };
    let opened = |e: StoreError| format!("cannot open {path}: {e}");
    if is_manifest_file(path) {
        let open = || {
            let mut source = ShardedReader::open_with_policy(path, policy)?;
            if let Some(obs) = obs {
                source.set_obs(obs);
            }
            Ok(source)
        };
        let mut source = open().map_err(opened)?;
        let layout = format!(" ({} shards)", source.shard_count());
        return tvla_report_body(
            path,
            &mut source,
            open,
            &layout,
            orders,
            workers,
            salvage,
            obs,
        );
    }
    let open = || {
        let mut reader = ArchiveReader::open_with_policy(path, policy)?;
        if let Some(obs) = obs {
            reader.set_obs(obs);
        }
        Ok(reader)
    };
    let mut reader = open().map_err(opened)?;
    tvla_report_body(path, &mut reader, open, "", orders, workers, salvage, obs)
}

/// The shared body of [`tvla_report`]: the campaign check, header
/// line and the one fold, generic over the chunk source (single archive
/// or sharded campaign, whose `layout` tags the header).  `open` opens
/// sources like `source` for the read-ahead threads.
#[allow(clippy::too_many_arguments)]
fn tvla_report_body<S, O>(
    path: &str,
    source: &mut S,
    open: O,
    layout: &str,
    orders: &[TvlaOrder],
    workers: Option<usize>,
    salvage: bool,
    obs: Option<&Obs>,
) -> Result<String, String>
where
    S: ChunkSource,
    O: Fn() -> dpl_store::Result<S> + Sync,
{
    let meta = *source.meta();
    if meta.campaign != CampaignKind::TvlaInterleaved {
        return Err(format!(
            "{path} records a `{}` campaign; the t-test needs an interleaved fixed-vs-random \
             capture (repro capture --tvla)",
            meta.campaign.label()
        ));
    }
    let (title, traces, test) = if salvage {
        ("TVLA (salvage)", "traces promised", "salvage t-test")
    } else {
        ("TVLA", "traces", "t-test")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== {title} — Welch t-test over {path}{layout} ===\n{} {traces}, {} samples/trace, \
         model = {}, seed = {}",
        source.trace_count(),
        source.samples_per_trace(),
        meta.model.label(),
        meta.seed
    );
    let retry = RetryPolicy::new(2);
    let reading = if salvage {
        Reading::Salvage(&retry)
    } else {
        Reading::Strict
    };
    // One second-order fold yields both orders; a first-order test alone
    // reads the campaign once.  `results[order as usize]` is that order's.
    let folded = if orders.contains(&TvlaOrder::Second) {
        let acc = SecondOrderWelchAccumulator::new(interleaved_partition);
        fold_with(source, &open, acc, reading, workers, obs)
            .map(|((first, second), damage)| (vec![first, second], damage))
    } else {
        let acc = WelchAccumulator::new(interleaved_partition);
        fold_with(source, &open, acc, reading, workers, obs)
            .map(|(first, damage)| (vec![first], damage))
    };
    let (results, damage) = folded.map_err(|e| format!("{test} over {path} failed: {e}"))?;
    if salvage {
        let _ = writeln!(out, "salvage: {}", damage.render());
    }
    for &order in orders {
        render_tvla(&mut out, order, &results[order as usize]);
    }
    Ok(out)
}

/// Folds `acc` inline over `source`, or on `workers` read-ahead threads
/// over sources from `open`.
fn fold_with<S, O, A>(
    source: &mut S,
    open: &O,
    acc: A,
    reading: Reading<'_>,
    workers: Option<usize>,
    obs: Option<&Obs>,
) -> Result<(A::Output, DamageReport), A::Error>
where
    S: ChunkSource,
    O: Fn() -> dpl_store::Result<S> + Sync,
    A: Fold + Send,
    A::Error: Send,
{
    match workers {
        Some(_) => fold_read_ahead(open, acc, reading, workers, obs),
        None => fold(source, acc, reading),
    }
}

/// `repro info <file>`: renders an archive's header metadata without
/// touching any chunk data.
///
/// # Errors
///
/// Returns a rendered error message when the archive cannot be opened.
pub fn info_report(path: &str) -> Result<String, String> {
    if is_manifest_file(path) {
        return campaign_info_report(path);
    }
    let reader = ArchiveReader::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let meta = reader.meta();
    let mut out = String::new();
    let _ = writeln!(out, "{path}:");
    let _ = writeln!(out, "  format version:       {}", reader.format_version());
    let _ = writeln!(out, "  campaign kind:        {}", meta.campaign.label());
    let _ = writeln!(out, "  leakage model:        {}", meta.model.label());
    let _ = writeln!(out, "  campaign seed:        {}", meta.seed);
    let _ = writeln!(out, "  traces:               {}", reader.trace_count());
    let _ = writeln!(out, "  samples per trace:    {}", meta.samples_per_trace);
    let _ = writeln!(
        out,
        "  chunks:               {} of up to {} traces",
        reader.chunk_count(),
        meta.chunk_traces
    );
    let distinct = match reader.distinct_inputs() {
        Some(n) => n.to_string(),
        None => format!(
            "more than {} (class aggregation disabled)",
            dpl_power::MAX_INPUT_CLASSES
        ),
    };
    let _ = writeln!(out, "  distinct inputs:      {distinct}");
    render_encoding_lines(&mut out, meta, reader.saturated_samples());
    if let Some(digest) = reader.table_digest() {
        let _ = writeln!(out, "  energy-table digest:  {digest:#018X}");
    }
    Ok(out)
}

/// The compact-encoding lines of `repro info`, omitted for plain `f64` /
/// uncompressed archives so their reports render unchanged.  `saturated`
/// is the recorded `i16` saturation count (`None` = not recorded).
fn render_encoding_lines(out: &mut String, meta: &ArchiveMeta, saturated: Option<u64>) {
    if meta.encoding == SampleEncoding::F64 && meta.compression == Compression::None {
        return;
    }
    let _ = writeln!(out, "  sample encoding:      {}", meta.encoding.label());
    let _ = writeln!(out, "  compression:          {}", meta.compression.label());
    if let Some(q) = meta.encoding.quantization() {
        let _ = writeln!(
            out,
            "  quantization:         scale {:.6e} (max abs error {:.3e})",
            q.scale,
            q.max_error()
        );
        let saturated = match saturated {
            Some(n) => format!("{n} (beyond the max abs error bound)"),
            None => "not recorded (archives before format version 4)".into(),
        };
        let _ = writeln!(out, "  i16 saturations:      {saturated}");
    }
}

/// `repro info <manifest>`: campaign-level metadata plus the per-shard
/// table of a sharded campaign.
fn campaign_info_report(path: &str) -> Result<String, String> {
    let reader = ShardedReader::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let meta = *reader.meta();
    let manifest = reader.manifest();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: campaign manifest, {} shards",
        reader.shard_count()
    );
    let _ = writeln!(out, "  format version:       {}", reader.format_version());
    let _ = writeln!(out, "  campaign kind:        {}", meta.campaign.label());
    let _ = writeln!(out, "  leakage model:        {}", meta.model.label());
    let _ = writeln!(out, "  campaign seed:        {}", meta.seed);
    let _ = writeln!(out, "  traces:               {}", reader.trace_count());
    let _ = writeln!(out, "  samples per trace:    {}", meta.samples_per_trace);
    let _ = writeln!(
        out,
        "  chunks:               {} of up to {} traces",
        reader.chunk_count(),
        meta.chunk_traces
    );
    let distinct = match reader.distinct_inputs() {
        Some(n) => n.to_string(),
        None => format!(
            "more than {} (class aggregation disabled)",
            dpl_power::MAX_INPUT_CLASSES
        ),
    };
    let _ = writeln!(out, "  distinct inputs:      {distinct}");
    render_encoding_lines(&mut out, &meta, reader.saturated_samples());
    if meta.table_digest != 0 {
        let _ = writeln!(out, "  energy-table digest:  {:#018X}", meta.table_digest);
    }
    let _ = writeln!(out, "  campaign digest:      {:#018x}", manifest.digest());
    let _ = writeln!(out, "  shards:");
    for shard in manifest.shards() {
        let _ = writeln!(
            out,
            "    {:<24} traces {}..{} ({} traces)",
            shard.path,
            shard.start,
            shard.start + shard.traces,
            shard.traces
        );
    }
    Ok(out)
}

/// `repro info <file> --json [--fsck]`: the archive's header metadata as a
/// machine-readable JSON document — plus, with `fsck`, a full damage scan
/// (every chunk's checksum verified) summarised under a `damage` key.
///
/// # Errors
///
/// Returns a rendered error message when the archive cannot be opened (or,
/// with `fsck`, when the scan hard-fails on a non-chunk-local error).
pub fn info_json(path: &str, fsck: bool) -> Result<String, String> {
    if is_manifest_file(path) {
        return campaign_info_json(path, fsck);
    }
    // The fsck scan tolerates chunk damage and a wrong file length by
    // design; a plain header dump keeps the strict policy `repro info`
    // always had.
    let policy = if fsck {
        ReadPolicy::Salvage
    } else {
        ReadPolicy::Strict
    };
    let mut reader = ArchiveReader::open_with_policy(path, policy)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    let meta = *reader.meta();
    let mut fields = vec![
        ("info", Json::str("dpl-store.archive/v1")),
        ("path", Json::str(path)),
        (
            "format_version",
            Json::U64(u64::from(reader.format_version())),
        ),
        ("campaign", Json::str(meta.campaign.label())),
        ("model", Json::str(meta.model.label())),
        ("seed", Json::U64(meta.seed)),
        ("traces", Json::U64(reader.trace_count())),
        (
            "samples_per_trace",
            Json::U64(meta.samples_per_trace as u64),
        ),
        ("chunks", Json::U64(reader.chunk_count() as u64)),
        ("chunk_traces", Json::U64(meta.chunk_traces as u64)),
        (
            "distinct_inputs",
            match reader.distinct_inputs() {
                Some(n) => Json::U64(n as u64),
                None => Json::Null,
            },
        ),
        (
            "table_digest",
            match reader.table_digest() {
                Some(digest) => Json::str(format!("{digest:#018X}")),
                None => Json::Null,
            },
        ),
    ];
    fields.extend(encoding_json_fields(&meta, reader.saturated_samples()));
    if fsck {
        let retry = RetryPolicy::new(2);
        let report = reader
            .scan(&retry)
            .map_err(|e| format!("fsck of {path} failed: {e}"))?;
        fields.push(("damage", damage_json(&report)));
    }
    let mut out = Json::object(fields).render_pretty();
    out.push('\n');
    Ok(out)
}

/// The encoding fields of `repro info --json`, present for every archive so
/// consumers need no version sniffing (`saturated_samples` is `null` when
/// the archive predates format version 4 and recorded no count).
fn encoding_json_fields(meta: &ArchiveMeta, saturated: Option<u64>) -> Vec<(&'static str, Json)> {
    vec![
        ("encoding", Json::str(meta.encoding.label())),
        ("compression", Json::str(meta.compression.label())),
        (
            "quantization_scale",
            match meta.encoding.quantization() {
                Some(q) => Json::F64(q.scale),
                None => Json::Null,
            },
        ),
        ("saturated_samples", saturated.map_or(Json::Null, Json::U64)),
    ]
}

/// One damage scan summarised as the JSON object of `repro info --fsck`.
fn damage_json(report: &DamageReport) -> Json {
    let damaged = report
        .damaged
        .iter()
        .map(|d| {
            Json::object(vec![
                ("chunk", Json::U64(d.chunk as u64)),
                ("cause", Json::str(d.cause.to_string())),
                ("traces_lost", Json::U64(d.traces_lost as u64)),
            ])
        })
        .collect();
    Json::object(vec![
        ("clean", Json::Bool(report.is_clean())),
        ("chunks_scanned", Json::U64(report.chunks_scanned as u64)),
        ("traces_read", Json::U64(report.traces_read)),
        ("traces_total", Json::U64(report.traces_total)),
        ("traces_lost", Json::U64(report.traces_lost())),
        ("damaged_chunks", Json::Array(damaged)),
    ])
}

/// `repro info <manifest> --json [--fsck]`: the campaign's metadata, shard
/// table and (with `fsck`) per-shard damage scans as one JSON document.
fn campaign_info_json(path: &str, fsck: bool) -> Result<String, String> {
    let policy = if fsck {
        ReadPolicy::Salvage
    } else {
        ReadPolicy::Strict
    };
    let mut reader = ShardedReader::open_with_policy(path, policy)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    let meta = *reader.meta();
    let scans = if fsck {
        let retry = RetryPolicy::new(2);
        Some(
            reader
                .scan_shards(&retry)
                .map_err(|e| format!("fsck of {path} failed: {e}"))?,
        )
    } else {
        None
    };
    let manifest = reader.manifest();
    let shards = manifest
        .shards()
        .iter()
        .enumerate()
        .map(|(index, shard)| {
            let mut entry = vec![
                ("path", Json::str(&shard.path)),
                ("traces", Json::U64(shard.traces)),
                ("start", Json::U64(shard.start)),
            ];
            if let Some(scans) = &scans {
                entry.push(("damage", damage_json(&scans[index])));
            }
            Json::object(entry)
        })
        .collect();
    let mut fields = vec![
        ("info", Json::str("dpl-store.campaign/v1")),
        ("path", Json::str(path)),
        (
            "format_version",
            Json::U64(u64::from(reader.format_version())),
        ),
        ("campaign", Json::str(meta.campaign.label())),
        ("model", Json::str(meta.model.label())),
        ("seed", Json::U64(meta.seed)),
        ("traces", Json::U64(reader.trace_count())),
        (
            "samples_per_trace",
            Json::U64(meta.samples_per_trace as u64),
        ),
        ("chunks", Json::U64(reader.chunk_count() as u64)),
        ("chunk_traces", Json::U64(meta.chunk_traces as u64)),
        (
            "distinct_inputs",
            match reader.distinct_inputs() {
                Some(n) => Json::U64(n as u64),
                None => Json::Null,
            },
        ),
        (
            "table_digest",
            match meta.table_digest {
                0 => Json::Null,
                digest => Json::str(format!("{digest:#018X}")),
            },
        ),
    ];
    fields.extend(encoding_json_fields(&meta, reader.saturated_samples()));
    fields.push((
        "campaign_digest",
        Json::str(format!("{:#018x}", manifest.digest())),
    ));
    if let Some(scans) = &scans {
        let clean = scans.iter().all(DamageReport::is_clean);
        fields.push((
            "damage",
            Json::object(vec![
                ("clean", Json::Bool(clean)),
                (
                    "chunks_scanned",
                    Json::U64(scans.iter().map(|r| r.chunks_scanned as u64).sum()),
                ),
                (
                    "traces_read",
                    Json::U64(scans.iter().map(|r| r.traces_read).sum()),
                ),
                (
                    "traces_total",
                    Json::U64(scans.iter().map(|r| r.traces_total).sum()),
                ),
                (
                    "traces_lost",
                    Json::U64(scans.iter().map(|r| r.traces_lost()).sum()),
                ),
                (
                    "damaged_shards",
                    Json::U64(scans.iter().filter(|r| !r.is_clean()).count() as u64),
                ),
            ]),
        ));
    }
    fields.push(("shards", Json::Array(shards)));
    let mut out = Json::object(fields).render_pretty();
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtd_experiment_reproduces_the_resistance_ordering() {
        // A deliberately small sweep (CI-sized); the full-grid ordering is
        // asserted by tests/leakage_assessment.rs.
        let report = mtd_experiment(7, &[50, 200, 800], 3, MtdAttack::Cpa, None);
        assert!(report.contains("seed = 7"));
        assert!(report.contains("MTD = "));
        assert!(report.contains("no disclosure observed"));
        // Deterministic in the seed.
        assert_eq!(
            report,
            mtd_experiment(7, &[50, 200, 800], 3, MtdAttack::Cpa, None)
        );
    }

    #[test]
    fn mtd_hw_discloses_before_the_sabl_styles() {
        let curves = mtd_curves(11, &[50, 200, 800], 3, MtdAttack::Cpa, None);
        let mtd_of = |model: LeakageModel| {
            curves
                .iter()
                .find(|(m, _)| *m == model)
                .map(|(_, c)| c.mtd.unwrap_or(usize::MAX))
                .unwrap()
        };
        let hw = mtd_of(LeakageModel::HammingWeight);
        assert!(hw < mtd_of(LeakageModel::FullyConnectedSabl));
        assert!(hw < mtd_of(LeakageModel::EnhancedSabl));
        assert!(hw <= mtd_of(LeakageModel::GenuineSabl));
    }
}
