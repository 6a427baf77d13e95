//! Per-gate leakage simulation.
//!
//! Every gate evaluation of the netlist costs the energy its SABL (or
//! reference) implementation would draw for that input combination.  For
//! gates built on genuine DPDNs the energy depends on the inputs (the memory
//! effect); for fully connected DPDNs it is constant — which is exactly why
//! DPA succeeds against the former and fails against the latter.
//!
//! Energy models are named by an [`EnergyModel`] descriptor: a logic
//! *style* ([`LeakageModel`]) plus a *source* ([`EnergySource`]).  The
//! [`EnergySource::Builtin`] source fills the table from the analytic
//! charge-sharing model of `dpl_cells::DischargeProfile` (the historical
//! constants — bit-identical to earlier releases); the
//! [`EnergySource::Characterized`] source derives every per-gate,
//! per-input-event energy from **transient simulation** of the actual SABL
//! cell (`dpl_cells::characterize_events`), cached per
//! (style, gate, capacitance) so each cell is characterized once per
//! process.
//!
//! The simulator is built for statistical workloads (thousands of traces):
//! netlists evaluate **bitsliced** (64 input vectors per `u64` word, one
//! word operation per gate), per-gate energies live in a fixed-size array
//! indexed by gate kind ([`GateOp::index`]) × input event — any
//! [`dpl_core::GateKind`] library cell, not just the classic 1/2-input
//! primitives — the 16 noise-free per-plaintext energies of a run are
//! computed once and reused for every trace, the sequential generators hand
//! the Box–Muller transform of their single stream to one helper thread,
//! and [`simulate_traces_parallel`] shards trace generation across scoped
//! threads with per-block deterministic RNG streams.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use dpl_cells::{characterize_events, CapacitanceModel, DischargeProfile, EventOptions, SablCell};
use dpl_core::{Dpdn, GateKind};
use dpl_power::{TraceSet, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::netlist::{GateNetlist, GateOp};
use crate::Result;

/// Which implementation style the leakage simulation assumes for every gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakageModel {
    /// SABL gates built on genuine DPDNs: internal capacitance discharge
    /// depends on the input data (the insecure baseline of the paper).
    GenuineSabl,
    /// SABL gates built on fully connected DPDNs (§4): constant energy.
    FullyConnectedSabl,
    /// SABL gates built on enhanced fully connected DPDNs (§5).
    EnhancedSabl,
    /// A static-CMOS style Hamming-weight model: every gate whose output is
    /// `1` charges its output capacitance.  The classic DPA leakage model.
    HammingWeight,
}

impl LeakageModel {
    /// All supported styles.
    pub fn all() -> &'static [LeakageModel] {
        &[
            LeakageModel::GenuineSabl,
            LeakageModel::FullyConnectedSabl,
            LeakageModel::EnhancedSabl,
            LeakageModel::HammingWeight,
        ]
    }

    /// A short human readable label.
    pub fn label(self) -> &'static str {
        match self {
            LeakageModel::GenuineSabl => "SABL (genuine DPDN)",
            LeakageModel::FullyConnectedSabl => "SABL (fully connected DPDN)",
            LeakageModel::EnhancedSabl => "SABL (enhanced DPDN)",
            LeakageModel::HammingWeight => "static CMOS (Hamming weight)",
        }
    }

    /// The short CLI name of the style (`hw`, `genuine`, `fc`, `enhanced`).
    pub fn short_name(self) -> &'static str {
        match self {
            LeakageModel::GenuineSabl => "genuine",
            LeakageModel::FullyConnectedSabl => "fc",
            LeakageModel::EnhancedSabl => "enhanced",
            LeakageModel::HammingWeight => "hw",
        }
    }

    /// The DPDN of `expr` in this style, or `None` for the Hamming-weight
    /// style (which models static CMOS, not a differential cell).
    fn dpdn(
        self,
        expr: &dpl_logic::Expr,
        ns: &dpl_logic::Namespace,
    ) -> Option<dpl_core::Result<Dpdn>> {
        match self {
            LeakageModel::GenuineSabl => Some(Dpdn::genuine(expr, ns)),
            LeakageModel::FullyConnectedSabl => Some(Dpdn::fully_connected(expr, ns)),
            LeakageModel::EnhancedSabl => Some(Dpdn::fully_connected_enhanced(expr, ns)),
            LeakageModel::HammingWeight => None,
        }
    }
}

/// Where the per-gate energies of an [`EnergyModel`] come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum EnergySource {
    /// The analytic charge-sharing constants of
    /// `dpl_cells::DischargeProfile` — the historical built-in tables,
    /// bit-identical to earlier releases.
    #[default]
    Builtin,
    /// Transient characterisation of the actual SABL cell
    /// (`dpl_cells::characterize_events`): one warmup + measure simulation
    /// per gate per input event, cached per process.  The Hamming-weight
    /// style has no differential cell to simulate and keeps its built-in
    /// constants under this source.
    Characterized,
}

/// An extensible energy-model descriptor: a logic style plus the source its
/// per-gate energies are derived from.  This is the model currency of the
/// simulation APIs — the closed [`LeakageModel`] enum converts into it
/// (`impl Into<EnergyModel>`), so legacy call sites keep working while new
/// sources slot in without another closed enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnergyModel {
    /// The implementation style of every gate.
    pub style: LeakageModel,
    /// Where the per-gate energies come from.
    pub source: EnergySource,
}

impl EnergyModel {
    /// The built-in (analytic constants) model of a style.
    pub const fn builtin(style: LeakageModel) -> Self {
        EnergyModel {
            style,
            source: EnergySource::Builtin,
        }
    }

    /// The transient-characterized model of a style.
    pub const fn characterized(style: LeakageModel) -> Self {
        EnergyModel {
            style,
            source: EnergySource::Characterized,
        }
    }

    /// `true` when the model's energies come from transient
    /// characterisation.
    pub fn is_characterized(&self) -> bool {
        self.source == EnergySource::Characterized
    }

    /// The canonical CLI name: the style's short name, with a `-charac`
    /// suffix for characterized models (`hw`, `genuine-charac`, ...).
    pub fn name(&self) -> String {
        match self.source {
            EnergySource::Builtin => self.style.short_name().to_string(),
            EnergySource::Characterized => format!("{}-charac", self.style.short_name()),
        }
    }

    /// Parses a model name: a style (`hw`/`hamming`, `genuine`,
    /// `fc`/`fully-connected`, `enhanced`), optionally suffixed with
    /// `-charac` or `-characterized` for the transient-characterized
    /// source.
    pub fn parse(name: &str) -> Option<EnergyModel> {
        let (style_name, characterized) = match name
            .strip_suffix("-characterized")
            .or_else(|| name.strip_suffix("-charac"))
        {
            Some(prefix) => (prefix, true),
            None => (name, false),
        };
        let style = match style_name {
            "hw" | "hamming" => LeakageModel::HammingWeight,
            "genuine" => LeakageModel::GenuineSabl,
            "fc" | "fully-connected" => LeakageModel::FullyConnectedSabl,
            "enhanced" => LeakageModel::EnhancedSabl,
            _ => return None,
        };
        Some(if characterized {
            EnergyModel::characterized(style)
        } else {
            EnergyModel::builtin(style)
        })
    }

    /// A human-readable label; built-in models keep the style's historical
    /// label exactly.
    pub fn label(&self) -> String {
        match self.source {
            EnergySource::Builtin => self.style.label().to_string(),
            EnergySource::Characterized => {
                format!("{}, transient-characterized", self.style.label())
            }
        }
    }
}

impl From<LeakageModel> for EnergyModel {
    fn from(style: LeakageModel) -> Self {
        EnergyModel::builtin(style)
    }
}

/// Number of bit-packed input events an energy row holds (2^max inputs).
const EVENT_SLOTS: usize = 1 << dpl_core::MAX_GATE_INPUTS;

/// Per-cell energies, padded cyclically to the 16 possible bit-packed
/// input events so lookups never branch on the gate's arity.
#[derive(Debug, Clone, Copy)]
struct GateEnergies {
    events: [f64; EVENT_SLOTS],
    /// Number of distinct input events (2^arity).
    distinct: usize,
}

impl GateEnergies {
    fn from_events(per_event: &[f64]) -> Self {
        let mut events = [0.0; EVENT_SLOTS];
        for (i, e) in events.iter_mut().enumerate() {
            *e = per_event[i % per_event.len()];
        }
        GateEnergies {
            events,
            distinct: per_event.len().min(EVENT_SLOTS),
        }
    }
}

/// FNV-1a 64-bit hash (local copy; the digest must not depend on higher
/// layers).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A digest of the capacitance model's parameters, used as part of the
/// characterisation cache key.
fn capacitance_digest(capacitance: &CapacitanceModel) -> u64 {
    let mut bytes = Vec::with_capacity(40);
    for value in [
        capacitance.vdd,
        capacitance.wire,
        capacitance.junction_per_width,
        capacitance.output_node_extra,
        capacitance.gate_output_load,
    ] {
        bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The built-in (analytic) per-event energies of one library cell under a
/// style.
fn builtin_kind_energies(
    style: LeakageModel,
    kind: GateKind,
    capacitance: &CapacitanceModel,
) -> Result<Vec<f64>> {
    let (expr, ns) = kind.expression();
    match style.dpdn(&expr, &ns) {
        None => {
            // Hamming weight: energy = C_out * Vdd^2 when the output is 1.
            let e1 = capacitance.energy(capacitance.gate_output_load);
            Ok((0..(1u64 << ns.len()))
                .map(|assignment| if expr.eval_bits(assignment) { e1 } else { 0.0 })
                .collect())
        }
        Some(dpdn) => {
            let dpdn = dpdn.map_err(dpl_cells::CellError::from)?;
            let profile = DischargeProfile::analyze(&dpdn, capacitance)?;
            Ok(profile.energies())
        }
    }
}

/// The **transient-characterized** per-event energies of one library cell
/// under a style: the cell's DPDN is assembled into a full SABL gate and
/// every input event is simulated (`dpl_cells::characterize_events`),
/// uncached.  The Hamming-weight style has no differential cell and falls
/// back to its built-in constants.
///
/// This is the raw measurement behind [`GateEnergyTable::characterized`];
/// use the table constructors (which cache per process) unless you need
/// the bare numbers, e.g. to time or display a characterisation run.
///
/// # Errors
///
/// Returns an error if DPDN synthesis or a transient simulation fails.
pub fn characterize_kind_energies(
    style: LeakageModel,
    kind: GateKind,
    capacitance: &CapacitanceModel,
) -> Result<Vec<f64>> {
    let (expr, ns) = kind.expression();
    match style.dpdn(&expr, &ns) {
        None => builtin_kind_energies(style, kind, capacitance),
        Some(dpdn) => {
            let dpdn = dpdn.map_err(dpl_cells::CellError::from)?;
            let cell = SablCell::new(&dpdn, capacitance);
            let opts = EventOptions {
                vdd: capacitance.vdd,
                ..EventOptions::default()
            };
            Ok(characterize_events(cell.circuit(), cell.pins(), &opts)?)
        }
    }
}

type CharacKey = (LeakageModel, GateKind, u64);

/// Process-wide characterisation cache: each (style, cell, capacitance) is
/// transient-simulated at most once per process.
fn characterized_row_cached(
    style: LeakageModel,
    kind: GateKind,
    capacitance: &CapacitanceModel,
) -> Result<GateEnergies> {
    static CACHE: OnceLock<Mutex<HashMap<CharacKey, GateEnergies>>> = OnceLock::new();
    let key = (style, kind, capacitance_digest(capacitance));
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(row) = cache.lock().expect("characterisation cache").get(&key) {
        return Ok(*row);
    }
    // Simulate outside the lock: characterisation takes milliseconds and
    // concurrent requests for different cells should not serialize.
    let row = GateEnergies::from_events(&characterize_kind_energies(style, kind, capacitance)?);
    cache
        .lock()
        .expect("characterisation cache")
        .insert(key, row);
    Ok(row)
}

/// The per-cell, per-input-event energy lookup table.
///
/// Energies are stored in a fixed-size array indexed by gate kind
/// ([`GateOp::index`]) × bit-packed input event — the lookup sits on the
/// per-gate hot path of every trace.  Every table carries a row for every
/// [`GateKind`] of the standard library; a characterized table overrides
/// the rows of the cells it characterized and keeps the built-in constants
/// as fallback for the rest.
#[derive(Debug, Clone)]
pub struct GateEnergyTable {
    energies: [GateEnergies; GateKind::COUNT],
    model: EnergyModel,
    output_energy: f64,
}

impl GateEnergyTable {
    /// Builds the table for an energy model under a capacitance model: the
    /// built-in constants for [`EnergySource::Builtin`], full-library
    /// transient characterisation for [`EnergySource::Characterized`]
    /// (cached — each cell is simulated once per process).
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying cell analysis or simulation
    /// fails.
    pub fn build(model: impl Into<EnergyModel>, capacitance: &CapacitanceModel) -> Result<Self> {
        let model = model.into();
        match model.source {
            EnergySource::Builtin => Self::builtin(model.style, capacitance),
            EnergySource::Characterized => {
                Self::characterized(model.style, capacitance, GateKind::all())
            }
        }
    }

    /// The built-in (analytic constants) table of a style.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying cell analysis fails.
    pub fn builtin(style: LeakageModel, capacitance: &CapacitanceModel) -> Result<Self> {
        let mut energies = [GateEnergies {
            events: [0.0; EVENT_SLOTS],
            distinct: 0,
        }; GateKind::COUNT];
        for &kind in GateKind::all() {
            energies[kind.index()] =
                GateEnergies::from_events(&builtin_kind_energies(style, kind, capacitance)?);
        }
        Ok(GateEnergyTable {
            energies,
            model: EnergyModel::builtin(style),
            output_energy: capacitance.energy(capacitance.gate_output_load),
        })
    }

    /// A transient-characterized table: the rows of `kinds` are derived by
    /// simulating the actual SABL cells (cached per process); every other
    /// row keeps the built-in constants as fallback.
    ///
    /// Characterizing only the cells a netlist instantiates (see
    /// [`GateNetlist::kinds_used`] and [`GateEnergyTable::for_circuit`])
    /// keeps table construction proportional to the circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if DPDN synthesis or a transient simulation fails.
    pub fn characterized(
        style: LeakageModel,
        capacitance: &CapacitanceModel,
        kinds: &[GateKind],
    ) -> Result<Self> {
        let mut table = Self::builtin(style, capacitance)?;
        for &kind in kinds {
            table.energies[kind.index()] = characterized_row_cached(style, kind, capacitance)?;
        }
        table.model = EnergyModel::characterized(style);
        Ok(table)
    }

    /// The table of `model` covering exactly the cells `netlist`
    /// instantiates: built-in models ignore the netlist (their constants
    /// cover the whole library anyway); characterized models simulate the
    /// used cells only.  Capture and attack sides that build their tables
    /// through this constructor for the same circuit get bit-identical
    /// tables — and therefore matching [`GateEnergyTable::digest`]s.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying cell analysis or simulation
    /// fails.
    pub fn for_circuit(
        model: impl Into<EnergyModel>,
        capacitance: &CapacitanceModel,
        netlist: &GateNetlist,
    ) -> Result<Self> {
        let model = model.into();
        match model.source {
            EnergySource::Builtin => Self::builtin(model.style, capacitance),
            EnergySource::Characterized => {
                Self::characterized(model.style, capacitance, &netlist.kinds_used())
            }
        }
    }

    /// The energy model this table was built for.
    pub fn model(&self) -> EnergyModel {
        self.model
    }

    /// Energy of one evaluation of `op` with the given bit-packed gate input
    /// assignment.
    pub fn energy(&self, op: GateOp, assignment: u64) -> f64 {
        self.energies[op.index()].events[(assignment as usize) & (EVENT_SLOTS - 1)]
    }

    /// The energies of all 16 bit-packed input events of `op` (the row the
    /// bitsliced evaluator folds over; narrower gates' events repeat
    /// cyclically).
    pub fn event_energies(&self, op: GateOp) -> [f64; EVENT_SLOTS] {
        self.energies[op.index()].events
    }

    /// The per-gate energy spread (max - min) across input events, useful to
    /// sanity check how leaky a single gate is.
    pub fn gate_energy_spread(&self, op: GateOp) -> f64 {
        let entry = &self.energies[op.index()];
        let table = &entry.events[..entry.distinct];
        let max = table.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = table.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// The modelled output-load charging energy (used by the Hamming-weight
    /// reference).
    pub fn output_energy(&self) -> f64 {
        self.output_energy
    }

    /// A 64-bit FNV-1a digest of the table: model name, output energy and
    /// every per-kind event row, in library order.  Recorded in trace
    /// archives so an attack run can verify it rebuilt the exact energy
    /// model the capture simulated.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 + GateKind::COUNT * (2 + EVENT_SLOTS * 8));
        bytes.extend_from_slice(self.model.name().as_bytes());
        bytes.push(0xFF);
        bytes.extend_from_slice(&self.output_energy.to_bits().to_le_bytes());
        for &kind in GateKind::all() {
            let row = &self.energies[kind.index()];
            bytes.push(kind.index() as u8);
            bytes.push(row.distinct as u8);
            for e in &row.events {
                bytes.extend_from_slice(&e.to_bits().to_le_bytes());
            }
        }
        fnv1a64(&bytes)
    }
}

/// Options for trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageOptions {
    /// Standard deviation of the Gaussian measurement noise, as a fraction
    /// of the mean trace energy (0.0 = noise free).
    pub relative_noise: f64,
    /// Seed of the noise and plaintext generator.
    pub seed: u64,
}

impl Default for LeakageOptions {
    fn default() -> Self {
        LeakageOptions {
            relative_noise: 0.01,
            seed: 1,
        }
    }
}

/// Simulates `num_traces` power measurements of the netlist with a fixed
/// 4-bit `key` and random plaintexts, under the given energy model (any
/// `impl Into<EnergyModel>` — a bare [`LeakageModel`] selects the built-in
/// constants).
///
/// Each trace has a single sample: the total energy of evaluating the whole
/// netlist for that plaintext (plus optional Gaussian noise).  The plaintext
/// of each trace is recorded in the returned [`TraceSet`].
///
/// The 16 noise-free per-plaintext energies are evaluated once (bitsliced)
/// and reused for every trace, and the RNG draw order per trace is part of
/// the function's contract: a given seed reproduces the exact historical
/// trace stream.  Generation runs on the calling thread plus one Box–Muller
/// helper thread (see [`simulate_traces_into`]); [`simulate_traces_parallel`]
/// spreads a different, per-block stream over more workers.
///
/// # Errors
///
/// Returns an error if the gate energy table cannot be built.
pub fn simulate_traces(
    netlist: &GateNetlist,
    model: impl Into<EnergyModel>,
    capacitance: &CapacitanceModel,
    key: u8,
    num_traces: usize,
    options: &LeakageOptions,
) -> Result<TraceSet> {
    let table = GateEnergyTable::for_circuit(model, capacitance, netlist)?;
    Ok(simulate_traces_with_table(
        netlist, &table, key, num_traces, options,
    ))
}

/// [`simulate_traces`] with a caller-provided (possibly shared) energy
/// table, skipping the per-call table construction.
pub fn simulate_traces_with_table(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    num_traces: usize,
    options: &LeakageOptions,
) -> TraceSet {
    let mut set = TraceSet::with_capacity(1, num_traces);
    match simulate_traces_into(netlist, table, key, num_traces, options, &mut set) {
        Ok(()) => set,
        Err(infallible) => match infallible {},
    }
}

/// Sink variant of [`simulate_traces_with_table`]: every generated trace is
/// streamed straight into `sink` (an in-memory [`TraceSet`] or an on-disk
/// archive writer from `dpl-store`) instead of materializing a set — the
/// capture path for campaigns larger than memory.
///
/// The RNG draw order is identical to [`simulate_traces_with_table`]: for a
/// given seed, sinking into a `TraceSet` reproduces its output exactly.
///
/// Generation runs on two threads without changing the stream: the calling
/// thread draws every plaintext and noise uniform in trace order and
/// records the finished traces into `sink` (which never leaves it), while
/// one scoped helper thread applies the Box–Muller transform to blocks of
/// 1024 traces, at most three of them in flight.
///
/// # Errors
///
/// Propagates the sink's error (e.g. an I/O failure) as soon as it occurs;
/// trace generation itself cannot fail.
pub fn simulate_traces_into<S: TraceSink>(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    num_traces: usize,
    options: &LeakageOptions,
    sink: &mut S,
) -> std::result::Result<(), S::Error> {
    let (energies, mean_energy) = per_plaintext_energies(netlist, table, key);
    let noise_sigma = options.relative_noise * mean_energy;
    simulate_stream_into(
        &energies,
        noise_sigma,
        options.seed,
        num_traces,
        |rng, _| rng.gen_range(0..16u64),
        sink,
    )
}

/// [`simulate_traces_into`] with telemetry: the campaign runs inside a
/// `crypto.simulate_traces` span (annotated with the trace count), and
/// the trace count and generation
/// throughput are recorded into `obs`.  The trace stream itself is
/// byte-identical to the unobserved variant.
///
/// # Errors
///
/// Exactly those of [`simulate_traces_into`].
pub fn simulate_traces_into_observed<S: TraceSink>(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    num_traces: usize,
    options: &LeakageOptions,
    sink: &mut S,
    obs: &dpl_obs::Obs,
) -> std::result::Result<(), S::Error> {
    let span = obs.span("crypto.simulate_traces");
    span.arg("traces", num_traces as u64);
    simulate_traces_into(netlist, table, key, num_traces, options, sink)?;
    obs.counter_add(dpl_obs::names::CRYPTO_TRACES_GENERATED, num_traces as u64);
    let elapsed = span.finish();
    if let Some(rate) = dpl_obs::rate_per_sec(num_traces as u64, elapsed) {
        obs.gauge_max(dpl_obs::names::CRYPTO_TRACES_PER_SEC, rate);
    }
    Ok(())
}

/// Generates an **interleaved fixed-vs-random TVLA campaign** straight into
/// `sink`: traces at even global indices process the `fixed_plaintext`
/// nibble, traces at odd indices a uniformly random one — the standard
/// paired capture discipline of the Goodwill et al. leakage-assessment
/// methodology, with the group of every trace derivable from its index
/// parity alone (no group column needed in an archive).
///
/// The RNG-stream discipline matches the attack generators: one `StdRng`
/// seeded from `options.seed`, advanced in trace order.  A **fixed** trace
/// consumes only the noise draws; a **random** trace draws its plaintext
/// first, exactly like [`simulate_traces_into`]'s per-trace order.  For a
/// given seed the stream — and therefore the campaign — is reproducible
/// bit-for-bit, whether sunk into a [`TraceSet`] or an archive writer.  It
/// runs on the calling thread plus one Box–Muller helper, like
/// [`simulate_traces_into`].
///
/// # Errors
///
/// Propagates the sink's error (e.g. an I/O failure) as soon as it occurs;
/// trace generation itself cannot fail.
pub fn simulate_tvla_traces_into<S: TraceSink>(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    fixed_plaintext: u64,
    num_traces: usize,
    options: &LeakageOptions,
    sink: &mut S,
) -> std::result::Result<(), S::Error> {
    let (energies, mean_energy) = per_plaintext_energies(netlist, table, key);
    let noise_sigma = options.relative_noise * mean_energy;
    simulate_stream_into(
        &energies,
        noise_sigma,
        options.seed,
        num_traces,
        |rng, index| tvla_plaintext(rng, index as u64, fixed_plaintext),
        sink,
    )
}

/// [`simulate_tvla_traces_into`] with telemetry: the campaign runs inside a
/// `crypto.simulate_tvla_traces` span (annotated with the trace count),
/// and the trace count and generation
/// throughput are recorded into `obs`.  The trace stream itself is
/// byte-identical to the unobserved variant.
///
/// # Errors
///
/// Exactly those of [`simulate_tvla_traces_into`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_tvla_traces_into_observed<S: TraceSink>(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    fixed_plaintext: u64,
    num_traces: usize,
    options: &LeakageOptions,
    sink: &mut S,
    obs: &dpl_obs::Obs,
) -> std::result::Result<(), S::Error> {
    let span = obs.span("crypto.simulate_tvla_traces");
    span.arg("traces", num_traces as u64);
    simulate_tvla_traces_into(
        netlist,
        table,
        key,
        fixed_plaintext,
        num_traces,
        options,
        sink,
    )?;
    obs.counter_add(dpl_obs::names::CRYPTO_TRACES_GENERATED, num_traces as u64);
    let elapsed = span.finish();
    if let Some(rate) = dpl_obs::rate_per_sec(num_traces as u64, elapsed) {
        obs.gauge_max(dpl_obs::names::CRYPTO_TRACES_PER_SEC, rate);
    }
    Ok(())
}

/// In-memory convenience wrapper around [`simulate_tvla_traces_into`].
pub fn simulate_tvla_traces(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    fixed_plaintext: u64,
    num_traces: usize,
    options: &LeakageOptions,
) -> TraceSet {
    let mut set = TraceSet::with_capacity(1, num_traces);
    let result = simulate_tvla_traces_into(
        netlist,
        table,
        key,
        fixed_plaintext,
        num_traces,
        options,
        &mut set,
    );
    match result {
        Ok(()) => set,
        Err(infallible) => match infallible {},
    }
}

/// Trace-block size of the parallel generator.  Every block draws from its
/// own RNG stream derived from `(seed, block index)`, so the generated set
/// depends only on the seed — never on the worker count.  The sequential
/// generators hand their single stream to the noise helper in blocks of
/// the same size.
const TRACE_BLOCK: usize = 1024;

/// Below this trace count [`simulate_traces_parallel`] generates inline
/// instead of spawning worker threads: at small scales thread startup
/// dominates the work and the sequential block walk is strictly faster.
/// The output is identical either way — every trace depends only on
/// `(seed, block index)`, never on how blocks land on workers.
pub const MIN_PARALLEL_TRACES: usize = 16384;

/// Streams the traces with **global indices** `start..start + count` into
/// `sink`, drawing from the per-block RNG streams of
/// [`simulate_traces_parallel`] (`TRACE_BLOCK`-sized blocks seeded from
/// `(options.seed, block index)`).
///
/// Every trace's draws depend only on its global index and the seed, so
/// concatenating the outputs over any partition of `0..n` into contiguous
/// ranges reproduces the `n`-trace [`simulate_traces_parallel`] stream
/// exactly.  That is the property sharded campaign capture is built on:
/// each shard generates its own trace range, and the shards together are
/// bit-identical to one unsharded capture.
///
/// # Errors
///
/// Propagates the sink's error (e.g. an I/O failure); trace generation
/// itself cannot fail.
pub fn simulate_trace_range_into<S: TraceSink>(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    start: u64,
    count: u64,
    options: &LeakageOptions,
    sink: &mut S,
) -> std::result::Result<(), S::Error> {
    let (energies, mean_energy) = per_plaintext_energies(netlist, table, key);
    let noise_sigma = options.relative_noise * mean_energy;
    let block_len = TRACE_BLOCK as u64;
    let end = start + count;
    let mut index = start;
    while index < end {
        let block = index / block_len;
        let block_base = block * block_len;
        let block_end = (block_base + block_len).min(end);
        let mut rng = StdRng::seed_from_u64(block_seed(options.seed, block as usize));
        // Replay (and discard) the draws of earlier traces in the block so
        // a mid-block range start stays aligned on the block's stream.
        for _ in block_base..index {
            let _ = draw_trace(&mut rng, &energies, noise_sigma);
        }
        while index < block_end {
            let (plaintext, energy) = draw_trace(&mut rng, &energies, noise_sigma);
            sink.record(plaintext, &[energy])?;
            index += 1;
        }
    }
    Ok(())
}

/// The TVLA counterpart of [`simulate_trace_range_into`]: streams the
/// interleaved fixed-vs-random traces with global indices
/// `start..start + count`, drawing from per-block RNG streams.  Group
/// membership is decided by **global** index parity (even = fixed), exactly
/// like [`simulate_tvla_traces_into`], so any contiguous partition of
/// `0..n` concatenates to the same campaign and the TVLA evaluators'
/// partition function classifies it identically however it was sharded.
///
/// Like the parallel attack generator, a given seed produces a different
/// (equally valid) stream than the sequential single-stream
/// [`simulate_tvla_traces_into`].
///
/// # Errors
///
/// Propagates the sink's error; trace generation itself cannot fail.
#[allow(clippy::too_many_arguments)]
pub fn simulate_tvla_trace_range_into<S: TraceSink>(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
    fixed_plaintext: u64,
    start: u64,
    count: u64,
    options: &LeakageOptions,
    sink: &mut S,
) -> std::result::Result<(), S::Error> {
    let (energies, mean_energy) = per_plaintext_energies(netlist, table, key);
    let noise_sigma = options.relative_noise * mean_energy;
    let block_len = TRACE_BLOCK as u64;
    let end = start + count;
    let mut index = start;
    while index < end {
        let block = index / block_len;
        let block_base = block * block_len;
        let block_end = (block_base + block_len).min(end);
        let mut rng = StdRng::seed_from_u64(block_seed(options.seed, block as usize));
        for skipped in block_base..index {
            let _ = draw_tvla_trace(&mut rng, skipped, fixed_plaintext, &energies, noise_sigma);
        }
        while index < block_end {
            let (plaintext, energy) =
                draw_tvla_trace(&mut rng, index, fixed_plaintext, &energies, noise_sigma);
            sink.record(plaintext, &[energy])?;
            index += 1;
        }
    }
    Ok(())
}

/// One TVLA trace draw at a global index: the fixed plaintext on even
/// indices (noise draws only), a random nibble on odd ones — the per-trace
/// draw discipline of [`simulate_tvla_traces_into`], applied to a block
/// stream.
fn draw_tvla_trace(
    rng: &mut StdRng,
    index: u64,
    fixed_plaintext: u64,
    energies: &[f64; 16],
    noise_sigma: f64,
) -> (u64, f64) {
    let plaintext = tvla_plaintext(rng, index, fixed_plaintext);
    let noise = box_muller(draw_uniforms(rng, noise_sigma), noise_sigma);
    (plaintext, energies[plaintext as usize] + noise)
}

/// The plaintext of the TVLA trace at a global index: the fixed nibble on
/// even indices (drawing nothing), a random one on odd indices.
fn tvla_plaintext(rng: &mut StdRng, index: u64, fixed_plaintext: u64) -> u64 {
    if index.is_multiple_of(2) {
        fixed_plaintext & 0xF
    } else {
        rng.gen_range(0..16u64)
    }
}

/// One block of the parallel generator's output: the block index plus the
/// input and value slices it fills.
type TraceBlock<'a> = (usize, &'a mut [u64], &'a mut [f64]);

/// Multi-threaded [`simulate_traces`]: trace generation is sharded into
/// `TRACE_BLOCK`(1024)-sized blocks distributed over `workers` scoped threads
/// (defaults to the available parallelism, capped at 8).
///
/// Each block seeds its own deterministic RNG stream from
/// `(options.seed, block index)`, so for a fixed seed the output is
/// **identical for any worker count** — but it is a different (equally
/// valid) stream than the sequential [`simulate_traces`] draws.  Runs
/// below [`MIN_PARALLEL_TRACES`] walk the same block streams inline
/// (thread startup would dominate) and produce the identical set.
///
/// # Errors
///
/// Returns an error if the gate energy table cannot be built.
pub fn simulate_traces_parallel(
    netlist: &GateNetlist,
    model: impl Into<EnergyModel>,
    capacitance: &CapacitanceModel,
    key: u8,
    num_traces: usize,
    options: &LeakageOptions,
    workers: Option<usize>,
) -> Result<TraceSet> {
    let table = GateEnergyTable::for_circuit(model, capacitance, netlist)?;
    let (energies, mean_energy) = per_plaintext_energies(netlist, &table, key);
    let noise_sigma = options.relative_noise * mean_energy;
    let seed = options.seed;

    let mut inputs = vec![0u64; num_traces];
    let mut values = vec![0.0f64; num_traces];
    let blocks: Vec<TraceBlock> = inputs
        .chunks_mut(TRACE_BLOCK)
        .zip(values.chunks_mut(TRACE_BLOCK))
        .enumerate()
        .map(|(index, (inputs, values))| (index, inputs, values))
        .collect();
    let workers = workers
        .unwrap_or_else(default_worker_count)
        .clamp(1, blocks.len().max(1));

    if workers == 1 || num_traces < MIN_PARALLEL_TRACES {
        for (index, inputs, values) in blocks {
            fill_block(seed, index, inputs, values, &energies, noise_sigma);
        }
        return Ok(TraceSet::from_scalars(inputs, values));
    }

    // Deal the blocks round-robin onto the workers before spawning: no
    // locks, and the block -> stream mapping stays worker-count independent.
    let mut lots: Vec<Vec<TraceBlock>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, block) in blocks.into_iter().enumerate() {
        lots[i % workers].push(block);
    }
    std::thread::scope(|scope| {
        for lot in lots {
            scope.spawn(move || {
                for (index, inputs, values) in lot {
                    fill_block(seed, index, inputs, values, &energies, noise_sigma);
                }
            });
        }
    });
    Ok(TraceSet::from_scalars(inputs, values))
}

/// Fills one `TRACE_BLOCK`-sized block from its own RNG stream — the unit
/// of work shared by the inline and threaded paths of
/// [`simulate_traces_parallel`] and replayed by
/// [`simulate_trace_range_into`].
fn fill_block(
    seed: u64,
    index: usize,
    inputs: &mut [u64],
    values: &mut [f64],
    energies: &[f64; 16],
    noise_sigma: f64,
) {
    let mut rng = StdRng::seed_from_u64(block_seed(seed, index));
    for (input, value) in inputs.iter_mut().zip(values) {
        let (plaintext, energy) = draw_trace(&mut rng, energies, noise_sigma);
        *input = plaintext;
        *value = energy;
    }
}

fn default_worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// SplitMix64 finalizer over `(seed, block)`: decorrelates the per-block
/// streams however blocks land on workers.
fn block_seed(seed: u64, block: usize) -> u64 {
    let mut z = seed ^ (block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One trace draw: uniform plaintext nibble plus optional Box-Muller
/// Gaussian noise.  The draw order is shared by the sequential and parallel
/// generators.
fn draw_trace(rng: &mut StdRng, energies: &[f64; 16], noise_sigma: f64) -> (u64, f64) {
    let plaintext = rng.gen_range(0..16u64);
    let noise = box_muller(draw_uniforms(rng, noise_sigma), noise_sigma);
    (plaintext, energies[plaintext as usize] + noise)
}

/// The two uniforms of one Box-Muller noise draw.  Draws nothing when the
/// sigma is not positive, so the noise-free RNG stream is unchanged; the
/// pair returned then is one [`box_muller`] ignores.
fn draw_uniforms(rng: &mut StdRng, noise_sigma: f64) -> [f64; 2] {
    if noise_sigma <= 0.0 {
        return [1.0, 0.0];
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    [u1, u2]
}

/// The Box-Muller transform of [`draw_uniforms`]' pair: one Gaussian noise
/// sample scaled to `noise_sigma`, exactly `0.0` when the sigma is not
/// positive.  A pure function, so it may run on any thread.
fn box_muller([u1, u2]: [f64; 2], noise_sigma: f64) -> f64 {
    if noise_sigma <= 0.0 {
        return 0.0;
    }
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * noise_sigma
}

/// Blocks the sequential generators keep in flight: the calling thread
/// draws or records one while the noise helper transforms the next and a
/// third waits between them.
const BLOCKS_IN_FLIGHT: usize = 3;

/// Stack size of the noise helper thread, which only runs
/// [`NoiseBlock::transform`] and the hand-off around it.
const NOISE_HELPER_STACK: usize = 64 * 1024;

/// How many times a side of the sequential pipeline polls before it parks.
/// A block takes tens of microseconds, about what waking a parked thread
/// can cost, so a short spin keeps both threads busy.
const SPINS_BEFORE_PARKING: usize = 1 << 14;

/// One block of the sequential stream between its draw and its record: the
/// drawn plaintexts and noise uniforms, and the trace energies the helper
/// computes from them.  The energies get their own vector: writing them
/// over the uniforms measured slower.
struct NoiseBlock {
    /// Plaintext nibbles, which a `u8` holds exactly; it keeps the block,
    /// most of the memory the pipeline adds, small.
    plaintexts: Vec<u8>,
    uniforms: Vec<[f64; 2]>,
    energies: Vec<f64>,
}

impl NoiseBlock {
    fn new(len: usize) -> Self {
        NoiseBlock {
            plaintexts: Vec::with_capacity(len),
            uniforms: Vec::with_capacity(len),
            energies: vec![0.0; len],
        }
    }

    /// Computes every drawn trace's energy in place; allocates nothing.
    fn transform(&mut self, energies: &[f64; 16], noise_sigma: f64) {
        let drawn = self.plaintexts.iter().zip(&self.uniforms);
        for (energy, (&plaintext, &uniforms)) in self.energies.iter_mut().zip(drawn) {
            *energy = energies[usize::from(plaintext)] + box_muller(uniforms, noise_sigma);
        }
    }
}

/// The state the calling thread and the noise helper share.  Block `b`
/// lives in slot `b % BLOCKS_IN_FLIGHT`, and the two block counters say
/// which side may touch it, so each slot's lock is only ever taken
/// uncontended.  A side stores a counter with `Release` after it unlocks
/// the slot, and the other loads it with `Acquire` before it locks that
/// slot.
struct Handoff {
    slots: [Mutex<NoiseBlock>; BLOCKS_IN_FLIGHT],
    /// Blocks the calling thread has drawn.
    drawn: AtomicUsize,
    /// Blocks the helper has transformed.
    transformed: AtomicUsize,
    /// Set when either side leaves (finished, failed or panicked).
    closed: AtomicBool,
    /// How many threads are parked on `changed`.
    parked: Mutex<usize>,
    changed: Condvar,
}

impl Handoff {
    fn slot(&self, block: usize) -> MutexGuard<'_, NoiseBlock> {
        self.slots[block % BLOCKS_IN_FLIGHT]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn parked(&self) -> MutexGuard<'_, usize> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets `counter` to `blocks` and wakes a parked side.
    fn publish(&self, counter: &AtomicUsize, blocks: usize) {
        counter.store(blocks, Ordering::Release);
        self.wake();
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake();
    }

    fn wake(&self) {
        // Taking the lock orders this change before a parking side's
        // final check, so no wake-up is lost.
        if *self.parked() > 0 {
            self.changed.notify_all();
        }
    }

    /// Waits until `counter` reaches `blocks` or the pipeline closes;
    /// returns `false` if it closed, which tells either side that the
    /// other has left.
    fn wait(&self, counter: &AtomicUsize, blocks: usize) -> bool {
        let done =
            || counter.load(Ordering::Acquire) >= blocks || self.closed.load(Ordering::Acquire);
        let open = || !self.closed.load(Ordering::Acquire);
        for _ in 0..SPINS_BEFORE_PARKING {
            if done() {
                return open();
            }
            std::hint::spin_loop();
        }
        let mut parked = self.parked();
        *parked += 1;
        while !done() {
            parked = self
                .changed
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *parked -= 1;
        open()
    }

    /// The helper's loop: transforms each drawn block in order until the
    /// pipeline closes.
    fn transform_blocks(&self, energies: &[f64; 16], noise_sigma: f64) {
        let _close = CloseOnDrop(self);
        for block in 0.. {
            if !self.wait(&self.drawn, block + 1) {
                return;
            }
            self.slot(block).transform(energies, noise_sigma);
            self.publish(&self.transformed, block + 1);
        }
    }
}

/// Closes the pipeline when either side leaves it, by any path, so the
/// other side never waits on it forever.
struct CloseOnDrop<'a>(&'a Handoff);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The sequential single-stream generator behind [`simulate_traces_into`]
/// and [`simulate_tvla_traces_into`]: one `StdRng` seeded from `seed` draws
/// each trace's plaintext (`plaintext(rng, index)`) and then its noise
/// uniforms, in trace order, on the calling thread.  One scoped helper
/// turns each `TRACE_BLOCK` of draws into energies while the caller draws
/// ahead and records finished blocks into `sink` in trace order.
fn simulate_stream_into<S: TraceSink>(
    energies: &[f64; 16],
    noise_sigma: f64,
    seed: u64,
    num_traces: usize,
    mut plaintext: impl FnMut(&mut StdRng, usize) -> u64,
    sink: &mut S,
) -> std::result::Result<(), S::Error> {
    let block_len = num_traces.min(TRACE_BLOCK);
    let handoff = Handoff {
        slots: std::array::from_fn(|_| Mutex::new(NoiseBlock::new(block_len))),
        drawn: AtomicUsize::new(0),
        transformed: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        parked: Mutex::new(0),
        changed: Condvar::new(),
    };
    let blocks = num_traces.div_ceil(TRACE_BLOCK);
    let mut rng = StdRng::seed_from_u64(seed);
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("dpl-noise".into())
            .stack_size(NOISE_HELPER_STACK)
            .spawn_scoped(scope, || handoff.transform_blocks(energies, noise_sigma))
            .expect("failed to spawn the noise helper thread");
        let _close = CloseOnDrop(&handoff);
        let mut drawn = 0;
        for block in 0..blocks {
            // Keep the helper fed: draw ahead into every slot already
            // recorded.
            while drawn < blocks && drawn < block + BLOCKS_IN_FLIGHT {
                let start = drawn * TRACE_BLOCK;
                let mut slot = handoff.slot(drawn);
                slot.plaintexts.clear();
                slot.uniforms.clear();
                for index in start..(start + TRACE_BLOCK).min(num_traces) {
                    slot.plaintexts.push(plaintext(&mut rng, index) as u8);
                    slot.uniforms.push(draw_uniforms(&mut rng, noise_sigma));
                }
                drop(slot);
                drawn += 1;
                handoff.publish(&handoff.drawn, drawn);
            }
            assert!(
                handoff.wait(&handoff.transformed, block + 1),
                "the noise helper thread stopped"
            );
            let slot = handoff.slot(block);
            for (&input, &energy) in slot.plaintexts.iter().zip(&slot.energies) {
                sink.record(u64::from(input), &[energy])?;
            }
        }
        Ok(())
    })
}

/// The 16 noise-free per-plaintext energies for a fixed key (one bitsliced
/// evaluation) and their mean — the quantities every trace of a run shares.
fn per_plaintext_energies(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    key: u8,
) -> ([f64; 16], f64) {
    let vectors: Vec<u64> = (0..16u64)
        .map(|plaintext| plaintext | ((key as u64 & 0xF) << 4))
        .collect();
    let batch = batch_total_energy(netlist, table, &vectors);
    let mut energies = [0.0; 16];
    energies.copy_from_slice(&batch);
    let mut mean_energy = 0.0;
    for &e in &energies {
        mean_energy += e;
    }
    mean_energy /= 16.0;
    (energies, mean_energy)
}

/// Noise-free predicted energy of one evaluation of the netlist with the
/// given plaintext and key hypothesis — the hypothesis function of a
/// profiled CPA attacker who knows the gate-level energy table.
///
/// For repeated hypotheses over the whole 4-bit plaintext/key space, build
/// an [`EnergyCache`] once instead.
pub fn predicted_energy(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    plaintext: u64,
    key: u8,
) -> f64 {
    total_energy(netlist, table, plaintext, key)
}

/// Batch counterpart of [`predicted_energy`]: evaluates the netlist
/// bitsliced, 64 plaintexts per word operation.
pub fn predicted_energies(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    plaintexts: &[u64],
    key: u8,
) -> Vec<f64> {
    let mut energies = Vec::with_capacity(plaintexts.len());
    for chunk in plaintexts.chunks(64) {
        let vectors: Vec<u64> = chunk
            .iter()
            .map(|&plaintext| (plaintext & 0xF) | ((key as u64 & 0xF) << 4))
            .collect();
        energies.extend_from_slice(&batch_total_energy(netlist, table, &vectors));
    }
    energies
}

/// Noise-free total evaluation energies of **arbitrary full input
/// vectors** — the general-circuit counterpart of [`predicted_energies`],
/// for netlists whose inputs are wider than the 4+4-bit nibble datapath
/// (e.g. the multi-round PRESENT netlist of
/// [`crate::synthesize_present_rounds`]).  Evaluates bitsliced, 64 vectors
/// per word operation; each result is bit-identical to summing
/// [`GateEnergyTable::energy`] over [`GateNetlist::gate_assignments`] for
/// that vector.
pub fn circuit_energies(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    vectors: &[u64],
) -> Vec<f64> {
    let mut energies = Vec::with_capacity(vectors.len());
    for chunk in vectors.chunks(64) {
        energies.extend_from_slice(&batch_total_energy(netlist, table, chunk));
    }
    energies
}

/// Memoized noise-free energies of the 4-bit datapath: one entry per
/// `(plaintext, key)` nibble pair, filled by four bitsliced netlist
/// evaluations.
///
/// This is the profiled CPA attacker's entire hypothesis space — 256 values
/// — so computing a hypothesis for every trace collapses to an array lookup.
#[derive(Debug, Clone)]
pub struct EnergyCache {
    model: EnergyModel,
    energies: [[f64; 16]; 16],
}

impl EnergyCache {
    /// Precomputes all 256 `(plaintext, key)` energies for the netlist under
    /// the given energy table.
    pub fn new(netlist: &GateNetlist, table: &GateEnergyTable) -> Self {
        let mut energies = [[0.0; 16]; 16];
        // 256 vectors, 64 bitsliced lanes at a time.
        for key_group in 0..4u64 {
            let vectors: Vec<u64> = (0..64u64)
                .map(|lane| {
                    let key = key_group * 4 + lane / 16;
                    let plaintext = lane % 16;
                    plaintext | (key << 4)
                })
                .collect();
            let batch = batch_total_energy(netlist, table, &vectors);
            for (lane, &energy) in batch.iter().enumerate() {
                let key = (key_group as usize) * 4 + lane / 16;
                energies[key][lane % 16] = energy;
            }
        }
        EnergyCache {
            model: table.model(),
            energies,
        }
    }

    /// The energy model the underlying table was built for.
    pub fn model(&self) -> EnergyModel {
        self.model
    }

    /// The cached energy for a plaintext/key nibble pair (upper bits are
    /// ignored, exactly like [`predicted_energy`]).
    pub fn energy(&self, plaintext: u64, key: u8) -> f64 {
        self.energies[(key & 0xF) as usize][(plaintext & 0xF) as usize]
    }

    /// All 16 per-plaintext energies of one key hypothesis.
    pub fn key_energies(&self, key: u8) -> &[f64; 16] {
        &self.energies[(key & 0xF) as usize]
    }
}

fn total_energy(netlist: &GateNetlist, table: &GateEnergyTable, plaintext: u64, key: u8) -> f64 {
    let input = (plaintext & 0xF) | ((key as u64 & 0xF) << 4);
    netlist
        .gate_assignments(input)
        .iter()
        .zip(netlist.gates())
        .map(|(&assignment, gate)| table.energy(gate.op, assignment))
        .sum()
}

/// Total energies of up to 64 full input vectors in one bitsliced netlist
/// evaluation.  Per-lane sums accumulate in gate order, so each lane is
/// bit-identical to the scalar [`total_energy`] of its vector.
fn batch_total_energy(netlist: &GateNetlist, table: &GateEnergyTable, vectors: &[u64]) -> Vec<f64> {
    let eval = netlist.evaluate_bitsliced(&netlist.pack_inputs(vectors));
    let signals = eval.signals();
    let mut energies = vec![0.0f64; vectors.len()];
    for gate in netlist.gates() {
        let row = table.event_energies(gate.op);
        if row.iter().all(|&e| e == row[0]) {
            // Constant-power gate (the whole point of the paper): one add
            // per lane, no bit extraction.
            for energy in &mut energies {
                *energy += row[0];
            }
            continue;
        }
        let arity = gate.op.arity();
        match arity {
            // The classic 1/2-input primitives dominate synthesised
            // netlists; keep their event extraction branch-free (the exact
            // additions of the generic path, so sums stay bit-identical).
            1 => {
                let a = signals[gate.inputs[0].index()];
                for (lane, energy) in energies.iter_mut().enumerate() {
                    *energy += row[((a >> lane) & 1) as usize];
                }
            }
            2 => {
                let a = signals[gate.inputs[0].index()];
                let b = signals[gate.inputs[1].index()];
                for (lane, energy) in energies.iter_mut().enumerate() {
                    let assignment = ((a >> lane) & 1) | (((b >> lane) & 1) << 1);
                    *energy += row[assignment as usize];
                }
            }
            _ => {
                let mut words = [0u64; dpl_core::MAX_GATE_INPUTS];
                for (slot, word) in words.iter_mut().enumerate().take(arity) {
                    *word = signals[gate.inputs[slot].index()];
                }
                for (lane, energy) in energies.iter_mut().enumerate() {
                    let mut assignment = 0usize;
                    for (slot, &word) in words.iter().enumerate().take(arity) {
                        assignment |= (((word >> lane) & 1) as usize) << slot;
                    }
                    *energy += row[assignment];
                }
            }
        }
    }
    energies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::present::present_sbox;
    use crate::synth::{synthesize_library_circuit, synthesize_sbox_with_key};
    use dpl_power::{cpa_attack, dpa_attack};

    fn capacitance() -> CapacitanceModel {
        CapacitanceModel::default()
    }

    #[test]
    fn energy_tables_reflect_the_styles() {
        let cap = capacitance();
        let genuine = GateEnergyTable::build(LeakageModel::GenuineSabl, &cap).unwrap();
        let fc = GateEnergyTable::build(LeakageModel::FullyConnectedSabl, &cap).unwrap();
        let hw = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).unwrap();
        // A genuine AND2 leaks (its energy varies with the inputs), a fully
        // connected AND2 does not.
        assert!(genuine.gate_energy_spread(GateOp::AND2) > 0.0);
        assert!(fc.gate_energy_spread(GateOp::AND2).abs() < 1e-24);
        assert!(hw.gate_energy_spread(GateOp::AND2) > 0.0);
        assert_eq!(
            fc.model(),
            EnergyModel::builtin(LeakageModel::FullyConnectedSabl)
        );
        assert!(hw.output_energy() > 0.0);
        assert_eq!(LeakageModel::all().len(), 4);
        assert!(LeakageModel::GenuineSabl.label().contains("genuine"));
        // The tables now cover the whole standard library, e.g. OAI22.
        let oai22 = GateOp::cell(GateKind::Oai22);
        assert!(genuine.gate_energy_spread(oai22) > 0.0);
        assert!(fc.gate_energy_spread(oai22).abs() < 1e-24);
    }

    #[test]
    fn event_energy_rows_cycle_not_events() {
        let hw = GateEnergyTable::build(LeakageModel::HammingWeight, &capacitance()).unwrap();
        let row = hw.event_energies(GateOp::NOT);
        // NOT shares the buffer cell's row, which has two events; the row
        // pads them cyclically.
        assert_eq!(row[0], row[2]);
        assert_eq!(row[1], row[3]);
        assert_eq!(hw.energy(GateOp::NOT, 0), row[0]);
        assert_eq!(hw.energy(GateOp::NOT, 1), row[1]);
        // The row is keyed by the cell's pull-down formula "A": the
        // assignment with A=1 charges the output under the Hamming-weight
        // model.
        assert_eq!(hw.energy(GateOp::NOT, 0), 0.0);
        assert!(hw.energy(GateOp::NOT, 1) > 0.0);
        for &op in GateOp::primitives() {
            assert_eq!(hw.event_energies(op)[2], hw.energy(op, 2));
        }
        // Four-input cells fill all 16 event slots distinctly.
        let oai22 = GateOp::cell(GateKind::Oai22);
        assert_eq!(hw.energy(oai22, 0b0101), hw.event_energies(oai22)[5]);
    }

    #[test]
    fn model_descriptor_names_round_trip() {
        for &style in LeakageModel::all() {
            for model in [
                EnergyModel::builtin(style),
                EnergyModel::characterized(style),
            ] {
                assert_eq!(EnergyModel::parse(&model.name()), Some(model), "{model:?}");
            }
            assert_eq!(
                EnergyModel::builtin(style).label(),
                style.label(),
                "builtin labels must stay byte-identical to the legacy enum"
            );
            assert!(EnergyModel::characterized(style).is_characterized());
            assert!(!EnergyModel::from(style).is_characterized());
        }
        assert_eq!(
            EnergyModel::parse("fully-connected-characterized"),
            Some(EnergyModel::characterized(LeakageModel::FullyConnectedSabl))
        );
        assert_eq!(
            EnergyModel::parse("hamming"),
            Some(EnergyModel::builtin(LeakageModel::HammingWeight))
        );
        assert_eq!(EnergyModel::parse("nand17"), None);
    }

    #[test]
    fn characterized_tables_override_rows_and_change_the_digest() {
        let cap = capacitance();
        let builtin = GateEnergyTable::builtin(LeakageModel::GenuineSabl, &cap).unwrap();
        let charac =
            GateEnergyTable::characterized(LeakageModel::GenuineSabl, &cap, &[GateKind::And2])
                .unwrap();
        assert!(charac.model().is_characterized());
        // The characterized AND2 row is measured, not analytic...
        assert_ne!(
            charac.event_energies(GateOp::AND2),
            builtin.event_energies(GateOp::AND2)
        );
        // ... but still leaks (genuine DPDN), and plausibly so.
        assert!(charac.gate_energy_spread(GateOp::AND2) > 0.0);
        for &e in &charac.event_energies(GateOp::AND2) {
            assert!(e > 0.0 && e < 1e-9, "implausible energy {e}");
        }
        // Uncharacterized rows keep the builtin fallback constants.
        assert_eq!(
            charac.event_energies(GateOp::XOR2),
            builtin.event_energies(GateOp::XOR2)
        );
        // Digests separate the models; identical builds agree.
        assert_ne!(charac.digest(), builtin.digest());
        let again =
            GateEnergyTable::characterized(LeakageModel::GenuineSabl, &cap, &[GateKind::And2])
                .unwrap();
        assert_eq!(charac.digest(), again.digest());
        // The characterisation cache makes the second build cheap and
        // bit-identical.
        assert_eq!(
            charac.event_energies(GateOp::AND2),
            again.event_energies(GateOp::AND2)
        );
    }

    #[test]
    fn characterized_fully_connected_cells_are_near_constant() {
        let cap = capacitance();
        let table = GateEnergyTable::characterized(
            LeakageModel::FullyConnectedSabl,
            &cap,
            &[GateKind::And2],
        )
        .unwrap();
        let row = table.event_energies(GateOp::AND2);
        let mean: f64 = row[..4].iter().sum::<f64>() / 4.0;
        for &e in &row[..4] {
            assert!(
                ((e - mean) / mean).abs() < 0.05,
                "fully connected cell should be near constant power: {row:?}"
            );
        }
        // The genuine cell's measured spread is clearly larger.
        let genuine =
            GateEnergyTable::characterized(LeakageModel::GenuineSabl, &cap, &[GateKind::And2])
                .unwrap();
        assert!(
            genuine.gate_energy_spread(GateOp::AND2) > 3.0 * table.gate_energy_spread(GateOp::AND2)
        );
    }

    #[test]
    fn hamming_weight_characterization_falls_back_to_builtin() {
        let cap = capacitance();
        let builtin = GateEnergyTable::builtin(LeakageModel::HammingWeight, &cap).unwrap();
        let charac = GateEnergyTable::build(
            EnergyModel::characterized(LeakageModel::HammingWeight),
            &cap,
        )
        .unwrap();
        for &kind in GateKind::all() {
            assert_eq!(
                charac.event_energies(GateOp::cell(kind)),
                builtin.event_energies(GateOp::cell(kind)),
                "{kind}"
            );
        }
        // Still a distinct model identity (name/digest record the source).
        assert_ne!(charac.digest(), builtin.digest());
    }

    #[test]
    fn fully_connected_traces_are_constant_without_noise() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let options = LeakageOptions {
            relative_noise: 0.0,
            seed: 7,
        };
        let traces = simulate_traces(
            &netlist,
            LeakageModel::FullyConnectedSabl,
            &capacitance(),
            0xA,
            64,
            &options,
        )
        .unwrap();
        let column = traces.sample_column(0);
        let first = column[0];
        assert!(column.iter().all(|&v| (v - first).abs() < 1e-20));
    }

    #[test]
    fn dpa_recovers_key_from_hamming_weight_leakage_but_not_from_fc() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let key = 0x9u8;
        let options = LeakageOptions {
            relative_noise: 0.0,
            seed: 42,
        };

        let selection =
            |plaintext: u64, guess: u64| present_sbox((plaintext ^ guess) as u8).count_ones() >= 2;

        let leaky = simulate_traces(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            key,
            512,
            &options,
        )
        .unwrap();
        let result = dpa_attack(&leaky, 16, selection).unwrap();
        assert_eq!(result.best_guess, key as u64, "DPA should recover the key");

        let secure = simulate_traces(
            &netlist,
            LeakageModel::FullyConnectedSabl,
            &cap,
            key,
            512,
            &options,
        )
        .unwrap();
        let result = dpa_attack(&secure, 16, selection).unwrap();
        // With perfectly constant traces every guess scores zero.
        assert!(result.scores.iter().all(|&s| s < 1e-20));
    }

    #[test]
    fn cpa_recovers_key_from_genuine_sabl_leakage() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let key = 0x4u8;
        let options = LeakageOptions {
            relative_noise: 0.0,
            seed: 3,
        };
        let traces = simulate_traces(
            &netlist,
            LeakageModel::GenuineSabl,
            &cap,
            key,
            1024,
            &options,
        )
        .unwrap();
        // Profiled CPA: the attacker models the device accurately (same gate
        // energy table) and tries every key hypothesis.
        let table = GateEnergyTable::build(LeakageModel::GenuineSabl, &cap).unwrap();
        let cache = EnergyCache::new(&netlist, &table);
        let result = cpa_attack(&traces, 16, |plaintext, guess| {
            cache.energy(plaintext, guess as u8)
        })
        .unwrap();
        assert_eq!(result.best_guess, key as u64);
        assert!(result.scores[key as usize] > 0.999);
    }

    #[test]
    fn library_circuit_runs_through_the_pipeline() {
        // A non-S-box circuit built from wide library cells evaluates,
        // simulates and attacks end to end.
        let netlist = synthesize_library_circuit(GateKind::Maj3).unwrap();
        assert!(netlist.kinds_used().contains(&GateKind::Maj3));
        let cap = capacitance();
        let key = 0xDu8;
        let options = LeakageOptions {
            relative_noise: 0.0,
            seed: 21,
        };
        let table = GateEnergyTable::builtin(LeakageModel::GenuineSabl, &cap).unwrap();
        let traces = simulate_traces_with_table(&netlist, &table, key, 1024, &options);
        let cache = EnergyCache::new(&netlist, &table);
        let result = cpa_attack(&traces, 16, |plaintext, guess| {
            cache.energy(plaintext, guess as u8)
        })
        .unwrap();
        assert_eq!(result.best_guess, u64::from(key));

        // The secure style of the same circuit does not leak.
        let fc_table = GateEnergyTable::builtin(LeakageModel::FullyConnectedSabl, &cap).unwrap();
        let secure = simulate_traces_with_table(&netlist, &fc_table, key, 1024, &options);
        let column = secure.sample_column(0);
        assert!(column.iter().all(|&v| (v - column[0]).abs() < 1e-20));
    }

    #[test]
    fn energy_cache_matches_scalar_prediction_exactly() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        for model in [LeakageModel::HammingWeight, LeakageModel::GenuineSabl] {
            let table = GateEnergyTable::build(model, &cap).unwrap();
            let cache = EnergyCache::new(&netlist, &table);
            assert_eq!(cache.model(), EnergyModel::builtin(model));
            for plaintext in 0..16u64 {
                for key in 0..16u8 {
                    let scalar = predicted_energy(&netlist, &table, plaintext, key);
                    assert_eq!(
                        cache.energy(plaintext, key),
                        scalar,
                        "{model:?} pt={plaintext:X} key={key:X}"
                    );
                    assert_eq!(cache.key_energies(key)[plaintext as usize], scalar);
                }
            }
            // The batch API agrees too, including >64-plaintext chunking.
            let plaintexts: Vec<u64> = (0..100).map(|i| i % 16).collect();
            let batch = predicted_energies(&netlist, &table, &plaintexts, 0xB);
            for (&plaintext, &energy) in plaintexts.iter().zip(&batch) {
                assert_eq!(energy, predicted_energy(&netlist, &table, plaintext, 0xB));
            }
        }
    }

    #[test]
    fn circuit_energies_match_the_scalar_walk_on_wide_circuits() {
        let netlist = synthesize_library_circuit(GateKind::Oai22).unwrap();
        let cap = capacitance();
        let table = GateEnergyTable::builtin(LeakageModel::GenuineSabl, &cap).unwrap();
        let vectors: Vec<u64> = (0..100u64).map(|i| (i * 37) % 256).collect();
        let batch = circuit_energies(&netlist, &table, &vectors);
        for (&vector, &energy) in vectors.iter().zip(&batch) {
            let scalar: f64 = netlist
                .gate_assignments(vector)
                .iter()
                .zip(netlist.gates())
                .map(|(&assignment, gate)| table.energy(gate.op, assignment))
                .sum();
            assert_eq!(energy, scalar, "vector {vector:02X}");
        }
    }

    #[test]
    fn sink_variant_reproduces_the_in_memory_stream() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let options = LeakageOptions {
            relative_noise: 0.03,
            seed: 2024,
        };
        let table = GateEnergyTable::build(LeakageModel::GenuineSabl, &cap).unwrap();
        let direct = simulate_traces_with_table(&netlist, &table, 0xE, 300, &options);
        let mut sunk = TraceSet::new();
        simulate_traces_into(&netlist, &table, 0xE, 300, &options, &mut sunk).unwrap();
        assert_eq!(direct, sunk);
    }

    /// The attack stream drawn and transformed trace by trace on one
    /// thread: the oracle [`simulate_traces_into`] must equal bit for bit.
    fn oracle_traces(
        netlist: &GateNetlist,
        table: &GateEnergyTable,
        key: u8,
        num_traces: usize,
        options: &LeakageOptions,
    ) -> TraceSet {
        let (energies, mean_energy) = per_plaintext_energies(netlist, table, key);
        let noise_sigma = options.relative_noise * mean_energy;
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut set = TraceSet::new();
        for _ in 0..num_traces {
            let (plaintext, energy) = draw_trace(&mut rng, &energies, noise_sigma);
            set.push_samples(plaintext, &[energy]);
        }
        set
    }

    /// The TVLA stream drawn and transformed trace by trace on one thread:
    /// the oracle [`simulate_tvla_traces_into`] must equal bit for bit.
    fn oracle_tvla_traces(
        netlist: &GateNetlist,
        table: &GateEnergyTable,
        key: u8,
        fixed_plaintext: u64,
        num_traces: usize,
        options: &LeakageOptions,
    ) -> TraceSet {
        let (energies, mean_energy) = per_plaintext_energies(netlist, table, key);
        let noise_sigma = options.relative_noise * mean_energy;
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut set = TraceSet::new();
        for index in 0..num_traces as u64 {
            let (plaintext, energy) =
                draw_tvla_trace(&mut rng, index, fixed_plaintext, &energies, noise_sigma);
            set.push_samples(plaintext, &[energy]);
        }
        set
    }

    #[test]
    fn sequential_generators_equal_the_per_trace_oracle() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let table = GateEnergyTable::build(LeakageModel::GenuineSabl, &capacitance()).unwrap();
        let fixed = 0x3u64;
        for relative_noise in [0.0, 0.02] {
            let options = LeakageOptions {
                relative_noise,
                seed: 2024,
            };
            // Empty, one trace, both sides of a block edge, a ragged tail
            // past the three blocks in flight, and many slot reuses.
            for n in [0, 1, 1023, 1024, 1025, 3 * 1024 + 7, 100_000] {
                let attack = simulate_traces_with_table(&netlist, &table, 0xE, n, &options);
                assert_eq!(attack.len(), n);
                assert!(
                    attack == oracle_traces(&netlist, &table, 0xE, n, &options),
                    "attack stream differs: n = {n}, noise = {relative_noise}"
                );
                let tvla = simulate_tvla_traces(&netlist, &table, 0xE, fixed, n, &options);
                assert_eq!(tvla.len(), n);
                assert!(
                    tvla == oracle_tvla_traces(&netlist, &table, 0xE, fixed, n, &options),
                    "TVLA stream differs: n = {n}, noise = {relative_noise}"
                );
            }
        }
    }

    /// Records into a set until trace `fail_at`, which it refuses.
    struct FailingSink {
        set: TraceSet,
        fail_at: usize,
    }

    impl TraceSink for FailingSink {
        type Error = usize;

        fn record(&mut self, input: u64, samples: &[f64]) -> std::result::Result<(), usize> {
            if self.set.len() == self.fail_at {
                return Err(self.fail_at);
            }
            self.set.push_samples(input, samples);
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_stops_the_sequential_generators_at_once() {
        // Runs on its own thread so that a generator which never returns
        // fails the test instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let netlist = synthesize_sbox_with_key().unwrap();
            let table = GateEnergyTable::build(LeakageModel::GenuineSabl, &capacitance()).unwrap();
            let options = LeakageOptions {
                relative_noise: 0.02,
                seed: 5,
            };
            let (n, fixed) = (8000, 0x6u64);
            for fail_at in [0, 1023, 1024, 5000] {
                let fresh = || FailingSink {
                    set: TraceSet::new(),
                    fail_at,
                };
                let mut sink = fresh();
                let result = simulate_traces_into(&netlist, &table, 0x9, n, &options, &mut sink);
                assert_eq!(result, Err(fail_at));
                assert!(
                    sink.set == oracle_traces(&netlist, &table, 0x9, fail_at, &options),
                    "attack prefix differs: fail_at = {fail_at}"
                );
                let mut sink = fresh();
                let result =
                    simulate_tvla_traces_into(&netlist, &table, 0x9, fixed, n, &options, &mut sink);
                assert_eq!(result, Err(fail_at));
                assert!(
                    sink.set == oracle_tvla_traces(&netlist, &table, 0x9, fixed, fail_at, &options),
                    "TVLA prefix differs: fail_at = {fail_at}"
                );
            }
            done.send(()).unwrap();
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("a sequential generator hung after its sink failed")
            }
        }
    }

    #[test]
    fn tvla_campaign_interleaves_fixed_and_random_groups() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let table = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).unwrap();
        let options = LeakageOptions {
            relative_noise: 0.01,
            seed: 31,
        };
        let fixed = 0x3u64;
        let set = simulate_tvla_traces(&netlist, &table, 0xA, fixed, 801, &options);
        assert_eq!(set.len(), 801);
        // Every even-index trace carries the fixed plaintext; the odd-index
        // plaintexts are random nibbles (and not all equal to the fixed one).
        let mut random_hits = 0;
        for (index, &input) in set.inputs().iter().enumerate() {
            if index % 2 == 0 {
                assert_eq!(input, fixed, "trace {index}");
            } else if input != fixed {
                random_hits += 1;
            }
            assert!(input < 16);
        }
        assert!(random_hits > 300, "random group looks degenerate");

        // The sink path reproduces the in-memory stream bit-for-bit.
        let mut sunk = TraceSet::new();
        simulate_tvla_traces_into(&netlist, &table, 0xA, fixed, 801, &options, &mut sunk).unwrap();
        assert_eq!(set, sunk);

        // Same seed, same campaign; different seed, different noise.
        let again = simulate_tvla_traces(&netlist, &table, 0xA, fixed, 801, &options);
        assert_eq!(set, again);
        let other = simulate_tvla_traces(
            &netlist,
            &table,
            0xA,
            fixed,
            801,
            &LeakageOptions {
                relative_noise: 0.01,
                seed: 32,
            },
        );
        assert_ne!(set, other);
    }

    #[test]
    fn with_table_variant_matches_simulate_traces() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let options = LeakageOptions::default();
        let table = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).unwrap();
        let a = simulate_traces(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            0x5,
            200,
            &options,
        )
        .unwrap();
        let b = simulate_traces_with_table(&netlist, &table, 0x5, 200, &options);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_generation_is_deterministic_across_worker_counts() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let options = LeakageOptions {
            relative_noise: 0.02,
            seed: 77,
        };
        // More traces than one block so several streams are in play.
        let n = 3000;
        let reference = simulate_traces_parallel(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            0xC,
            n,
            &options,
            Some(1),
        )
        .unwrap();
        for workers in [2, 3, 5] {
            let set = simulate_traces_parallel(
                &netlist,
                LeakageModel::HammingWeight,
                &cap,
                0xC,
                n,
                &options,
                Some(workers),
            )
            .unwrap();
            assert_eq!(set, reference, "workers = {workers}");
        }
        let default_workers = simulate_traces_parallel(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            0xC,
            n,
            &options,
            None,
        )
        .unwrap();
        assert_eq!(default_workers, reference);
    }

    #[test]
    fn threaded_generation_matches_the_inline_cutover_path() {
        // Above MIN_PARALLEL_TRACES the threaded path runs; its output must
        // equal the inline block walk (workers = 1 forces it).
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let options = LeakageOptions {
            relative_noise: 0.02,
            seed: 99,
        };
        let n = MIN_PARALLEL_TRACES + 100;
        let inline = simulate_traces_parallel(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            0x6,
            n,
            &options,
            Some(1),
        )
        .unwrap();
        let threaded = simulate_traces_parallel(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            0x6,
            n,
            &options,
            Some(4),
        )
        .unwrap();
        assert_eq!(inline, threaded);
    }

    #[test]
    fn trace_ranges_concatenate_to_the_parallel_stream() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let options = LeakageOptions {
            relative_noise: 0.015,
            seed: 345,
        };
        let table = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).unwrap();
        let n = 3000u64;
        let whole = simulate_traces_parallel(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            0xB,
            n as usize,
            &options,
            Some(2),
        )
        .unwrap();
        // Split points deliberately off the 1024-trace block grid: partial
        // blocks must replay their stream prefix.
        for cuts in [vec![0, n], vec![0, 700, 2048, n], vec![0, 1, 1023, 1025, n]] {
            let mut sunk = TraceSet::new();
            for pair in cuts.windows(2) {
                simulate_trace_range_into(
                    &netlist,
                    &table,
                    0xB,
                    pair[0],
                    pair[1] - pair[0],
                    &options,
                    &mut sunk,
                )
                .unwrap();
            }
            assert_eq!(sunk, whole, "cuts = {cuts:?}");
        }
    }

    #[test]
    fn tvla_ranges_concatenate_identically_for_any_partition() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let options = LeakageOptions {
            relative_noise: 0.01,
            seed: 2026,
        };
        let table = GateEnergyTable::build(LeakageModel::HammingWeight, &cap).unwrap();
        let fixed = 0x7u64;
        let n = 2500u64;
        let mut whole = TraceSet::new();
        simulate_tvla_trace_range_into(&netlist, &table, 0xA, fixed, 0, n, &options, &mut whole)
            .unwrap();
        // Group discipline: even global index = fixed plaintext.
        for (index, &input) in whole.inputs().iter().enumerate() {
            if index % 2 == 0 {
                assert_eq!(input, fixed, "trace {index}");
            }
            assert!(input < 16);
        }
        for cuts in [vec![0, 500, 1500, n], vec![0, 3, 1024, 1027, n]] {
            let mut sunk = TraceSet::new();
            for pair in cuts.windows(2) {
                simulate_tvla_trace_range_into(
                    &netlist,
                    &table,
                    0xA,
                    fixed,
                    pair[0],
                    pair[1] - pair[0],
                    &options,
                    &mut sunk,
                )
                .unwrap();
            }
            assert_eq!(sunk, whole, "cuts = {cuts:?}");
        }
    }

    #[test]
    fn parallel_traces_still_leak_the_key() {
        let netlist = synthesize_sbox_with_key().unwrap();
        let cap = capacitance();
        let key = 0x3u8;
        let options = LeakageOptions {
            relative_noise: 0.0,
            seed: 11,
        };
        let traces = simulate_traces_parallel(
            &netlist,
            LeakageModel::HammingWeight,
            &cap,
            key,
            512,
            &options,
            None,
        )
        .unwrap();
        let result = dpa_attack(&traces, 16, |plaintext, guess| {
            present_sbox((plaintext ^ guess) as u8).count_ones() >= 2
        })
        .unwrap();
        assert_eq!(result.best_guess, key as u64);
    }
}
