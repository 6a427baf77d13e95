//! Out-of-core DPA/CPA over archived traces.
//!
//! The attacks fold the mergeable accumulators of `dpl-power` chunk by
//! chunk over an [`ArchiveReader`], so peak memory is one chunk (bounded by
//! the reader's budget) no matter how many traces the archive holds.
//!
//! * The sequential folds ([`dpa_attack_streaming`], [`cpa_attack_streaming`])
//!   perform the exact same floating-point operations as the in-memory
//!   `dpl_power::dpa_attack` / `cpa_attack` on the same traces and return
//!   **bit-identical** [`AttackResult`] scores.
//! * The parallel folds ([`dpa_attack_parallel`], [`cpa_attack_parallel`])
//!   build one partial accumulator per chunk across scoped threads and merge
//!   them in chunk order: results are deterministic and worker-count
//!   independent, but merging re-associates the reductions, so scores agree
//!   with the sequential fold only up to floating-point reassociation error.

use std::path::Path;

use dpl_obs::{names, rate_per_sec, Obs, SpanGuard};
use dpl_power::{AttackResult, CpaAccumulator, DpaAccumulator, InputProfile, TraceSet};

use crate::error::{Result, StoreError};
use crate::reader::{ArchiveReader, ChunkSource};

/// Chunk-granular fold telemetry: accumulates locally (no lock traffic in
/// the hot loop beyond the reader's own counters) and flushes counters plus
/// peak-throughput gauges when the fold finishes.
pub struct FoldObs {
    obs: Option<Obs>,
    span: Option<SpanGuard>,
    traces: u64,
    bytes: u64,
    updates: u64,
}

impl FoldObs {
    /// Starts observing a fold; a `None` context makes every call a no-op.
    pub fn start(obs: Option<&Obs>, span_name: &str) -> Self {
        let obs = obs.cloned();
        let span = obs.as_ref().map(|o| o.span(span_name));
        FoldObs {
            obs,
            span,
            traces: 0,
            bytes: 0,
            updates: 0,
        }
    }

    /// Notes one chunk folded into an accumulator and advances the context's
    /// progress plane (when one is enabled) by the chunk's trace count.
    pub fn update(&mut self, chunk: &TraceSet, samples_per_trace: usize) {
        let Some(obs) = &self.obs else { return };
        self.traces += chunk.len() as u64;
        // Trace payload bytes: 8-byte input + 8 bytes per sample, per trace.
        self.bytes += (chunk.len() * (8 + 8 * samples_per_trace)) as u64;
        self.updates += 1;
        obs.progress_advance(chunk.len() as u64);
    }

    /// Runs one accumulator fold step under a `fold.update` phase span, so
    /// accumulator arithmetic is attributed separately from archive I/O.
    /// Without a context this is a plain call.
    pub fn accumulate<T>(&self, step: impl FnOnce() -> T) -> T {
        let phase = self
            .obs
            .as_ref()
            .map(|o| o.phase("fold.update", names::FOLD_UPDATE_NS));
        let result = step();
        drop(phase);
        result
    }

    /// Flushes counters and rate gauges and closes the span (annotated with
    /// the fold's trace/byte/update totals).
    pub fn finish(self) {
        let Some(obs) = self.obs else { return };
        let Some(span) = self.span else { return };
        span.arg("traces", self.traces);
        span.arg("bytes", self.bytes);
        span.arg("updates", self.updates);
        let elapsed = span.finish();
        obs.counter_add(names::FOLD_TRACES, self.traces);
        obs.counter_add(names::FOLD_UPDATES, self.updates);
        if let Some(rate) = rate_per_sec(self.traces, elapsed) {
            obs.gauge_max(names::FOLD_TRACES_PER_SEC, rate);
        }
        if let Some(rate) = rate_per_sec(self.bytes, elapsed) {
            obs.gauge_max(names::FOLD_BYTES_PER_SEC, rate);
        }
    }
}

/// The accumulator bookkeeping implied by the campaign's recorded distinct
/// input count: class aggregation when the writer saw few distinct inputs,
/// the diverse-input fallback otherwise.  Either way the single matching
/// mode is maintained — never Auto's double bookkeeping.
pub(crate) fn profile_of<S: ChunkSource + ?Sized>(source: &S) -> InputProfile {
    match source.distinct_inputs() {
        Some(_) => InputProfile::FewClasses,
        None => InputProfile::Diverse,
    }
}

/// How many times a CPA fold over `source` reads the campaign: once when
/// the header records few distinct inputs (the class-aggregated
/// accumulator needs no replay), twice on the diverse-input path and for
/// campaigns of at most `dpl_power::MAX_INPUT_CLASSES` traces (see
/// `dpl_power::cpa_passes`).  Progress totals for [`cpa_attack_streaming`]
/// are this times the trace count.
pub fn cpa_passes<S: ChunkSource + ?Sized>(source: &S) -> u64 {
    dpl_power::cpa_passes(profile_of(source), source.trace_count() as usize) as u64
}

/// Difference-of-means DPA folded chunk-by-chunk over any [`ChunkSource`]
/// — a single archive or a sharded campaign.
///
/// Bit-identical to `dpl_power::dpa_attack` over the same traces.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty archive, or any chunk
/// failure (I/O, truncation, checksum mismatch).
pub fn dpa_attack_streaming<S, F>(
    source: &mut S,
    key_guesses: u64,
    selection: F,
) -> Result<AttackResult>
where
    S: ChunkSource + ?Sized,
    F: Fn(u64, u64) -> bool,
{
    let mut accumulator = DpaAccumulator::with_profile(key_guesses, selection, profile_of(source))?;
    let samples = source.samples_per_trace();
    let mut fold = FoldObs::start(source.obs(), "store.dpa_attack_streaming");
    let mut chunk = TraceSet::new();
    for index in 0..source.chunk_count() {
        source.read_chunk_into(index, &mut chunk)?;
        fold.update(&chunk, samples);
        fold.accumulate(|| accumulator.update(&chunk))?;
    }
    fold.finish();
    Ok(accumulator.finalize()?)
}

/// Correlation power analysis folded over any [`ChunkSource`].
///
/// A campaign whose header records few distinct inputs is read **once**:
/// the class-aggregated accumulator seals its means and centered column
/// norms from the first pass.  A diverse-input campaign is read twice (the
/// second pass re-reads the chunks to center on the sealed means);
/// [`cpa_passes`] tells which ahead of the fold.
///
/// Bit-identical to `dpl_power::cpa_attack` over the same traces.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty archive, or any chunk
/// failure (I/O, truncation, checksum mismatch).
pub fn cpa_attack_streaming<S, F>(
    source: &mut S,
    key_guesses: u64,
    model: F,
) -> Result<AttackResult>
where
    S: ChunkSource + ?Sized,
    F: Fn(u64, u64) -> f64,
{
    let mut accumulator = CpaAccumulator::with_profile(key_guesses, model, profile_of(source))?;
    let samples = source.samples_per_trace();
    let mut fold = FoldObs::start(source.obs(), "store.cpa_attack_streaming");
    let mut chunk = TraceSet::new();
    for index in 0..source.chunk_count() {
        source.read_chunk_into(index, &mut chunk)?;
        fold.update(&chunk, samples);
        fold.accumulate(|| accumulator.update(&chunk))?;
    }
    if accumulator.begin_second_pass()? {
        for index in 0..source.chunk_count() {
            source.read_chunk_into(index, &mut chunk)?;
            fold.update(&chunk, samples);
            fold.accumulate(|| accumulator.update(&chunk))?;
        }
    }
    fold.finish();
    Ok(accumulator.finalize()?)
}

fn default_worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Runs `build` on every chunk index across `workers` scoped threads (each
/// worker opens its own [`ChunkSource`] via `open`, so no seek positions
/// are shared) and returns the per-chunk results in chunk order.
pub(crate) fn per_chunk_parallel<S, T, B, O>(
    open: &O,
    chunks: usize,
    workers: usize,
    build: B,
) -> Result<Vec<T>>
where
    S: ChunkSource,
    T: Send,
    B: Fn(&mut S, usize) -> Result<T> + Sync,
    O: Fn() -> Result<S> + Sync,
{
    type Slot<'a, T> = (usize, &'a mut Option<Result<T>>);
    let mut slots: Vec<Option<Result<T>>> = Vec::with_capacity(chunks);
    slots.resize_with(chunks, || None);
    {
        // Deal the chunk slots round-robin onto the workers: no locks, and
        // the chunk -> result mapping stays worker-count independent.
        let mut by_worker: Vec<Vec<Slot<'_, T>>> = (0..workers).map(|_| Vec::new()).collect();
        for (chunk, slot) in slots.iter_mut().enumerate() {
            by_worker[chunk % workers].push((chunk, slot));
        }
        let build = &build;
        std::thread::scope(|scope| {
            for lot in by_worker {
                scope.spawn(move || {
                    let mut source = None;
                    for (chunk, slot) in lot {
                        if source.is_none() {
                            match open() {
                                Ok(s) => source = Some(s),
                                Err(e) => {
                                    *slot = Some(Err(e));
                                    continue;
                                }
                            }
                        }
                        let s = source.as_mut().expect("source opened");
                        *slot = Some(build(s, chunk));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(chunk, slot)| {
            slot.unwrap_or(Err(StoreError::FormatViolation {
                message: format!("chunk {chunk} was never processed"),
            }))
        })
        .collect()
}

/// Parallel out-of-core DPA: one partial [`DpaAccumulator`] per chunk,
/// built across scoped threads and merged in chunk order.
///
/// Deterministic and worker-count independent; agrees with
/// [`dpa_attack_streaming`] up to floating-point reassociation.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty or unreadable archive, or
/// any chunk failure.
pub fn dpa_attack_parallel<F>(
    path: &Path,
    key_guesses: u64,
    selection: F,
    workers: Option<usize>,
) -> Result<AttackResult>
where
    F: Fn(u64, u64) -> bool + Clone + Send + Sync,
{
    dpa_attack_parallel_with(
        || ArchiveReader::open(path),
        key_guesses,
        selection,
        workers,
    )
}

/// [`dpa_attack_parallel`] over any reopenable [`ChunkSource`] — each
/// worker opens its own source via `open` (e.g. a [`crate::ShardedReader`]
/// manifest), so the same chunk-order merge runs over single archives and
/// sharded campaigns alike.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty or unopenable campaign, or
/// any chunk failure.
pub fn dpa_attack_parallel_with<S, O, F>(
    open: O,
    key_guesses: u64,
    selection: F,
    workers: Option<usize>,
) -> Result<AttackResult>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    F: Fn(u64, u64) -> bool + Clone + Send + Sync,
{
    let probe = open()?;
    let chunks = probe.chunk_count();
    let profile = profile_of(&probe);
    drop(probe);
    let workers = workers
        .unwrap_or_else(default_worker_count)
        .clamp(1, chunks.max(1));
    let selection_ref = &selection;
    let partials = per_chunk_parallel(&open, chunks, workers, move |source: &mut S, index| {
        let mut acc = DpaAccumulator::with_profile(key_guesses, selection_ref.clone(), profile)?;
        acc.update(&source.read_chunk(index)?)?;
        Ok(acc)
    })?;
    let mut total = DpaAccumulator::with_profile(key_guesses, selection.clone(), profile)?;
    for partial in &partials {
        total.merge(partial)?;
    }
    Ok(total.finalize()?)
}

/// Parallel out-of-core CPA: per-chunk pass-1 partials merged in chunk
/// order; on the diverse-input path only, per-chunk pass-2 forks of the
/// sealed accumulator merged in chunk order.  A few-class campaign skips
/// the fork stage and is read once.
///
/// Deterministic and worker-count independent; agrees with
/// [`cpa_attack_streaming`] up to floating-point reassociation.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty or unreadable archive, or
/// any chunk failure.
pub fn cpa_attack_parallel<F>(
    path: &Path,
    key_guesses: u64,
    model: F,
    workers: Option<usize>,
) -> Result<AttackResult>
where
    F: Fn(u64, u64) -> f64 + Clone + Send + Sync,
{
    cpa_attack_parallel_with(|| ArchiveReader::open(path), key_guesses, model, workers)
}

/// [`cpa_attack_parallel`] over any reopenable [`ChunkSource`] — each
/// worker opens its own source via `open` (e.g. a [`crate::ShardedReader`]
/// manifest), so the same chunk-order merge runs over single archives and
/// sharded campaigns alike.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty or unopenable campaign, or
/// any chunk failure.
pub fn cpa_attack_parallel_with<S, O, F>(
    open: O,
    key_guesses: u64,
    model: F,
    workers: Option<usize>,
) -> Result<AttackResult>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    F: Fn(u64, u64) -> f64 + Clone + Send + Sync,
{
    let probe = open()?;
    let chunks = probe.chunk_count();
    let profile = profile_of(&probe);
    drop(probe);
    let workers = workers
        .unwrap_or_else(default_worker_count)
        .clamp(1, chunks.max(1));

    let model_ref = &model;
    let partials = per_chunk_parallel(&open, chunks, workers, move |source: &mut S, index| {
        let mut acc = CpaAccumulator::with_profile(key_guesses, model_ref.clone(), profile)?;
        acc.update(&source.read_chunk(index)?)?;
        Ok(acc)
    })?;
    let mut total = CpaAccumulator::with_profile(key_guesses, model.clone(), profile)?;
    for partial in &partials {
        total.merge(partial)?;
    }
    if total.begin_second_pass()? {
        let total_ref = &total;
        let forks = per_chunk_parallel(&open, chunks, workers, move |source: &mut S, index| {
            let mut fork = total_ref.fork()?;
            fork.update(&source.read_chunk(index)?)?;
            Ok(fork)
        })?;
        for fork in &forks {
            total.merge(fork)?;
        }
    }
    Ok(total.finalize()?)
}
