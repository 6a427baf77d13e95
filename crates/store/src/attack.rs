//! Out-of-core DPA/CPA over archived traces: the `dpl-power` accumulators
//! as [`Fold`]s, plus the entry points that run them through the fold
//! engine.  Peak memory is one chunk per reader (bounded by the reader's
//! budget) no matter how many traces the campaign holds; the numeric
//! contracts are those of [`crate::fold`](mod@crate::fold).

use dpl_power::{AttackResult, CpaAccumulator, DpaAccumulator, InputProfile};

use crate::error::{Result, StoreError};
use crate::fold::{fold, fold_parallel, Fold, MergeFold, Reading};
use crate::reader::ChunkSource;

impl<F> Fold for DpaAccumulator<F>
where
    F: Fn(u64, u64) -> bool,
{
    type Output = AttackResult;
    type Error = StoreError;
    const SPAN: &'static str = "store.dpa_attack_streaming";

    fn update(&mut self, chunk: &dpl_power::TraceSet) -> Result<()> {
        Ok(DpaAccumulator::update(self, chunk)?)
    }

    fn finalize(self) -> Result<AttackResult> {
        Ok(DpaAccumulator::finalize(self)?)
    }
}

impl<F> Fold for CpaAccumulator<F>
where
    F: Fn(u64, u64) -> f64,
{
    type Output = AttackResult;
    type Error = StoreError;
    const SPAN: &'static str = "store.cpa_attack_streaming";

    fn update(&mut self, chunk: &dpl_power::TraceSet) -> Result<()> {
        Ok(CpaAccumulator::update(self, chunk)?)
    }

    fn begin_pass(&mut self) -> Result<bool> {
        Ok(self.begin_second_pass()?)
    }

    fn finalize(self) -> Result<AttackResult> {
        Ok(CpaAccumulator::finalize(self)?)
    }
}

impl<F> MergeFold for CpaAccumulator<F>
where
    F: Fn(u64, u64) -> f64 + Clone,
{
    fn partial(&self, _first_trace: u64) -> Result<Self> {
        Ok(CpaAccumulator::partial(self)?)
    }

    fn merge(&mut self, other: &Self) -> Result<()> {
        Ok(CpaAccumulator::merge(self, other)?)
    }
}

/// The accumulator bookkeeping implied by the campaign's recorded distinct
/// input count: class aggregation when the writer saw few distinct inputs,
/// the diverse-input fallback otherwise.  Either way the single matching
/// mode is maintained — never Auto's double bookkeeping.
pub fn input_profile<S: ChunkSource + ?Sized>(source: &S) -> InputProfile {
    match source.distinct_inputs() {
        Some(_) => InputProfile::FewClasses,
        None => InputProfile::Diverse,
    }
}

/// How many times a CPA fold over `source` reads the campaign: once when
/// the header records few distinct inputs (the class-aggregated
/// accumulator needs no replay), twice on the diverse-input path and for
/// campaigns of at most `dpl_power::MAX_INPUT_CLASSES` traces (see
/// `dpl_power::cpa_passes`).  Progress totals for a CPA fold are this
/// times the trace count.
pub fn cpa_passes<S: ChunkSource + ?Sized>(source: &S) -> u64 {
    dpl_power::cpa_passes(input_profile(source), source.trace_count() as usize) as u64
}

/// Difference-of-means DPA folded with [`fold`] over any [`ChunkSource`]
/// — a single archive or a sharded campaign — with the bookkeeping of
/// [`input_profile`].
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
    let acc = DpaAccumulator::with_profile(key_guesses, selection, input_profile(source))?;
    Ok(fold(source, acc, Reading::Strict)?.0)
}

/// Correlation power analysis folded with [`fold`] over any
/// [`ChunkSource`], read [`cpa_passes`] times.
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
    let acc = CpaAccumulator::with_profile(key_guesses, model, input_profile(source))?;
    Ok(fold(source, acc, Reading::Strict)?.0)
}

/// Parallel out-of-core CPA with [`fold_parallel`], the one statistic under
/// its numeric contract: on `workers` threads, the caller included, each of
/// which opens its own source via `open` (e.g. a [`crate::ShardedReader`]
/// manifest) once for the fold.  The scores are the same bits for every
/// worker count.  A few-class campaign is read once; the diverse-input path
/// merges per-chunk forks of the sealed accumulator in a second pass.
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
    F: Fn(u64, u64) -> f64 + Clone + Send,
{
    let acc = CpaAccumulator::with_profile(key_guesses, model, input_profile(&open()?))?;
    fold_parallel(open, acc, workers)
}
