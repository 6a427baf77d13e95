//! Out-of-core TVLA over `dpl-store` campaigns.
//!
//! The Welch accumulators are [`dpl_store::Fold`]s, so a sequential or
//! salvage t-test is one [`dpl_store::fold()`] call over any
//! [`ChunkSource`], and [`tvla_parallel_with`] is one
//! [`dpl_store::fold_read_ahead`] call: each thread reads and decodes its
//! chunks while an earlier chunk is folded, and the chunks are folded one
//! at a time in trace order, so it is bit-identical to the sequential fold
//! for any worker count (contract 1 of
//! [`dpl_store::fold`](mod@dpl_store::fold)), and each chunk is read once
//! per pass.  The second-order fold's first pass is the first-order
//! test, so a caller that wants both orders folds a
//! [`SecondOrderWelchAccumulator`] once and reads the campaign twice;
//! [`tvla_parallel_with`] returns the order it was asked for.

use dpl_obs::Obs;
use dpl_store::{fold_read_ahead, ChunkSource, Reading, Result as StoreResult};

use crate::tvla::{SecondOrderWelchAccumulator, WelchAccumulator};
use crate::{Result, TvlaGroup, TvlaResult};

/// Which t-test a TVLA evaluation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TvlaOrder {
    /// First-order Welch t-test on the raw samples.
    #[default]
    First,
    /// Second-order t-test on centered-product preprocessed samples
    /// (`y = (x - group mean)²`).
    Second,
}

impl TvlaOrder {
    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TvlaOrder::First => "first-order",
            TvlaOrder::Second => "second-order (centered product)",
        }
    }
}

/// Scoped-thread parallel TVLA over any reopenable [`ChunkSource`] (a
/// single archive or a [`dpl_store::ShardedReader`] campaign): a strict
/// [`dpl_store::fold_read_ahead`] on `workers` threads, the caller
/// included, each of which opens its own source via `open`, decodes its
/// chunks while an earlier chunk is folded, and folds its own chunks in
/// turn.  Bit-identical to the sequential fold for any worker count;
/// `Some(1)` folds on the caller alone.  Workers default to the available
/// parallelism (capped at 8) and are clamped to the chunk count.
///
/// With a telemetry context, the fold records its span, advances the
/// progress plane chunk by chunk, and counts its trace-passes (traces ×
/// passes) into `fold.traces`, exactly like the sequential fold.  Chunk-read
/// counters reflect whatever context the opener attaches.
///
/// # Errors
///
/// Returns an error for an empty or unopenable campaign, or any chunk
/// failure.
pub fn tvla_parallel_with<S, O, F>(
    open: O,
    partition: F,
    order: TvlaOrder,
    workers: Option<usize>,
    obs: Option<&Obs>,
) -> Result<TvlaResult>
where
    S: ChunkSource,
    O: Fn() -> StoreResult<S> + Sync,
    F: Fn(u64, u64) -> Option<TvlaGroup> + Send,
{
    Ok(match order {
        TvlaOrder::First => {
            let acc = WelchAccumulator::new(partition);
            fold_read_ahead(open, acc, Reading::Strict, workers, obs)?.0
        }
        TvlaOrder::Second => {
            let acc = SecondOrderWelchAccumulator::new(partition);
            let ((_, second), _) = fold_read_ahead(open, acc, Reading::Strict, workers, obs)?;
            second
        }
    })
}
