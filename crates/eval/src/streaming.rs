//! Out-of-core TVLA over `dpl-store` campaigns.
//!
//! The Welch accumulators are [`dpl_store::Fold`]s, so a sequential or
//! salvage t-test is one [`dpl_store::fold()`] call over any
//! [`ChunkSource`].  [`tvla_parallel_with`] goes one step further than the
//! chunk-parallel attacks: it shards work by **sample column**, not by
//! chunk, and is bit-identical to the sequential fold for any worker count
//! (contract 3 of [`dpl_store::fold`](mod@dpl_store::fold)).  The price is
//! that every worker reads (and checksums) every chunk, which is the right
//! trade for the multi-sample traces TVLA sweeps target; for single-sample
//! archives the fold degrades gracefully to one effective worker.

use dpl_obs::{names, Obs};
use dpl_power::TraceSet;
use dpl_store::{fold, worker_count, ChunkSource, Fold, Reading, Result as StoreResult};

use crate::tvla::{SecondOrderWelchAccumulator, WelchAccumulator};
use crate::{EvalError, Result, TvlaGroup, TvlaResult};

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
/// single archive or a [`dpl_store::ShardedReader`] campaign), sharded by
/// **sample column**: worker `w` of `n` runs [`dpl_store::fold()`] over its
/// own contiguous block of columns, and the blocks' t-values are stitched
/// in column order.  Bit-identical to the sequential fold for any worker
/// count.  Workers default to the available parallelism (capped at 8) and
/// are clamped to the number of sample columns.
///
/// With a telemetry context, the whole fold runs under an
/// `eval.tvla_parallel` span (annotated with the worker and trace counts),
/// the stitching is attributed to a `fold.merge` phase span, and each
/// reunion counts into `fold.merges`.  Every worker reads every chunk of
/// every pass, so worker 0 alone speaks for the campaign: it advances the
/// progress plane chunk by chunk and its trace-passes (traces × passes,
/// as in the sequential fold) count into `fold.traces`.  Workers fold
/// through the sources `open` returns, so chunk-read counters reflect
/// whatever context the opener attaches.
///
/// # Errors
///
/// Returns an error for an empty or unopenable campaign, or any chunk
/// failure in any worker.
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
    F: Fn(u64, u64) -> Option<TvlaGroup> + Sync,
{
    let probe = open()?;
    if probe.trace_count() == 0 {
        return Err(EvalError::Misuse {
            message: "no traces were accumulated".into(),
        });
    }
    let samples = probe.samples_per_trace();
    let traces = probe.trace_count();
    drop(probe);
    let workers = worker_count(workers, samples);
    let span = obs.map(|o| o.span("eval.tvla_parallel"));

    let (open, partition) = (&open, &partition);
    let blocks: Vec<Result<(TvlaResult, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let columns = worker * samples / workers..(worker + 1) * samples / workers;
                let obs = obs.filter(|_| worker == 0).cloned();
                scope.spawn(move || {
                    let mut source = open()?;
                    match order {
                        TvlaOrder::First => {
                            let acc = WelchAccumulator::new(partition).with_columns(columns);
                            fold_counted(&mut source, acc, obs)
                        }
                        TvlaOrder::Second => {
                            let acc =
                                SecondOrderWelchAccumulator::new(partition).with_columns(columns);
                            fold_counted(&mut source, acc, obs)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("TVLA worker panicked"))
            .collect()
    });

    let merge_phase = obs.map(|o| o.phase("fold.merge", names::FOLD_MERGE_NS));
    let mut result = TvlaResult {
        t: Vec::with_capacity(samples),
        counts: [0; 2],
    };
    let mut folded = 0;
    for block in blocks {
        let (block, trace_passes) = block?;
        // Every worker classifies every trace, so the counts agree.
        result.counts = block.counts;
        result.t.extend(block.t);
        // ...and read the same trace-passes.
        folded = trace_passes;
    }
    drop(merge_phase);
    if let Some(obs) = obs {
        obs.counter_add(names::FOLD_MERGES, workers as u64);
        obs.counter_add(names::FOLD_TRACES, folded);
    }
    if let Some(span) = span {
        span.arg("workers", workers as u64);
        span.arg("traces", traces);
        span.finish();
    }
    Ok(result)
}

/// A column worker's fold that also counts the trace-passes it reads and,
/// given a context, advances its progress plane chunk by chunk.
struct Counted<A> {
    acc: A,
    obs: Option<Obs>,
    trace_passes: u64,
}

impl<A: Fold> Fold for Counted<A> {
    type Output = (A::Output, u64);
    type Error = A::Error;
    const SPAN: &'static str = A::SPAN;

    fn update(&mut self, chunk: &TraceSet) -> std::result::Result<(), A::Error> {
        self.trace_passes += chunk.len() as u64;
        if let Some(obs) = &self.obs {
            obs.progress_advance(chunk.len() as u64);
        }
        self.acc.update(chunk)
    }

    fn begin_pass(&mut self) -> std::result::Result<bool, A::Error> {
        self.acc.begin_pass()
    }

    fn finalize(self) -> std::result::Result<(A::Output, u64), A::Error> {
        Ok((self.acc.finalize()?, self.trace_passes))
    }
}

/// Runs one column worker's strict fold, returning its block of t-values
/// and the trace-passes it read.
fn fold_counted<S, A>(source: &mut S, acc: A, obs: Option<Obs>) -> Result<(TvlaResult, u64)>
where
    S: ChunkSource,
    A: Fold<Output = TvlaResult, Error = EvalError>,
{
    let counted = Counted {
        acc,
        obs,
        trace_passes: 0,
    };
    Ok(fold(source, counted, Reading::Strict)?.0)
}
