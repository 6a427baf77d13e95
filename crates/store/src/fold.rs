//! The fold engine: every out-of-core statistic — DPA and CPA here, the
//! TVLA t-tests of `dpl-eval` — reads a campaign through the same two chunk
//! loops.  A statistic is a [`Fold`] (an accumulator that takes chunks in
//! trace order, may ask for the chunks again, and finalizes); [`fold`] runs
//! it over any [`ChunkSource`] under a strict or salvage [`Reading`], and
//! [`fold_parallel`] runs a [`MergeFold`] across scoped threads.
//!
//! # Numeric contracts
//!
//! These are stated once, here; the entry points built on the engine refer
//! to them.
//!
//! 1. **Sequential and clean-salvage folds are bit-identical to the
//!    in-memory statistic.**  [`fold`] feeds the accumulator every chunk in
//!    global trace order, so it performs exactly the floating-point
//!    operations of the in-memory statistic over the same traces — for any
//!    chunk size, and for any shard layout, since a
//!    [`crate::ShardedReader`] yields the single-archive chunk stream.  A
//!    salvage fold over a damaged campaign equals the strict fold over the
//!    same campaign with the lost chunks' traces removed.
//! 2. **Chunk-parallel folds are deterministic and layout-independent, and
//!    within 1e-12 of sequential.**  [`fold_parallel`] builds one partial
//!    per chunk and merges the partials left to right in chunk order,
//!    whatever the worker or shard count.  Merging re-associates the sums,
//!    so the scores agree with the sequential fold to 1e-12, not bit for
//!    bit.
//! 3. **TVLA column-parallel folds are bit-identical.**
//!    `dpl_eval::tvla_parallel_with` splits the work by sample column, not
//!    by chunk: each worker runs [`fold`] over its own column block, so
//!    every column sees the sequential fold's exact addition sequence, for
//!    any worker count.
//!
//! # Salvage
//!
//! Under [`Reading::Salvage`] a damaged chunk is excluded in full and
//! recorded in the returned [`DamageReport`] under its global chunk index;
//! partial chunk data never reaches an accumulator.  A multi-pass fold
//! replays only the chunks that verified in pass 1, and a chunk that
//! verified in pass 1 but fails in a replay fails the fold closed — the
//! passes must fold the same traces.

use std::sync::mpsc::{sync_channel, Receiver};

use dpl_obs::{names, rate_per_sec, Obs, SpanGuard};
use dpl_power::TraceSet;

use crate::error::{Result, StoreError};
use crate::fault::RetryPolicy;
use crate::reader::ChunkSource;
use crate::salvage::{read_salvage_into, DamageReport};

/// A statistic folded chunk by chunk in trace order.
pub trait Fold: Sized {
    /// What [`Fold::finalize`] produces.
    type Output;
    /// The statistic's error type; chunk-read failures convert into it.
    type Error: From<StoreError>;
    /// Telemetry span name of a fold (a salvage fold's span also records
    /// its `damaged_chunks`).
    const SPAN: &'static str;

    /// Folds the next chunk of the current pass.
    ///
    /// # Errors
    ///
    /// Returns the accumulator's error for a malformed chunk.
    fn update(&mut self, chunk: &TraceSet) -> std::result::Result<(), Self::Error>;

    /// Ends the first pass; `true` asks the engine to replay every chunk
    /// once more, in the same order.  Called once, after pass 1.
    ///
    /// # Errors
    ///
    /// Returns the accumulator's error when the pass cannot be sealed.
    fn begin_pass(&mut self) -> std::result::Result<bool, Self::Error> {
        Ok(false)
    }

    /// Produces the statistic.
    ///
    /// # Errors
    ///
    /// Returns the accumulator's error (e.g. no traces were folded).
    fn finalize(self) -> std::result::Result<Self::Output, Self::Error>;
}

/// A [`Fold`] whose partial accumulators over disjoint chunks can be merged
/// back in chunk order — what [`fold_parallel`] needs.
pub trait MergeFold: Fold {
    /// An empty partial for the chunk whose first trace has global index
    /// `first_trace`: a fresh accumulator in pass 1, a fork that shares the
    /// sealed pass-1 state in pass 2.
    ///
    /// # Errors
    ///
    /// Returns the accumulator's error when it cannot be forked.
    fn partial(&self, first_trace: u64) -> std::result::Result<Self, Self::Error>;

    /// Merges a partial covering the chunk right after this accumulator's
    /// traces of the current pass.
    ///
    /// # Errors
    ///
    /// Returns the accumulator's error for mismatched partials.
    fn merge(&mut self, other: &Self) -> std::result::Result<(), Self::Error>;
}

/// How [`fold`] treats chunk damage.
#[derive(Debug, Clone, Copy)]
pub enum Reading<'a> {
    /// Any chunk failure fails the fold.
    Strict,
    /// Damaged chunks are retried under the policy (transient I/O only),
    /// then excluded and reported.
    Salvage(&'a RetryPolicy),
}

/// Chunk-granular fold telemetry: accumulates locally (no lock traffic in
/// the hot loop beyond the reader's own counters) and flushes counters plus
/// peak-throughput gauges when the fold finishes.
struct FoldObs {
    obs: Option<Obs>,
    span: Option<SpanGuard>,
    traces: u64,
    bytes: u64,
    updates: u64,
}

impl FoldObs {
    /// Starts observing a fold; a `None` context makes every call a no-op.
    fn start(obs: Option<&Obs>, span_name: &str) -> Self {
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

    /// Folds one chunk into `acc` under a `fold.update` phase span, so
    /// accumulator arithmetic is attributed separately from archive I/O,
    /// and advances the context's progress plane by the chunk's traces.
    fn update<A: Fold>(
        &mut self,
        acc: &mut A,
        chunk: &TraceSet,
        samples_per_trace: usize,
    ) -> std::result::Result<(), A::Error> {
        let Some(obs) = &self.obs else {
            return acc.update(chunk);
        };
        self.traces += chunk.len() as u64;
        // Trace payload bytes: 8-byte input + 8 bytes per sample, per trace.
        self.bytes += (chunk.len() * (8 + 8 * samples_per_trace)) as u64;
        self.updates += 1;
        obs.progress_advance(chunk.len() as u64);
        let _phase = obs.phase("fold.update", names::FOLD_UPDATE_NS);
        acc.update(chunk)
    }

    /// Flushes counters and rate gauges and closes the span (annotated with
    /// the fold's trace/byte/update totals, and a salvage fold's damaged
    /// chunk count).
    fn finish(self, damaged: Option<usize>) {
        let (Some(obs), Some(span)) = (self.obs, self.span) else {
            return;
        };
        if let Some(damaged) = damaged {
            span.arg("damaged_chunks", damaged as u64);
        }
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

/// Folds `acc` over every chunk of `source` in global order, replaying the
/// chunks when [`Fold::begin_pass`] asks, and returns the statistic with
/// the read's [`DamageReport`] (always clean under [`Reading::Strict`]).
/// See the [module docs](self) for the numeric and salvage contracts.
///
/// # Errors
///
/// Returns the accumulator's error (e.g. an empty campaign), any chunk
/// failure of a strict read, a non-chunk-local failure of a salvage read,
/// or a chunk that verified in pass 1 but failed its replay.
pub fn fold<S, A>(
    source: &mut S,
    mut acc: A,
    reading: Reading<'_>,
) -> std::result::Result<(A::Output, DamageReport), A::Error>
where
    S: ChunkSource + ?Sized,
    A: Fold,
{
    let chunks = source.chunk_count();
    let samples = source.samples_per_trace();
    let mut obs = FoldObs::start(source.obs(), A::SPAN);
    let mut report = DamageReport {
        chunks_scanned: chunks,
        traces_total: source.trace_count(),
        ..DamageReport::default()
    };
    let mut chunk = TraceSet::new();
    let mut replay = false;
    loop {
        for index in 0..chunks {
            let damage = match reading {
                Reading::Strict => {
                    source.read_chunk_into(index, &mut chunk)?;
                    None
                }
                Reading::Salvage(_)
                    if replay
                        && report
                            .damaged
                            .binary_search_by_key(&index, |d| d.chunk)
                            .is_ok() =>
                {
                    continue
                }
                Reading::Salvage(retry) => read_salvage_into(source, index, retry, &mut chunk)?,
            };
            match damage {
                None => {
                    if !replay {
                        report.traces_read += chunk.len() as u64;
                    }
                    obs.update(&mut acc, &chunk, samples)?;
                }
                Some(d) if replay => {
                    return Err(StoreError::FormatViolation {
                        message: format!(
                            "chunk {} verified in pass 1 but failed in pass 2 ({}); \
                             refusing to finalize inconsistent passes",
                            d.chunk, d.cause
                        ),
                    }
                    .into());
                }
                Some(d) => report.damaged.push(d),
            }
        }
        if replay || !acc.begin_pass()? {
            break;
        }
        replay = true;
    }
    let salvage = matches!(reading, Reading::Salvage(_));
    obs.finish(salvage.then_some(report.damaged.len()));
    Ok((acc.finalize()?, report))
}

/// Resolves a worker request for `units` independent work units: the
/// available parallelism (at most 8) by default, clamped to `1..=units`.
pub fn worker_count(requested: Option<usize>, units: usize) -> usize {
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)))
        .clamp(1, units.max(1))
}

/// Folds `acc` over a campaign across scoped threads: each worker opens its
/// own source via `open` (so no seek positions are shared), builds one
/// [`MergeFold::partial`] per chunk of its round-robin share, and hands it
/// through a one-slot channel; the caller merges the partials into `acc`
/// left to right in chunk order, pass by pass.  At most two partials per
/// worker are alive at once, plus the one being merged and the pass's
/// template.  Workers default to the available parallelism (at most 8) and
/// are clamped to the chunk count.  See the [module docs](self) for the
/// numeric contract.
///
/// # Errors
///
/// Returns the accumulator's error (e.g. an empty campaign), an open
/// failure, or any chunk failure in any worker.
pub fn fold_parallel<S, O, A>(
    open: O,
    mut acc: A,
    workers: Option<usize>,
) -> std::result::Result<A::Output, A::Error>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    A: MergeFold + Send + Sync,
    A::Error: Send,
{
    let probe = open()?;
    let chunks = probe.chunk_count();
    let chunk_traces = probe.meta().chunk_traces as u64;
    drop(probe);
    let workers = worker_count(workers, chunks);
    let mut replay = false;
    loop {
        // Workers fork their partials from a template, so the caller can
        // merge into `acc` while they run.
        let template = acc.partial(0)?;
        std::thread::scope(|scope| {
            let lanes: Vec<Receiver<std::result::Result<A, A::Error>>> = (0..workers)
                .map(|worker| {
                    let (lane, receiver) = sync_channel(1);
                    let (open, template) = (&open, &template);
                    scope.spawn(move || {
                        let mut source = match open() {
                            Ok(source) => source,
                            Err(e) => {
                                let _ = lane.send(Err(e.into()));
                                return;
                            }
                        };
                        let mut chunk = TraceSet::new();
                        for index in (worker..chunks).step_by(workers) {
                            let partial = source
                                .read_chunk_into(index, &mut chunk)
                                .map_err(A::Error::from)
                                .and_then(|()| template.partial(index as u64 * chunk_traces))
                                .and_then(|mut partial| {
                                    partial.update(&chunk)?;
                                    Ok(partial)
                                });
                            let failed = partial.is_err();
                            // A closed lane means the caller stopped on an
                            // earlier error.
                            if lane.send(partial).is_err() || failed {
                                return;
                            }
                        }
                    });
                    receiver
                })
                .collect();
            for index in 0..chunks {
                let partial =
                    lanes[index % workers]
                        .recv()
                        .map_err(|_| StoreError::FormatViolation {
                            message: format!("chunk {index} was never processed"),
                        })??;
                acc.merge(&partial)?;
            }
            Ok::<(), A::Error>(())
        })?;
        if replay || !acc.begin_pass()? {
            break;
        }
        replay = true;
    }
    acc.finalize()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::format::{ArchiveMeta, ModelTag};

    /// An in-memory campaign: `chunks` chunks of `chunk` one-sample traces.
    struct Memory {
        meta: ArchiveMeta,
        chunks: usize,
    }

    impl Memory {
        fn new(chunk: usize, chunks: usize) -> Self {
            Memory {
                meta: ArchiveMeta::scalar(chunk, ModelTag::Unspecified, 0),
                chunks,
            }
        }
    }

    impl ChunkSource for Memory {
        fn meta(&self) -> &ArchiveMeta {
            &self.meta
        }
        fn trace_count(&self) -> u64 {
            (self.chunks * self.meta.chunk_traces) as u64
        }
        fn chunk_count(&self) -> usize {
            self.chunks
        }
        fn distinct_inputs(&self) -> Option<usize> {
            None
        }
        fn read_chunk(&mut self, index: usize) -> Result<TraceSet> {
            let mut set = TraceSet::new();
            for t in 0..self.meta.chunk_traces {
                let trace = (index * self.meta.chunk_traces + t) as u64;
                // Values spread over many binades, so a re-associated sum
                // would differ in its low bits.
                let value = 1.0 / (trace as f64 + 1.0) + (trace % 7) as f64 * 1e6;
                set.push_samples(trace, &[value]);
            }
            Ok(set)
        }
        fn obs(&self) -> Option<&Obs> {
            None
        }
    }

    /// A fold that sums the samples and records which chunks it merged,
    /// counting its live partials.
    struct Counting {
        sum: f64,
        chunks: Vec<u64>,
        first: u64,
        /// (live, peak) partial counts; the root fold holds them uncounted.
        live: Arc<(AtomicUsize, AtomicUsize)>,
        counted: bool,
    }

    impl Drop for Counting {
        fn drop(&mut self) {
            if self.counted {
                self.live.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    impl Fold for Counting {
        type Output = (f64, Vec<u64>);
        type Error = StoreError;
        const SPAN: &'static str = "test.counting";

        fn update(&mut self, chunk: &TraceSet) -> Result<()> {
            self.sum = chunk.sample_column(0).iter().fold(self.sum, |s, v| s + v);
            self.chunks.push(self.first);
            Ok(())
        }

        fn finalize(mut self) -> Result<(f64, Vec<u64>)> {
            Ok((self.sum, std::mem::take(&mut self.chunks)))
        }
    }

    impl MergeFold for Counting {
        fn partial(&self, first_trace: u64) -> Result<Self> {
            let now = self.live.0.fetch_add(1, Ordering::SeqCst) + 1;
            self.live.1.fetch_max(now, Ordering::SeqCst);
            Ok(Counting {
                sum: 0.0,
                chunks: Vec::new(),
                first: first_trace,
                live: Arc::clone(&self.live),
                counted: true,
            })
        }

        fn merge(&mut self, other: &Self) -> Result<()> {
            self.sum += other.sum;
            self.chunks.extend_from_slice(&other.chunks);
            Ok(())
        }
    }

    #[test]
    fn parallel_folds_keep_partials_bounded_and_merge_in_chunk_order() {
        const CHUNK: usize = 3;
        const CHUNKS: usize = 1024;
        // The sequential left fold of the per-chunk partials.
        let mut source = Memory::new(CHUNK, CHUNKS);
        let mut expected = 0.0f64;
        for index in 0..CHUNKS {
            let chunk = source.read_chunk(index).unwrap();
            expected += chunk.sample_column(0).iter().fold(0.0, |s, v| s + v);
        }
        let order: Vec<u64> = (0..CHUNKS as u64).map(|c| c * CHUNK as u64).collect();
        for workers in [1, 2, 4] {
            let live = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
            let root = Counting {
                sum: 0.0,
                chunks: Vec::new(),
                first: 0,
                live: Arc::clone(&live),
                counted: false,
            };
            let open = || Ok(Memory::new(CHUNK, CHUNKS));
            let (sum, chunks) = fold_parallel(open, root, Some(workers)).unwrap();
            assert_eq!(sum.to_bits(), expected.to_bits(), "{workers} workers");
            assert_eq!(chunks, order, "{workers} workers");
            let peak = live.1.load(Ordering::SeqCst);
            assert!(
                peak <= 2 * workers + 2,
                "{workers} workers: {peak} live partials"
            );
            assert_eq!(live.0.load(Ordering::SeqCst), 0, "every partial dropped");
        }
    }
}
