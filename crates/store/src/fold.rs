//! The fold engine: every out-of-core statistic — DPA and CPA here, the
//! TVLA t-tests of `dpl-eval` — reads a campaign through one chunk loop.
//! A statistic is a [`Fold`] (an accumulator that takes chunks in trace
//! order, may ask for the chunks again, and finalizes).  The loop has two
//! chunk producers, both under a strict or salvage [`Reading`]: [`fold`]
//! reads inline from any [`ChunkSource`], and [`fold_read_ahead`] has
//! worker threads read, verify and decode the chunks ahead of it.
//! [`fold_parallel`] runs a [`MergeFold`] on the same workers, which fold
//! one partial per chunk.
//!
//! # Numeric contracts
//!
//! These are stated once, here; the entry points built on the engine refer
//! to them.
//!
//! 1. **Sequential, read-ahead and clean-salvage folds are bit-identical to
//!    the in-memory statistic.**  [`fold`] and [`fold_read_ahead`] feed the
//!    accumulator every chunk in global trace order on the calling thread,
//!    so they perform exactly the floating-point operations of the
//!    in-memory statistic over the same traces — for any chunk size, any
//!    read-ahead worker count, and any shard layout, since a
//!    [`crate::ShardedReader`] yields the single-archive chunk stream.  A
//!    salvage fold over a damaged campaign equals the strict fold over the
//!    same campaign with the lost chunks' traces removed.  DPA and both
//!    TVLA orders run only under this contract.
//! 2. **Chunk-parallel CPA is deterministic and layout-independent, and
//!    within 1e-12 of sequential.**  [`fold_parallel`] — through
//!    [`crate::cpa_attack_parallel_with`], the one statistic that uses it —
//!    folds one partial per chunk and merges the partials left to right in
//!    chunk order, whatever the worker or shard count.  Merging
//!    re-associates the sums, so the scores agree with the sequential fold
//!    to 1e-12, not bit for bit.
//!
//! # Workers
//!
//! [`fold_read_ahead`] and [`fold_parallel`] share one pool of scoped
//! worker threads.  Each worker opens its own source once per fold and
//! serves `(chunk index, item)` requests, round-robin by chunk index; the
//! caller takes the replies back in chunk order.  A read-ahead item is a
//! recycled chunk buffer the worker decodes into; a chunk-parallel item is
//! the partial the caller forks for the chunk ([`MergeFold::partial`]),
//! which the worker folds the chunk into.  A pass requests only the chunks
//! it folds — every chunk in pass 1, only the chunks that verified in a
//! replay — and at most `workers + 1` chunk buffers (or partials) are
//! alive at once: requested, or being folded (merged) by the caller.
//! Salvage retries and damage classification run on the worker that read
//! the chunk, so the [`DamageReport`] is the sequential one.  A worker
//! stops at its first failure; errors surface in chunk order, and
//! returning early drops the channels, so every worker stops and joins.
//!
//! # Salvage
//!
//! Under [`Reading::Salvage`] a damaged chunk is excluded in full and
//! recorded in the returned [`DamageReport`] under its global chunk index;
//! partial chunk data never reaches an accumulator.  A multi-pass fold
//! replays only the chunks that verified in pass 1, and a chunk that
//! verified in pass 1 but fails in a replay fails the fold closed — the
//! passes must fold the same traces.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;

use dpl_obs::{names, rate_per_sec, Obs, SpanGuard};
use dpl_power::TraceSet;

use crate::error::{Result, StoreError};
use crate::fault::RetryPolicy;
use crate::reader::ChunkSource;
use crate::salvage::{read_salvage_into, DamageReport, DamagedChunk};

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

/// How a fold treats chunk damage.
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

/// Reads chunk `index` of `source` into `chunk` under `reading`: `None`
/// when it verified, else the damage a salvage read records.
fn read_into<S: ChunkSource + ?Sized>(
    source: &mut S,
    index: usize,
    reading: Reading<'_>,
    chunk: &mut TraceSet,
) -> Result<Option<DamagedChunk>> {
    match reading {
        Reading::Strict => source.read_chunk_into(index, chunk).map(|()| None),
        Reading::Salvage(retry) => read_salvage_into(source, index, retry, chunk),
    }
}

/// The chunks one pass folds, in order.
type Plan = Box<dyn Iterator<Item = usize>>;

/// Every chunk of a `chunks`-chunk campaign but those in `skip` (ascending).
fn plan(chunks: usize, skip: Vec<usize>) -> Plan {
    Box::new((0..chunks).filter(move |index| skip.binary_search(index).is_err()))
}

/// Where the chunk loop gets each pass's chunks from.
trait Producer {
    /// Starts a pass over the chunks of `plan`.
    fn begin(&mut self, plan: Plan);

    /// The pass's next chunk with its damage (`None`: it verified and the
    /// set holds its traces), or `None` at the end of the pass.
    fn next(&mut self) -> Option<Result<(Option<DamagedChunk>, &TraceSet)>>;
}

/// Reads each chunk from the caller's source when the loop asks for it.
struct Inline<'a, 'r, S: ?Sized> {
    source: &'a mut S,
    reading: Reading<'r>,
    plan: Plan,
    chunk: TraceSet,
}

impl<S: ChunkSource + ?Sized> Producer for Inline<'_, '_, S> {
    fn begin(&mut self, plan: Plan) {
        self.plan = plan;
    }

    fn next(&mut self) -> Option<Result<(Option<DamagedChunk>, &TraceSet)>> {
        let index = self.plan.next()?;
        let damage = read_into(self.source, index, self.reading, &mut self.chunk);
        Some(damage.map(|damage| (damage, &self.chunk)))
    }
}

/// One worker's channels: requested chunk indices, each with its item, and
/// the replies in request order.
type Lane<T, U, E> = (Sender<(usize, T)>, Receiver<std::result::Result<U, E>>);

/// Scoped worker threads that each open their own source and serve chunk
/// requests, round-robin by chunk index, replying in request order (see
/// the [module docs](self)).
struct Workers<T, U, E> {
    lanes: Vec<Lane<T, U, E>>,
    /// Requested chunks whose replies the caller has not taken, in order.
    pending: VecDeque<usize>,
}

impl<T: Send, U: Send, E: Send + From<StoreError>> Workers<T, U, E> {
    /// Spawns `count` workers on `scope`.  Each calls `start` once, to open
    /// its source and build its request handler, then answers requests
    /// until the caller hangs up or a reply fails; a `start` error is the
    /// worker's only reply.
    fn spawn<'scope, 'env, W>(
        scope: &'scope Scope<'scope, 'env>,
        count: usize,
        start: &'env (impl Fn() -> std::result::Result<W, E> + Sync),
    ) -> Self
    where
        W: FnMut(usize, T) -> std::result::Result<U, E>,
        T: 'scope,
        U: 'scope,
        E: 'scope,
    {
        let lanes = (0..count)
            .map(|_| {
                let (requests, inbox) = channel::<(usize, T)>();
                let (outbox, replies) = channel();
                scope.spawn(move || {
                    let mut serve = match start() {
                        Ok(serve) => serve,
                        Err(e) => {
                            let _ = outbox.send(Err(e));
                            return;
                        }
                    };
                    for (index, item) in inbox {
                        let reply = serve(index, item);
                        let failed = reply.is_err();
                        // A closed outbox means the fold stopped early.
                        if outbox.send(reply).is_err() || failed {
                            return;
                        }
                    }
                });
                (requests, replies)
            })
            .collect();
        Workers {
            lanes,
            pending: VecDeque::new(),
        }
    }

    /// Whether fewer than `workers + 1` requests are outstanding.
    fn has_room(&self) -> bool {
        self.pending.len() <= self.lanes.len()
    }

    /// Hands chunk `index` with its item to the worker that owns the index.
    fn request(&mut self, index: usize, item: T) {
        // A closed lane means its worker stopped on an error, which its last
        // reply carries.
        let _ = self.lanes[index % self.lanes.len()].0.send((index, item));
        self.pending.push_back(index);
    }

    /// The reply to the oldest outstanding request, or `None` when none is
    /// outstanding.
    fn reply(&mut self) -> Option<std::result::Result<U, E>> {
        let index = self.pending.pop_front()?;
        let reply = self.lanes[index % self.lanes.len()].1.recv();
        Some(reply.unwrap_or_else(|_| {
            Err(StoreError::FormatViolation {
                message: format!("chunk {index} was never read"),
            }
            .into())
        }))
    }
}

/// Requests chunks from the workers ahead of the loop and hands them over
/// in plan order.
struct ReadAhead {
    workers: Workers<TraceSet, (Option<DamagedChunk>, TraceSet), StoreError>,
    plan: Plan,
    /// The chunk the loop is folding.
    current: Option<TraceSet>,
    /// Buffers free for the next requests.
    spare: Vec<TraceSet>,
}

impl Producer for ReadAhead {
    fn begin(&mut self, plan: Plan) {
        self.plan = plan;
    }

    fn next(&mut self) -> Option<Result<(Option<DamagedChunk>, &TraceSet)>> {
        self.spare.extend(self.current.take());
        while self.workers.has_room() {
            let Some(index) = self.plan.next() else { break };
            let buffer = self.spare.pop().unwrap_or_default();
            self.workers.request(index, buffer);
        }
        let decoded = self.workers.reply()?;
        Some(decoded.map(|(damage, chunk)| (damage, &*self.current.insert(chunk))))
    }
}

/// What the chunk loop needs to know about a campaign before reading it.
#[derive(Clone, Copy)]
struct Shape {
    chunks: usize,
    traces: u64,
    samples: usize,
}

impl Shape {
    fn of<S: ChunkSource + ?Sized>(source: &S) -> Self {
        Shape {
            chunks: source.chunk_count(),
            traces: source.trace_count(),
            samples: source.samples_per_trace(),
        }
    }
}

/// The chunk loop: folds `acc` over the chunks `chunks` produces, pass by
/// pass, and classifies damage (see the [module docs](self)).
fn run<P, A>(
    mut chunks: P,
    mut acc: A,
    reading: Reading<'_>,
    shape: Shape,
    obs: Option<&Obs>,
) -> std::result::Result<(A::Output, DamageReport), A::Error>
where
    P: Producer,
    A: Fold,
{
    let mut obs = FoldObs::start(obs, A::SPAN);
    let mut report = DamageReport {
        chunks_scanned: shape.chunks,
        traces_total: shape.traces,
        ..DamageReport::default()
    };
    let mut replay = false;
    loop {
        let skip = report.damaged.iter().map(|d| d.chunk).collect();
        chunks.begin(plan(shape.chunks, skip));
        while let Some(read) = chunks.next() {
            match read? {
                (None, chunk) => {
                    if !replay {
                        report.traces_read += chunk.len() as u64;
                    }
                    obs.update(&mut acc, chunk, shape.samples)?;
                }
                (Some(d), _) if replay => {
                    return Err(StoreError::FormatViolation {
                        message: format!(
                            "chunk {} verified in pass 1 but failed in pass 2 ({}); \
                             refusing to finalize inconsistent passes",
                            d.chunk, d.cause
                        ),
                    }
                    .into());
                }
                (Some(d), _) => report.damaged.push(d),
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

/// Folds `acc` over every chunk of `source` in global order, replaying the
/// chunks when [`Fold::begin_pass`] asks, and returns the statistic with
/// the read's [`DamageReport`] (always clean under [`Reading::Strict`]).
/// Reads inline on the calling thread.  See the [module docs](self) for
/// the numeric and salvage contracts.
///
/// # Errors
///
/// Returns the accumulator's error (e.g. an empty campaign), any chunk
/// failure of a strict read, a non-chunk-local failure of a salvage read,
/// or a chunk that verified in pass 1 but failed its replay.
pub fn fold<S, A>(
    source: &mut S,
    acc: A,
    reading: Reading<'_>,
) -> std::result::Result<(A::Output, DamageReport), A::Error>
where
    S: ChunkSource + ?Sized,
    A: Fold,
{
    let obs = source.obs().cloned();
    let shape = Shape::of(source);
    let inline = Inline {
        source,
        reading,
        plan: plan(0, Vec::new()),
        chunk: TraceSet::new(),
    };
    run(inline, acc, reading, shape, obs.as_ref())
}

/// [`fold`] with read-ahead: `workers` scoped threads each open their own
/// source via `open` and read, verify and decode the chunks the fold
/// requests, while the calling thread folds them in global order.  The
/// result — statistic and [`DamageReport`] — is the sequential fold's, bit
/// for bit, for any worker count.  The fold's span, counters and progress
/// go to `obs`; chunk-read counters go to whatever context `open` attaches
/// to its sources.  Workers default to the available parallelism (at most
/// 8) and are clamped to the chunk count.  See the [module docs](self) for
/// the contracts and the in-flight bound.
///
/// # Errors
///
/// Those of [`fold`], plus an open failure on any thread.
pub fn fold_read_ahead<S, O, A>(
    open: O,
    acc: A,
    reading: Reading<'_>,
    workers: Option<usize>,
    obs: Option<&Obs>,
) -> std::result::Result<(A::Output, DamageReport), A::Error>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    A: Fold,
{
    let shape = Shape::of(&open()?);
    let start = || {
        let mut source = open()?;
        Ok(move |index, mut chunk: TraceSet| {
            let damage = read_into(&mut source, index, reading, &mut chunk)?;
            Ok((damage, chunk))
        })
    };
    std::thread::scope(|scope| {
        let read_ahead = ReadAhead {
            workers: Workers::spawn(scope, worker_count(workers, shape.chunks), &start),
            plan: plan(0, Vec::new()),
            current: None,
            spare: Vec::new(),
        };
        run(read_ahead, acc, reading, shape, obs)
    })
}

/// Resolves a worker request for `units` independent work units: the
/// available parallelism (at most 8) by default, clamped to `1..=units`.
pub fn worker_count(requested: Option<usize>, units: usize) -> usize {
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)))
        .clamp(1, units.max(1))
}

/// Folds `acc` over a campaign on the read-ahead workers: the caller forks
/// one [`MergeFold::partial`] per chunk, the worker that owns the chunk
/// reads it from its own source (opened via `open`) and folds it into the
/// partial, and the caller merges the partials into `acc` left to right in
/// chunk order, pass by pass.  At most `workers + 1` partials are alive at
/// once, the one being merged included.  Workers default to the available
/// parallelism (at most 8) and are clamped to the chunk count.  See the
/// [module docs](self) for the numeric contract.
///
/// # Errors
///
/// Returns the accumulator's error (e.g. an empty campaign), an open
/// failure, or the first failing chunk's error, in chunk order.
pub fn fold_parallel<S, O, A>(
    open: O,
    mut acc: A,
    workers: Option<usize>,
) -> std::result::Result<A::Output, A::Error>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    A: MergeFold + Send,
    A::Error: Send,
{
    let probe = open()?;
    let (chunks, chunk_traces) = (probe.chunk_count(), probe.meta().chunk_traces as u64);
    drop(probe);
    let start = || {
        let mut source = open()?;
        let mut chunk = TraceSet::new();
        Ok(move |index, mut partial: A| {
            source.read_chunk_into(index, &mut chunk)?;
            partial.update(&chunk)?;
            Ok::<A, A::Error>(partial)
        })
    };
    std::thread::scope(|scope| {
        let mut workers = Workers::spawn(scope, worker_count(workers, chunks), &start);
        let mut replay = false;
        loop {
            let mut plan = 0..chunks;
            loop {
                while workers.has_room() {
                    let Some(index) = plan.next() else { break };
                    workers.request(index, acc.partial(index as u64 * chunk_traces)?);
                }
                let Some(partial) = workers.reply() else {
                    break;
                };
                acc.merge(&partial?)?;
            }
            if replay || !acc.begin_pass()? {
                break;
            }
            replay = true;
        }
        acc.finalize()
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::format::{ArchiveMeta, ModelTag};

    /// An in-memory campaign: `chunks` chunks of `chunk` one-sample traces,
    /// each trace's input its global index.  `reads` counts chunk reads;
    /// chunk `fail`, if any, fails its reads once `chunks` reads were
    /// served, that is in a replay.
    struct Memory {
        meta: ArchiveMeta,
        chunks: usize,
        reads: Arc<AtomicUsize>,
        fail: Option<usize>,
    }

    impl Memory {
        fn new(chunk: usize, chunks: usize) -> Self {
            Memory {
                meta: ArchiveMeta::scalar(chunk, ModelTag::Unspecified, 0),
                chunks,
                reads: Arc::default(),
                fail: None,
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
            let served = self.reads.fetch_add(1, Ordering::SeqCst);
            if self.fail == Some(index) && served >= self.chunks {
                return Err(StoreError::ChecksumMismatch { chunk: index });
            }
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

    /// A fold over one or two passes that sums the samples and records
    /// which chunks it merged, counting its live partials.
    struct Counting {
        sum: f64,
        chunks: Vec<u64>,
        first: u64,
        passes: usize,
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

        fn begin_pass(&mut self) -> Result<bool> {
            Ok(self.passes == 2)
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
                passes: self.passes,
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
        let mut source = Memory::new(CHUNK, CHUNKS);
        let sums: Vec<f64> = (0..CHUNKS)
            .map(|index| {
                let chunk = source.read_chunk(index).unwrap();
                chunk.sample_column(0).iter().fold(0.0, |s, v| s + v)
            })
            .collect();
        for passes in [1, 2] {
            // The sequential left fold of the per-chunk partials, pass by
            // pass.
            let expected = (0..passes).flat_map(|_| &sums).fold(0.0, |s, v| s + v);
            let order: Vec<u64> = (0..passes)
                .flat_map(|_| (0..CHUNKS as u64).map(|c| c * CHUNK as u64))
                .collect();
            for workers in [1, 2, 4] {
                let case = format!("{passes} passes, {workers} workers");
                let live = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
                let root = Counting {
                    sum: 0.0,
                    chunks: Vec::new(),
                    first: 0,
                    passes,
                    live: Arc::clone(&live),
                    counted: false,
                };
                let opens = AtomicUsize::new(0);
                let open = || {
                    opens.fetch_add(1, Ordering::SeqCst);
                    Ok(Memory::new(CHUNK, CHUNKS))
                };
                let (sum, chunks) = fold_parallel(open, root, Some(workers)).unwrap();
                assert_eq!(sum.to_bits(), expected.to_bits(), "{case}");
                assert_eq!(chunks, order, "{case}: chunk order");
                // The shape probe, then one open per worker for the fold.
                assert_eq!(opens.load(Ordering::SeqCst), 1 + workers, "{case}");
                let peak = live.1.load(Ordering::SeqCst);
                assert!(peak <= workers + 1, "{case}: {peak} live partials");
                assert_eq!(live.0.load(Ordering::SeqCst), 0, "every partial dropped");
            }
        }
    }

    #[test]
    fn a_chunk_failing_its_replay_fails_parallel_cpa_after_every_worker_joins() {
        const CHUNK: usize = 8;
        const CHUNKS: usize = 40;
        const BAD: usize = 29;
        let model = |input: u64, guess: u64| ((input ^ guess) & 0xF).count_ones() as f64;
        for workers in [1, 2, 4] {
            let reads = Arc::new(AtomicUsize::new(0));
            let open = || {
                Ok(Memory {
                    reads: Arc::clone(&reads),
                    fail: Some(BAD),
                    ..Memory::new(CHUNK, CHUNKS)
                })
            };
            let err = crate::cpa_attack_parallel_with(open, 16, model, Some(workers)).unwrap_err();
            assert!(
                matches!(err, StoreError::ChecksumMismatch { chunk: BAD }),
                "{workers} workers: {err}"
            );
            assert!(reads.load(Ordering::SeqCst) > CHUNKS, "failed in pass 2");
            // Every worker's source is gone: its thread has ended.
            assert_eq!(Arc::strong_count(&reads), 1, "{workers} workers");
        }
    }

    /// A fold that sums the samples in trace order over one or two passes,
    /// recording each chunk's first trace and the peak count of chunks read
    /// but not yet folded, measured at every update.
    struct Summing {
        sum: f64,
        firsts: Vec<u64>,
        passes: usize,
        reads: Arc<AtomicUsize>,
        folded: usize,
        peak: usize,
    }

    impl Summing {
        fn new(passes: usize, reads: &Arc<AtomicUsize>) -> Self {
            Summing {
                sum: 0.0,
                firsts: Vec::new(),
                passes,
                reads: Arc::clone(reads),
                folded: 0,
                peak: 0,
            }
        }
    }

    impl Fold for Summing {
        type Output = (f64, Vec<u64>, usize);
        type Error = StoreError;
        const SPAN: &'static str = "test.summing";

        fn update(&mut self, chunk: &TraceSet) -> Result<()> {
            let alive = self.reads.load(Ordering::SeqCst) - self.folded;
            self.peak = self.peak.max(alive);
            self.folded += 1;
            self.sum = chunk.sample_column(0).iter().fold(self.sum, |s, v| s + v);
            self.firsts.push(chunk.inputs()[0]);
            Ok(())
        }

        fn begin_pass(&mut self) -> Result<bool> {
            Ok(self.passes == 2)
        }

        fn finalize(self) -> Result<(f64, Vec<u64>, usize)> {
            Ok((self.sum, self.firsts, self.peak))
        }
    }

    #[test]
    fn read_ahead_folds_equal_the_inline_fold_and_bound_decoded_chunks() {
        const CHUNK: usize = 3;
        const CHUNKS: usize = 257;
        for passes in [1, 2] {
            let mut source = Memory::new(CHUNK, CHUNKS);
            let reads = Arc::clone(&source.reads);
            let (inline, _) = fold(&mut source, Summing::new(passes, &reads), Reading::Strict)
                .expect("inline fold");
            assert_eq!(inline.2, 1, "the inline fold holds one chunk");
            for workers in [1, 2, 4] {
                let reads = Arc::new(AtomicUsize::new(0));
                let open = || {
                    Ok(Memory {
                        reads: Arc::clone(&reads),
                        ..Memory::new(CHUNK, CHUNKS)
                    })
                };
                let acc = Summing::new(passes, &reads);
                let ((sum, firsts, peak), report) =
                    fold_read_ahead(open, acc, Reading::Strict, Some(workers), None)
                        .expect("read-ahead fold");
                let case = format!("{passes} passes, {workers} workers");
                assert_eq!(sum.to_bits(), inline.0.to_bits(), "{case}");
                assert_eq!(firsts, inline.1, "{case}: chunk order");
                assert!(peak <= workers + 1, "{case}: {peak} chunks alive");
                assert_eq!(reads.load(Ordering::SeqCst), CHUNKS * passes, "{case}");
                assert!(report.is_clean(), "{case}");
            }
        }
    }
}
