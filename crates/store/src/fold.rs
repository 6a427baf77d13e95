//! The fold engine: every out-of-core statistic — DPA and CPA here, the
//! TVLA t-tests of `dpl-eval` — reads a campaign through one chunk loop.
//! A statistic is a [`Fold`] (an accumulator that takes chunks in trace
//! order, may ask for the chunks again, and finalizes).  The loop is a
//! relay of threads under a strict or salvage [`Reading`]: [`fold`] runs
//! it on the calling thread alone over any [`ChunkSource`],
//! [`fold_read_ahead`] adds threads that read, verify and decode their
//! chunks while an earlier chunk is folded, and [`fold_parallel`] runs a
//! [`MergeFold`] on it, each thread folding its chunks into partials.
//!
//! # Numeric contracts
//!
//! These are stated once, here; the entry points built on the engine refer
//! to them.
//!
//! 1. **Sequential, read-ahead and clean-salvage folds are bit-identical to
//!    the in-memory statistic.**  [`fold`] and [`fold_read_ahead`] feed the
//!    accumulator every chunk in global trace order, one chunk at a time on
//!    whichever thread holds the turn, so they perform exactly the
//!    floating-point operations of the in-memory statistic over the same
//!    traces — for any chunk size, any worker count, and any shard layout,
//!    since a [`crate::ShardedReader`] yields the single-archive chunk
//!    stream.  A salvage fold over a damaged campaign equals the strict fold
//!    over the same campaign with the lost chunks' traces removed.  DPA and
//!    both TVLA orders run only under this contract.
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
//! `workers` counts the threads that read and fold, the caller included
//! (`Some(1)`: the caller alone).  After the caller's shape probe, each
//! thread opens its own source and reads the chunks at positions `t`,
//! `t + workers`, … of each pass.  The chunks' in-order steps take turns in
//! chunk order: a thread reads its chunk, parks until the chunk's turn on
//! one turn counter, takes the step [`fold`] takes — damage
//! classification, then [`Fold::update`] or, in [`fold_parallel`], the
//! merge of the partial it folded the chunk into while it waited; after a
//! pass's last chunk, the seal — and unparks the next chunk's thread.  So
//! at most `workers` chunk buffers (or partials) are alive, one per thread,
//! and the [`DamageReport`] is the sequential one.  A pass begins once the
//! previous one is sealed, so no thread reads a chunk of a pass that never
//! runs: pass 1 reads every chunk once, a replay those that verified.
//! Errors surface on their chunk's turn, in chunk order; a failing step or
//! a panicking thread stops the relay, and every thread joins before the
//! fold returns the error or propagates the panic.
//!
//! # Salvage
//!
//! Under [`Reading::Salvage`] a damaged chunk is excluded in full and
//! recorded in the returned [`DamageReport`] under its global chunk index;
//! partial chunk data never reaches an accumulator.  A multi-pass fold
//! replays only the chunks that verified in pass 1, and a chunk that
//! verified in pass 1 but fails in a replay fails the fold closed — the
//! passes must fold the same traces.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

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
    samples: usize,
    traces: u64,
    bytes: u64,
    updates: u64,
}

impl FoldObs {
    /// Starts observing a fold of `samples`-sample traces; a `None` context
    /// makes every call a no-op.
    fn start(obs: Option<&Obs>, span_name: &str, samples: usize) -> Self {
        let obs = obs.cloned();
        let span = obs.as_ref().map(|o| o.span(span_name));
        FoldObs {
            obs,
            span,
            samples,
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
    ) -> std::result::Result<(), A::Error> {
        let Some(obs) = &self.obs else {
            return acc.update(chunk);
        };
        self.traces += chunk.len() as u64;
        // Trace payload bytes: 8-byte input + 8 bytes per sample, per trace.
        self.bytes += (chunk.len() * (8 + 8 * self.samples)) as u64;
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

/// How [`fold_parallel`] folds a chunk: off its turn into a partial that
/// `fork` makes for the chunk's first trace, and on its turn by `merge`.
struct Partials<A: Fold> {
    fork: fn(&A, u64) -> std::result::Result<A, A::Error>,
    merge: fn(&mut A, &A) -> std::result::Result<(), A::Error>,
}

/// A thread's partial for its next chunk (`None` where chunks are folded
/// on their turn), or the error forking it gave.
type Part<A> = std::result::Result<Option<A>, <A as Fold>::Error>;

/// A chunk read off its turn: its damage (`None`: it verified) with its
/// partial, or the error reading it gave.
type Carried<A> = std::result::Result<(Option<DamagedChunk>, Option<A>), <A as Fold>::Error>;

/// A pass of `len` chunks in chunk order, the first on turn `base`: every
/// chunk but the skipped ones, where `gaps[j]` counts the pass's chunks
/// before the `j`-th skipped chunk.
#[derive(Clone)]
struct Pass {
    base: usize,
    len: usize,
    gaps: Arc<[usize]>,
}

impl Pass {
    /// The chunk at position `pos` of the pass.
    fn chunk(&self, pos: usize) -> usize {
        pos + self.gaps.partition_point(|&before| before <= pos)
    }

    /// The chunk at position `pos`, if the pass has one.
    fn get(&self, pos: usize) -> Option<usize> {
        (pos < self.len).then(|| self.chunk(pos))
    }
}

/// The in-order side of a fold, behind the relay's lock: the accumulator
/// with the read's damage report and telemetry, and the relay's pass.
struct Shared<A: Fold> {
    acc: A,
    partials: Option<Partials<A>>,
    chunk_traces: u64,
    report: DamageReport,
    obs: FoldObs,
    pass: Pass,
    replay: bool,
    /// Whether the last pass is sealed.
    done: bool,
    /// The error that stopped the relay.
    error: Option<A::Error>,
    /// The threads to unpark, by number, once each has registered.
    threads: Vec<Option<Thread>>,
}

impl<A: Fold> Shared<A> {
    /// One chunk's step: damage in pass 1 is recorded, damage in a replay
    /// fails the fold, and a verified chunk is folded (or its partial
    /// merged) into the accumulator.
    fn step(&mut self, carried: Carried<A>, chunk: &TraceSet) -> std::result::Result<(), A::Error> {
        match carried? {
            (None, part) => {
                if !self.replay {
                    self.report.traces_read += chunk.len() as u64;
                }
                match (part, &self.partials) {
                    (Some(part), Some(partials)) => (partials.merge)(&mut self.acc, &part),
                    _ => self.obs.update(&mut self.acc, chunk),
                }
            }
            (Some(d), _) if self.replay => Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {} verified in pass 1 but failed in pass 2 ({}); \
                     refusing to finalize inconsistent passes",
                    d.chunk, d.cause
                ),
            }
            .into()),
            (Some(d), _) => {
                self.report.damaged.push(d);
                Ok(())
            }
        }
    }

    /// Seals the pass.  After pass 1, [`Fold::begin_pass`] may ask for a
    /// replay of every chunk that verified; otherwise, or when the replay
    /// has no chunks, the fold is done.
    fn seal(&mut self) -> std::result::Result<(), A::Error> {
        if self.replay || !self.acc.begin_pass()? {
            self.done = true;
            return Ok(());
        }
        self.replay = true;
        let damaged = &self.report.damaged;
        self.pass = Pass {
            base: self.pass.len,
            len: self.report.chunks_scanned - damaged.len(),
            gaps: damaged
                .iter()
                .enumerate()
                .map(|(j, d)| d.chunk - j)
                .collect(),
        };
        self.done = self.pass.len == 0;
        Ok(())
    }

    /// The partial for chunk `index`, if there is one and the fold merges
    /// partials.
    fn fork(&self, index: Option<usize>) -> Part<A> {
        match (&self.partials, index) {
            (Some(p), Some(i)) => (p.fork)(&self.acc, i as u64 * self.chunk_traces).map(Some),
            _ => Ok(None),
        }
    }
}

/// A fold on `workers` threads taking turns (see the [module docs](self)).
/// `turn` and `stop` are stored under the lock with `Release` and loaded
/// with `Acquire` by a waiting thread; what a step wrote, the lock
/// publishes.
struct Relay<A: Fold> {
    workers: usize,
    /// The position, counted over both passes, whose step is next; a
    /// sealed pass moves it to the next pass's first position.
    turn: AtomicUsize,
    /// Set when the relay stops early, on an error or a panic.
    stop: AtomicBool,
    shared: Mutex<Shared<A>>,
}

impl<A: Fold> Relay<A> {
    /// A relay over the campaign `probe` describes.
    fn new<S: ChunkSource + ?Sized>(
        acc: A,
        partials: Option<Partials<A>>,
        probe: &S,
        obs: Option<&Obs>,
        workers: usize,
    ) -> Self {
        let chunks = probe.chunk_count();
        let mut shared = Shared {
            acc,
            partials,
            chunk_traces: probe.meta().chunk_traces as u64,
            report: DamageReport {
                chunks_scanned: chunks,
                traces_total: probe.trace_count(),
                ..DamageReport::default()
            },
            obs: FoldObs::start(obs, A::SPAN, probe.samples_per_trace()),
            pass: Pass {
                base: 0,
                len: chunks,
                gaps: Arc::new([]),
            },
            replay: false,
            done: false,
            error: None,
            threads: vec![None; workers],
        };
        if chunks == 0 {
            shared.error = shared.seal().err();
        }
        Relay {
            workers,
            turn: AtomicUsize::new(0),
            stop: AtomicBool::new(shared.error.is_some()),
            shared: Mutex::new(shared),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared<A>> {
        // A thread that panicked holding the lock may have left the
        // accumulator half-updated, but nothing reads it again: the relay
        // stops, and the fold propagates the panic instead of finishing.
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until the turn reaches `turn`; `false` when the relay stopped.
    fn wait_turn(&self, turn: usize) -> bool {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return false;
            }
            if self.turn.load(Ordering::Acquire) >= turn {
                return true;
            }
            thread::park();
        }
    }

    /// Takes the step of the chunk at `pos` of `pass` on thread `me`'s
    /// turn, forks the thread's partial for its next chunk, and hands the
    /// turn on: to the next chunk's thread, or, after the pass's last chunk
    /// and its seal, to every thread.  `None` when the relay stopped.
    fn step(
        &self,
        pass: &Pass,
        pos: usize,
        carried: Carried<A>,
        chunk: &TraceSet,
    ) -> Option<Part<A>> {
        let mut shared = self.lock();
        let next = pos + 1;
        let mut stepped = shared.step(carried, chunk);
        if stepped.is_ok() && next == pass.len {
            stepped = shared.seal();
        }
        if let Err(e) = stepped {
            self.halt(shared, Some(e));
            return None;
        }
        let part = shared.fork(pass.get(pos + self.workers));
        self.turn.store(pass.base + next, Ordering::Release);
        if next == pass.len {
            self.wake(shared, None);
        } else {
            self.wake(shared, Some(next % self.workers));
        }
        Some(part)
    }

    /// Stops the relay, keeping the first error, and wakes every thread.
    fn halt(&self, mut shared: MutexGuard<'_, Shared<A>>, error: Option<A::Error>) {
        if shared.error.is_none() {
            shared.error = error;
        }
        self.stop.store(true, Ordering::Release);
        self.wake(shared, None);
    }

    /// Releases the lock and unparks thread `owner`, or every thread.
    fn wake(&self, shared: MutexGuard<'_, Shared<A>>, owner: Option<usize>) {
        if self.workers == 1 {
            return;
        }
        let threads: Vec<Thread> = match owner {
            Some(owner) => shared.threads[owner].iter().cloned().collect(),
            None => shared.threads.iter().flatten().cloned().collect(),
        };
        drop(shared);
        threads.iter().for_each(Thread::unpark);
    }

    fn finish(
        self,
        reading: Reading<'_>,
    ) -> std::result::Result<(A::Output, DamageReport), A::Error> {
        let shared = (self.shared.into_inner())
            .expect("a panic holding the relay's lock propagates before the fold finishes");
        if let Some(e) = shared.error {
            return Err(e);
        }
        let salvage = matches!(reading, Reading::Salvage(_));
        shared
            .obs
            .finish(salvage.then_some(shared.report.damaged.len()));
        Ok((shared.acc.finalize()?, shared.report))
    }
}

/// Stops the relay when its thread unwinds, so that no other thread waits
/// for a turn that never comes.
struct HaltOnPanic<'a, A: Fold>(&'a Relay<A>);

impl<A: Fold> Drop for HaltOnPanic<'_, A> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.halt(self.0.lock(), None);
        }
    }
}

/// Thread `me`'s leg of the relay: it reads the chunks at positions `me`,
/// `me + workers`, … of each pass from `source` (or carries the error
/// opening it gave to its first turn), folds each into its partial if the
/// fold merges partials, and takes each chunk's step on its turn.
fn leg<S, A>(
    relay: &Relay<A>,
    me: usize,
    mut source: std::result::Result<&mut S, StoreError>,
    reading: Reading<'_>,
) where
    S: ChunkSource + ?Sized,
    A: Fold,
{
    let _halt = HaltOnPanic(relay);
    let mut chunk = TraceSet::new();
    let mut shared = relay.lock();
    shared.threads[me] = Some(thread::current());
    while !shared.done && !relay.stop.load(Ordering::Relaxed) {
        let pass = shared.pass.clone();
        let mut part = shared.fork(pass.get(me));
        drop(shared);
        for pos in (me..pass.len).step_by(relay.workers) {
            let index = pass.chunk(pos);
            let carried = part.and_then(|mut part| {
                let damage = match &mut source {
                    Ok(source) => read_into(*source, index, reading, &mut chunk)?,
                    Err(e) => return Err(e.clone().into()),
                };
                if let (None, Some(part)) = (&damage, &mut part) {
                    part.update(&chunk)?;
                }
                Ok((damage, part))
            });
            if !relay.wait_turn(pass.base + pos) {
                return;
            }
            match relay.step(&pass, pos, carried, &chunk) {
                Some(next) => part = next,
                None => return,
            }
        }
        // The next pass, if any, begins once this one is sealed.
        if !relay.wait_turn(pass.base + pass.len) {
            return;
        }
        shared = relay.lock();
    }
}

/// Runs a relay of `workers` threads — the caller and scoped helpers —
/// over the campaign `open` opens: a shape probe, then one source per
/// thread.  A helper's panic is propagated once every thread has joined.
fn run<S, O, A>(
    open: &O,
    acc: A,
    partials: Option<Partials<A>>,
    reading: Reading<'_>,
    workers: Option<usize>,
    obs: Option<&Obs>,
) -> std::result::Result<(A::Output, DamageReport), A::Error>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    A: Fold + Send,
    A::Error: Send,
{
    let probe = open()?;
    let workers = worker_count(workers, probe.chunk_count());
    let relay = Relay::new(acc, partials, &probe, obs, workers);
    drop(probe);
    let run = |me| match open() {
        Ok(mut source) => leg(&relay, me, Ok(&mut source), reading),
        Err(e) => leg::<S, _>(&relay, me, Err(e), reading),
    };
    let panicked = thread::scope(|scope| {
        let run = &run;
        let helpers: Vec<_> = (1..workers)
            .map(|me| scope.spawn(move || run(me)))
            .collect();
        run(0);
        let mut panicked = None;
        for helper in helpers {
            if let Err(payload) = helper.join() {
                panicked.get_or_insert(payload);
            }
        }
        panicked
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    relay.finish(reading)
}

/// Folds `acc` over every chunk of `source` in global order, replaying the
/// chunks when [`Fold::begin_pass`] asks, and returns the statistic with
/// the read's [`DamageReport`] (always clean under [`Reading::Strict`]).
/// Reads inline on the calling thread: the relay of one thread, spawning
/// nothing.  See the [module docs](self) for the numeric and salvage
/// contracts.
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
    let relay = Relay::new(acc, None, source, source.obs(), 1);
    leg(&relay, 0, Ok(source), reading);
    relay.finish(reading)
}

/// [`fold`] on a relay of `workers` threads, the caller included, each
/// reading from its own source from `open` (see the [module docs](self)).
/// The result — statistic and [`DamageReport`] — is the sequential fold's,
/// bit for bit, for any worker count; `Some(1)` is the inline fold on the
/// caller.  The fold's span, counters and progress go to `obs`; chunk-read
/// counters go to whatever context `open` attaches to its sources.
/// Workers default to the available parallelism (at most 8) and are
/// clamped to the chunk count.
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
    A: Fold + Send,
    A::Error: Send,
{
    run(&open, acc, None, reading, workers, obs)
}

/// Resolves a worker request for `units` independent work units: the
/// available parallelism (at most 8) by default, clamped to `1..=units`.
/// For a fold, the units are chunks and the workers are the threads that
/// read and fold them, the calling thread included.
pub fn worker_count(requested: Option<usize>, units: usize) -> usize {
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)))
        .clamp(1, units.max(1))
}

/// Folds `acc` over a campaign on a relay of `workers` threads, the caller
/// included, each reading from its own source from `open`: a thread folds
/// each of its chunks into a [`MergeFold::partial`] while it waits for the
/// chunk's turn, which merges the partial into `acc` — so partials merge
/// left to right in chunk order, pass by pass, and at most `workers` are
/// alive at once.  Workers default to the available parallelism (at most
/// 8) and are clamped to the chunk count.  See the [module docs](self) for
/// the numeric contract.
///
/// # Errors
///
/// Returns the accumulator's error (e.g. an empty campaign), an open
/// failure, or the first failing chunk's error, in chunk order.
pub fn fold_parallel<S, O, A>(
    open: O,
    acc: A,
    workers: Option<usize>,
) -> std::result::Result<A::Output, A::Error>
where
    S: ChunkSource,
    O: Fn() -> Result<S> + Sync,
    A: MergeFold + Send,
    A::Error: Send,
{
    let partials = Partials {
        fork: A::partial,
        merge: A::merge,
    };
    Ok(run(&open, acc, Some(partials), Reading::Strict, workers, None)?.0)
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::format::{ArchiveMeta, ModelTag};

    /// Worker counts of the sweeps: the caller alone, fewer threads than
    /// most campaigns' chunks, and more.
    const WORKERS: [usize; 5] = [1, 2, 3, 5, 8];

    /// An in-memory campaign: `chunks` chunks of `chunk` one-sample traces,
    /// each trace's input its global index.  `reads` logs the index of every
    /// chunk read, across all sources sharing it.  The chunks in `damaged`
    /// fail every read with a checksum mismatch; chunk `fail`, if any, fails
    /// its reads once `chunks` reads were served, that is in a replay.
    #[derive(Clone)]
    struct Memory {
        meta: ArchiveMeta,
        chunks: usize,
        reads: Arc<Mutex<Vec<usize>>>,
        damaged: Vec<usize>,
        fail: Option<usize>,
    }

    impl Memory {
        fn new(chunk: usize, chunks: usize) -> Self {
            Memory {
                meta: ArchiveMeta::scalar(chunk, ModelTag::Unspecified, 0),
                chunks,
                reads: Arc::default(),
                damaged: Vec::new(),
                fail: None,
            }
        }

        /// The same campaign with a fresh read log.
        fn fresh(&self) -> Self {
            Memory {
                reads: Arc::default(),
                ..self.clone()
            }
        }

        /// The logged chunk reads, sorted.
        fn reads(&self) -> Vec<usize> {
            let mut reads = self.reads.lock().unwrap().clone();
            reads.sort_unstable();
            reads
        }

        fn read_count(&self) -> usize {
            self.reads.lock().unwrap().len()
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
            let served = {
                let mut reads = self.reads.lock().unwrap();
                reads.push(index);
                reads.len() - 1
            };
            let replayed = self.fail == Some(index) && served >= self.chunks;
            if replayed || self.damaged.contains(&index) {
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

    /// Runs `case` on its own thread and fails unless it returns within a
    /// minute, so a relay that deadlocks fails the test instead of hanging
    /// it; a panic in `case` is propagated.
    fn watchdog<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> T {
        let watcher = std::thread::current();
        let worker = std::thread::spawn(move || {
            let out = case();
            watcher.unpark();
            out
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !worker.is_finished() {
            assert!(Instant::now() < deadline, "the fold hung");
            std::thread::park_timeout(Duration::from_millis(10));
        }
        worker
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// A fold that sums the samples in trace order over one or two passes,
    /// recording each chunk's first trace and the peak count of chunks read
    /// but not yet folded, measured at every update.  It panics, recording
    /// its thread, on the chunk that starts with trace `panic_at`.
    struct Summing {
        sum: f64,
        firsts: Vec<u64>,
        passes: usize,
        reads: Arc<Mutex<Vec<usize>>>,
        folded: usize,
        peak: usize,
        panic_at: Option<(u64, Arc<Mutex<Option<ThreadId>>>)>,
    }

    impl Summing {
        fn new(passes: usize, source: &Memory) -> Self {
            Summing {
                sum: 0.0,
                firsts: Vec::new(),
                passes,
                reads: Arc::clone(&source.reads),
                folded: 0,
                peak: 0,
                panic_at: None,
            }
        }
    }

    impl Fold for Summing {
        type Output = (f64, Vec<u64>, usize);
        type Error = StoreError;
        const SPAN: &'static str = "test.summing";

        fn update(&mut self, chunk: &TraceSet) -> Result<()> {
            if let Some((trace, at)) = &self.panic_at {
                if chunk.inputs()[0] == *trace {
                    *at.lock().unwrap() = Some(std::thread::current().id());
                    panic!("update panicked at trace {trace}");
                }
            }
            let alive = self.reads.lock().unwrap().len() - self.folded;
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

    type Summed = Result<((f64, Vec<u64>, usize), DamageReport)>;

    /// The parts of a [`Summing`] fold's result that must not depend on the
    /// thread count: the sum's bits, the chunk order and the report.
    fn comparable(summed: Summed) -> Result<((u64, Vec<u64>), DamageReport)> {
        summed.map(|((sum, firsts, _), report)| ((sum.to_bits(), firsts), report))
    }

    /// Each sweep case's campaign: chunks damaged first, in the middle,
    /// last, all three, or none.
    fn damage_cases(chunks: usize) -> Vec<Vec<usize>> {
        let mut cases = vec![Vec::new()];
        if chunks > 0 {
            let (middle, last) = (chunks / 2, chunks - 1);
            cases.extend([vec![0], vec![middle], vec![last]]);
            let mut all = vec![0, middle, last];
            all.dedup();
            cases.push(all);
        }
        cases
    }

    #[test]
    fn relay_folds_match_the_inline_fold_in_every_case() {
        const CHUNK: usize = 3;
        let retry: &'static RetryPolicy = Box::leak(Box::new(RetryPolicy::none()));
        for chunks in [0, 1, 2, 7, 40] {
            for damaged in damage_cases(chunks) {
                for passes in [1, 2] {
                    for reading in [Reading::Strict, Reading::Salvage(retry)] {
                        let campaign = Memory {
                            damaged: damaged.clone(),
                            ..Memory::new(CHUNK, chunks)
                        };
                        let mut source = campaign.fresh();
                        let acc = Summing::new(passes, &source);
                        let inline = fold(&mut source, acc, reading);
                        // A damaged chunk is read and never folded, so the
                        // peak counts chunks alive only on a clean campaign.
                        let clean = damaged.is_empty();
                        if let (true, Ok(((_, _, peak), _))) = (clean, &inline) {
                            assert!(*peak <= 1, "the inline fold holds one chunk");
                        }
                        let inline_reads = source.reads();
                        let inline = comparable(inline);
                        // The inline fold itself against the campaign: a
                        // salvage replay reads and folds the kept chunks.
                        let kept: Vec<usize> =
                            (0..chunks).filter(|c| !damaged.contains(c)).collect();
                        if clean || matches!(reading, Reading::Salvage(_)) {
                            let ((_, firsts), report) = inline.clone().expect("no hard error");
                            let starts = kept.iter().map(|&c| (c * CHUNK) as u64);
                            let folded: Vec<u64> =
                                (0..passes).flat_map(|_| starts.clone()).collect();
                            assert_eq!(firsts, folded, "chunks folded");
                            let mut reads: Vec<usize> = (0..chunks).collect();
                            if passes == 2 {
                                reads.extend(&kept);
                            }
                            reads.sort_unstable();
                            assert_eq!(inline_reads, reads, "chunks read");
                            let lost: Vec<usize> = report.damaged.iter().map(|d| d.chunk).collect();
                            assert_eq!(lost, damaged, "damage report");
                        }
                        for workers in WORKERS {
                            let case = format!(
                                "{chunks} chunks, damaged {damaged:?}, {passes} passes, \
                                 {reading:?}, {workers} workers"
                            );
                            let campaign = campaign.fresh();
                            let (folded, reads, opens) = watchdog(move || {
                                let opens = AtomicUsize::new(0);
                                let open = || {
                                    opens.fetch_add(1, Ordering::SeqCst);
                                    Ok(campaign.clone())
                                };
                                let acc = Summing::new(passes, &campaign);
                                let folded =
                                    fold_read_ahead(open, acc, reading, Some(workers), None);
                                (folded, campaign.reads(), opens.into_inner())
                            });
                            let threads = workers.min(chunks.max(1));
                            assert_eq!(opens, 1 + threads, "{case}: the probe, one per thread");
                            if let (true, Ok(((_, _, peak), _))) = (clean, &folded) {
                                assert!(*peak <= threads, "{case}: {peak} chunks alive");
                            }
                            let failed = folded.is_err();
                            assert_eq!(comparable(folded), inline, "{case}");
                            if !failed {
                                assert_eq!(reads, inline_reads, "{case}: chunk reads");
                            }
                        }
                    }
                }
            }
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

    impl Counting {
        fn root(passes: usize, live: &Arc<(AtomicUsize, AtomicUsize)>) -> Self {
            Counting {
                sum: 0.0,
                chunks: Vec::new(),
                first: 0,
                passes,
                live: Arc::clone(live),
                counted: false,
            }
        }
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
        for chunks in [0, 1, 2, 7, 40, 1024] {
            let mut source = Memory::new(CHUNK, chunks);
            let sums: Vec<f64> = (0..chunks)
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
                    .flat_map(|_| (0..chunks as u64).map(|c| c * CHUNK as u64))
                    .collect();
                let every_chunk: Vec<usize> = (0..chunks)
                    .flat_map(|index| std::iter::repeat_n(index, passes))
                    .collect();
                for workers in WORKERS {
                    let case = format!("{chunks} chunks, {passes} passes, {workers} workers");
                    let campaign = Memory::new(CHUNK, chunks);
                    let live = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
                    let root = Counting::root(passes, &live);
                    let (folded, reads, opens) = watchdog(move || {
                        let opens = AtomicUsize::new(0);
                        let open = || {
                            opens.fetch_add(1, Ordering::SeqCst);
                            Ok(campaign.clone())
                        };
                        let folded = fold_parallel(open, root, Some(workers));
                        (folded, campaign.reads(), opens.into_inner())
                    });
                    let (sum, merged) = folded.expect(&case);
                    assert_eq!(sum.to_bits(), expected.to_bits(), "{case}");
                    assert_eq!(merged, order, "{case}: chunk order");
                    assert_eq!(reads, every_chunk, "{case}: chunk reads");
                    let threads = workers.min(chunks.max(1));
                    assert_eq!(opens, 1 + threads, "{case}: the probe, one per thread");
                    let peak = live.1.load(Ordering::SeqCst);
                    assert!(peak <= threads, "{case}: {peak} live partials");
                    assert_eq!(live.0.load(Ordering::SeqCst), 0, "every partial dropped");
                }
            }
        }
    }

    #[test]
    fn a_chunk_failing_its_replay_fails_parallel_cpa_after_every_worker_joins() {
        const CHUNK: usize = 8;
        const CHUNKS: usize = 40;
        const BAD: usize = 29;
        let model = |input: u64, guess: u64| ((input ^ guess) & 0xF).count_ones() as f64;
        for workers in WORKERS {
            let campaign = Memory {
                fail: Some(BAD),
                ..Memory::new(CHUNK, CHUNKS)
            };
            let reads = Arc::clone(&campaign.reads);
            let err = watchdog(move || {
                let open = || Ok(campaign.clone());
                crate::cpa_attack_parallel_with(open, 16, model, Some(workers)).unwrap_err()
            });
            assert!(
                matches!(err, StoreError::ChecksumMismatch { chunk: BAD }),
                "{workers} workers: {err}"
            );
            assert!(reads.lock().unwrap().len() > CHUNKS, "failed in pass 2");
            // Every thread's source is gone: its thread has ended.
            assert_eq!(Arc::strong_count(&reads), 1, "{workers} workers");
        }
    }

    /// A read-ahead fold whose chunk verifies in pass 1 and fails its
    /// replay returns that chunk's error, the sequential fold's, once every
    /// thread has joined.
    #[test]
    fn a_chunk_failing_its_replay_fails_the_read_ahead_fold_after_every_thread_joins() {
        const CHUNK: usize = 5;
        const CHUNKS: usize = 40;
        let retry: &'static RetryPolicy = Box::leak(Box::new(RetryPolicy::none()));
        for bad in [0, 17, CHUNKS - 1] {
            for reading in [Reading::Strict, Reading::Salvage(retry)] {
                let campaign = Memory {
                    fail: Some(bad),
                    ..Memory::new(CHUNK, CHUNKS)
                };
                let mut source = campaign.fresh();
                let acc = Summing::new(2, &source);
                let inline = fold(&mut source, acc, reading).expect_err("the replay fails");
                match reading {
                    Reading::Strict => {
                        assert_eq!(inline, StoreError::ChecksumMismatch { chunk: bad })
                    }
                    Reading::Salvage(_) => assert!(
                        inline.to_string().contains(&format!(
                            "chunk {bad} verified in pass 1 but failed in pass 2"
                        )),
                        "{inline}"
                    ),
                }
                for workers in WORKERS {
                    let case = format!("chunk {bad}, {reading:?}, {workers} workers");
                    let campaign = campaign.fresh();
                    let reads = Arc::clone(&campaign.reads);
                    let err = watchdog(move || {
                        let acc = Summing::new(2, &campaign);
                        let open = || Ok(campaign.clone());
                        fold_read_ahead(open, acc, reading, Some(workers), None)
                    })
                    .expect_err(&case);
                    assert_eq!(err, inline, "{case}");
                    // The accumulator's log was dropped with the relay; the
                    // threads' sources were dropped as each joined.
                    assert_eq!(Arc::strong_count(&reads), 1, "{case}");
                }
            }
        }
    }

    /// The message of a propagated panic.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |m| (*m).into()),
        }
    }

    /// A statistic's closure that panics on a helper thread — the TVLA
    /// partition inside [`Fold::update`] on a helper's turn, or the CPA
    /// model while a helper folds its partial — propagates its panic out
    /// of the fold, which returns instead of hanging.
    #[test]
    fn a_closure_panicking_on_a_helper_thread_propagates_out_of_the_fold() {
        const CHUNK: usize = 4;
        const CHUNKS: usize = 12;
        // Chunk 1 is read, and its turn taken, by thread 1: a helper.
        let target = CHUNK as u64;
        for workers in [2, 3, 5] {
            let campaign = Memory::new(CHUNK, CHUNKS);
            let reads = Arc::clone(&campaign.reads);
            let (payload, caller, panicked_on) = watchdog(move || {
                let at = Arc::new(Mutex::new(None));
                let acc = Summing {
                    panic_at: Some((target, Arc::clone(&at))),
                    ..Summing::new(1, &campaign)
                };
                let open = || Ok(campaign.clone());
                let folded = catch_unwind(AssertUnwindSafe(|| {
                    fold_read_ahead(open, acc, Reading::Strict, Some(workers), None)
                }));
                let caller = std::thread::current().id();
                let panicked_on = at.lock().unwrap().take();
                (folded.map(|_| ()).unwrap_err(), caller, panicked_on)
            });
            let case = format!("update, {workers} workers");
            assert_eq!(
                panic_message(payload),
                format!("update panicked at trace {target}")
            );
            assert!(panicked_on.is_some_and(|id| id != caller), "{case}");
            assert_eq!(Arc::strong_count(&reads), 1, "{case}: every thread joined");

            let campaign = Memory::new(CHUNK, CHUNKS);
            let reads = Arc::clone(&campaign.reads);
            let (payload, caller, panicked_on) = watchdog(move || {
                let caller = std::thread::current().id();
                let at = Arc::new(Mutex::new(None));
                let seen = Arc::clone(&at);
                let model = move |input: u64, guess: u64| {
                    if input == target {
                        *seen.lock().unwrap() = Some(std::thread::current().id());
                        panic!("model panicked at trace {input}");
                    }
                    ((input ^ guess) & 0xF).count_ones() as f64
                };
                let open = || Ok(campaign.clone());
                let folded = catch_unwind(AssertUnwindSafe(|| {
                    crate::cpa_attack_parallel_with(open, 16, model, Some(workers))
                }));
                let panicked_on = at.lock().unwrap().take();
                (folded.map(|_| ()).unwrap_err(), caller, panicked_on)
            });
            let case = format!("CPA model, {workers} workers");
            assert_eq!(
                panic_message(payload),
                format!("model panicked at trace {target}")
            );
            assert!(panicked_on.is_some_and(|id| id != caller), "{case}");
            assert_eq!(Arc::strong_count(&reads), 1, "{case}: every thread joined");
        }
    }

    #[test]
    fn read_ahead_folds_equal_the_inline_fold_and_bound_decoded_chunks() {
        const CHUNK: usize = 3;
        const CHUNKS: usize = 257;
        for passes in [1, 2] {
            let mut source = Memory::new(CHUNK, CHUNKS);
            let acc = Summing::new(passes, &source);
            let (inline, _) = fold(&mut source, acc, Reading::Strict).expect("inline fold");
            for workers in WORKERS {
                let campaign = Memory::new(CHUNK, CHUNKS);
                let ((sum, firsts, peak), report) = watchdog({
                    let campaign = campaign.clone();
                    move || {
                        let open = || Ok(campaign.clone());
                        let acc = Summing::new(passes, &campaign);
                        fold_read_ahead(open, acc, Reading::Strict, Some(workers), None)
                    }
                })
                .expect("read-ahead fold");
                let case = format!("{passes} passes, {workers} workers");
                assert_eq!(sum.to_bits(), inline.0.to_bits(), "{case}");
                assert_eq!(firsts, inline.1, "{case}: chunk order");
                assert!(peak <= workers, "{case}: {peak} chunks alive");
                assert_eq!(campaign.read_count(), CHUNKS * passes, "{case}");
                assert!(report.is_clean(), "{case}");
            }
        }
    }
}
