//! Self-time ledger of the traced run.
//!
//! Every call the benchmark makes into a layer of the workspace, directly
//! or through one of the wrapped seams in [`crate::seams`], runs inside a
//! [`Frame`] naming that layer.  Frames nest per thread; a frame's self time
//! is its duration minus the time its child frames cover.  Self times,
//! inclusive times and byte counts accumulate per thread and are flushed to
//! one process-wide [`Tally`] whenever a thread's outermost frame closes, so
//! worker threads spawned inside the library (the `*_parallel_with` folds)
//! are accounted as soon as they finish.
//!
//! A [`parallel_frame`] marks a call that waits for worker threads: the
//! stretch during which workers ran is waiting, not work, and is left out
//! of its self time.
//!
//! Frames are free when tracing is off: [`set_tracing`] switches the whole
//! ledger, so the untraced passes run the same code without reading a
//! clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers a frame can be attributed to, named after the workspace
/// crates and the seams between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code: glue, correctness checks, worker roots.
    Bench,
    /// Trace generation (`dpl-crypto`), excluding time inside the sink.
    Crypto,
    /// The archive writer's own work: buffering, encoding, checksums.
    StoreSerialize,
    /// Writes, seeks and flushes on the archive's `SyncWrite` stream.
    StoreWriteIo,
    /// `SyncWrite::sync_contents` — the durable `finish`'s fsyncs.
    StoreFsync,
    /// Opening readers: header validation, chunk-head walks.
    StoreOpen,
    /// `ChunkSource::read_chunk[_into]`: read, verify and decode a chunk.
    StoreRead,
    /// Reads and seeks on the `Read + Seek` stream under a reader.
    StoreReadIo,
    /// The fsck scans (`ArchiveReader::scan`, `ShardedReader::scan_shards`).
    StoreScan,
    /// The DPA/CPA folds of `dpl-store` over `dpl-power` accumulators.
    PowerFold,
    /// The TVLA folds of `dpl-eval`.
    EvalTvla,
    /// DPDN construction (`dpl-core`).
    CoreDpdn,
    /// SABL cell assembly (`dpl-cells`).
    CellsAssemble,
    /// Transient characterization (`dpl-cells` over `dpl-sim`).
    SimCharacterize,
    /// Certificate emission: synthesis, lint, BDD proof (`dpl-verify`).
    VerifyEmit,
    /// Certificate replay (`dpl-verify` over `dpl-logic` BDDs).
    VerifyCheck,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 16;

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Bench,
        Layer::Crypto,
        Layer::StoreSerialize,
        Layer::StoreWriteIo,
        Layer::StoreFsync,
        Layer::StoreOpen,
        Layer::StoreRead,
        Layer::StoreReadIo,
        Layer::StoreScan,
        Layer::PowerFold,
        Layer::EvalTvla,
        Layer::CoreDpdn,
        Layer::CellsAssemble,
        Layer::SimCharacterize,
        Layer::VerifyEmit,
        Layer::VerifyCheck,
    ];

    /// The layer's row name in the layer table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Crypto => "crypto.simulate",
            Layer::StoreSerialize => "store.write.serialize",
            Layer::StoreWriteIo => "store.write.io",
            Layer::StoreFsync => "store.write.fsync",
            Layer::StoreOpen => "store.open",
            Layer::StoreRead => "store.read",
            Layer::StoreReadIo => "store.read.io",
            Layer::StoreScan => "store.scan",
            Layer::PowerFold => "power.fold",
            Layer::EvalTvla => "eval.tvla",
            Layer::CoreDpdn => "core.dpdn",
            Layer::CellsAssemble => "cells.assemble",
            Layer::SimCharacterize => "sim.characterize",
            Layer::VerifyEmit => "verify.emit",
            Layer::VerifyCheck => "verify.check",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer totals, in clock ticks (see [`seconds`]) and bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Self time: frame durations minus their children's.
    pub self_ticks: [u64; LAYERS],
    /// Inclusive time of the outermost frame of each layer.
    pub incl_ticks: [u64; LAYERS],
    /// Bytes the layer moved (see [`add_bytes`]).
    pub bytes: [u64; LAYERS],
}

impl Tally {
    /// The all-zero tally.
    pub const ZERO: Tally = Tally {
        self_ticks: [0; LAYERS],
        incl_ticks: [0; LAYERS],
        bytes: [0; LAYERS],
    };

    fn absorb(&mut self, other: &Tally) {
        for i in 0..LAYERS {
            self.self_ticks[i] += other.self_ticks[i];
            self.incl_ticks[i] += other.incl_ticks[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut delta = Tally::ZERO;
        for i in 0..LAYERS {
            delta.self_ticks[i] = self.self_ticks[i].saturating_sub(earlier.self_ticks[i]);
            delta.incl_ticks[i] = self.incl_ticks[i].saturating_sub(earlier.incl_ticks[i]);
            delta.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
        }
        delta
    }

    /// Self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        seconds(self.self_ticks[layer.index()])
    }

    /// Inclusive time of `layer`, in seconds.
    pub fn incl_s(&self, layer: Layer) -> f64 {
        seconds(self.incl_ticks[layer.index()])
    }

    /// Bytes attributed to `layer`.
    pub fn bytes(&self, layer: Layer) -> u64 {
        self.bytes[layer.index()]
    }
}

struct Open {
    layer: Layer,
    start: u64,
    child: u64,
    parallel: bool,
}

#[derive(Default)]
struct ThreadLedger {
    stack: Vec<Open>,
    tally: Tally,
    main: bool,
}

thread_local! {
    static LEDGER: RefCell<ThreadLedger> = RefCell::new(ThreadLedger::default());
}

static TRACING: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Tally> = Mutex::new(Tally::ZERO);
/// Lifetimes of worker threads' outermost frames, consumed by the next
/// closing [`parallel_frame`].
static WORKER_SPANS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

/// Marks the calling thread as the benchmark's main thread and starts the
/// tick clock's calibration.
pub fn init() {
    EPOCH.get_or_init(|| (Instant::now(), ticks()));
    LEDGER.with(|l| l.borrow_mut().main = true);
}

/// Switches tracing on or off.  Only call it while no frame is open.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// Whether frames currently record.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// A monotonic tick counter: the invariant time-stamp counter on x86-64.
/// It is read twice for every trace a traced capture records, and on a
/// 2-vCPU Xeon KVM guest it costs 19 ns a read against 47 ns for
/// `Instant::now`.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `_rdtsc` only reads the time-stamp counter; it touches no
    // memory and has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    let (epoch, _) = EPOCH.get_or_init(|| (Instant::now(), 0));
    epoch.elapsed().as_nanos() as u64
}

/// Converts ticks to seconds, calibrated against `Instant` over the time
/// since [`init`].
pub fn seconds(ticks_elapsed: u64) -> f64 {
    let &(epoch, start) = EPOCH.get_or_init(|| (Instant::now(), ticks()));
    let wall = epoch.elapsed().as_secs_f64();
    let span = ticks().saturating_sub(start);
    if span == 0 || wall <= 0.0 {
        return 0.0;
    }
    ticks_elapsed as f64 * wall / span as f64
}

/// The process-wide tally.  Frames still open on other threads are not
/// in it yet; the main thread's are flushed once its outermost frame
/// closes.
pub fn snapshot() -> Tally {
    *GLOBAL
        .lock()
        .expect("ledger mutex poisoned by a panicking thread")
}

/// An open frame; closing (dropping) it records its self time.
#[must_use = "a frame records the time until it is dropped"]
pub struct Frame {
    active: bool,
}

/// Opens a frame attributing the time until it is dropped to `layer`.
pub fn frame(layer: Layer) -> Frame {
    open(layer, false)
}

/// A frame around a call that spawns and joins worker threads: the
/// stretch during which workers ran is left out of its self time.
pub fn parallel_frame(layer: Layer) -> Frame {
    if tracing() {
        WORKER_SPANS
            .lock()
            .expect("ledger mutex poisoned by a panicking thread")
            .clear();
    }
    open(layer, true)
}

fn open(layer: Layer, parallel: bool) -> Frame {
    if !tracing() {
        return Frame { active: false };
    }
    let start = ticks();
    LEDGER.with(|l| {
        l.borrow_mut().stack.push(Open {
            layer,
            start,
            child: 0,
            parallel,
        })
    });
    Frame { active: true }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = ticks();
        LEDGER.with(|l| {
            let mut ledger = l.borrow_mut();
            let ThreadLedger { stack, tally, main } = &mut *ledger;
            let Some(open) = stack.pop() else { return };
            let elapsed = end.saturating_sub(open.start);
            let mut own = elapsed.saturating_sub(open.child);
            if open.parallel {
                own = own.saturating_sub(worker_time(open.start, end));
            }
            let i = open.layer.index();
            tally.self_ticks[i] += own;
            match stack.last_mut() {
                Some(parent) => {
                    parent.child += elapsed;
                    if parent.layer != open.layer {
                        tally.incl_ticks[i] += elapsed;
                    }
                }
                None => {
                    tally.incl_ticks[i] += elapsed;
                    if !*main {
                        WORKER_SPANS
                            .lock()
                            .expect("ledger mutex poisoned by a panicking thread")
                            .push((open.start, end));
                    }
                    GLOBAL
                        .lock()
                        .expect("ledger mutex poisoned by a panicking thread")
                        .absorb(tally);
                    *tally = Tally::ZERO;
                }
            }
        });
    }
}

/// Length of the union of the worker spans that overlap `[start, end]`.
fn worker_time(start: u64, end: u64) -> u64 {
    let mut spans: Vec<(u64, u64)> = WORKER_SPANS
        .lock()
        .expect("ledger mutex poisoned by a panicking thread")
        .drain(..)
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in spans {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Attributes `n` bytes to `layer` on the calling thread.
pub fn add_bytes(layer: Layer, n: u64) {
    if !tracing() {
        return;
    }
    LEDGER.with(|l| {
        l.borrow_mut().tally.bytes[layer.index()] += n;
    });
}

/// Attributes `n` bytes to the layer of the frame enclosing the innermost
/// open one — how stream reads credit the chunk read, scan or open they
/// serve.
pub fn add_parent_bytes(n: u64) {
    if !tracing() {
        return;
    }
    LEDGER.with(|l| {
        let mut ledger = l.borrow_mut();
        let ThreadLedger { stack, tally, .. } = &mut *ledger;
        if let Some(parent) = stack.len().checked_sub(2).map(|i| stack[i].layer) {
            tally.bytes[parent.index()] += n;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        init();
        set_tracing(true);
        let before = snapshot();
        {
            let _outer = frame(Layer::PowerFold);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = frame(Layer::StoreRead);
                std::thread::sleep(std::time::Duration::from_millis(2));
                add_parent_bytes(7);
            }
        }
        set_tracing(false);
        let delta = snapshot().since(&before);
        let fold = delta.self_s(Layer::PowerFold);
        let read = delta.self_s(Layer::StoreRead);
        assert!(fold >= 0.0015 && read >= 0.0015, "fold {fold}, read {read}");
        let (fold_i, read_i) = (Layer::PowerFold.index(), Layer::StoreRead.index());
        assert_eq!(
            delta.self_ticks[fold_i] + delta.self_ticks[read_i],
            delta.incl_ticks[fold_i]
        );
        assert_eq!(delta.bytes(Layer::PowerFold), 7);
    }

    #[test]
    fn worker_time_is_the_union_of_overlapping_spans() {
        WORKER_SPANS
            .lock()
            .unwrap()
            .extend([(5, 15), (10, 20), (30, 40), (50, 60)]);
        assert_eq!(worker_time(0, 35), 15 + 5);
        assert!(WORKER_SPANS.lock().unwrap().is_empty());
    }
}
