//! Mergeable streaming accumulators for the DPA/CPA attacks.
//!
//! [`DpaAccumulator`] and [`CpaAccumulator`] carry the sufficient statistics
//! of the attacks in [`crate::dpa_attack`] / [`crate::cpa_attack`] across
//! arbitrary chunkings of a trace set.  The in-memory attacks are defined as
//! *one accumulator fed the whole set in a single update*, so folding the
//! same traces chunk-by-chunk — e.g. out of an on-disk archive — performs the
//! exact same sequence of floating-point additions and produces
//! **bit-identical** [`AttackResult`] scores.
//!
//! [`DpaAccumulator::merge`] / [`CpaAccumulator::merge`] combine partial
//! accumulators built over disjoint trace ranges (CPA's chunk-parallel
//! out-of-core path; DPA's merge keeps the any-merge-order contract).
//! Merging adds partial sums, which re-associates the floating-point
//! reductions: merged results are deterministic for a fixed merge order but
//! agree with the sequential fold only up to reassociation error (≪ 1e-12
//! relative in practice), not bit-for-bit.
//!
//! Both accumulators mirror the two execution modes of the attacks: while at
//! most [`MAX_INPUT_CLASSES`] distinct inputs have been seen, per-input-class
//! sums are maintained and the finalization scores each guess in O(classes)
//! per sample; once the inputs prove too diverse the class state is dropped
//! and the per-guess fallback sums take over.  Under the default
//! [`InputProfile::Auto`] both representations are maintained until the
//! inputs decide, so the mode an accumulator finishes in depends only on the
//! full input set — exactly like the in-memory attacks, never on the
//! chunking.  Callers that know the diversity up front (a pre-scan, or the
//! archive header's recorded distinct-input count) pass
//! [`InputProfile::FewClasses`] / [`InputProfile::Diverse`] to skip the
//! double bookkeeping.

use crate::attack::{best_result, AttackResult};
use crate::classes::{InputClasses, MAX_INPUT_CLASSES};
use crate::cross::{fold_cross_moments, Centers, CrossSums};
use crate::trace::TraceSet;
use crate::{PowerError, Result};

/// Per-input-class statistics: the distinct input values in order of first
/// appearance, how many traces carry each, and the per-class column sums.
///
/// `counts` and `sums` always cover exactly the classes of `table`, and a
/// failed [`ClassState::update`] or [`ClassState::merge`] leaves all three
/// as they were.
#[derive(Debug, Clone)]
struct ClassState {
    table: InputClasses,
    counts: Vec<usize>,
    /// `sums[c * samples + s]` = sum of sample `s` over the traces of class
    /// `c`, accumulated in trace order.
    sums: Vec<f64>,
    /// Class index of every trace of the chunk being folded; reused across
    /// chunks so steady-state updates allocate nothing.
    class_of: Vec<u8>,
}

impl ClassState {
    fn new() -> Self {
        ClassState {
            table: InputClasses::new(),
            counts: Vec::new(),
            sums: Vec::new(),
            class_of: Vec::new(),
        }
    }

    /// Zeroed counts and sums for the classes the table gained.
    fn grow(&mut self, samples: usize) {
        let classes = self.table.values().len();
        self.counts.resize(classes, 0);
        self.sums.resize(classes * samples, 0.0);
    }

    /// Classifies one columnar chunk and folds it into the per-class
    /// counts and sums.  Returns `false`, with the state unchanged, when
    /// the chunk's inputs would take the table past [`MAX_INPUT_CLASSES`]
    /// — the signal to drop class aggregation for good.
    ///
    /// The chunk is the unit of work.  Classification fills `class_of` and
    /// counts the chunk's traces in a local array; only a chunk that fits
    /// commits its counts.  The sums are then folded four sample columns
    /// at a time, with the remaining columns (every column of a one-sample
    /// campaign) one at a time, each block's `(class, sample)` sums held in
    /// a local array across the chunk and written back once.  Every sum
    /// still receives its additions in trace order, so results are
    /// bit-identical to a trace-by-trace fold, whatever the chunking.
    fn update(&mut self, chunk: &TraceSet, samples: usize) -> bool {
        let held = self.table.values().len();
        let mut counts = [0usize; MAX_INPUT_CLASSES];
        self.class_of.clear();
        self.class_of.resize(chunk.len(), 0);
        for (class_of, &input) in self.class_of.iter_mut().zip(chunk.inputs()) {
            let Some(class) = self.table.insert(input) else {
                self.table.truncate(held);
                return false;
            };
            counts[class] += 1;
            *class_of = class as u8;
        }
        self.grow(samples);
        for (total, &count) in self.counts.iter_mut().zip(&counts) {
            *total += count;
        }
        let mut s = 0;
        while s + 4 <= samples {
            let columns = [0, 1, 2, 3].map(|i| chunk.sample_column(s + i));
            fold_class_sums(&self.class_of, columns, &mut self.sums, samples, s);
            s += 4;
        }
        while s < samples {
            let column = [chunk.sample_column(s)];
            fold_class_sums(&self.class_of, column, &mut self.sums, samples, s);
            s += 1;
        }
        true
    }

    /// Merges another class table (covering the trace range *after* this
    /// one) into this one.  Returns `false`, with the state unchanged, when
    /// the union exceeds [`MAX_INPUT_CLASSES`] — the caller must drop class
    /// aggregation.
    fn merge(&mut self, other: &ClassState, samples: usize) -> bool {
        let held = self.table.values().len();
        let mut class_of = [0usize; MAX_INPUT_CLASSES];
        for (class, &value) in class_of.iter_mut().zip(other.table.values()) {
            let Some(mine) = self.table.insert(value) else {
                self.table.truncate(held);
                return false;
            };
            *class = mine;
        }
        self.grow(samples);
        for (i, &class) in class_of[..other.counts.len()].iter().enumerate() {
            self.counts[class] += other.counts[i];
            let mine = &mut self.sums[class * samples..(class + 1) * samples];
            for (acc, &v) in mine.iter_mut().zip(&other.sums[i * samples..]) {
                *acc += v;
            }
        }
        true
    }
}

/// Adds `W` sample columns of a chunk, starting at sample `s`, into the
/// class-major `sums`: the block's running sums are copied into a local
/// array, every trace adds its `W` values to its class's row there in
/// trace order, and the rows are written back.  One trace pass advances
/// `W` independent addition chains per class, and the local rows need no
/// bounds checks.
#[inline(always)]
fn fold_class_sums<const W: usize>(
    class_of: &[u8],
    columns: [&[f64]; W],
    sums: &mut [f64],
    samples: usize,
    s: usize,
) {
    let classes = sums.len() / samples;
    let mut local = [[0.0f64; W]; MAX_INPUT_CLASSES];
    for (c, row) in local[..classes].iter_mut().enumerate() {
        row.copy_from_slice(&sums[c * samples + s..][..W]);
    }
    let columns = columns.map(|column| &column[..class_of.len()]);
    for (t, &class) in class_of.iter().enumerate() {
        // Classes are below MAX_INPUT_CLASSES; the mask only tells the
        // compiler so.
        let row = &mut local[usize::from(class) % MAX_INPUT_CLASSES];
        for (acc, column) in row.iter_mut().zip(&columns) {
            *acc += column[t];
        }
    }
    for (c, row) in local[..classes].iter().enumerate() {
        sums[c * samples + s..][..W].copy_from_slice(row);
    }
}

/// Validates a chunk against the accumulator's sample width (`None` until
/// the first non-empty chunk fixes it) and returns the chunk's width.  The
/// caller records the width once the chunk is folded.
fn check_chunk(chunk: &TraceSet, samples: Option<usize>) -> Result<usize> {
    let width = chunk.sample_count()?;
    if samples.is_some_and(|s| s != width) {
        return Err(PowerError::MalformedTraces {
            message: "traces have inconsistent lengths".into(),
        });
    }
    Ok(width)
}

fn empty_error() -> PowerError {
    PowerError::MalformedTraces {
        message: "trace set is empty".into(),
    }
}

/// How an accumulator balances per-input-class aggregation against the
/// diverse-input fallback sums.
///
/// [`InputProfile::Auto`] maintains **both** representations until the
/// inputs prove diverse — always correct, but it pays the fallback's
/// O(guesses) per trace even for campaigns that end up class-aggregated.
/// Callers that know their input diversity up front (the in-memory attacks
/// pre-scan the inputs; the archive header records the campaign's distinct
/// input count) pick the single matching mode and skip the double
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputProfile {
    /// Unknown diversity: maintain both representations (the safe default).
    #[default]
    Auto,
    /// A promise that at most [`MAX_INPUT_CLASSES`] distinct inputs will be
    /// seen; only class aggregation is maintained.  A broken promise is
    /// reported as [`PowerError::AccumulatorMisuse`], never silently wrong
    /// scores: the update or merge that breaks it leaves the accumulator
    /// as it was.
    FewClasses,
    /// Force the diverse-input path; class aggregation is never attempted.
    Diverse,
}

/// Classifies a full input set the way the attacks do: [`InputProfile::FewClasses`]
/// when at most [`MAX_INPUT_CLASSES`] distinct values occur, otherwise
/// [`InputProfile::Diverse`].
pub fn input_profile(inputs: &[u64]) -> InputProfile {
    let mut classes = InputClasses::new();
    if inputs.iter().all(|&input| classes.insert(input).is_some()) {
        InputProfile::FewClasses
    } else {
        InputProfile::Diverse
    }
}

/// The [`InputProfile`] whose bookkeeping keeps class sums when `classes`
/// and the diverse-input fallback when `wide`.
fn bookkeeping(classes: bool, wide: bool) -> InputProfile {
    match (classes, wide) {
        (false, _) => InputProfile::Diverse,
        (true, true) => InputProfile::Auto,
        (true, false) => InputProfile::FewClasses,
    }
}

fn sealed_error() -> PowerError {
    PowerError::AccumulatorMisuse {
        message: "the CPA accumulator was sealed after one pass (class aggregation needs no \
                  replay) and takes no further traces"
            .into(),
    }
}

fn class_overflow_error() -> PowerError {
    PowerError::AccumulatorMisuse {
        message: format!(
            "more than {MAX_INPUT_CLASSES} distinct inputs under a FewClasses input profile"
        ),
    }
}

/// How many passes over `traces` traces a [`CpaAccumulator`] with the given
/// profile takes: one for [`InputProfile::FewClasses`] over more than
/// [`MAX_INPUT_CLASSES`] traces, two otherwise.  Under
/// [`InputProfile::Auto`] the inputs decide, so this reports the worst
/// case, two.
pub fn cpa_passes(profile: InputProfile, traces: usize) -> usize {
    match profile {
        InputProfile::FewClasses if traces > MAX_INPUT_CLASSES => 1,
        _ => 2,
    }
}

/// Streaming difference-of-means DPA accumulator; see [`crate::dpa_attack`]
/// for the statistic.
///
/// Feed it any chunking of a trace set via [`DpaAccumulator::update`] (all
/// chunks must share one sample width, and chunk order must follow trace
/// order), then [`DpaAccumulator::finalize`].  A single update over a whole
/// [`TraceSet`] is exactly the in-memory [`crate::dpa_attack`]; chunked
/// updates are bit-identical to it.
///
/// `selection` must be a pure function of `(input, guess)`.
#[derive(Debug, Clone)]
pub struct DpaAccumulator<F> {
    selection: F,
    key_guesses: u64,
    samples: Option<usize>,
    traces: usize,
    /// Per-class sums; `None` when the inputs are (or proved) too diverse.
    /// Boxed: the class table is ~1 KiB, and a merged fold keeps one
    /// accumulator per chunk.
    classes: Option<Box<ClassState>>,
    /// Whether the diverse-input fallback sums are maintained.
    wide: bool,
    /// Per-guess selected-trace counts (diverse-input fallback).
    ones: Vec<usize>,
    /// `sum_ones[g * samples + s]` = sum of sample `s` over selected traces.
    sum_ones: Vec<f64>,
    sum_zeros: Vec<f64>,
}

impl<F> DpaAccumulator<F>
where
    F: Fn(u64, u64) -> bool,
{
    /// Creates an empty accumulator for `key_guesses` guesses with the safe
    /// [`InputProfile::Auto`] bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoKeyGuesses`] for zero guesses.
    pub fn new(key_guesses: u64, selection: F) -> Result<Self> {
        Self::with_profile(key_guesses, selection, InputProfile::Auto)
    }

    /// Creates an empty accumulator with a caller-chosen [`InputProfile`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoKeyGuesses`] for zero guesses.
    pub fn with_profile(key_guesses: u64, selection: F, profile: InputProfile) -> Result<Self> {
        if key_guesses == 0 {
            return Err(PowerError::NoKeyGuesses);
        }
        Ok(DpaAccumulator {
            selection,
            key_guesses,
            samples: None,
            traces: 0,
            classes: match profile {
                InputProfile::Diverse => None,
                InputProfile::Auto | InputProfile::FewClasses => Some(Box::new(ClassState::new())),
            },
            wide: profile != InputProfile::FewClasses,
            ones: vec![0; key_guesses as usize],
            sum_ones: Vec::new(),
            sum_zeros: Vec::new(),
        })
    }

    /// Number of traces folded in so far.
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// Folds one chunk of traces into the accumulator.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed chunk, a sample width that differs
    /// from earlier chunks, or a chunk that breaks an
    /// [`InputProfile::FewClasses`] promise.  A failed update folds nothing.
    pub fn update(&mut self, chunk: &TraceSet) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let samples = check_chunk(chunk, self.samples)?;
        let guesses = self.key_guesses as usize;
        if self.wide && self.sum_ones.is_empty() {
            self.sum_ones = vec![0.0; guesses * samples];
            self.sum_zeros = vec![0.0; guesses * samples];
        }

        if let Some(classes) = &mut self.classes {
            if !classes.update(chunk, samples) {
                if !self.wide {
                    return Err(class_overflow_error());
                }
                self.classes = None;
            }
        }
        self.samples = Some(samples);
        if !self.wide {
            self.traces += chunk.len();
            return Ok(());
        }

        // Diverse-input fallback sums.  Under `Auto` they are maintained
        // even while class aggregation is alive: if the classes die later
        // (possibly many chunks in), the fallback must already cover every
        // trace in order.
        //
        // The sample loop is unrolled four columns wide: one trace pass
        // advances four (sum_ones, sum_zeros) accumulator pairs, each fed
        // in trace order — bit-identical to the column-at-a-time fold,
        // with 4x the independent addition chains.  The selected/rejected
        // branch stays a branch on purpose: a branchless `+ 0.0` variant
        // is NOT bit-identical (`-0.0 + 0.0 == +0.0` flips signed zeros).
        let mut mask = vec![false; chunk.len()];
        for guess in 0..self.key_guesses {
            let mut ones = 0usize;
            for (m, &input) in mask.iter_mut().zip(chunk.inputs()) {
                *m = (self.selection)(input, guess);
                ones += usize::from(*m);
            }
            self.ones[guess as usize] += ones;
            let row = guess as usize * samples;
            let mut s = 0;
            while s + 4 <= samples {
                let c0 = chunk.sample_column(s);
                let c1 = chunk.sample_column(s + 1);
                let c2 = chunk.sample_column(s + 2);
                let c3 = chunk.sample_column(s + 3);
                let mut o = [0.0f64; 4];
                let mut z = [0.0f64; 4];
                o.copy_from_slice(&self.sum_ones[row + s..row + s + 4]);
                z.copy_from_slice(&self.sum_zeros[row + s..row + s + 4]);
                for (t, &m) in mask.iter().enumerate() {
                    if m {
                        o[0] += c0[t];
                        o[1] += c1[t];
                        o[2] += c2[t];
                        o[3] += c3[t];
                    } else {
                        z[0] += c0[t];
                        z[1] += c1[t];
                        z[2] += c2[t];
                        z[3] += c3[t];
                    }
                }
                self.sum_ones[row + s..row + s + 4].copy_from_slice(&o);
                self.sum_zeros[row + s..row + s + 4].copy_from_slice(&z);
                s += 4;
            }
            while s < samples {
                let column = chunk.sample_column(s);
                let mut sum_ones = self.sum_ones[row + s];
                let mut sum_zeros = self.sum_zeros[row + s];
                for (&m, &v) in mask.iter().zip(column) {
                    if m {
                        sum_ones += v;
                    } else {
                        sum_zeros += v;
                    }
                }
                self.sum_ones[row + s] = sum_ones;
                self.sum_zeros[row + s] = sum_zeros;
                s += 1;
            }
        }
        self.traces += chunk.len();
        Ok(())
    }

    /// Merges a partial accumulator covering the trace range *after* this
    /// one's.  Both must use the same number of key guesses (and, by
    /// contract, the same selection function).  For deterministic results,
    /// merge partials in trace-range order.
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched guess counts or sample widths.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.key_guesses != other.key_guesses || self.wide != other.wide {
            return Err(PowerError::AccumulatorMisuse {
                message: "cannot merge accumulators with different key guess counts or profiles"
                    .into(),
            });
        }
        if other.traces == 0 {
            return Ok(());
        }
        if self.traces == 0 {
            self.samples = other.samples;
            self.traces = other.traces;
            self.classes = other.classes.clone();
            self.ones = other.ones.clone();
            self.sum_ones = other.sum_ones.clone();
            self.sum_zeros = other.sum_zeros.clone();
            return Ok(());
        }
        if self.samples != other.samples {
            return Err(PowerError::MalformedTraces {
                message: "traces have inconsistent lengths".into(),
            });
        }
        let samples = self.samples.unwrap_or(0);
        let keep_classes = match (&mut self.classes, &other.classes) {
            (Some(mine), Some(theirs)) => mine.merge(theirs, samples),
            _ => false,
        };
        if !keep_classes {
            if !self.wide {
                // Unreachable for well-typed FewClasses accumulators (their
                // updates error before dropping classes), but a merge of a
                // lying pair must not finalize without fallback sums.
                return Err(class_overflow_error());
            }
            self.classes = None;
        }
        for (acc, &v) in self.ones.iter_mut().zip(&other.ones) {
            *acc += v;
        }
        for (acc, &v) in self.sum_ones.iter_mut().zip(&other.sum_ones) {
            *acc += v;
        }
        for (acc, &v) in self.sum_zeros.iter_mut().zip(&other.sum_zeros) {
            *acc += v;
        }
        self.traces += other.traces;
        Ok(())
    }

    /// Scores every key guess from the accumulated statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated.
    pub fn finalize(self) -> Result<AttackResult> {
        self.evaluate()
    }

    /// Scores every key guess **without consuming** the accumulator — the
    /// partial-prefix evaluation the measurements-to-disclosure sweeps of
    /// `dpl-eval` rely on: feed traces incrementally and snapshot the attack
    /// outcome at each grid point, instead of re-running the attack from
    /// scratch per trace count.
    ///
    /// Evaluating after `k` updates is exactly [`crate::dpa_attack`] over the
    /// traces folded so far.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated.
    pub fn evaluate(&self) -> Result<AttackResult> {
        if self.traces == 0 {
            return Err(empty_error());
        }
        let samples = self.samples.unwrap_or(0);
        let total = self.traces;
        let mut scores = Vec::with_capacity(self.key_guesses as usize);

        if let Some(classes) = &self.classes {
            let mut selected = vec![false; classes.table.values().len()];
            for guess in 0..self.key_guesses {
                for (sel, &value) in selected.iter_mut().zip(classes.table.values()) {
                    *sel = (self.selection)(value, guess);
                }
                let mut ones = 0usize;
                for (&sel, &count) in selected.iter().zip(&classes.counts) {
                    if sel {
                        ones += count;
                    }
                }
                let zeros = total - ones;
                let mut best = 0.0f64;
                if ones > 0 && zeros > 0 {
                    for s in 0..samples {
                        let mut sum_ones = 0.0;
                        let mut sum_zeros = 0.0;
                        for (class, &sel) in selected.iter().enumerate() {
                            if sel {
                                sum_ones += classes.sums[class * samples + s];
                            } else {
                                sum_zeros += classes.sums[class * samples + s];
                            }
                        }
                        let dom = (sum_ones / ones as f64 - sum_zeros / zeros as f64).abs();
                        best = best.max(dom);
                    }
                }
                scores.push(best);
            }
        } else {
            for guess in 0..self.key_guesses {
                let ones = self.ones[guess as usize];
                let zeros = total - ones;
                let mut best = 0.0f64;
                if ones > 0 && zeros > 0 {
                    let row = guess as usize * samples;
                    for s in 0..samples {
                        let dom = (self.sum_ones[row + s] / ones as f64
                            - self.sum_zeros[row + s] / zeros as f64)
                            .abs();
                        best = best.max(dom);
                    }
                }
                scores.push(best);
            }
        }
        Ok(best_result(scores))
    }
}

/// One sample column's first-pass sums shifted by its first sample `k`:
/// `sum = Σ(v−k)` and `sq = Σ(v−k)²`, accumulated in trace order.  The
/// shift keeps `sq − sum²/n` free of the cancellation a large column
/// offset would cause in `Σv² − (Σv)²/n` (Chan, Golub & LeVeque's
/// shifted-data form).
#[derive(Debug, Clone, Copy, Default)]
struct ShiftedColumn {
    k: f64,
    sum: f64,
    sq: f64,
}

impl ShiftedColumn {
    #[inline]
    fn add(&mut self, v: f64) {
        let d = v - self.k;
        self.sum += d;
        self.sq += d * d;
    }

    /// Adds `other`'s `n` later traces, re-shifted onto this column's `k`:
    /// with `δ = k' − k`, `Σ(v−k) = Σ(v−k') + nδ` and
    /// `Σ(v−k)² = Σ(v−k')² + δ(2Σ(v−k') + nδ)`.
    fn merge(&mut self, other: &ShiftedColumn, n: f64) {
        let delta = other.k - self.k;
        self.sq += other.sq + delta * (2.0 * other.sum + n * delta);
        self.sum += other.sum + n * delta;
    }
}

/// The pass a [`CpaAccumulator`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpaPass {
    /// Accumulating column and hypothesis sums (pass 1).
    Means,
    /// Replaying the traces for centered second moments against the sealed
    /// means (pass 2; diverse inputs only).
    Moments,
    /// Sealed after pass 1 with class aggregation alive: every statistic is
    /// final and no replay is taken.
    Sealed,
}

/// Streaming correlation-power-analysis accumulator; see
/// [`crate::cpa_attack`] for the statistic.
///
/// Pearson correlation centers every term on the *final* column means.
/// Feed every chunk via [`CpaAccumulator::update`], then call
/// [`CpaAccumulator::begin_second_pass`], which seals the first pass and
/// reports whether the traces must be replayed:
///
/// * **No replay while class aggregation is alive** (at most
///   [`MAX_INPUT_CLASSES`] distinct inputs over more than
///   [`MAX_INPUT_CLASSES`] traces).  The first pass also keeps
///   each column's sums shifted by its first sample `K`, `Σ(v−K)` and
///   `Σ(v−K)²`, in trace order; sealing derives the mean
///   `K + Σ(v−K)/n` and the centered sum of squares
///   `Σ(v−K)² − (Σ(v−K))²/n` from them (the shifted-data form of Chan,
///   Golub & LeVeque), and the per-class sums cover the rest.  Finalize
///   right away: a campaign is read once.
/// * **One replay on the diverse-input path** (the profile is
///   [`InputProfile::Diverse`], or the classes overflowed), and for sets of
///   at most [`MAX_INPUT_CLASSES`] traces.  The per-guess centered
///   cross-products need the sealed means, so feed every chunk again in
///   the same order, then [`CpaAccumulator::finalize`].
///
/// The first pass adds `model(x, g)` into the per-guess sums with guesses
/// as independent lanes.  The replay runs [`crate::fold_cross_moments`]
/// over blocks of 128 traces: it centers the block's columns and tabulates its centered
/// hypotheses once, then walks a 4-guess × 4-column register tile over the
/// block for every tile of the guess × sample grid.  The invariant that
/// keeps every fold bit-identical is trace order: each `(guess, sample)`
/// cross-product and each sum of squares receives exactly the products a
/// trace-by-trace loop gives it, in trace order, with no fused
/// multiply-add and no reassociation.  Only the interleaving between slots
/// differs, so chunk size and shard layout leave no trace in the bits;
/// chunk-parallel folds differ from the sequential one only through their
/// merges.
///
/// Replaying identical chunks is trivial for an on-disk archive and free
/// for an in-memory set.  Running this protocol over one whole
/// [`TraceSet`] is exactly the in-memory [`crate::cpa_attack`], and chunked
/// folds are bit-identical to it.
///
/// `model` must be a pure function of `(input, guess)`.
#[derive(Debug, Clone)]
pub struct CpaAccumulator<F> {
    model: F,
    key_guesses: u64,
    samples: Option<usize>,
    traces: usize,
    pass: CpaPass,
    classes: Option<Box<ClassState>>,
    /// Whether the diverse-input fallback statistics are maintained.
    wide: bool,
    /// Per-sample column sums (pass 1; the means of a two-pass fold).
    col_sum: Vec<f64>,
    /// Per-guess hypothesis sums (pass 1, diverse-input fallback).
    hyp_sum: Vec<f64>,
    /// Per-sample shifted sums (pass 1, while class aggregation is alive).
    shifted: Vec<ShiftedColumn>,
    /// Sealed per-sample column means (set by `begin_second_pass`).
    col_mean: Vec<f64>,
    /// Sealed per-guess hypothesis means (diverse-input fallback).
    hyp_mean: Vec<f64>,
    /// Per-sample centered sums of squares (sealed from the shifted sums,
    /// or accumulated by pass 2).
    col_css: Vec<f64>,
    /// Per-guess centered hypothesis sums of squares (pass 2, fallback).
    hyp_css: Vec<f64>,
    /// `cov[g * samples + s]` centered cross-products (pass 2, fallback).
    cov: Vec<f64>,
    /// Traces seen by the second pass (must equal `traces` to finalize).
    second_pass_traces: usize,
}

impl<F> CpaAccumulator<F>
where
    F: Fn(u64, u64) -> f64,
{
    /// Creates an empty accumulator for `key_guesses` guesses with the safe
    /// [`InputProfile::Auto`] bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoKeyGuesses`] for zero guesses.
    pub fn new(key_guesses: u64, model: F) -> Result<Self> {
        Self::with_profile(key_guesses, model, InputProfile::Auto)
    }

    /// Creates an empty accumulator with a caller-chosen [`InputProfile`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoKeyGuesses`] for zero guesses.
    pub fn with_profile(key_guesses: u64, model: F, profile: InputProfile) -> Result<Self> {
        if key_guesses == 0 {
            return Err(PowerError::NoKeyGuesses);
        }
        Ok(CpaAccumulator {
            model,
            key_guesses,
            samples: None,
            traces: 0,
            pass: CpaPass::Means,
            classes: match profile {
                InputProfile::Diverse => None,
                InputProfile::Auto | InputProfile::FewClasses => Some(Box::new(ClassState::new())),
            },
            wide: profile != InputProfile::FewClasses,
            col_sum: Vec::new(),
            hyp_sum: vec![0.0; key_guesses as usize],
            shifted: Vec::new(),
            col_mean: Vec::new(),
            hyp_mean: Vec::new(),
            col_css: Vec::new(),
            hyp_css: Vec::new(),
            cov: Vec::new(),
            second_pass_traces: 0,
        })
    }

    /// Number of traces folded into the first pass so far.
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// An empty partial for a later share of the current pass, to be
    /// [`CpaAccumulator::merge`]d back in range order: in the first pass, a
    /// fresh accumulator with this one's guess count, model and
    /// bookkeeping; in the second, a [`CpaAccumulator::fork`].
    ///
    /// # Errors
    ///
    /// Returns an error after a one-pass seal.
    pub fn partial(&self) -> Result<Self>
    where
        F: Clone,
    {
        if self.pass != CpaPass::Means {
            return self.fork();
        }
        let profile = bookkeeping(self.classes.is_some(), self.wide);
        Self::with_profile(self.key_guesses, self.model.clone(), profile)
    }

    /// Folds one chunk of traces into the current pass.  A second pass must
    /// replay exactly the traces of the first, in the same order.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed chunk, a sample width that differs
    /// from earlier chunks, a chunk that breaks an
    /// [`InputProfile::FewClasses`] promise, or a chunk fed after a
    /// one-pass seal (when [`CpaAccumulator::begin_second_pass`] returned
    /// `false`).  A failed update folds nothing.
    pub fn update(&mut self, chunk: &TraceSet) -> Result<()> {
        match self.pass {
            CpaPass::Means => self.update_means(chunk),
            CpaPass::Moments => self.update_moments(chunk),
            CpaPass::Sealed => Err(sealed_error()),
        }
    }

    fn update_means(&mut self, chunk: &TraceSet) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let samples = check_chunk(chunk, self.samples)?;
        if let Some(classes) = &mut self.classes {
            if !classes.update(chunk, samples) {
                if !self.wide {
                    return Err(class_overflow_error());
                }
                self.drop_classes();
            }
        }
        self.samples = Some(samples);
        if self.col_sum.is_empty() {
            self.col_sum = vec![0.0; samples];
        }
        if self.classes.is_some() {
            self.fold_shifted(chunk, samples);
        } else {
            self.fold_col_sum(chunk, samples);
        }
        if self.wide {
            // Guesses are the inner loop: independent addition lanes, each
            // fed in trace order.
            for &input in chunk.inputs() {
                for (guess, sum) in self.hyp_sum.iter_mut().enumerate() {
                    *sum += (self.model)(input, guess as u64);
                }
            }
        }
        self.traces += chunk.len();
        Ok(())
    }

    /// Drops class aggregation for good, with the shifted sums only it
    /// reads.
    fn drop_classes(&mut self) {
        self.classes = None;
        self.shifted = Vec::new();
    }

    /// Folds a chunk into the column sums `Σv`.
    fn fold_col_sum(&mut self, chunk: &TraceSet, samples: usize) {
        // Four-column unroll: one trace pass feeds four independent column
        // sums in trace order — bit-identical to summing column by column.
        let mut s = 0;
        while s + 4 <= samples {
            let c0 = chunk.sample_column(s);
            let c1 = chunk.sample_column(s + 1);
            let c2 = chunk.sample_column(s + 2);
            let c3 = chunk.sample_column(s + 3);
            let acc = &mut self.col_sum[s..s + 4];
            for t in 0..chunk.len() {
                acc[0] += c0[t];
                acc[1] += c1[t];
                acc[2] += c2[t];
                acc[3] += c3[t];
            }
            s += 4;
        }
        while s < samples {
            let col_sum = &mut self.col_sum[s];
            for &v in chunk.sample_column(s) {
                *col_sum += v;
            }
            s += 1;
        }
    }

    /// Folds a chunk into the column sums `Σv` and, in the same trace
    /// pass, the shifted sums of the one-pass seal, fixing each column's
    /// shift `K` to its first sample on the first chunk.  Every
    /// accumulator is fed in trace order, so any chunking of the same
    /// traces gives the same bits (and `Σv` the same bits as
    /// [`Self::fold_col_sum`]).
    fn fold_shifted(&mut self, chunk: &TraceSet, samples: usize) {
        if self.shifted.is_empty() {
            self.shifted = (0..samples)
                .map(|s| ShiftedColumn {
                    k: chunk.sample_column(s)[0],
                    sum: 0.0,
                    sq: 0.0,
                })
                .collect();
        }
        let mut s = 0;
        while s + 4 <= samples {
            let c0 = chunk.sample_column(s);
            let c1 = chunk.sample_column(s + 1);
            let c2 = chunk.sample_column(s + 2);
            let c3 = chunk.sample_column(s + 3);
            let mut plain = [0.0f64; 4];
            let mut columns = [ShiftedColumn::default(); 4];
            plain.copy_from_slice(&self.col_sum[s..s + 4]);
            columns.copy_from_slice(&self.shifted[s..s + 4]);
            for (((&v0, &v1), &v2), &v3) in c0.iter().zip(c1).zip(c2).zip(c3) {
                let lanes = plain.iter_mut().zip(&mut columns);
                for ((p, column), v) in lanes.zip([v0, v1, v2, v3]) {
                    *p += v;
                    column.add(v);
                }
            }
            self.col_sum[s..s + 4].copy_from_slice(&plain);
            self.shifted[s..s + 4].copy_from_slice(&columns);
            s += 4;
        }
        while s < samples {
            let mut plain = self.col_sum[s];
            let mut column = self.shifted[s];
            for &v in chunk.sample_column(s) {
                plain += v;
                column.add(v);
            }
            self.col_sum[s] = plain;
            self.shifted[s] = column;
            s += 1;
        }
    }

    /// Seals the first pass and reports whether the traces must be
    /// replayed.
    ///
    /// Returns `false` when class aggregation survived a first pass of
    /// more than [`MAX_INPUT_CLASSES`] traces: the column means and
    /// centered sums of squares follow from the shifted sums, and the
    /// accumulator is ready to finalize.  Returns `true` otherwise: the
    /// means are sealed, and every first-pass chunk must be fed again, in
    /// order, before finalizing.  That is the diverse-input path, and also
    /// every set of at most [`MAX_INPUT_CLASSES`] traces, whose replay is
    /// tiny and keeps all-distinct-input sets bit-identical to
    /// [`crate::reference::cpa_attack`].  [`cpa_passes`] predicts the
    /// answer from the input profile.
    ///
    /// # Errors
    ///
    /// Returns an error if the first pass was already sealed.
    pub fn begin_second_pass(&mut self) -> Result<bool> {
        if self.pass != CpaPass::Means {
            return Err(PowerError::AccumulatorMisuse {
                message: "the CPA accumulator's first pass is already sealed".into(),
            });
        }
        let n = self.traces as f64;
        if self.classes.is_some() && self.traces > MAX_INPUT_CLASSES {
            self.pass = CpaPass::Sealed;
            self.col_mean = self.shifted.iter().map(|c| c.k + c.sum / n).collect();
            self.col_css = self
                .shifted
                .iter()
                .map(|c| c.sq - c.sum * c.sum / n)
                .collect();
            return Ok(false);
        }
        self.pass = CpaPass::Moments;
        let samples = self.samples.unwrap_or(0);
        self.col_mean = self.col_sum.iter().map(|&sum| sum / n).collect();
        self.col_css = vec![0.0; samples];
        if self.classes.is_none() {
            let guesses = self.key_guesses as usize;
            self.hyp_mean = self.hyp_sum.iter().map(|&sum| sum / n).collect();
            self.hyp_css = vec![0.0; guesses];
            self.cov = vec![0.0; guesses * samples];
        }
        Ok(true)
    }

    fn update_moments(&mut self, chunk: &TraceSet) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        self.samples = Some(check_chunk(chunk, self.samples)?);
        // With class aggregation alive there are no guesses to fold
        // (`hyp_css` and `cov` are empty): the kernel folds `col_css` alone.
        fold_cross_moments(
            chunk,
            &self.model,
            Some(Centers {
                cols: &self.col_mean,
                hyps: &self.hyp_mean,
            }),
            CrossSums {
                hyp_sum: None,
                hyp_sq: &mut self.hyp_css,
                col_sq: &mut self.col_css,
                cross: &mut self.cov,
            },
        );
        self.second_pass_traces += chunk.len();
        Ok(())
    }

    /// Merges a partial accumulator in the same pass.
    ///
    /// In the first pass `other` must cover the trace range after this
    /// one's; all pass-1 state is combined, with `other`'s shifted sums
    /// re-shifted onto this accumulator's first samples.  In the second
    /// pass `other` must be a [`CpaAccumulator::fork`] of this accumulator
    /// that folded a later share of the replayed chunks; only pass-2 sums
    /// are combined.  Merge partials in trace-range order for deterministic
    /// results.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched guess counts, passes, or sample
    /// widths, or for accumulators sealed after one pass.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.key_guesses != other.key_guesses || self.wide != other.wide {
            return Err(PowerError::AccumulatorMisuse {
                message: "cannot merge accumulators with different key guess counts or profiles"
                    .into(),
            });
        }
        if self.pass != other.pass {
            return Err(PowerError::AccumulatorMisuse {
                message: "cannot merge CPA accumulators in different passes".into(),
            });
        }
        match self.pass {
            CpaPass::Means => {
                if other.traces == 0 {
                    return Ok(());
                }
                if self.traces == 0 {
                    self.samples = other.samples;
                    self.traces = other.traces;
                    self.classes = other.classes.clone();
                    self.col_sum = other.col_sum.clone();
                    self.hyp_sum = other.hyp_sum.clone();
                    self.shifted = other.shifted.clone();
                    return Ok(());
                }
                if self.samples != other.samples {
                    return Err(PowerError::MalformedTraces {
                        message: "traces have inconsistent lengths".into(),
                    });
                }
                let samples = self.samples.unwrap_or(0);
                let keep_classes = match (&mut self.classes, &other.classes) {
                    (Some(mine), Some(theirs)) => mine.merge(theirs, samples),
                    _ => false,
                };
                if keep_classes {
                    let n = other.traces as f64;
                    for (mine, theirs) in self.shifted.iter_mut().zip(&other.shifted) {
                        mine.merge(theirs, n);
                    }
                } else {
                    if !self.wide {
                        return Err(class_overflow_error());
                    }
                    self.drop_classes();
                }
                for (acc, &v) in self.col_sum.iter_mut().zip(&other.col_sum) {
                    *acc += v;
                }
                for (acc, &v) in self.hyp_sum.iter_mut().zip(&other.hyp_sum) {
                    *acc += v;
                }
                self.traces += other.traces;
            }
            CpaPass::Moments => {
                if self.traces != other.traces || self.samples != other.samples {
                    return Err(PowerError::AccumulatorMisuse {
                        message: "second-pass merge requires forks of the same first pass".into(),
                    });
                }
                for (acc, &v) in self.col_css.iter_mut().zip(&other.col_css) {
                    *acc += v;
                }
                for (acc, &v) in self.hyp_css.iter_mut().zip(&other.hyp_css) {
                    *acc += v;
                }
                for (acc, &v) in self.cov.iter_mut().zip(&other.cov) {
                    *acc += v;
                }
                self.second_pass_traces += other.second_pass_traces;
            }
            CpaPass::Sealed => return Err(sealed_error()),
        }
        Ok(())
    }

    /// A second-pass worker accumulator: shares this accumulator's sealed
    /// means but starts with zeroed pass-2 sums, so disjoint chunk shares
    /// can be folded in parallel and merged back in chunk order.
    ///
    /// # Errors
    ///
    /// Returns an error unless a second pass has begun (that is,
    /// [`CpaAccumulator::begin_second_pass`] returned `true`).
    pub fn fork(&self) -> Result<Self>
    where
        F: Clone,
    {
        if self.pass != CpaPass::Moments {
            return Err(PowerError::AccumulatorMisuse {
                message: "fork() requires a second pass; begin_second_pass must have returned true"
                    .into(),
            });
        }
        let mut fork = self.clone();
        fork.col_css.iter_mut().for_each(|v| *v = 0.0);
        fork.hyp_css.iter_mut().for_each(|v| *v = 0.0);
        fork.cov.iter_mut().for_each(|v| *v = 0.0);
        fork.second_pass_traces = 0;
        Ok(fork)
    }

    /// Scores every key guess from the accumulated statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated, if the first pass was
    /// not sealed, or if a second pass did not replay exactly the first
    /// pass's traces.
    pub fn finalize(self) -> Result<AttackResult> {
        self.evaluate()
    }

    /// Scores every key guess **without consuming** the accumulator (the
    /// non-destructive counterpart of [`CpaAccumulator::finalize`]).  Unlike
    /// the one-pass DPA accumulator this is only valid once the first pass
    /// is sealed and any second pass has replayed every first-pass trace —
    /// Pearson centers on the final means, so a mid-stream CPA snapshot has
    /// no well-defined value; prefix sweeps use the raw-moment prefix
    /// evaluator in `dpl-eval` instead.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated, if the first pass was
    /// not sealed, or if a second pass did not replay exactly the first
    /// pass's traces.
    pub fn evaluate(&self) -> Result<AttackResult> {
        if self.traces == 0 {
            return Err(empty_error());
        }
        let unfinished = match self.pass {
            CpaPass::Means => Some("the first pass is not sealed; call begin_second_pass".into()),
            CpaPass::Moments if self.second_pass_traces != self.traces => Some(format!(
                "the second pass covered {} of {} traces",
                self.second_pass_traces, self.traces
            )),
            CpaPass::Moments | CpaPass::Sealed => None,
        };
        if let Some(message) = unfinished {
            return Err(PowerError::AccumulatorMisuse { message });
        }
        let samples = self.samples.unwrap_or(0);
        let n = self.traces;
        let mut scores = Vec::with_capacity(self.key_guesses as usize);

        if let Some(classes) = &self.classes {
            let mut hypothesis = vec![0.0f64; classes.table.values().len()];
            for guess in 0..self.key_guesses {
                for (h, &value) in hypothesis.iter_mut().zip(classes.table.values()) {
                    *h = (self.model)(value, guess);
                }
                let mut mh = 0.0;
                for (&h, &count) in hypothesis.iter().zip(&classes.counts) {
                    mh += count as f64 * h;
                }
                mh /= n as f64;
                let mut va = 0.0;
                for (&h, &count) in hypothesis.iter().zip(&classes.counts) {
                    va += count as f64 * (h - mh) * (h - mh);
                }
                let mut best = 0.0f64;
                for s in 0..samples {
                    let vb = self.col_css[s];
                    let my = self.col_mean[s];
                    let mut cov = 0.0;
                    for (class, &h) in hypothesis.iter().enumerate() {
                        cov += (h - mh)
                            * (classes.sums[class * samples + s]
                                - classes.counts[class] as f64 * my);
                    }
                    let corr = if n < 2 || va <= 0.0 || vb <= 0.0 {
                        0.0
                    } else {
                        cov / (va.sqrt() * vb.sqrt())
                    };
                    best = best.max(corr.abs());
                }
                scores.push(best);
            }
        } else {
            for guess in 0..self.key_guesses {
                let va = self.hyp_css[guess as usize];
                let row = guess as usize * samples;
                let mut best = 0.0f64;
                for s in 0..samples {
                    let vb = self.col_css[s];
                    let corr = if n < 2 || va <= 0.0 || vb <= 0.0 {
                        0.0
                    } else {
                        self.cov[row + s] / (va.sqrt() * vb.sqrt())
                    };
                    best = best.max(corr.abs());
                }
                scores.push(best);
            }
        }
        Ok(best_result(scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cpa_attack, dpa_attack};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sbox(x: u64) -> u64 {
        const SBOX: [u64; 16] = [
            0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
        ];
        SBOX[(x & 0xF) as usize]
    }

    /// Multi-sample traces; `wide` controls whether inputs exceed the class
    /// aggregation limit.
    fn trace_set(seed: u64, traces: usize, samples: usize, wide: bool) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = TraceSet::new();
        for _ in 0..traces {
            let input = if wide {
                rng.gen_range(0..u64::MAX)
            } else {
                rng.gen_range(0..16u64)
            };
            let leak = sbox(input ^ 0xB).count_ones() as f64;
            let samples: Vec<f64> = (0..samples)
                .map(|_| leak + rng.gen_range(-0.8..0.8))
                .collect();
            set.push_samples(input, &samples);
        }
        set
    }

    fn chunks_of(set: &TraceSet, chunk: usize) -> Vec<TraceSet> {
        let samples = set.sample_count().unwrap();
        let mut out = Vec::new();
        let mut start = 0;
        while start < set.len() {
            let end = (start + chunk).min(set.len());
            let mut part = TraceSet::with_capacity(samples, end - start);
            for t in start..end {
                part.push_samples(set.inputs()[t], &set.trace_samples(t));
            }
            out.push(part);
            start = end;
        }
        out
    }

    fn selection(input: u64, guess: u64) -> bool {
        sbox(input ^ guess).count_ones() >= 2
    }

    fn model(input: u64, guess: u64) -> f64 {
        sbox(input ^ guess).count_ones() as f64
    }

    /// Runs the CPA protocol over `chunks`: one pass, then a replay only
    /// when the sealed accumulator asks for it.  Returns the scores and
    /// whether a replay was taken.
    fn fold_cpa<F: Fn(u64, u64) -> f64>(
        mut acc: CpaAccumulator<F>,
        chunks: &[TraceSet],
    ) -> (AttackResult, bool) {
        for chunk in chunks {
            acc.update(chunk).unwrap();
        }
        let replay = acc.begin_second_pass().unwrap();
        if replay {
            for chunk in chunks {
                acc.update(chunk).unwrap();
            }
        }
        (acc.finalize().unwrap(), replay)
    }

    #[test]
    fn chunked_dpa_is_bit_identical_to_in_memory() {
        for (wide, samples) in [(false, 1), (false, 3), (true, 2)] {
            let set = trace_set(42, 333, samples, wide);
            let whole = dpa_attack(&set, 16, selection).unwrap();
            for chunk_size in [1, 7, 64, 100] {
                let mut acc = DpaAccumulator::new(16, selection).unwrap();
                for chunk in chunks_of(&set, chunk_size) {
                    acc.update(&chunk).unwrap();
                }
                let streamed = acc.finalize().unwrap();
                assert_eq!(
                    streamed.scores, whole.scores,
                    "wide={wide} chunk={chunk_size}"
                );
                assert_eq!(streamed.best_guess, whole.best_guess);
            }
        }
    }

    #[test]
    fn chunked_cpa_is_bit_identical_to_in_memory() {
        for (wide, samples) in [(false, 1), (false, 3), (true, 2)] {
            let set = trace_set(77, 257, samples, wide);
            let whole = cpa_attack(&set, 16, model).unwrap();
            for chunk_size in [1, 13, 257] {
                let acc = CpaAccumulator::new(16, model).unwrap();
                let (streamed, replay) = fold_cpa(acc, &chunks_of(&set, chunk_size));
                assert_eq!(replay, wide, "only diverse inputs take a second pass");
                assert_eq!(
                    streamed.scores, whole.scores,
                    "wide={wide} chunk={chunk_size}"
                );
                assert_eq!(streamed.best_guess, whole.best_guess);
            }
        }
    }

    #[test]
    fn merged_dpa_partials_match_within_reassociation_error() {
        for wide in [false, true] {
            let set = trace_set(5, 300, 2, wide);
            let whole = dpa_attack(&set, 16, selection).unwrap();
            let mut merged = DpaAccumulator::new(16, selection).unwrap();
            for chunk in chunks_of(&set, 64) {
                let mut partial = DpaAccumulator::new(16, selection).unwrap();
                partial.update(&chunk).unwrap();
                merged.merge(&partial).unwrap();
            }
            assert_eq!(merged.traces(), 300);
            let result = merged.finalize().unwrap();
            assert_eq!(result.best_guess, whole.best_guess, "wide={wide}");
            for (a, b) in result.scores.iter().zip(&whole.scores) {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "wide={wide}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn merged_cpa_forks_match_within_reassociation_error() {
        for wide in [false, true] {
            let set = trace_set(6, 300, 2, wide);
            let whole = cpa_attack(&set, 16, model).unwrap();
            let chunks = chunks_of(&set, 64);
            let mut acc = CpaAccumulator::new(16, model).unwrap();
            for chunk in &chunks {
                let mut partial = CpaAccumulator::new(16, model).unwrap();
                partial.update(chunk).unwrap();
                acc.merge(&partial).unwrap();
            }
            assert_eq!(acc.begin_second_pass().unwrap(), wide);
            if wide {
                for chunk in &chunks {
                    let mut fork = acc.fork().unwrap();
                    fork.update(chunk).unwrap();
                    acc.merge(&fork).unwrap();
                }
            }
            let result = acc.finalize().unwrap();
            assert_eq!(result.best_guess, whole.best_guess, "wide={wide}");
            for (a, b) in result.scores.iter().zip(&whole.scores) {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "wide={wide}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn class_aggregation_survives_exactly_the_in_memory_condition() {
        // 64 distinct inputs: class mode must survive; 65: it must die, even
        // when the 65th value arrives many chunks after the 64th.
        for (distinct, expect_classes) in [(64u64, true), (65, false)] {
            let mut set = TraceSet::new();
            for t in 0..260u64 {
                set.push_samples(t % distinct, &[t as f64 * 0.25]);
            }
            let whole = dpa_attack(&set, 8, |i, g| (i ^ g) & 1 == 0).unwrap();
            let mut acc = DpaAccumulator::new(8, |i, g| (i ^ g) & 1 == 0).unwrap();
            for chunk in chunks_of(&set, 16) {
                acc.update(&chunk).unwrap();
            }
            assert_eq!(acc.classes.is_some(), expect_classes);
            let streamed = acc.finalize().unwrap();
            assert_eq!(streamed.scores, whole.scores, "distinct={distinct}");
        }
    }

    #[test]
    fn accumulator_misuse_is_reported() {
        assert!(matches!(
            DpaAccumulator::new(0, |_, _| true),
            Err(PowerError::NoKeyGuesses)
        ));
        assert!(matches!(
            CpaAccumulator::new(0, |_, _| 0.0),
            Err(PowerError::NoKeyGuesses)
        ));

        // Empty accumulators finalize with the empty-set error.
        let acc = DpaAccumulator::new(4, |_, _| true).unwrap();
        assert!(matches!(
            acc.finalize(),
            Err(PowerError::MalformedTraces { .. })
        ));

        // Finalizing CPA before sealing, or without the complete second
        // pass the diverse-input path asks for, is misuse.
        let set = trace_set(9, 80, 1, true);
        let mut acc = CpaAccumulator::new(4, model).unwrap();
        acc.update(&set).unwrap();
        assert!(matches!(
            acc.clone().finalize(),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert!(acc.fork().is_err());
        assert!(acc.begin_second_pass().unwrap());
        assert!(acc.begin_second_pass().is_err());
        assert!(matches!(
            acc.clone().finalize(),
            Err(PowerError::AccumulatorMisuse { .. })
        ));

        // A one-pass seal finalizes at once and refuses further traces,
        // forks and merges: a replay would fold every trace twice.
        let few = trace_set(9, 100, 1, false);
        let mut acc = CpaAccumulator::new(4, model).unwrap();
        acc.update(&few).unwrap();
        assert!(matches!(
            acc.clone().finalize(),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert!(!acc.begin_second_pass().unwrap());
        assert!(acc.begin_second_pass().is_err());
        assert!(acc.fork().is_err());
        assert!(matches!(
            acc.update(&few),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert!(matches!(
            acc.clone().merge(&acc),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert_eq!(
            acc.finalize().unwrap().scores,
            cpa_attack(&few, 4, model).unwrap().scores
        );

        // Mismatched widths across chunks are malformed.
        let mut acc = DpaAccumulator::new(4, |_, _| true).unwrap();
        acc.update(&trace_set(1, 8, 2, false)).unwrap();
        assert!(matches!(
            acc.update(&trace_set(2, 8, 3, false)),
            Err(PowerError::MalformedTraces { .. })
        ));

        // Mismatched guess counts cannot merge.
        fn always(_: u64, _: u64) -> bool {
            true
        }
        let mut a = DpaAccumulator::new(4, always).unwrap();
        let b = DpaAccumulator::new(8, always).unwrap();
        assert!(matches!(
            a.merge(&b),
            Err(PowerError::AccumulatorMisuse { .. })
        ));

        // Pass-mismatched CPA merges are rejected.
        let mut p1 = CpaAccumulator::new(4, model).unwrap();
        p1.update(&set).unwrap();
        let mut p2 = p1.clone();
        p2.begin_second_pass().unwrap();
        assert!(matches!(
            p1.merge(&p2),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
    }

    #[test]
    fn input_profile_matches_the_aggregation_condition() {
        let few: Vec<u64> = (0..300).map(|t| t % 64).collect();
        assert_eq!(input_profile(&few), InputProfile::FewClasses);
        let diverse: Vec<u64> = (0..65).collect();
        assert_eq!(input_profile(&diverse), InputProfile::Diverse);
        assert_eq!(input_profile(&[]), InputProfile::FewClasses);
    }

    #[test]
    fn hinted_profiles_are_bit_identical_to_auto() {
        // FewClasses on few-input traces and Diverse on wide traces must
        // reproduce the Auto accumulator (and hence the in-memory attacks)
        // exactly; dpa_attack/cpa_attack already run through the pre-scan,
        // so compare hinted accumulators against them.
        let few = trace_set(21, 240, 2, false);
        let wide = trace_set(22, 240, 2, true);
        for (set, profile) in [
            (&few, InputProfile::FewClasses),
            (&wide, InputProfile::Diverse),
        ] {
            let expected = dpa_attack(set, 16, selection).unwrap();
            let mut acc = DpaAccumulator::with_profile(16, selection, profile).unwrap();
            for chunk in chunks_of(set, 50) {
                acc.update(&chunk).unwrap();
            }
            assert_eq!(acc.finalize().unwrap().scores, expected.scores);

            let expected = cpa_attack(set, 16, model).unwrap();
            let acc = CpaAccumulator::with_profile(16, model, profile).unwrap();
            let (streamed, _) = fold_cpa(acc, &chunks_of(set, 50));
            assert_eq!(streamed.scores, expected.scores);
        }
    }

    #[test]
    fn broken_few_classes_promise_is_an_error_not_wrong_scores() {
        let wide = trace_set(23, 100, 1, true);
        let mut dpa =
            DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
        assert!(matches!(
            dpa.update(&wide),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        let mut cpa = CpaAccumulator::with_profile(16, model, InputProfile::FewClasses).unwrap();
        assert!(matches!(
            cpa.update(&wide),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        // Mixed-profile merges are rejected.
        let mut auto = DpaAccumulator::new(16, selection).unwrap();
        let hinted = DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
        assert!(matches!(
            auto.merge(&hinted),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
    }

    #[test]
    fn evaluate_snapshots_are_prefix_attacks() {
        // Feeding chunks and snapshotting after each one must reproduce the
        // in-memory attack over exactly the traces folded so far — the
        // contract the measurements-to-disclosure sweeps build on.
        for wide in [false, true] {
            let set = trace_set(33, 240, 2, wide);
            let mut acc = DpaAccumulator::new(16, selection).unwrap();
            let mut fed = 0;
            for chunk in chunks_of(&set, 60) {
                acc.update(&chunk).unwrap();
                fed += chunk.len();
                let snapshot = acc.evaluate().unwrap();
                let prefix = dpa_attack(&set.truncated(fed), 16, selection).unwrap();
                assert_eq!(snapshot.scores, prefix.scores, "wide={wide} fed={fed}");
            }
            // evaluate() does not consume: finalize still works and agrees.
            assert_eq!(
                acc.evaluate().unwrap().scores,
                acc.finalize().unwrap().scores
            );
        }
    }

    #[test]
    fn cpa_evaluate_requires_a_complete_second_pass() {
        for wide in [false, true] {
            let set = trace_set(34, 120, 1, wide);
            let mut acc = CpaAccumulator::new(16, model).unwrap();
            acc.update(&set).unwrap();
            assert!(matches!(
                acc.evaluate(),
                Err(PowerError::AccumulatorMisuse { .. })
            ));
            if acc.begin_second_pass().unwrap() {
                let chunks = chunks_of(&set, 60);
                acc.update(&chunks[0]).unwrap();
                assert!(matches!(
                    acc.evaluate(),
                    Err(PowerError::AccumulatorMisuse { .. })
                ));
                acc.update(&chunks[1]).unwrap();
            }
            let snapshot = acc.evaluate().unwrap();
            let whole = cpa_attack(&set, 16, model).unwrap();
            assert_eq!(snapshot.scores, whole.scores, "wide={wide}");
            assert_eq!(acc.finalize().unwrap().scores, snapshot.scores);
        }
    }

    #[test]
    fn auto_cpa_that_overflows_mid_stream_replays_and_matches_diverse() {
        // Few-class chunks first, then a 65th distinct input several chunks
        // in: the Auto accumulator must drop its classes, ask for the
        // replay, and land bit-for-bit on the Diverse accumulator.
        let mut set = TraceSet::new();
        for t in 0..300u64 {
            let input = if t < 200 { t % 16 } else { t };
            set.push_samples(
                input,
                &[model(input, 0xB) + (t % 7) as f64 * 0.125, t as f64],
            );
        }
        let chunks = chunks_of(&set, 32);
        let auto = CpaAccumulator::new(16, model).unwrap();
        let (auto, replay) = fold_cpa(auto, &chunks);
        assert!(replay, "an overflowed Auto accumulator must replay");
        let diverse = CpaAccumulator::with_profile(16, model, InputProfile::Diverse).unwrap();
        let (diverse, replay) = fold_cpa(diverse, &chunks);
        assert!(replay);
        assert_eq!(auto.scores, diverse.scores);
        assert_eq!(auto.scores, cpa_attack(&set, 16, model).unwrap().scores);

        // The same overflow discovered by a pass-1 merge.
        let mut merged = CpaAccumulator::new(16, model).unwrap();
        for chunk in &chunks {
            let mut partial = CpaAccumulator::new(16, model).unwrap();
            partial.update(chunk).unwrap();
            merged.merge(&partial).unwrap();
        }
        assert!(merged.classes.is_none() && merged.shifted.is_empty());
        assert!(merged.begin_second_pass().unwrap());
    }

    #[test]
    fn merging_into_an_empty_accumulator_adopts_the_partial() {
        let set = trace_set(12, 50, 2, false);
        let mut partial = DpaAccumulator::new(16, selection).unwrap();
        partial.update(&set).unwrap();
        let mut empty = DpaAccumulator::new(16, selection).unwrap();
        empty.merge(&partial).unwrap();
        let direct = dpa_attack(&set, 16, selection).unwrap();
        assert_eq!(empty.finalize().unwrap().scores, direct.scores);

        // Merging an empty partial is a no-op.
        let mut acc = DpaAccumulator::new(16, selection).unwrap();
        acc.update(&set).unwrap();
        let untouched = acc.clone().finalize().unwrap();
        acc.merge(&DpaAccumulator::new(16, selection).unwrap())
            .unwrap();
        assert_eq!(acc.finalize().unwrap().scores, untouched.scores);
    }

    /// The class fold before the chunk-local kernel, kept as the oracle the
    /// kernel must match bit for bit: classify trace by trace through the
    /// table, growing counts and sums per new class, then add four columns
    /// per trace pass and the rest one column at a time, straight into the
    /// class-major sums.
    fn oracle_update(state: &mut ClassState, chunk: &TraceSet, samples: usize) -> bool {
        state.class_of.clear();
        for &input in chunk.inputs() {
            let Some(class) = state.table.insert(input) else {
                return false;
            };
            if class == state.counts.len() {
                state.counts.push(0);
                state.sums.resize(state.sums.len() + samples, 0.0);
            }
            state.counts[class] += 1;
            state.class_of.push(class as u8);
        }
        let mut s = 0;
        while s + 4 <= samples {
            let c0 = chunk.sample_column(s);
            let c1 = chunk.sample_column(s + 1);
            let c2 = chunk.sample_column(s + 2);
            let c3 = chunk.sample_column(s + 3);
            for (t, &c) in state.class_of.iter().enumerate() {
                let at = c as usize * samples + s;
                let row = &mut state.sums[at..at + 4];
                row[0] += c0[t];
                row[1] += c1[t];
                row[2] += c2[t];
                row[3] += c3[t];
            }
            s += 4;
        }
        while s < samples {
            let column = chunk.sample_column(s);
            for (&c, &v) in state.class_of.iter().zip(column) {
                state.sums[c as usize * samples + s] += v;
            }
            s += 1;
        }
        true
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same_classes(kernel: &ClassState, oracle: &ClassState, case: &str) {
        assert_eq!(kernel.table, oracle.table, "{case}: table");
        assert_eq!(kernel.counts, oracle.counts, "{case}: counts");
        assert_eq!(bits(&kernel.sums), bits(&oracle.sums), "{case}: sums");
    }

    /// `traces` traces of `samples` samples whose inputs cycle
    /// pseudo-randomly through `classes` values: below 256 when `small`,
    /// otherwise spread over the full 64 bits.
    fn class_set(traces: usize, samples: usize, classes: u64, small: bool) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(classes * 1000 + samples as u64);
        let values: Vec<u64> = (0..classes)
            .map(|c| {
                if small {
                    (c * 37 + 5) % 256
                } else {
                    rng.gen_range(0..u64::MAX) | 1 << 63
                }
            })
            .collect();
        let mut set = TraceSet::with_capacity(samples, traces);
        let mut row = vec![0.0; samples];
        for _ in 0..traces {
            let input = values[rng.gen_range(0..classes) as usize];
            let leak = model(input, 0xB);
            for (s, v) in row.iter_mut().enumerate() {
                *v = leak * (s as f64 + 1.0) + rng.gen_range(-0.8..0.8);
            }
            set.push_samples(input, &row);
        }
        set
    }

    fn slices(set: &TraceSet, chunk: usize) -> Vec<TraceSet> {
        (0..set.len())
            .step_by(chunk)
            .map(|start| set.slice(start, start + chunk))
            .collect()
    }

    /// An accumulator's class state replaced by the oracle's fold of the
    /// same chunks.
    fn oracle_classes(chunks: &[TraceSet], samples: usize) -> Box<ClassState> {
        let mut oracle = ClassState::new();
        for chunk in chunks {
            assert!(oracle_update(&mut oracle, chunk, samples));
        }
        Box::new(oracle)
    }

    #[test]
    fn class_kernel_matches_the_trace_loop_oracle() {
        for samples in [1, 2, 3, 4, 5, 8, 31] {
            for classes in [1, 16, 64] {
                for small in [true, false] {
                    let set = class_set(2 * 1025 + 5, samples, classes, small);
                    for chunk in [1, 7, 1023, 1024, 1025] {
                        let case = format!(
                            "samples={samples} classes={classes} small={small} chunk={chunk}"
                        );
                        let chunks = slices(&set, chunk);
                        let oracle = oracle_classes(&chunks, samples);

                        let mut kernel = ClassState::new();
                        for part in &chunks {
                            assert!(kernel.update(part, samples), "{case}");
                        }
                        assert_same_classes(&kernel, &oracle, &case);

                        // Final scores: the accumulators' own fold against
                        // the same accumulators scoring the oracle's sums.
                        let mut dpa =
                            DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses)
                                .unwrap();
                        let mut cpa =
                            CpaAccumulator::with_profile(16, model, InputProfile::FewClasses)
                                .unwrap();
                        for part in &chunks {
                            dpa.update(part).unwrap();
                            cpa.update(part).unwrap();
                        }
                        assert_same_classes(dpa.classes.as_ref().unwrap(), &oracle, &case);
                        let mut dpa_oracle = dpa.clone();
                        dpa_oracle.classes = Some(oracle.clone());
                        assert_eq!(
                            bits(&dpa.finalize().unwrap().scores),
                            bits(&dpa_oracle.finalize().unwrap().scores),
                            "{case}: DPA scores"
                        );

                        // The shifted sums: each column shifted by its
                        // first sample, summed trace by trace.
                        for (s, column) in cpa.shifted.iter().enumerate() {
                            let values = set.sample_column(s);
                            let k = values[0];
                            let (mut sum, mut sq) = (0.0, 0.0);
                            for &v in values {
                                sum += v - k;
                                sq += (v - k) * (v - k);
                            }
                            assert_eq!(
                                bits(&[column.k, column.sum, column.sq]),
                                bits(&[k, sum, sq]),
                                "{case}: shifted column {s}"
                            );
                        }
                        assert!(!cpa.begin_second_pass().unwrap());
                        let mut cpa_oracle = cpa.clone();
                        cpa_oracle.classes = Some(oracle);
                        assert_eq!(
                            bits(&cpa.finalize().unwrap().scores),
                            bits(&cpa_oracle.finalize().unwrap().scores),
                            "{case}: CPA scores"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_65th_class_mid_chunk_leaves_auto_on_the_diverse_fold() {
        for samples in [1, 5] {
            for small in [true, false] {
                // A 65th input in the middle of the second 1024-trace chunk.
                let base = class_set(2500, samples, 64, small);
                let novel = if small { 255 } else { 3 };
                let mut set = base.truncated(1500);
                set.push_samples(novel, &vec![1.5; samples]);
                for t in 1501..base.len() {
                    set.push_samples(base.inputs()[t], &base.trace_samples(t));
                }
                let case = format!("samples={samples} small={small}");
                let chunks = slices(&set, 1024);

                let mut auto = DpaAccumulator::new(16, selection).unwrap();
                let mut diverse =
                    DpaAccumulator::with_profile(16, selection, InputProfile::Diverse).unwrap();
                for part in &chunks {
                    auto.update(part).unwrap();
                    diverse.update(part).unwrap();
                }
                assert!(auto.classes.is_none(), "{case}");
                assert_eq!(
                    bits(&auto.finalize().unwrap().scores),
                    bits(&diverse.finalize().unwrap().scores),
                    "{case}: DPA"
                );
                let (auto, replay) = fold_cpa(CpaAccumulator::new(16, model).unwrap(), &chunks);
                assert!(replay, "{case}");
                let diverse = CpaAccumulator::with_profile(16, model, InputProfile::Diverse);
                let (diverse, _) = fold_cpa(diverse.unwrap(), &chunks);
                assert_eq!(bits(&auto.scores), bits(&diverse.scores), "{case}: CPA");

                // FewClasses refuses the chunk that breaks its promise.
                let mut dpa =
                    DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
                let mut cpa =
                    CpaAccumulator::with_profile(16, model, InputProfile::FewClasses).unwrap();
                dpa.update(&chunks[0]).unwrap();
                cpa.update(&chunks[0]).unwrap();
                assert!(matches!(
                    dpa.update(&chunks[1]),
                    Err(PowerError::AccumulatorMisuse { .. })
                ));
                assert!(matches!(
                    cpa.update(&chunks[1]),
                    Err(PowerError::AccumulatorMisuse { .. })
                ));
            }
        }
    }

    #[test]
    fn cpa_partials_merge_like_the_oracle_and_near_the_sequential_fold() {
        for samples in [1, 3, 8] {
            for (classes, small) in [(16, true), (64, false)] {
                let set = class_set(3000, samples, classes, small);
                let case = format!("samples={samples} classes={classes}");
                let chunks = slices(&set, 1023);
                let fresh = CpaAccumulator::with_profile(16, model, InputProfile::FewClasses);
                let mut merged = fresh.unwrap();
                let mut merged_oracle = merged.clone();
                for part in &chunks {
                    let mut partial = merged.partial().unwrap();
                    partial.update(part).unwrap();
                    let mut partial_oracle = partial.clone();
                    partial_oracle.classes =
                        Some(oracle_classes(std::slice::from_ref(part), samples));
                    merged.merge(&partial).unwrap();
                    merged_oracle.merge(&partial_oracle).unwrap();
                }
                assert_same_classes(
                    merged.classes.as_ref().unwrap(),
                    merged_oracle.classes.as_ref().unwrap(),
                    &case,
                );
                assert!(!merged.begin_second_pass().unwrap());
                assert!(!merged_oracle.begin_second_pass().unwrap());
                let merged = merged.finalize().unwrap();
                let merged_oracle = merged_oracle.finalize().unwrap();
                assert_eq!(bits(&merged.scores), bits(&merged_oracle.scores), "{case}");

                let sequential = cpa_attack(&set, 16, model).unwrap();
                assert_eq!(merged.best_guess, sequential.best_guess, "{case}");
                for (a, b) in merged.scores.iter().zip(&sequential.scores) {
                    assert!(
                        (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                        "{case}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Chunk A carries 2 inputs; chunk B 100 new ones, so it breaks a
    /// FewClasses promise part-way through its classification.
    fn promise_breaking_chunks() -> (TraceSet, TraceSet, TraceSet) {
        let mut a = TraceSet::new();
        let mut b = TraceSet::new();
        let mut c = TraceSet::new();
        for t in 0..100u64 {
            let input = t % 2;
            a.push_samples(input, &[model(input, 0xB) + (t % 5) as f64 * 0.1, t as f64]);
            b.push_samples(1000 + t, &[100.0, -50.0]);
            let input = t % 16;
            c.push_samples(input, &[model(input, 0xB) + (t % 3) as f64 * 0.2, 1.0]);
        }
        (a, b, c)
    }

    #[test]
    fn a_failed_few_classes_dpa_update_changes_nothing() {
        let (a, b, c) = promise_breaking_chunks();
        let mut acc =
            DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
        acc.update(&a).unwrap();
        let before = acc.evaluate().unwrap();
        assert!(matches!(
            acc.update(&b),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert_eq!(acc.traces(), 100);
        assert_eq!(bits(&acc.evaluate().unwrap().scores), bits(&before.scores));
        // The accumulator folds on as if chunk B had never been offered.
        acc.update(&c).unwrap();
        let mut clean =
            DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
        clean.update(&a).unwrap();
        clean.update(&c).unwrap();
        assert_eq!(
            bits(&acc.finalize().unwrap().scores),
            bits(&clean.finalize().unwrap().scores)
        );

        // A merge that breaks the promise changes nothing either.
        let mut acc =
            DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
        acc.update(&a).unwrap();
        let mut lying =
            DpaAccumulator::with_profile(16, selection, InputProfile::FewClasses).unwrap();
        lying.update(&b.slice(0, 63)).unwrap();
        assert!(matches!(
            acc.merge(&lying),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert_eq!(acc.traces(), 100);
        assert_eq!(bits(&acc.evaluate().unwrap().scores), bits(&before.scores));
    }

    #[test]
    fn a_failed_few_classes_cpa_update_changes_nothing() {
        let (a, b, c) = promise_breaking_chunks();
        let mut acc = CpaAccumulator::with_profile(16, model, InputProfile::FewClasses).unwrap();
        acc.update(&a).unwrap();
        let mut before = acc.clone();
        assert!(!before.begin_second_pass().unwrap());
        let before = before.finalize().unwrap();
        assert!(matches!(
            acc.update(&b),
            Err(PowerError::AccumulatorMisuse { .. })
        ));
        assert_eq!(acc.traces(), 100);
        let mut after = acc.clone();
        assert!(!after.begin_second_pass().unwrap());
        assert_eq!(
            bits(&after.finalize().unwrap().scores),
            bits(&before.scores)
        );
        acc.update(&c).unwrap();
        let mut clean = CpaAccumulator::with_profile(16, model, InputProfile::FewClasses).unwrap();
        clean.update(&a).unwrap();
        clean.update(&c).unwrap();
        let (acc, _) = fold_cpa(acc, &[]);
        let (clean, _) = fold_cpa(clean, &[]);
        assert_eq!(bits(&acc.scores), bits(&clean.scores));
    }
}
