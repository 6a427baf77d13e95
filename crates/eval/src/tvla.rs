//! Streaming Welch t-test leakage detection (TVLA).
//!
//! The Test Vector Leakage Assessment methodology (Goodwill et al.) detects
//! *any* first-order information leak without committing to a key
//! hypothesis: traces are captured under two plaintext populations (a fixed
//! plaintext interleaved with random ones) and Welch's t-statistic is
//! computed per sample point.  `|t| > 4.5` at any sample rejects the
//! "no leakage" null hypothesis at overwhelming confidence — a device built
//! from the paper's constant-power gates must stay below the threshold,
//! while a standard-CMOS (Hamming-weight) device fails it within a few
//! hundred traces.
//!
//! The accumulators here are [`dpl_store::Fold`]s:
//!
//! * a **single `update` over a whole [`TraceSet`]** defines the in-memory
//!   statistic ([`tvla`] / [`tvla_second_order`]),
//! * feeding the same traces chunk-by-chunk (the out-of-core path of
//!   `dpl-store`) performs the exact same floating-point additions per
//!   accumulator slot and is therefore **bit-identical**; the parallel
//!   out-of-core t-tests decode chunks on several threads but fold them one
//!   at a time in trace order, so they stay bit-identical too,
//! * the second-order accumulator is two-pass (centered-product
//!   preprocessing centers on the final per-group means), like the CPA
//!   accumulator, and its first pass *is* the first-order test: one
//!   second-order fold returns both orders' t-values from two reads of
//!   the campaign.
//!
//! Both orders share one pass type: it classifies each chunk's traces
//! once and pushes a per-sample value (the raw sample, or its centered
//! square) through one 4-wide column loop.
//!
//! Groups are assigned by a *partition function* of the *global trace
//! index* and the trace's input — pure, so any chunking or replay
//! re-derives identical groups.  [`interleaved_partition`] (even index =
//! fixed group) matches the capture discipline of
//! `dpl_crypto::simulate_tvla_traces_into` and the
//! `dpl_store::CampaignKind::TvlaInterleaved` archives.

use dpl_power::stats::welch_t_from_stats;
use dpl_power::TraceSet;
use dpl_store::Fold;

use crate::{EvalError, Result};

/// The conventional TVLA first-order leakage threshold: `|t| > 4.5`
/// corresponds to a ~1e-5 two-sided false-positive probability per sample.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// The two trace populations of a t-test partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvlaGroup {
    /// The first population (the *fixed* plaintext group in a
    /// fixed-vs-random campaign).
    Fixed,
    /// The second population (the *random* group in a fixed-vs-random
    /// campaign, or the second fixed class in fixed-vs-fixed).
    Random,
}

impl TvlaGroup {
    pub(crate) fn index(self) -> usize {
        match self {
            TvlaGroup::Fixed => 0,
            TvlaGroup::Random => 1,
        }
    }
}

/// The partition of an **interleaved** fixed-vs-random campaign: traces at
/// even global indices belong to the fixed group, odd indices to the random
/// group.  This is the capture discipline of
/// `dpl_crypto::simulate_tvla_traces_into` and of archives tagged
/// `CampaignKind::TvlaInterleaved`.
pub fn interleaved_partition(index: u64, _input: u64) -> Option<TvlaGroup> {
    Some(if index.is_multiple_of(2) {
        TvlaGroup::Fixed
    } else {
        TvlaGroup::Random
    })
}

/// A fixed-vs-fixed partition **by input value**: traces whose input equals
/// `a` form the fixed group, traces equal to `b` the second group, and
/// everything else is discarded.  Useful over attack campaigns (random
/// plaintexts), where any two plaintext classes can be tested against each
/// other.
pub fn fixed_vs_fixed(a: u64, b: u64) -> impl Fn(u64, u64) -> Option<TvlaGroup> + Clone {
    move |_index, input| {
        if input == a {
            Some(TvlaGroup::Fixed)
        } else if input == b {
            Some(TvlaGroup::Random)
        } else {
            None
        }
    }
}

/// Per-sample running sums shared by every Welch accumulator: plain
/// `sum`/`sum of squares`, accumulated strictly in trace order so any
/// chunking performs the identical addition sequence per slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ColumnStats {
    pub(crate) sum: f64,
    pub(crate) sumsq: f64,
}

impl ColumnStats {
    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        self.sum += v;
        self.sumsq += v * v;
    }
}

/// Welch's t from two groups' sufficient statistics over one sample column.
/// Unbiased variances; degenerate cases (a group below two traces, or
/// non-positive pooled variance after cancellation) return `0.0`, matching
/// `dpl_power::stats::welch_t`.
pub(crate) fn t_statistic(counts: [u64; 2], a: &ColumnStats, b: &ColumnStats) -> f64 {
    let (na, nb) = (counts[0] as f64, counts[1] as f64);
    if na < 2.0 || nb < 2.0 {
        return 0.0;
    }
    let ma = a.sum / na;
    let mb = b.sum / nb;
    let va = ((a.sumsq - a.sum * ma) / (na - 1.0)).max(0.0);
    let vb = ((b.sumsq - b.sum * mb) / (nb - 1.0)).max(0.0);
    welch_t_from_stats(na, ma, va, nb, mb, vb)
}

/// The outcome of a t-test evaluation: one t-statistic per trace sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TvlaResult {
    /// Welch's t per sample point (0.0 where undefined; see
    /// [`dpl_power::stats::welch_t`]).
    pub t: Vec<f64>,
    /// Traces classified into each group (`[fixed, random]`).
    pub counts: [u64; 2],
}

impl TvlaResult {
    /// The largest `|t|` over all sample points — the statistic compared
    /// against [`TVLA_THRESHOLD`].
    pub fn max_abs_t(&self) -> f64 {
        self.t.iter().fold(0.0, |acc, &t| acc.max(t.abs()))
    }

    /// `true` when any sample exceeds the given threshold in magnitude.
    pub fn leaks_at(&self, threshold: f64) -> bool {
        self.max_abs_t() > threshold
    }

    /// `true` when any sample exceeds the conventional [`TVLA_THRESHOLD`].
    pub fn leaks(&self) -> bool {
        self.leaks_at(TVLA_THRESHOLD)
    }
}

fn width_check(current: &mut Option<usize>, chunk: &TraceSet) -> Result<usize> {
    let width = chunk.sample_count().map_err(EvalError::Power)?;
    match *current {
        None => *current = Some(width),
        Some(w) if w != width => {
            return Err(EvalError::Misuse {
                message: "chunks with inconsistent sample widths".into(),
            })
        }
        _ => {}
    }
    Ok(width)
}

fn empty_error() -> EvalError {
    EvalError::Misuse {
        message: "no traces were accumulated".into(),
    }
}

/// One pass of a Welch test: the global index of its next trace, its
/// sample width, the traces it classified per group, and the running sums
/// of the values it pushed per (group, column).
#[derive(Debug, Clone, Default)]
struct Moments {
    next: u64,
    samples: Option<usize>,
    counts: [u64; 2],
    /// `stats[group][column]` running sums.
    stats: [Vec<ColumnStats>; 2],
}

impl Moments {
    /// Folds the next chunk: classifies each trace by `partition` of its
    /// global index and input, then pushes every classified trace's samples,
    /// preprocessed by `pre`, into `stats[group][column]`.
    fn update<F>(&mut self, partition: &F, chunk: &TraceSet, pre: impl Preprocess) -> Result<()>
    where
        F: Fn(u64, u64) -> Option<TvlaGroup>,
    {
        if chunk.is_empty() {
            return Ok(());
        }
        let width = width_check(&mut self.samples, chunk)?;
        if self.stats[0].is_empty() {
            self.stats = zeroed(width);
        }
        let groups: Vec<Option<TvlaGroup>> = chunk
            .inputs()
            .iter()
            .enumerate()
            .map(|(t, &input)| partition(self.next + t as u64, input))
            .collect();
        for group in groups.iter().flatten() {
            self.counts[group.index()] += 1;
        }
        // Unrolled 4 wide across sample columns: every (group, sample) slot
        // still receives its pushes strictly in trace order, so this is
        // bit-identical to the column-at-a-time fold while amortizing the
        // per-trace group dispatch, and the preprocessing's row lookups,
        // over four columns.
        let mut s = 0;
        while s + 4 <= width {
            let c0 = chunk.sample_column(s);
            let c1 = chunk.sample_column(s + 1);
            let c2 = chunk.sample_column(s + 2);
            let c3 = chunk.sample_column(s + 3);
            for (t, group) in groups.iter().enumerate() {
                let Some(g) = group else { continue };
                let g = g.index();
                let values = pre.apply(g, s, [c0[t], c1[t], c2[t], c3[t]]);
                for (stats, v) in self.stats[g][s..s + 4].iter_mut().zip(values) {
                    stats.push(v);
                }
            }
            s += 4;
        }
        while s < width {
            let column = chunk.sample_column(s);
            for (group, &v) in groups.iter().zip(column) {
                if let Some(g) = group {
                    let g = g.index();
                    let [v] = pre.apply(g, s, [v]);
                    self.stats[g][s].push(v);
                }
            }
            s += 1;
        }
        self.next += chunk.len() as u64;
        Ok(())
    }

    /// Welch's t per column over the pushed values.
    fn result(&self) -> TvlaResult {
        let [fixed, random] = &self.stats;
        let t = fixed
            .iter()
            .zip(random)
            .map(|(a, b)| t_statistic(self.counts, a, b))
            .collect();
        TvlaResult {
            t,
            counts: self.counts,
        }
    }
}

/// How a pass turns a trace's samples into the values it pushes.
trait Preprocess {
    /// The values for `samples`, taken from columns `column..column + N` of
    /// a trace in `group`.
    fn apply<const N: usize>(&self, group: usize, column: usize, samples: [f64; N]) -> [f64; N];
}

/// The first-order pass pushes the samples as they are.
struct Raw;

impl Preprocess for Raw {
    fn apply<const N: usize>(&self, _: usize, _: usize, samples: [f64; N]) -> [f64; N] {
        samples
    }
}

/// The second-order pass pushes each sample's squared deviation from its
/// group's mean at that column, `(v - mean)²`.
struct Centered<'a>(&'a [Vec<f64>; 2]);

impl Preprocess for Centered<'_> {
    fn apply<const N: usize>(&self, group: usize, column: usize, samples: [f64; N]) -> [f64; N] {
        let means = &self.0[group][column..column + N];
        std::array::from_fn(|i| {
            let d = samples[i] - means[i];
            d * d
        })
    }
}

/// Empty running sums for both groups over `width` columns.
fn zeroed(width: usize) -> [Vec<ColumnStats>; 2] {
    std::array::from_fn(|_| vec![ColumnStats::default(); width])
}

/// First-order streaming Welch t-test accumulator.
///
/// Feed any chunking of a trace stream via [`WelchAccumulator::update`]
/// (chunks in trace order), then [`WelchAccumulator::finalize`].  A single
/// update over a whole [`TraceSet`] is the in-memory [`tvla`]; chunked
/// updates are bit-identical to it.  `partition` must be a pure function of
/// `(global trace index, input)`.
#[derive(Debug, Clone)]
pub struct WelchAccumulator<F> {
    partition: F,
    moments: Moments,
}

impl<F> WelchAccumulator<F>
where
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    /// An empty accumulator whose first trace has global index 0.
    pub fn new(partition: F) -> Self {
        WelchAccumulator {
            partition,
            moments: Moments::default(),
        }
    }

    /// Traces folded in so far (across both groups, including discarded
    /// traces — the global index keeps advancing).
    pub fn traces(&self) -> u64 {
        self.moments.next
    }

    /// Folds one chunk of traces (the next contiguous range) into the
    /// accumulator.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed chunk or an inconsistent sample
    /// width.
    pub fn update(&mut self, chunk: &TraceSet) -> Result<()> {
        self.moments.update(&self.partition, chunk, Raw)
    }

    /// The per-sample t-statistics **without consuming** the accumulator —
    /// usable as a running snapshot while traces keep arriving.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated.
    pub fn evaluate(&self) -> Result<TvlaResult> {
        if self.traces() == 0 {
            return Err(empty_error());
        }
        Ok(self.moments.result())
    }

    /// Consumes the accumulator and returns the per-sample t-statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated.
    pub fn finalize(self) -> Result<TvlaResult> {
        self.evaluate()
    }
}

/// Second-order streaming t-test accumulator: **centered-product
/// preprocessing**.  Every sample is replaced by its squared deviation from
/// its group's (final) per-sample mean, `y = (x - mean)²`, and Welch's t is
/// computed on the preprocessed values — the standard univariate
/// second-order TVLA, sensitive to variance-based leaks that first-order
/// masking hides.
///
/// Centering on the *final* means makes this a **two-pass** protocol,
/// exactly like [`dpl_power::CpaAccumulator`]: feed every chunk via
/// [`SecondOrderWelchAccumulator::update`], call
/// [`SecondOrderWelchAccumulator::begin_second_pass`], replay every chunk
/// in the same order, then finalize.  Chunked double passes are
/// bit-identical to the in-memory [`tvla_second_order`].
///
/// The first pass is a [`WelchAccumulator`], whose sums seal the means, so
/// the [`Fold`] output is both orders' statistics, `(first, second)`, each
/// bit-identical to its own fold.
#[derive(Debug, Clone)]
pub struct SecondOrderWelchAccumulator<F> {
    /// Pass 1: the first-order test.
    first: WelchAccumulator<F>,
    /// Per-group per-sample means, sealed when pass 2 begins.
    mean: [Vec<f64>; 2],
    /// Pass 2, over the preprocessed values; `None` during pass 1.
    centered: Option<Moments>,
}

impl<F> SecondOrderWelchAccumulator<F>
where
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    /// An empty accumulator whose first trace has global index 0.
    pub fn new(partition: F) -> Self {
        SecondOrderWelchAccumulator {
            first: WelchAccumulator::new(partition),
            mean: [Vec::new(), Vec::new()],
            centered: None,
        }
    }

    /// Traces folded into the first pass so far.
    pub fn traces(&self) -> u64 {
        self.first.traces()
    }

    /// Folds one chunk into the current pass.  The second pass must replay
    /// exactly the first pass's traces, in the same order.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed chunk, an inconsistent sample
    /// width, or a second-pass replay longer than the first pass.
    pub fn update(&mut self, chunk: &TraceSet) -> Result<()> {
        let Some(centered) = &mut self.centered else {
            return self.first.update(chunk);
        };
        if centered.next + chunk.len() as u64 > self.first.traces() {
            return Err(EvalError::Misuse {
                message: "the second pass replayed more traces than the first pass folded".into(),
            });
        }
        centered.update(&self.first.partition, chunk, Centered(&self.mean))
    }

    /// Seals the per-group means and switches to centered-product
    /// accumulation.
    ///
    /// # Errors
    ///
    /// Returns an error if the second pass already began.
    pub fn begin_second_pass(&mut self) -> Result<()> {
        if self.centered.is_some() {
            return Err(EvalError::Misuse {
                message: "the second-order accumulator is already in its second pass".into(),
            });
        }
        let first = &self.first.moments;
        self.mean = std::array::from_fn(|group| {
            let n = first.counts[group] as f64;
            first.stats[group]
                .iter()
                .map(|column| if n > 0.0 { column.sum / n } else { 0.0 })
                .collect()
        });
        self.centered = Some(Moments {
            samples: first.samples,
            stats: zeroed(first.stats[0].len()),
            ..Moments::default()
        });
        Ok(())
    }

    /// The per-sample second-order t-statistics **without consuming** the
    /// accumulator.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were accumulated or the second pass
    /// did not classify exactly the first pass's traces.
    pub fn evaluate(&self) -> Result<TvlaResult> {
        if self.traces() == 0 {
            return Err(empty_error());
        }
        let counts = self.first.moments.counts;
        match &self.centered {
            Some(centered) if centered.counts == counts => Ok(centered.result()),
            centered => Err(EvalError::Misuse {
                message: format!(
                    "the second pass classified {:?} of {counts:?} traces",
                    centered.as_ref().map_or([0; 2], |c| c.counts)
                ),
            }),
        }
    }

    /// Consumes the accumulator and returns the per-sample t-statistics.
    ///
    /// # Errors
    ///
    /// See [`SecondOrderWelchAccumulator::evaluate`].
    pub fn finalize(self) -> Result<TvlaResult> {
        self.evaluate()
    }
}

impl<F> Fold for WelchAccumulator<F>
where
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    type Output = TvlaResult;
    type Error = EvalError;
    const SPAN: &'static str = "eval.tvla_streaming";

    fn update(&mut self, chunk: &TraceSet) -> Result<()> {
        WelchAccumulator::update(self, chunk)
    }

    fn finalize(self) -> Result<TvlaResult> {
        WelchAccumulator::finalize(self)
    }
}

/// Folds both orders in two reads of the campaign: the output is
/// `(first-order, second-order)`.
impl<F> Fold for SecondOrderWelchAccumulator<F>
where
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    type Output = (TvlaResult, TvlaResult);
    type Error = EvalError;
    const SPAN: &'static str = "eval.tvla_second_order";

    fn update(&mut self, chunk: &TraceSet) -> Result<()> {
        SecondOrderWelchAccumulator::update(self, chunk)
    }

    fn begin_pass(&mut self) -> Result<bool> {
        self.begin_second_pass()?;
        Ok(true)
    }

    fn finalize(self) -> Result<(TvlaResult, TvlaResult)> {
        let second = self.evaluate()?;
        Ok((self.first.finalize()?, second))
    }
}

/// The in-memory first-order TVLA: one [`WelchAccumulator`] fed the whole
/// set in a single update — the reference the chunked and out-of-core folds
/// are bit-identical to.
///
/// # Errors
///
/// Returns an error for an empty or malformed trace set.
pub fn tvla<F>(traces: &TraceSet, partition: F) -> Result<TvlaResult>
where
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    let mut accumulator = WelchAccumulator::new(partition);
    accumulator.update(traces)?;
    accumulator.finalize()
}

/// The in-memory second-order TVLA (centered-product preprocessing): one
/// [`SecondOrderWelchAccumulator`] fed the whole set once per pass.
///
/// # Errors
///
/// Returns an error for an empty or malformed trace set.
pub fn tvla_second_order<F>(traces: &TraceSet, partition: F) -> Result<TvlaResult>
where
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    let mut accumulator = SecondOrderWelchAccumulator::new(partition);
    accumulator.update(traces)?;
    accumulator.begin_second_pass()?;
    accumulator.update(traces)?;
    accumulator.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpl_power::stats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An interleaved fixed-vs-random campaign over a toy leaky device:
    /// power = Hamming weight of the input + noise.  `leaky` controls
    /// whether the fixed group has a distinct mean.
    fn campaign(seed: u64, traces: usize, samples: usize, leaky: bool) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = TraceSet::new();
        for t in 0..traces {
            let input = if t % 2 == 0 {
                0xF
            } else {
                rng.gen_range(0..16u64)
            };
            let leak = if leaky {
                input.count_ones() as f64
            } else {
                0.0
            };
            let values: Vec<f64> = (0..samples)
                .map(|_| leak + rng.gen_range(-1.0..1.0))
                .collect();
            set.push_samples(input, &values);
        }
        set
    }

    fn chunks_of(set: &TraceSet, chunk: usize) -> Vec<TraceSet> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < set.len() {
            let end = (start + chunk).min(set.len());
            out.push(set.slice(start, end));
            start = end;
        }
        out
    }

    #[test]
    fn leaky_campaign_fails_tvla_and_constant_campaign_passes() {
        let leaky = campaign(1, 2000, 1, true);
        let result = tvla(&leaky, interleaved_partition).unwrap();
        assert!(result.leaks(), "max |t| = {}", result.max_abs_t());
        assert_eq!(result.counts, [1000, 1000]);

        let quiet = campaign(2, 2000, 1, false);
        let result = tvla(&quiet, interleaved_partition).unwrap();
        assert!(
            !result.leaks(),
            "constant device flagged: |t| = {}",
            result.max_abs_t()
        );
    }

    #[test]
    fn accumulator_t_matches_the_slice_oracle() {
        // The streaming statistic must agree with the two-pass slice helper
        // in dpl_power::stats up to summation-order rounding.
        let set = campaign(3, 1200, 3, true);
        let result = tvla(&set, interleaved_partition).unwrap();
        for s in 0..3 {
            let column = set.sample_column(s);
            let fixed: Vec<f64> = column.iter().step_by(2).copied().collect();
            let random: Vec<f64> = column.iter().skip(1).step_by(2).copied().collect();
            let oracle = stats::welch_t(&fixed, &random);
            assert!(
                (result.t[s] - oracle).abs() <= 1e-9 * oracle.abs().max(1.0),
                "sample {s}: {} vs {oracle}",
                result.t[s]
            );
        }
    }

    #[test]
    fn chunked_first_order_is_bit_identical_to_in_memory() {
        let set = campaign(4, 999, 2, true);
        let whole = tvla(&set, interleaved_partition).unwrap();
        for chunk in [1, 7, 64, 500] {
            let mut acc = WelchAccumulator::new(interleaved_partition);
            for part in chunks_of(&set, chunk) {
                acc.update(&part).unwrap();
            }
            assert_eq!(acc.traces(), 999);
            let streamed = acc.finalize().unwrap();
            assert_eq!(streamed, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn chunked_second_order_is_bit_identical_to_in_memory() {
        let set = campaign(5, 777, 2, true);
        let whole = tvla_second_order(&set, interleaved_partition).unwrap();
        for chunk in [1, 13, 256] {
            let mut acc = SecondOrderWelchAccumulator::new(interleaved_partition);
            let parts = chunks_of(&set, chunk);
            for part in &parts {
                acc.update(part).unwrap();
            }
            acc.begin_second_pass().unwrap();
            for part in &parts {
                acc.update(part).unwrap();
            }
            let streamed = acc.finalize().unwrap();
            assert_eq!(streamed, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn second_order_detects_variance_leakage_that_first_order_misses() {
        // Mean-free variance leak: the fixed group has spread 0.2, the
        // random group spread 2.0, both centered on zero.
        let mut rng = StdRng::seed_from_u64(6);
        let mut set = TraceSet::new();
        for t in 0..4000 {
            let sigma = if t % 2 == 0 { 0.2 } else { 2.0 };
            set.push_samples(t % 16, &[rng.gen_range(-1.0..1.0) * sigma]);
        }
        let first = tvla(&set, interleaved_partition).unwrap();
        let second = tvla_second_order(&set, interleaved_partition).unwrap();
        assert!(!first.leaks(), "first order |t| = {}", first.max_abs_t());
        assert!(second.leaks(), "second order |t| = {}", second.max_abs_t());
    }

    #[test]
    fn second_order_protocol_misuse_is_reported() {
        let set = campaign(9, 80, 1, true);
        let mut acc = SecondOrderWelchAccumulator::new(interleaved_partition);
        acc.update(&set).unwrap();
        // Evaluating before the second pass is misuse.
        assert!(matches!(acc.evaluate(), Err(EvalError::Misuse { .. })));
        acc.begin_second_pass().unwrap();
        assert!(acc.begin_second_pass().is_err());
        // Incomplete replay is misuse.
        acc.update(&set.slice(0, 40)).unwrap();
        assert!(matches!(acc.evaluate(), Err(EvalError::Misuse { .. })));
        // Over-long replay is misuse.
        let mut over = acc.clone();
        assert!(over.update(&set).is_err());
        // Completing the replay succeeds.
        acc.update(&set.slice(40, 80)).unwrap();
        assert!(acc.evaluate().is_ok());

        // Empty accumulators cannot finalize.
        let empty = WelchAccumulator::new(interleaved_partition);
        assert!(matches!(empty.finalize(), Err(EvalError::Misuse { .. })));
    }

    #[test]
    fn fixed_vs_fixed_partitions_by_input_value() {
        let mut set = TraceSet::new();
        for t in 0..300u64 {
            let input = t % 3; // classes 0, 1, 2
                               // Classes 0 and 1 draw from the same slow drift; class 2 sits
                               // far away from both.
            let value = if input == 2 { 5.0 } else { 0.0 };
            set.push_samples(input, &[value + (t as f64) * 1e-6]);
        }
        // 0 vs 1: nearly identical populations.
        let close = tvla(&set, fixed_vs_fixed(0, 1)).unwrap();
        assert_eq!(close.counts, [100, 100]);
        assert!(!close.leaks());
        // 0 vs 2: wildly different means.
        let far = tvla(&set, fixed_vs_fixed(0, 2)).unwrap();
        assert!(far.leaks());
        // Unmatched inputs are discarded, not misclassified.
        assert_eq!(far.counts, [100, 100]);
    }

    #[test]
    fn degenerate_groups_yield_zero_t_not_nan() {
        // All traces in one group.
        let mut set = TraceSet::new();
        for t in 0..50u64 {
            set.push_samples(t, &[t as f64]);
        }
        let result = tvla(&set, |_, _| Some(TvlaGroup::Fixed)).unwrap();
        assert_eq!(result.t, vec![0.0]);
        assert_eq!(result.counts, [50, 0]);
        assert!(!result.leaks());

        // Constant traces in both groups.
        let mut flat = TraceSet::new();
        for t in 0..50u64 {
            flat.push_samples(t, &[1.0]);
        }
        let result = tvla(&flat, interleaved_partition).unwrap();
        assert_eq!(result.t, vec![0.0]);
        assert!(!result.max_abs_t().is_nan());
    }
}
