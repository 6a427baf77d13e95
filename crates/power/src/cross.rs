//! The trace-blocked cross-moment kernel behind CPA's diverse-input fold;
//! see [`fold_cross_moments`].

use crate::trace::TraceSet;

/// Traces per block.  One block's panels hold
/// `TRACE_BLOCK × (samples + guesses)` values, rounded up to the tile; for
/// the 31-sample, 16-guess PRESENT campaign that is 48 KiB, so the tile
/// loop reads them from L1/L2 instead of re-reading the chunk's columns
/// once per guess.
const TRACE_BLOCK: usize = 128;

/// The register tile's edge: 4 guesses × 4 columns = 16 accumulators.
const TILE: usize = 4;

/// The centers subtracted from the samples and hypotheses before they are
/// multiplied: per-column `cols[s]` and per-guess `hyps[g]` (the sealed
/// means of a two-pass CPA).
#[derive(Debug, Clone, Copy)]
pub struct Centers<'a> {
    /// One center per sample column.
    pub cols: &'a [f64],
    /// One center per key guess.
    pub hyps: &'a [f64],
}

/// The running sums [`fold_cross_moments`] adds a chunk into, each slot in
/// trace order.  `h` and `d` are the hypothesis and sample after centering
/// (or raw, without [`Centers`]).
#[derive(Debug)]
pub struct CrossSums<'a> {
    /// `Σ h` per guess, when the caller needs it.
    pub hyp_sum: Option<&'a mut [f64]>,
    /// `Σ h²` per guess; its length is the guess count (zero folds the
    /// columns alone).
    pub hyp_sq: &'a mut [f64],
    /// `Σ d²` per sample column.
    pub col_sq: &'a mut [f64],
    /// `cross[g * samples + s] = Σ h·d`.
    pub cross: &'a mut [f64],
}

/// Folds one chunk into `sums` through the blocked cross-moment kernel of
/// correlation power analysis.
///
/// CPA over diverse inputs needs, per key guess `g` and sample column `s`,
/// the cross-product sum `Σ h·d` of the hypothesis `h = model(x, g) − c_g`
/// and the sample `d = v − c_s`, plus the per-guess and per-column sums of
/// squares ([`CrossSums`]; the centers come from [`Centers`], or are zero).
/// The kernel computes all of them in one sweep over the chunk, a block of
/// 128 traces at a time:
///
/// 1. the block's sample columns are centered once into 4-column panels,
///    folding `Σ d²` as they go;
/// 2. the block's hypotheses are tabulated once into 4-guess panels,
///    guesses as independent lanes, folding `Σ h` and `Σ h²`;
/// 3. a 4-guess × 4-column register tile walks the block's traces in
///    order, adding `h·d` into 16 independent accumulators, for every
///    tile of the guess × column grid.
///
/// Every `(guess, column)` slot, and every per-guess and per-column sum,
/// receives exactly the products and additions a trace-by-trace loop gives
/// it, in trace order; only the interleaving *between* slots changes.
/// There is no fused multiply-add and no reassociation, so the sums are
/// bit-identical to a per-guess loop for any chunking of the same traces.
///
/// Scratch is one block's panels, `128 × (samples + guesses)` values
/// rounded up to the tile, allocated per call and owned by no
/// accumulator, so forks and partials never carry it.
///
/// # Panics
///
/// Panics when the slices disagree with the chunk's width or with each
/// other on the guess count.
pub fn fold_cross_moments<F>(
    chunk: &TraceSet,
    model: &F,
    centers: Option<Centers<'_>>,
    mut sums: CrossSums<'_>,
) where
    F: Fn(u64, u64) -> f64,
{
    if chunk.is_empty() {
        return;
    }
    let samples = chunk.samples_per_trace();
    let guesses = sums.hyp_sq.len();
    assert_eq!(sums.col_sq.len(), samples, "one column sum per sample");
    assert_eq!(
        sums.cross.len(),
        guesses * samples,
        "one cross sum per slot"
    );
    if let Some(sum) = &sums.hyp_sum {
        assert_eq!(sum.len(), guesses, "one hypothesis sum per guess");
    }
    if let Some(c) = centers {
        assert!(c.cols.len() == samples && c.hyps.len() == guesses);
    }
    let mut panels = Panels {
        hyps: vec![[0.0; TILE]; guesses.div_ceil(TILE) * TRACE_BLOCK],
        cols: vec![[0.0; TILE]; samples.div_ceil(TILE) * TRACE_BLOCK],
        row: vec![0.0; guesses],
    };
    let mut start = 0;
    while start < chunk.len() {
        let end = (start + TRACE_BLOCK).min(chunk.len());
        panels.center(chunk, start..end, centers.map(|c| c.cols), sums.col_sq);
        panels.tabulate(
            &chunk.inputs()[start..end],
            model,
            centers.map(|c| c.hyps),
            sums.hyp_sum.as_deref_mut(),
            sums.hyp_sq,
        );
        panels.cross(end - start, guesses, samples, sums.cross);
        start = end;
    }
}

/// One trace block of the kernel, laid out for the register tile.
struct Panels {
    /// `hyps[p * TRACE_BLOCK + t][i]` = hypothesis of guess `p * TILE + i`
    /// for trace `t` of the block.
    hyps: Vec<[f64; TILE]>,
    /// `cols[p * TRACE_BLOCK + t][j]` = centered sample of column
    /// `p * TILE + j`.
    cols: Vec<[f64; TILE]>,
    /// One trace's hypotheses, before they are scattered into the panels.
    row: Vec<f64>,
}

impl Panels {
    /// Centers the block `range` of every sample column into the column
    /// panels and adds each centered value's square into `col_sq`.  The
    /// four columns of a panel advance together: four independent
    /// addition chains, each in trace order.  A last, partial panel pads
    /// with copies of its final column, whose sums are dropped.
    fn center(
        &mut self,
        chunk: &TraceSet,
        range: std::ops::Range<usize>,
        shift: Option<&[f64]>,
        col_sq: &mut [f64],
    ) {
        let samples = col_sq.len();
        let n = range.len();
        for (p, panel) in self.cols.chunks_exact_mut(TRACE_BLOCK).enumerate() {
            let first = p * TILE;
            let width = TILE.min(samples - first);
            let lane = |j: usize| first + j.min(width - 1);
            let columns: [&[f64]; TILE] =
                std::array::from_fn(|j| &chunk.sample_column(lane(j))[range.clone()]);
            let k: [f64; TILE] = std::array::from_fn(|j| shift.map_or(0.0, |shift| shift[lane(j)]));
            let mut sq: [f64; TILE] = std::array::from_fn(|j| col_sq[lane(j)]);
            for (t, row) in panel[..n].iter_mut().enumerate() {
                for j in 0..TILE {
                    let d = columns[j][t] - k[j];
                    row[j] = d;
                    sq[j] += d * d;
                }
            }
            col_sq[first..first + width].copy_from_slice(&sq[..width]);
        }
    }

    /// Tabulates `model(x, g) − shift[g]` for the block's inputs into the
    /// hypothesis panels, adding each value's square into `sq[g]` and,
    /// when asked, the value into `sum[g]`.  A trace's hypotheses are
    /// computed as one row, guesses as independent lanes, each sum fed in
    /// trace order.
    fn tabulate<F>(
        &mut self,
        inputs: &[u64],
        model: &F,
        shift: Option<&[f64]>,
        mut sum: Option<&mut [f64]>,
        sq: &mut [f64],
    ) where
        F: Fn(u64, u64) -> f64,
    {
        for (t, &input) in inputs.iter().enumerate() {
            for (g, h) in self.row.iter_mut().enumerate() {
                *h = model(input, g as u64) - shift.map_or(0.0, |shift| shift[g]);
            }
            for (q, &h) in sq.iter_mut().zip(&self.row) {
                *q += h * h;
            }
            if let Some(sum) = sum.as_deref_mut() {
                for (s, &h) in sum.iter_mut().zip(&self.row) {
                    *s += h;
                }
            }
            for (g, &h) in self.row.iter().enumerate() {
                self.hyps[(g / TILE) * TRACE_BLOCK + t][g % TILE] = h;
            }
        }
    }

    /// Adds `h·d` over the block's `n` traces into every `(guess, column)`
    /// slot of `cross`, one 4 × 4 register tile at a time.  Padding lanes
    /// of a partial panel are multiplied too, into accumulators that are
    /// dropped.
    fn cross(&self, n: usize, guesses: usize, samples: usize, cross: &mut [f64]) {
        for (gp, hyps) in self.hyps.chunks_exact(TRACE_BLOCK).enumerate() {
            let rows = TILE.min(guesses - gp * TILE);
            for (sp, cols) in self.cols.chunks_exact(TRACE_BLOCK).enumerate() {
                let width = TILE.min(samples - sp * TILE);
                let at = |i: usize, j: usize| (gp * TILE + i) * samples + sp * TILE + j;
                let mut acc = [[0.0f64; TILE]; TILE];
                for (i, acc) in acc.iter_mut().enumerate().take(rows) {
                    for (j, acc) in acc.iter_mut().enumerate().take(width) {
                        *acc = cross[at(i, j)];
                    }
                }
                tile(&hyps[..n], &cols[..n], &mut acc);
                for (i, acc) in acc.iter().enumerate().take(rows) {
                    for (j, &acc) in acc.iter().enumerate().take(width) {
                        cross[at(i, j)] = acc;
                    }
                }
            }
        }
    }
}

/// The register tile: `acc[i][j] += h[i] · d[j]` for every trace, in
/// order.  Kept out of line so the compiler sees sixteen accumulators that
/// live in registers for the whole block, whatever the edge masking of the
/// caller looks like.
#[inline(never)]
fn tile(hyps: &[[f64; TILE]], cols: &[[f64; TILE]], acc: &mut [[f64; TILE]; TILE]) {
    let mut a = *acc;
    for (h, d) in hyps.iter().zip(cols) {
        for i in 0..TILE {
            for j in 0..TILE {
                a[i][j] += h[i] * d[j];
            }
        }
    }
    *acc = a;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// CPA's pre-kernel second pass, kept as the oracle: the four-column
    /// centered sums of squares, then per guess a hypothesis vector, its
    /// centered sum of squares and the four-column cross-product loop.
    fn per_guess_moments<F: Fn(u64, u64) -> f64>(
        chunk: &TraceSet,
        model: &F,
        col_mean: &[f64],
        hyp_mean: &[f64],
        col_css: &mut [f64],
        hyp_css: &mut [f64],
        cov: &mut [f64],
    ) {
        let samples = col_mean.len();
        let mut s = 0;
        while s + 4 <= samples {
            let c0 = chunk.sample_column(s);
            let c1 = chunk.sample_column(s + 1);
            let c2 = chunk.sample_column(s + 2);
            let c3 = chunk.sample_column(s + 3);
            let my = &col_mean[s..s + 4];
            let acc = &mut col_css[s..s + 4];
            for t in 0..chunk.len() {
                acc[0] += (c0[t] - my[0]) * (c0[t] - my[0]);
                acc[1] += (c1[t] - my[1]) * (c1[t] - my[1]);
                acc[2] += (c2[t] - my[2]) * (c2[t] - my[2]);
                acc[3] += (c3[t] - my[3]) * (c3[t] - my[3]);
            }
            s += 4;
        }
        while s < samples {
            let my = col_mean[s];
            let col_css = &mut col_css[s];
            for &v in chunk.sample_column(s) {
                *col_css += (v - my) * (v - my);
            }
            s += 1;
        }
        let mut hypothesis = vec![0.0f64; chunk.len()];
        for guess in 0..hyp_mean.len() as u64 {
            let mh = hyp_mean[guess as usize];
            let mut css = hyp_css[guess as usize];
            for (h, &input) in hypothesis.iter_mut().zip(chunk.inputs()) {
                *h = model(input, guess);
                css += (*h - mh) * (*h - mh);
            }
            hyp_css[guess as usize] = css;
            let row = guess as usize * samples;
            let mut s = 0;
            while s + 4 <= samples {
                let c0 = chunk.sample_column(s);
                let c1 = chunk.sample_column(s + 1);
                let c2 = chunk.sample_column(s + 2);
                let c3 = chunk.sample_column(s + 3);
                let my = &col_mean[s..s + 4];
                let acc = &mut cov[row + s..row + s + 4];
                for (t, &h) in hypothesis.iter().enumerate() {
                    let ch = h - mh;
                    acc[0] += ch * (c0[t] - my[0]);
                    acc[1] += ch * (c1[t] - my[1]);
                    acc[2] += ch * (c2[t] - my[2]);
                    acc[3] += ch * (c3[t] - my[3]);
                }
                s += 4;
            }
            while s < samples {
                let my = col_mean[s];
                let mut acc = cov[row + s];
                for (&h, &v) in hypothesis.iter().zip(chunk.sample_column(s)) {
                    acc += (h - mh) * (v - my);
                }
                cov[row + s] = acc;
                s += 1;
            }
        }
    }

    /// A model whose values spread over several binades, so any
    /// reassociated sum would differ in its low bits.
    fn model(input: u64, guess: u64) -> f64 {
        let mixed = (input ^ guess.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(17);
        (mixed % 1000) as f64 * 0.37 + 1.0 / (guess as f64 + 3.0)
    }

    fn traces(seed: u64, n: usize, samples: usize) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = TraceSet::with_capacity(samples, n);
        let mut row = vec![0.0; samples];
        for _ in 0..n {
            for (s, v) in row.iter_mut().enumerate() {
                *v = rng.gen_range(-1.0..1.0) * 10f64.powi(s as i32 % 5) + s as f64;
            }
            set.push_samples(rng.gen_range(0..u64::MAX), &row);
        }
        set
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernel_is_bit_identical_to_the_per_guess_loop() {
        const TRACES: usize = 300;
        for samples in [1, 2, 3, 4, 5, 7, 31, 33] {
            let set = traces(samples as u64, TRACES, samples);
            let col_mean: Vec<f64> = (0..samples).map(|s| s as f64 + 0.123).collect();
            for guesses in [1usize, 3, 4, 5, 16, 17, 256] {
                let hyp_mean: Vec<f64> = (0..guesses).map(|g| 180.0 + g as f64 * 0.01).collect();
                let mut oracle = (vec![0.0; samples], vec![0.0; guesses]);
                let mut oracle_cov = vec![0.0; guesses * samples];
                per_guess_moments(
                    &set,
                    &model,
                    &col_mean,
                    &hyp_mean,
                    &mut oracle.0,
                    &mut oracle.1,
                    &mut oracle_cov,
                );
                for chunk_len in [1, 7, 127, 128, 129, 1024] {
                    let (mut col_sq, mut hyp_sq) = (vec![0.0; samples], vec![0.0; guesses]);
                    let mut cross = vec![0.0; guesses * samples];
                    let mut start = 0;
                    while start < TRACES {
                        let chunk = set.slice(start, start + chunk_len);
                        fold_cross_moments(
                            &chunk,
                            &model,
                            Some(Centers {
                                cols: &col_mean,
                                hyps: &hyp_mean,
                            }),
                            CrossSums {
                                hyp_sum: None,
                                hyp_sq: &mut hyp_sq,
                                col_sq: &mut col_sq,
                                cross: &mut cross,
                            },
                        );
                        start += chunk_len;
                    }
                    let shape = format!("{samples} samples, {guesses} guesses, chunk {chunk_len}");
                    assert_eq!(bits(&col_sq), bits(&oracle.0), "col_css: {shape}");
                    assert_eq!(bits(&hyp_sq), bits(&oracle.1), "hyp_css: {shape}");
                    assert_eq!(bits(&cross), bits(&oracle_cov), "cov: {shape}");
                }
            }
        }
    }
}
