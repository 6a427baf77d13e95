//! Measurements-to-disclosure (MTD) estimation.
//!
//! The paper's comparison of logic styles is *quantitative*: a secure style
//! is one an attacker needs **orders of magnitude more measurements** to
//! disclose the key against.  This module estimates that quantity
//! empirically, the way the side-channel literature does:
//!
//! * run the attack over a **grid of trace counts** × many **resampled
//!   repetitions** (independent campaigns with deterministic per-repetition
//!   seeds),
//! * per grid point report the **success rate** (fraction of repetitions
//!   whose best guess is the correct key) and the **guessing entropy**
//!   (mean rank of the correct key, 1 = always first),
//! * the **MTD** is the smallest grid point from which the success rate
//!   stays at or above the configured threshold.
//!
//! Each repetition feeds its traces *incrementally* into a
//! [`PrefixAttack`] engine and snapshots the outcome at every grid point —
//! O(max traces) accumulator work per repetition instead of re-running the
//! attack from scratch per grid point ([`PrefixDpa`] wraps the mergeable
//! `dpl-power` accumulator's non-consuming `evaluate`; [`PrefixCpa`] keeps
//! raw moments so Pearson is evaluable at any prefix, which the exact CPA
//! accumulator cannot do: it scores only once its first pass is sealed).

use dpl_obs::{names, rate_per_sec, Obs};
use dpl_power::{fold_cross_moments, AttackResult, CrossSums, DpaAccumulator, TraceSet};

use crate::{EvalError, Result};

/// A streaming key-recovery attack that can score every guess at **any
/// prefix** of the trace stream — the engine a measurements-to-disclosure
/// sweep snapshots at each grid point.
pub trait PrefixAttack {
    /// Folds the next chunk of traces into the attack.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed chunks.
    fn update(&mut self, chunk: &TraceSet) -> dpl_power::Result<()>;

    /// Scores every key guess from the traces folded so far, without
    /// consuming the engine.
    ///
    /// # Errors
    ///
    /// Returns an error if no traces were folded yet.
    fn evaluate(&self) -> dpl_power::Result<AttackResult>;
}

/// Difference-of-means DPA as a prefix attack: a thin wrapper around
/// [`DpaAccumulator`], whose snapshots are exactly the in-memory
/// `dpa_attack` over the prefix.
#[derive(Debug, Clone)]
pub struct PrefixDpa<F> {
    inner: DpaAccumulator<F>,
}

impl<F> PrefixDpa<F>
where
    F: Fn(u64, u64) -> bool,
{
    /// Creates the engine for `key_guesses` guesses.
    ///
    /// # Errors
    ///
    /// Returns an error for zero guesses.
    pub fn new(key_guesses: u64, selection: F) -> dpl_power::Result<Self> {
        Ok(PrefixDpa {
            inner: DpaAccumulator::new(key_guesses, selection)?,
        })
    }
}

impl<F> PrefixAttack for PrefixDpa<F>
where
    F: Fn(u64, u64) -> bool,
{
    fn update(&mut self, chunk: &TraceSet) -> dpl_power::Result<()> {
        self.inner.update(chunk)
    }

    fn evaluate(&self) -> dpl_power::Result<AttackResult> {
        self.inner.evaluate()
    }
}

/// Correlation power analysis as a prefix attack.
///
/// Pearson's correlation centers on the final means, which is why the
/// bit-exact [`dpl_power::CpaAccumulator`] cannot be snapshotted
/// mid-stream: it scores only after sealing its first pass, and on
/// diverse inputs only after a second pass over the same traces.  This
/// engine instead keeps **raw moments** (`Σx`, `Σx²`, `Σy`, `Σy²`, `Σxy`)
/// and evaluates the algebraically equivalent one-pass form
///
/// ```text
/// r = (nΣxy - ΣxΣy) / sqrt((nΣx² - (Σx)²)(nΣy² - (Σy)²))
/// ```
///
/// at any prefix.  Scores agree with `cpa_attack` to numerical (not bit)
/// identity; guess *ranking* — what disclosure is judged on — is the same
/// in practice.  Non-positive variance terms score `0.0`, matching the
/// degenerate-input convention of `dpl_power::stats::pearson`.
///
/// The moments fold through [`dpl_power::fold_cross_moments`] without
/// centers: every `(guess, sample)` slot takes its products in trace
/// order, exactly as a per-guess loop over the chunk would.
#[derive(Debug, Clone)]
pub struct PrefixCpa<F> {
    model: F,
    key_guesses: u64,
    samples: Option<usize>,
    traces: usize,
    /// Per-guess `Σx` / `Σx²` over the hypothesis values.
    sx: Vec<f64>,
    sxx: Vec<f64>,
    /// Per-sample `Σy` / `Σy²` over the measured columns.
    sy: Vec<f64>,
    syy: Vec<f64>,
    /// `sxy[g * samples + s]` cross-moments.
    sxy: Vec<f64>,
}

impl<F> PrefixCpa<F>
where
    F: Fn(u64, u64) -> f64,
{
    /// Creates the engine for `key_guesses` guesses.  `model` must be a
    /// pure function of `(input, guess)`.
    ///
    /// # Errors
    ///
    /// Returns an error for zero guesses.
    pub fn new(key_guesses: u64, model: F) -> dpl_power::Result<Self> {
        if key_guesses == 0 {
            return Err(dpl_power::PowerError::NoKeyGuesses);
        }
        Ok(PrefixCpa {
            model,
            key_guesses,
            samples: None,
            traces: 0,
            sx: vec![0.0; key_guesses as usize],
            sxx: vec![0.0; key_guesses as usize],
            sy: Vec::new(),
            syy: Vec::new(),
            sxy: Vec::new(),
        })
    }
}

impl<F> PrefixAttack for PrefixCpa<F>
where
    F: Fn(u64, u64) -> f64,
{
    fn update(&mut self, chunk: &TraceSet) -> dpl_power::Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let samples = chunk.sample_count()?;
        match self.samples {
            None => {
                self.samples = Some(samples);
                self.sy = vec![0.0; samples];
                self.syy = vec![0.0; samples];
                self.sxy = vec![0.0; self.key_guesses as usize * samples];
            }
            Some(s) if s != samples => {
                return Err(dpl_power::PowerError::MalformedTraces {
                    message: "traces have inconsistent lengths".into(),
                });
            }
            _ => {}
        }
        for (s, sy) in self.sy.iter_mut().enumerate() {
            for &v in chunk.sample_column(s) {
                *sy += v;
            }
        }
        fold_cross_moments(
            chunk,
            &self.model,
            None,
            CrossSums {
                hyp_sum: Some(&mut self.sx),
                hyp_sq: &mut self.sxx,
                col_sq: &mut self.syy,
                cross: &mut self.sxy,
            },
        );
        self.traces += chunk.len();
        Ok(())
    }

    fn evaluate(&self) -> dpl_power::Result<AttackResult> {
        if self.traces == 0 {
            return Err(dpl_power::PowerError::MalformedTraces {
                message: "trace set is empty".into(),
            });
        }
        let n = self.traces as f64;
        let samples = self.samples.unwrap_or(0);
        let mut scores = Vec::with_capacity(self.key_guesses as usize);
        for guess in 0..self.key_guesses as usize {
            let va = n * self.sxx[guess] - self.sx[guess] * self.sx[guess];
            let row = guess * samples;
            let mut best = 0.0f64;
            for s in 0..samples {
                let vb = n * self.syy[s] - self.sy[s] * self.sy[s];
                let corr = if self.traces < 2 || va <= 0.0 || vb <= 0.0 {
                    0.0
                } else {
                    let cov = n * self.sxy[row + s] - self.sx[guess] * self.sy[s];
                    cov / (va.sqrt() * vb.sqrt())
                };
                best = best.max(corr.abs());
            }
            scores.push(best);
        }
        // dpl_power's winner selection, so prefix engines rank ties
        // identically to the in-memory attacks.
        Ok(dpl_power::best_result(scores))
    }
}

/// The deterministic per-repetition seed of an MTD campaign: a SplitMix64
/// finalizer over `(base seed, repetition index)`, decorrelating the
/// repetitions while keeping the whole sweep a pure function of the base
/// seed.
pub fn rep_seed(base: u64, rep: u64) -> u64 {
    let mut z = base ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a measurements-to-disclosure sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdConfig {
    /// Strictly ascending trace counts to evaluate the attack at.
    pub grid: Vec<usize>,
    /// Independent campaign repetitions per grid point.
    pub repetitions: usize,
    /// Base seed; repetition `r` uses [`rep_seed`]`(base_seed, r)`.
    pub base_seed: u64,
    /// Success-rate threshold for disclosure (e.g. `0.8`).
    pub success_threshold: f64,
}

impl MtdConfig {
    /// A sweep over `grid` with the conventional 80 % disclosure threshold.
    pub fn new(grid: Vec<usize>, repetitions: usize, base_seed: u64) -> Self {
        MtdConfig {
            grid,
            repetitions,
            base_seed,
            success_threshold: 0.8,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.grid.is_empty() || self.repetitions == 0 {
            return Err(EvalError::Misuse {
                message: "an MTD sweep needs a non-empty grid and at least one repetition".into(),
            });
        }
        if self.grid.windows(2).any(|w| w[0] >= w[1]) || self.grid[0] == 0 {
            return Err(EvalError::Misuse {
                message: "the MTD grid must be strictly ascending and positive".into(),
            });
        }
        if !(self.success_threshold > 0.0 && self.success_threshold <= 1.0) {
            return Err(EvalError::Misuse {
                message: "the success threshold must lie in (0, 1]".into(),
            });
        }
        Ok(())
    }
}

/// The outcome of an MTD sweep for one device/attack pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdCurve {
    /// The evaluated trace counts.
    pub grid: Vec<usize>,
    /// Fraction of repetitions that recovered the key, per grid point.
    pub success_rate: Vec<f64>,
    /// Mean rank of the correct key (1 = always the best guess), per grid
    /// point.  Ties are midranked: a device whose scores cannot
    /// distinguish any of `g` guesses reports `(g + 1) / 2`, not a
    /// spuriously flattering 1.
    pub guessing_entropy: Vec<f64>,
    /// Smallest grid point from which the success rate stays at or above
    /// the threshold; `None` when the attack never stabilizes above it
    /// within the grid ("no disclosure observed").
    pub mtd: Option<usize>,
}

impl MtdCurve {
    /// `true` when the sweep observed stable disclosure within its grid.
    pub fn disclosed(&self) -> bool {
        self.mtd.is_some()
    }
}

/// Runs a measurements-to-disclosure sweep.
///
/// `generate(seed, n)` produces the `n`-trace campaign of one repetition
/// (deterministic in `seed`); `make_engine()` builds a fresh
/// [`PrefixAttack`] per repetition.  Each repetition generates `grid.last()`
/// traces once, feeds them incrementally, and snapshots the attack at every
/// grid point.
///
/// With a telemetry context, the sweep runs inside an `eval.mtd_campaign`
/// span, and the grid size, repetition count, total simulated traces and
/// sweep throughput are recorded into `obs`.
///
/// # Errors
///
/// Returns an error for an invalid configuration, a generator that
/// produces fewer traces than requested, a `correct_key` outside the
/// engine's guess range, or any engine failure.
pub fn mtd_campaign<G, M, A>(
    config: &MtdConfig,
    correct_key: u64,
    generate: G,
    make_engine: M,
    obs: Option<&Obs>,
) -> Result<MtdCurve>
where
    G: Fn(u64, usize) -> TraceSet,
    M: Fn() -> dpl_power::Result<A>,
    A: PrefixAttack,
{
    let span = obs.map(|obs| obs.span("eval.mtd_campaign"));
    config.validate()?;
    let max_traces = *config.grid.last().expect("validated non-empty");
    let mut successes = vec![0usize; config.grid.len()];
    let mut rank_sum = vec![0.0f64; config.grid.len()];

    for rep in 0..config.repetitions {
        let seed = rep_seed(config.base_seed, rep as u64);
        let set = generate(seed, max_traces);
        if set.len() < max_traces {
            return Err(EvalError::Misuse {
                message: format!(
                    "the campaign generator produced {} of the {max_traces} requested traces",
                    set.len()
                ),
            });
        }
        let mut engine = make_engine().map_err(EvalError::Power)?;
        let mut fed = 0usize;
        for (point, &n) in config.grid.iter().enumerate() {
            engine
                .update(&set.slice(fed, n))
                .map_err(EvalError::Power)?;
            fed = n;
            let result = engine.evaluate().map_err(EvalError::Power)?;
            let correct =
                *result
                    .scores
                    .get(correct_key as usize)
                    .ok_or_else(|| EvalError::Misuse {
                        message: format!(
                            "correct key {correct_key:#X} is outside the engine's {} guesses",
                            result.scores.len()
                        ),
                    })?;
            let greater = result.scores.iter().filter(|&&s| s > correct).count();
            let equal = result.scores.iter().filter(|&&s| s == correct).count();
            // Midrank over ties: an attack whose scores cannot distinguish
            // the guesses reports the average rank, not rank 1.
            let rank = 1.0 + greater as f64 + (equal.saturating_sub(1)) as f64 / 2.0;
            rank_sum[point] += rank;
            if result.best_guess == correct_key {
                successes[point] += 1;
            }
        }
    }

    let reps = config.repetitions as f64;
    let success_rate: Vec<f64> = successes.iter().map(|&s| s as f64 / reps).collect();
    let guessing_entropy: Vec<f64> = rank_sum.iter().map(|&r| r / reps).collect();
    let mtd = success_rate
        .iter()
        .rposition(|&sr| sr < config.success_threshold)
        .map_or(Some(0), |last_below| {
            if last_below + 1 < config.grid.len() {
                Some(last_below + 1)
            } else {
                None
            }
        })
        .map(|point| config.grid[point]);

    if let (Some(obs), Some(span)) = (obs, span) {
        let simulated = max_traces as u64 * config.repetitions as u64;
        obs.counter_add(names::MTD_GRID_POINTS, config.grid.len() as u64);
        obs.counter_add(names::MTD_REPETITIONS, config.repetitions as u64);
        obs.counter_add(names::MTD_TRACES_SIMULATED, simulated);
        let elapsed = span.finish();
        if let Some(rate) = rate_per_sec(simulated, elapsed) {
            obs.gauge_max(names::FOLD_TRACES_PER_SEC, rate);
        }
    }
    Ok(MtdCurve {
        grid: config.grid.clone(),
        success_rate,
        guessing_entropy,
        mtd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpl_power::{cpa_attack, dpa_attack};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SBOX: [u64; 16] = [
        0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
    ];

    fn sbox(x: u64) -> u64 {
        SBOX[(x & 0xF) as usize]
    }

    const KEY: u64 = 0xB;

    /// A leaky campaign generator: Hamming weight of the S-box output plus
    /// Gaussian-ish noise of the given magnitude.
    fn leaky_generator(noise: f64) -> impl Fn(u64, usize) -> TraceSet {
        move |seed, n| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = TraceSet::with_capacity(1, n);
            for _ in 0..n {
                let plaintext = rng.gen_range(0..16u64);
                let leak = sbox(plaintext ^ KEY).count_ones() as f64;
                set.push_scalar(plaintext, leak + rng.gen_range(-noise..noise.max(1e-12)));
            }
            set
        }
    }

    /// A constant-power generator: pure noise, nothing to disclose.
    fn quiet_generator() -> impl Fn(u64, usize) -> TraceSet {
        move |seed, n| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = TraceSet::with_capacity(1, n);
            for _ in 0..n {
                let plaintext = rng.gen_range(0..16u64);
                set.push_scalar(plaintext, rng.gen_range(-1.0..1.0));
            }
            set
        }
    }

    fn selection(input: u64, guess: u64) -> bool {
        sbox(input ^ guess).count_ones() >= 2
    }

    fn model(input: u64, guess: u64) -> f64 {
        sbox(input ^ guess).count_ones() as f64
    }

    #[test]
    fn prefix_dpa_snapshots_match_in_memory_prefix_attacks() {
        let set = leaky_generator(2.0)(9, 300);
        let mut engine = PrefixDpa::new(16, selection).unwrap();
        for (start, end) in [(0, 50), (50, 120), (120, 300)] {
            engine.update(&set.slice(start, end)).unwrap();
            let snapshot = engine.evaluate().unwrap();
            let oracle = dpa_attack(&set.truncated(end), 16, selection).unwrap();
            assert_eq!(snapshot.scores, oracle.scores, "prefix {end}");
            assert_eq!(snapshot.best_guess, oracle.best_guess);
        }
    }

    #[test]
    fn prefix_cpa_agrees_with_the_exact_two_pass_attack() {
        let set = leaky_generator(1.5)(11, 400);
        let mut engine = PrefixCpa::new(16, model).unwrap();
        for (start, end) in [(0, 128), (128, 400)] {
            engine.update(&set.slice(start, end)).unwrap();
            let snapshot = engine.evaluate().unwrap();
            let oracle = cpa_attack(&set.truncated(end), 16, model).unwrap();
            assert_eq!(snapshot.best_guess, oracle.best_guess, "prefix {end}");
            for (a, b) in snapshot.scores.iter().zip(&oracle.scores) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    /// `PrefixCpa`'s pre-kernel update, kept as the oracle: per-column raw
    /// sums, then per guess a hypothesis vector and its raw moments.
    struct PerGuessCpa<F>(PrefixCpa<F>);

    impl<F: Fn(u64, u64) -> f64> PrefixAttack for PerGuessCpa<F> {
        fn update(&mut self, chunk: &TraceSet) -> dpl_power::Result<()> {
            let engine = &mut self.0;
            let samples = chunk.sample_count()?;
            if engine.samples.is_none() {
                engine.samples = Some(samples);
                engine.sy = vec![0.0; samples];
                engine.syy = vec![0.0; samples];
                engine.sxy = vec![0.0; engine.key_guesses as usize * samples];
            }
            for (s, (sy, syy)) in engine.sy.iter_mut().zip(&mut engine.syy).enumerate() {
                for &v in chunk.sample_column(s) {
                    *sy += v;
                    *syy += v * v;
                }
            }
            let mut hypothesis = vec![0.0f64; chunk.len()];
            for guess in 0..engine.key_guesses {
                let g = guess as usize;
                let (mut sx, mut sxx) = (engine.sx[g], engine.sxx[g]);
                for (h, &input) in hypothesis.iter_mut().zip(chunk.inputs()) {
                    *h = (engine.model)(input, guess);
                    sx += *h;
                    sxx += *h * *h;
                }
                engine.sx[g] = sx;
                engine.sxx[g] = sxx;
                let row = g * samples;
                for s in 0..samples {
                    let mut sxy = engine.sxy[row + s];
                    for (&h, &v) in hypothesis.iter().zip(chunk.sample_column(s)) {
                        sxy += h * v;
                    }
                    engine.sxy[row + s] = sxy;
                }
            }
            engine.traces += chunk.len();
            Ok(())
        }

        fn evaluate(&self) -> dpl_power::Result<AttackResult> {
            self.0.evaluate()
        }
    }

    #[test]
    fn prefix_cpa_is_bit_identical_to_the_per_guess_loop() {
        // Multi-sample, diverse-input traces: 64-bit plaintexts, five
        // samples on different scales.
        let generator = |seed: u64, n: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = TraceSet::with_capacity(5, n);
            for _ in 0..n {
                let plaintext = rng.gen_range(0..u64::MAX);
                let leak = sbox(plaintext ^ KEY).count_ones() as f64;
                let samples: Vec<f64> = (0..5)
                    .map(|s| leak * s as f64 + rng.gen_range(-3.0..3.0) * 10f64.powi(s))
                    .collect();
                set.push_samples(plaintext, &samples);
            }
            set
        };
        let set = generator(3, 700);
        let mut engine = PrefixCpa::new(16, model).unwrap();
        let mut oracle = PerGuessCpa(PrefixCpa::new(16, model).unwrap());
        for (start, end) in [(0, 1), (1, 130), (130, 300), (300, 700)] {
            let chunk = set.slice(start, end);
            engine.update(&chunk).unwrap();
            oracle.update(&chunk).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (mine, theirs) in [
                (&engine.sx, &oracle.0.sx),
                (&engine.sxx, &oracle.0.sxx),
                (&engine.sy, &oracle.0.sy),
                (&engine.syy, &oracle.0.syy),
                (&engine.sxy, &oracle.0.sxy),
            ] {
                assert_eq!(bits(mine), bits(theirs), "prefix {end}");
            }
            let (a, b) = (engine.evaluate().unwrap(), oracle.evaluate().unwrap());
            assert_eq!(bits(&a.scores), bits(&b.scores), "prefix {end}");
        }
        let config = MtdConfig::new(vec![40, 130, 300], 3, 17);
        let curve =
            mtd_campaign(&config, KEY, generator, || PrefixCpa::new(16, model), None).unwrap();
        let per_guess = mtd_campaign(
            &config,
            KEY,
            generator,
            || PrefixCpa::new(16, model).map(PerGuessCpa),
            None,
        )
        .unwrap();
        assert_eq!(curve, per_guess);
    }

    #[test]
    fn prefix_engine_misuse_is_reported() {
        assert!(PrefixCpa::new(0, model).is_err());
        assert!(PrefixDpa::new(0, selection).is_err());
        let empty = PrefixCpa::new(16, model).unwrap();
        assert!(empty.evaluate().is_err());
        let mut engine = PrefixCpa::new(16, model).unwrap();
        engine.update(&leaky_generator(1.0)(1, 8)).unwrap();
        let mut two_wide = TraceSet::new();
        two_wide.push_samples(0, &[1.0, 2.0]);
        assert!(engine.update(&two_wide).is_err());
    }

    #[test]
    fn leaky_device_discloses_and_quiet_device_does_not() {
        let config = MtdConfig::new(vec![25, 50, 100, 200, 400], 6, 2005);
        let leaky = mtd_campaign(
            &config,
            KEY,
            leaky_generator(1.0),
            || PrefixDpa::new(16, selection),
            None,
        )
        .unwrap();
        assert!(leaky.disclosed(), "curve: {:?}", leaky.success_rate);
        let mtd = leaky.mtd.unwrap();
        assert!(config.grid.contains(&mtd));
        // Guessing entropy at disclosure is (close to) rank 1.
        let at = config.grid.iter().position(|&n| n == mtd).unwrap();
        assert!(leaky.guessing_entropy[at] < 2.0);

        let quiet = mtd_campaign(
            &config,
            KEY,
            quiet_generator(),
            || PrefixDpa::new(16, selection),
            None,
        )
        .unwrap();
        assert!(!quiet.disclosed(), "curve: {:?}", quiet.success_rate);
    }

    #[test]
    fn sweeps_are_deterministic_in_the_base_seed() {
        let config = MtdConfig::new(vec![50, 150], 4, 77);
        let run = || {
            mtd_campaign(
                &config,
                KEY,
                leaky_generator(2.5),
                || PrefixCpa::new(16, model),
                None,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
        let other = MtdConfig::new(vec![50, 150], 4, 78);
        let differs = mtd_campaign(
            &other,
            KEY,
            leaky_generator(2.5),
            || PrefixCpa::new(16, model),
            None,
        )
        .unwrap();
        // Different base seed, different campaigns (rates may coincide but
        // the full curves should not be identical in general).
        assert!(run() == run() && (differs != run() || differs.success_rate == run().success_rate));
    }

    #[test]
    fn mtd_requires_stable_disclosure_not_a_lucky_spike() {
        // Success pattern [1.0, 0.0, 1.0, 1.0] over the grid: the spike at
        // the first point must not count; MTD is the third point.
        struct Scripted {
            traces: usize,
        }
        impl PrefixAttack for Scripted {
            fn update(&mut self, chunk: &TraceSet) -> dpl_power::Result<()> {
                self.traces += chunk.len();
                Ok(())
            }
            fn evaluate(&self) -> dpl_power::Result<AttackResult> {
                let win = self.traces != 20;
                Ok(AttackResult {
                    scores: if win { vec![0.0, 1.0] } else { vec![1.0, 0.0] },
                    best_guess: u64::from(win),
                })
            }
        }
        let config = MtdConfig::new(vec![10, 20, 30, 40], 3, 1);
        let curve = mtd_campaign(
            &config,
            1,
            |_, n| {
                let mut set = TraceSet::with_capacity(1, n);
                for t in 0..n {
                    set.push_scalar(t as u64, 0.0);
                }
                set
            },
            || Ok(Scripted { traces: 0 }),
            None,
        )
        .unwrap();
        assert_eq!(curve.success_rate, vec![1.0, 0.0, 1.0, 1.0]);
        assert_eq!(curve.mtd, Some(30));
        assert_eq!(curve.guessing_entropy[1], 2.0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let gen = quiet_generator();
        let engine = || PrefixDpa::new(4, selection);
        for config in [
            MtdConfig::new(vec![], 3, 0),
            MtdConfig::new(vec![10, 10], 3, 0),
            MtdConfig::new(vec![20, 10], 3, 0),
            MtdConfig::new(vec![0, 10], 3, 0),
            MtdConfig::new(vec![10], 0, 0),
            MtdConfig {
                success_threshold: 1.5,
                ..MtdConfig::new(vec![10], 2, 0)
            },
        ] {
            assert!(
                mtd_campaign(&config, 0, &gen, engine, None).is_err(),
                "{config:?}"
            );
        }
        // A correct key outside the guess range errors instead of panicking.
        let config = MtdConfig::new(vec![10], 1, 0);
        assert!(mtd_campaign(&config, 99, &gen, engine, None).is_err());
        // A generator that under-delivers errors.
        assert!(mtd_campaign(&config, 0, |_, _| TraceSet::new(), engine, None).is_err());
    }

    #[test]
    fn rep_seeds_are_decorrelated() {
        let seeds: Vec<u64> = (0..100).map(|r| rep_seed(42, r)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(rep_seed(1, 0), rep_seed(2, 0));
    }
}
