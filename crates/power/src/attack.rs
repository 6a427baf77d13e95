use crate::accumulate::{input_profile, CpaAccumulator, DpaAccumulator};
use crate::trace::TraceSet;
use crate::Result;

/// The outcome of a key-recovery attack: a score per key guess and the
/// best-scoring guess.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackResult {
    /// One score per key guess (higher = more likely).
    pub scores: Vec<f64>,
    /// The key guess with the highest score.
    pub best_guess: u64,
}

impl AttackResult {
    /// Ratio between the best score and the second best score — a crude
    /// confidence measure (1.0 means the attack cannot distinguish guesses).
    ///
    /// The top two scores are found in a single pass.  When the second-best
    /// score is not positive the ratio is undefined: the result is
    /// `INFINITY` if the best score is positive (the winner stands alone)
    /// and 1.0 otherwise (nothing distinguishes the guesses).
    pub fn distinguishing_ratio(&self) -> f64 {
        if self.scores.len() < 2 {
            return 1.0;
        }
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &score in &self.scores {
            if score > best {
                second = best;
                best = score;
            } else if score > second {
                second = score;
            }
        }
        if second > 0.0 {
            best / second
        } else if best > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Classic difference-of-means DPA (Kocher et al., reference \[2\] of the paper).
///
/// For every key guess, the traces are split into two groups according to
/// `selection(plaintext, guess)` (the predicted value of a target bit); the
/// guess whose groups differ the most is reported.  The score of a guess is
/// the maximum absolute difference of means over all trace samples.
///
/// The implementation is a [`DpaAccumulator`] fed the whole set in a single
/// update: the partition of a guess is computed **once** per guess and
/// folded over the columnar trace storage in a single sweep, and when the
/// traces carry few distinct inputs (e.g. 4-bit plaintexts) the partition
/// collapses onto per-input-class sums, scoring each guess in O(classes) per
/// sample.  Feeding the accumulator the same traces chunk-by-chunk (the
/// out-of-core path of `dpl-store`) is bit-identical to this function.
/// `selection` must be a pure function of `(input, guess)`.
///
/// # Errors
///
/// Returns an error for an empty/malformed trace set or zero key guesses.
pub fn dpa_attack<F>(traces: &TraceSet, key_guesses: u64, selection: F) -> Result<AttackResult>
where
    F: Fn(u64, u64) -> bool,
{
    // Pre-scanning the inputs (one cheap integer pass) picks the single
    // matching bookkeeping mode, instead of Auto's belt-and-braces double
    // maintenance.
    let profile = input_profile(traces.inputs());
    let mut accumulator = DpaAccumulator::with_profile(key_guesses, selection, profile)?;
    accumulator.update(traces)?;
    accumulator.finalize()
}

/// Correlation power analysis: for every key guess the measured traces are
/// correlated against a hypothetical power model `model(plaintext, guess)`
/// (typically a Hamming weight); the guess with the highest absolute
/// correlation wins.
///
/// The implementation is a [`CpaAccumulator`] fed the whole set in one
/// update per pass.  Trace sets with few distinct inputs (as with
/// [`dpa_attack`]) collapse onto per-class sums, and above
/// [`crate::MAX_INPUT_CLASSES`] traces they take **one** pass: the column
/// means and centered column norms come from shifted column sums folded
/// alongside the class sums.  Diverse-input sets take two: column means
/// first, then the centered norms and each guess's cross-products in one
/// sweep per sample.
/// Chunked accumulation (the out-of-core path of `dpl-store`) is
/// bit-identical, and `model` must be a pure function of `(input, guess)`.
/// On diverse-input sets the two passes evaluate `model` twice per
/// `(input, guess)` — the accumulator stays O(guesses × samples) instead of
/// buffering an O(traces × guesses) hypothesis matrix, which is what lets
/// the same code run out-of-core; keep `model` cheap (e.g. a `dpl-crypto`
/// `EnergyCache` lookup) or memoize it.
///
/// # Errors
///
/// Returns an error for an empty/malformed trace set or zero key guesses.
pub fn cpa_attack<F>(traces: &TraceSet, key_guesses: u64, model: F) -> Result<AttackResult>
where
    F: Fn(u64, u64) -> f64,
{
    let profile = input_profile(traces.inputs());
    let mut accumulator = CpaAccumulator::with_profile(key_guesses, model, profile)?;
    accumulator.update(traces)?;
    if accumulator.begin_second_pass()? {
        accumulator.update(traces)?;
    }
    accumulator.finalize()
}

/// Packs per-guess scores into an [`AttackResult`], selecting the winner
/// with this crate's canonical tie convention (the **last** maximum under
/// partial comparison).  Public so external attack engines (e.g. the
/// prefix-evaluable attacks of `dpl-eval`) rank tied scores exactly like
/// the in-memory attacks instead of re-implementing the rule.
pub fn best_result(scores: Vec<f64>) -> AttackResult {
    let best_guess = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i as u64)
        .unwrap_or(0);
    AttackResult { scores, best_guess }
}

/// The straightforward per-(guess, sample) implementations of both attacks,
/// retained as the correctness oracle for the streaming versions.
///
/// These mirror the pre-columnar code: every `(guess, sample)` pair gathers
/// the column into a fresh allocation and partitions/correlates it from
/// scratch.  The streaming [`dpa_attack`]/[`cpa_attack`] produce bit-identical
/// scores for diverse inputs and scores within floating-point reassociation
/// error (≪ 1e-12 relative) when input-class aggregation kicks in.
pub mod reference {
    use super::{best_result, AttackResult};
    use crate::stats;
    use crate::trace::TraceSet;
    use crate::{PowerError, Result};

    /// Naive difference-of-means DPA; see [`super::dpa_attack`].
    ///
    /// # Errors
    ///
    /// Returns an error for an empty/malformed trace set or zero key guesses.
    pub fn dpa_attack<F>(traces: &TraceSet, key_guesses: u64, selection: F) -> Result<AttackResult>
    where
        F: Fn(u64, u64) -> bool,
    {
        if key_guesses == 0 {
            return Err(PowerError::NoKeyGuesses);
        }
        let samples = traces.sample_count()?;
        let mut scores = Vec::with_capacity(key_guesses as usize);
        for guess in 0..key_guesses {
            let mut best = 0.0f64;
            for s in 0..samples {
                let column = traces.sample_column(s).to_vec();
                let mut ones = Vec::new();
                let mut zeros = Vec::new();
                for (&input, &value) in traces.inputs().iter().zip(&column) {
                    if selection(input, guess) {
                        ones.push(value);
                    } else {
                        zeros.push(value);
                    }
                }
                if ones.is_empty() || zeros.is_empty() {
                    continue;
                }
                let dom = stats::difference_of_means(&ones, &zeros).abs();
                best = best.max(dom);
            }
            scores.push(best);
        }
        Ok(best_result(scores))
    }

    /// Naive correlation power analysis; see [`super::cpa_attack`].
    ///
    /// # Errors
    ///
    /// Returns an error for an empty/malformed trace set or zero key guesses.
    pub fn cpa_attack<F>(traces: &TraceSet, key_guesses: u64, model: F) -> Result<AttackResult>
    where
        F: Fn(u64, u64) -> f64,
    {
        if key_guesses == 0 {
            return Err(PowerError::NoKeyGuesses);
        }
        let samples = traces.sample_count()?;
        let mut scores = Vec::with_capacity(key_guesses as usize);
        for guess in 0..key_guesses {
            let hypothesis: Vec<f64> = traces
                .inputs()
                .iter()
                .map(|&input| model(input, guess))
                .collect();
            let mut best = 0.0f64;
            for s in 0..samples {
                let column = traces.sample_column(s).to_vec();
                let corr = stats::pearson(&hypothesis, &column).abs();
                best = best.max(corr);
            }
            scores.push(best);
        }
        Ok(best_result(scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use crate::PowerError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 4-bit non-linear S-box (the PRESENT S-box): the standard target of
    /// first-order DPA/CPA.  A purely linear leakage would make the
    /// complementary key guess indistinguishable under absolute correlation.
    const SBOX: [u64; 16] = [
        0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
    ];

    fn sbox(x: u64) -> u64 {
        SBOX[(x & 0xF) as usize]
    }

    /// A toy leaky device: the "power" is the Hamming weight of the S-box
    /// output of `plaintext XOR key` plus a data-independent offset.
    fn leaky_trace_set(key: u64, n: usize) -> TraceSet {
        let mut set = TraceSet::new();
        for i in 0..n {
            let plaintext = (i as u64 * 7 + 3) % 16;
            let value = sbox(plaintext ^ key).count_ones() as f64 + 10.0;
            set.push(plaintext, Trace::scalar(value));
        }
        set
    }

    /// A constant-power device: every operation costs the same.
    fn constant_trace_set(n: usize) -> TraceSet {
        let mut set = TraceSet::new();
        for i in 0..n {
            let plaintext = (i as u64 * 7 + 3) % 16;
            set.push(plaintext, Trace::scalar(42.0));
        }
        set
    }

    /// A randomized multi-sample trace set over a wide (non-classifiable)
    /// input domain.
    fn wide_random_trace_set(seed: u64, traces: usize, samples: usize) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = TraceSet::new();
        for _ in 0..traces {
            let input = rng.gen_range(0..u64::MAX);
            let samples: Vec<f64> = (0..samples).map(|_| rng.gen_range(-1.0..1.0)).collect();
            set.push_samples(input, &samples);
        }
        set
    }

    #[test]
    fn dpa_recovers_key_from_leaky_traces() {
        let key = 0xB;
        let traces = leaky_trace_set(key, 256);
        // Partition on the predicted Hamming weight of the S-box output;
        // with only 16 plaintext classes a single-bit partition has exact
        // ghost peaks, a weight-based partition does not.
        let result = dpa_attack(&traces, 16, |plaintext, guess| {
            sbox(plaintext ^ guess).count_ones() >= 2
        })
        .unwrap();
        assert_eq!(result.best_guess, key);
        assert!(result.distinguishing_ratio() > 1.0);
    }

    #[test]
    fn cpa_recovers_key_from_leaky_traces() {
        let key = 0x6;
        let traces = leaky_trace_set(key, 128);
        let result = cpa_attack(&traces, 16, |plaintext, guess| {
            sbox(plaintext ^ guess).count_ones() as f64
        })
        .unwrap();
        assert_eq!(result.best_guess, key);
        assert!(result.scores[key as usize] > 0.99);
    }

    #[test]
    fn attacks_fail_on_constant_power_traces() {
        let traces = constant_trace_set(256);
        let cpa = cpa_attack(&traces, 16, |plaintext, guess| {
            (plaintext ^ guess).count_ones() as f64
        })
        .unwrap();
        // Every guess scores (essentially) zero: no information leaks.
        assert!(cpa.scores.iter().all(|&s| s < 1e-9));
        let dpa = dpa_attack(&traces, 16, |plaintext, guess| {
            (plaintext ^ guess).count_ones() >= 2
        })
        .unwrap();
        assert!(dpa.scores.iter().all(|&s| s < 1e-9));
    }

    #[test]
    fn error_cases() {
        let traces = constant_trace_set(4);
        assert!(matches!(
            dpa_attack(&traces, 0, |_, _| true),
            Err(PowerError::NoKeyGuesses)
        ));
        assert!(matches!(
            reference::dpa_attack(&traces, 0, |_, _| true),
            Err(PowerError::NoKeyGuesses)
        ));
        assert!(matches!(
            reference::cpa_attack(&traces, 0, |_, _| 0.0),
            Err(PowerError::NoKeyGuesses)
        ));
        let empty = TraceSet::new();
        assert!(dpa_attack(&empty, 16, |_, _| true).is_err());
        assert!(cpa_attack(&empty, 16, |_, _| 0.0).is_err());
        assert!(reference::dpa_attack(&empty, 16, |_, _| true).is_err());
        assert!(reference::cpa_attack(&empty, 16, |_, _| 0.0).is_err());
    }

    #[test]
    fn distinguishing_ratio_degenerate_cases() {
        let r = AttackResult {
            scores: vec![1.0],
            best_guess: 0,
        };
        assert_eq!(r.distinguishing_ratio(), 1.0);
        let r = AttackResult {
            scores: vec![1.0, 0.0],
            best_guess: 0,
        };
        assert!(r.distinguishing_ratio().is_infinite());
    }

    #[test]
    fn distinguishing_ratio_handles_negative_scores() {
        // A negative second-best must not yield a misleading INFINITY.
        let r = AttackResult {
            scores: vec![-0.5, -1.0, -2.0],
            best_guess: 0,
        };
        assert_eq!(r.distinguishing_ratio(), 1.0);
        let r = AttackResult {
            scores: vec![3.0, -1.0],
            best_guess: 0,
        };
        assert!(r.distinguishing_ratio().is_infinite());
        let r = AttackResult {
            scores: vec![6.0, 2.0, 3.0, 1.0],
            best_guess: 0,
        };
        assert!((r.distinguishing_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_attacks_match_reference_bit_for_bit_on_wide_inputs() {
        // Wide random inputs defeat class aggregation, so the streaming
        // fallback runs — its scores must equal the naive oracle exactly.
        for seed in [1u64, 2, 3] {
            let traces = wide_random_trace_set(seed, 200, 6);
            let selection = |input: u64, guess: u64| (input ^ guess).count_ones().is_multiple_of(2);
            let model = |input: u64, guess: u64| ((input >> 3) ^ guess).count_ones() as f64;

            let fast = dpa_attack(&traces, 24, selection).unwrap();
            let naive = reference::dpa_attack(&traces, 24, selection).unwrap();
            assert_eq!(fast.scores, naive.scores, "dpa seed {seed}");
            assert_eq!(fast.best_guess, naive.best_guess);

            let fast = cpa_attack(&traces, 24, model).unwrap();
            let naive = reference::cpa_attack(&traces, 24, model).unwrap();
            assert_eq!(fast.scores, naive.scores, "cpa seed {seed}");
            assert_eq!(fast.best_guess, naive.best_guess);
        }
    }

    #[test]
    fn class_aggregated_attacks_match_reference_within_tolerance() {
        // Few distinct inputs trigger class aggregation, which reorders the
        // floating-point sums: scores agree to ~1e-12 and ranks exactly.
        let mut rng = StdRng::seed_from_u64(99);
        let mut set = TraceSet::new();
        for _ in 0..300 {
            let input = rng.gen_range(0..16u64);
            let samples: Vec<f64> = (0..4)
                .map(|_| sbox(input ^ 0xD).count_ones() as f64 + rng.gen_range(-0.5..0.5))
                .collect();
            set.push_samples(input, &samples);
        }
        let selection = |input: u64, guess: u64| sbox(input ^ guess).count_ones() >= 2;
        let model = |input: u64, guess: u64| sbox(input ^ guess).count_ones() as f64;

        let fast = dpa_attack(&set, 16, selection).unwrap();
        let naive = reference::dpa_attack(&set, 16, selection).unwrap();
        assert_eq!(fast.best_guess, naive.best_guess);
        for (a, b) in fast.scores.iter().zip(&naive.scores) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }

        let fast = cpa_attack(&set, 16, model).unwrap();
        let naive = reference::cpa_attack(&set, 16, model).unwrap();
        assert_eq!(fast.best_guess, naive.best_guess);
        for (a, b) in fast.scores.iter().zip(&naive.scores) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn single_group_partitions_score_zero() {
        // A selection that puts every trace in one group cannot distinguish.
        let traces = leaky_trace_set(0x3, 64);
        let all_ones = dpa_attack(&traces, 4, |_, _| true).unwrap();
        assert!(all_ones.scores.iter().all(|&s| s == 0.0));
        let naive = reference::dpa_attack(&traces, 4, |_, _| true).unwrap();
        assert_eq!(all_ones.scores, naive.scores);
    }

    #[test]
    fn one_pass_class_cpa_is_no_farther_from_the_oracle_at_a_large_offset() {
        // Leakage riding on a 10^3 offset: the regime where a raw-moment
        // `Σv² − (Σv)²/n` form would lose about six digits.  The shifted
        // one-pass sums must keep the class-aggregated scores at least as
        // close to the two-pass naive oracle as the two-pass class fold
        // was; the bound is that fold's measured deviation on this set.
        const TWO_PASS_DEVIATION: f64 = 8.957e-13;
        let mut rng = StdRng::seed_from_u64(1000);
        let mut set = TraceSet::new();
        for _ in 0..4096 {
            let input = rng.gen_range(0..16u64);
            let leak = sbox(input ^ 0x5).count_ones() as f64;
            let samples: Vec<f64> = (0..3)
                .map(|_| 1000.0 + 0.05 * leak + rng.gen_range(-0.5..0.5))
                .collect();
            set.push_samples(input, &samples);
        }
        let model = |input: u64, guess: u64| sbox(input ^ guess).count_ones() as f64;
        let fast = cpa_attack(&set, 16, model).unwrap();
        let naive = reference::cpa_attack(&set, 16, model).unwrap();
        assert_eq!(fast.best_guess, naive.best_guess);
        let deviation = fast
            .scores
            .iter()
            .zip(&naive.scores)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(deviation <= TWO_PASS_DEVIATION, "{deviation:e}");
    }
}
