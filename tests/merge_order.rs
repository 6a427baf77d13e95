//! Property tests: merging per-chunk `DpaAccumulator` / `CpaAccumulator`
//! partials is **order-independent** — folding the chunks' partial
//! accumulators in any permutation yields bit-identical scores to the
//! sequential fold over the whole set.
//!
//! Floating-point addition is commutative but not associative, so this
//! property cannot hold for arbitrary reals.  The tests therefore generate
//! **exactly representable** trace material: sample values are small dyadic
//! rationals (multiples of 1/4), hypothesis values small integers, and (for
//! CPA, whose first pass divides by the trace count to seal the means) the
//! trace counts are powers of two.  Every intermediate sum, mean, centered
//! product and cross-moment is then exact in an `f64`, all associations of
//! the same additions agree bit-for-bit, and any score difference between
//! merge orders exposes a *bookkeeping* bug — double counting, class-table
//! corruption, count/sum skew — rather than harmless rounding.

use dpl_power::{
    cpa_passes, input_profile, CpaAccumulator, DpaAccumulator, InputProfile, TraceSet,
    MAX_INPUT_CLASSES,
};
use proptest::prelude::*;

/// A cheap deterministic hash (same as tests/cross_crate_properties.rs).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A trace set whose values are exactly representable: inputs either span
/// few classes (0..16) or the full 64-bit range, samples are multiples of
/// 0.25 in [-16, 16).
fn dyadic_trace_set(seed: u64, traces: usize, samples: usize, wide: bool) -> TraceSet {
    let mut set = TraceSet::with_capacity(samples, traces);
    for t in 0..traces {
        let h = mix(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let input = if wide { h } else { h % 16 };
        let values: Vec<f64> = (0..samples)
            .map(|s| {
                let k = (mix(h ^ (s as u64)) % 128) as i64 - 64;
                k as f64 * 0.25
            })
            .collect();
        set.push_samples(input, &values);
    }
    set
}

/// Splits a set into chunks of `chunk` traces (the final one may be short).
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

/// A deterministic Fisher–Yates permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn selection(input: u64, guess: u64) -> bool {
    (input ^ guess).count_ones() >= 2
}

fn model(input: u64, guess: u64) -> f64 {
    ((input >> 2) ^ guess).count_ones() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DPA: per-chunk partials merged in ANY permutation score
    /// bit-identically to the sequential whole-set fold.
    #[test]
    fn dpa_merge_is_order_independent(
        seed in 0u64..50_000,
        traces in 16usize..260,
        samples in 1usize..4,
        chunk in 1usize..64,
        wide_bit in 0u64..2,
        perm_seed in 0u64..10_000,
    ) {
        let set = dyadic_trace_set(seed, traces, samples, wide_bit == 1);
        let mut sequential = DpaAccumulator::new(12, selection).unwrap();
        sequential.update(&set).unwrap();
        let sequential = sequential.finalize().unwrap();

        let chunks = chunks_of(&set, chunk);
        let partials: Vec<_> = chunks
            .iter()
            .map(|part| {
                let mut partial = DpaAccumulator::new(12, selection).unwrap();
                partial.update(part).unwrap();
                partial
            })
            .collect();
        let mut merged = DpaAccumulator::new(12, selection).unwrap();
        for &index in &permutation(perm_seed, partials.len()) {
            merged.merge(&partials[index]).unwrap();
        }
        prop_assert_eq!(merged.traces(), traces);
        let merged = merged.finalize().unwrap();
        prop_assert_eq!(merged.scores, sequential.scores);
        prop_assert_eq!(merged.best_guess, sequential.best_guess);
    }

    /// CPA: pass-1 partials merged in any permutation, then (when the
    /// sealed accumulator asks for a replay) pass-2 forks merged in any
    /// (other) permutation, score bit-identically to the sequential fold.
    /// Trace counts are powers of two so the sealed means stay exactly
    /// representable.  Few-class sets of 128 and 256 traces seal after one
    /// pass, under `Auto` and under the hinted `FewClasses` profile; their
    /// merges re-shift each partial's shifted column sums onto the
    /// receiver's first samples, which the dyadic values keep exact too.
    #[test]
    fn cpa_merge_is_order_independent(
        seed in 0u64..50_000,
        traces_pow in 5u32..9,           // 32..256 traces
        samples in 1usize..3,
        chunk in 1usize..48,
        wide_bit in 0u64..2,
        hinted_bit in 0u64..2,
        perm_seed in 0u64..10_000,
    ) {
        let traces = 1usize << traces_pow;
        let set = dyadic_trace_set(seed, traces, samples, wide_bit == 1);
        let profile = if hinted_bit == 1 {
            input_profile(set.inputs())
        } else {
            InputProfile::Auto
        };
        let new = || CpaAccumulator::with_profile(12, model, profile).unwrap();
        let mut sequential = new();
        sequential.update(&set).unwrap();
        let replay = sequential.begin_second_pass().unwrap();
        if replay {
            sequential.update(&set).unwrap();
        }
        let sequential = sequential.finalize().unwrap();
        let one_pass = wide_bit == 0 && traces > MAX_INPUT_CLASSES;
        prop_assert_eq!(replay, !one_pass);
        if hinted_bit == 1 {
            prop_assert_eq!(cpa_passes(profile, traces), 1 + usize::from(replay));
        }

        let chunks = chunks_of(&set, chunk);
        let partials: Vec<_> = chunks
            .iter()
            .map(|part| {
                let mut partial = new();
                partial.update(part).unwrap();
                partial
            })
            .collect();
        let mut merged = new();
        for &index in &permutation(perm_seed, partials.len()) {
            merged.merge(&partials[index]).unwrap();
        }
        prop_assert_eq!(merged.traces(), traces);
        prop_assert_eq!(merged.begin_second_pass().unwrap(), replay);
        if replay {
            let forks: Vec<_> = chunks
                .iter()
                .map(|part| {
                    let mut fork = merged.fork().unwrap();
                    fork.update(part).unwrap();
                    fork
                })
                .collect();
            for &index in &permutation(perm_seed ^ 0xA5A5, forks.len()) {
                merged.merge(&forks[index]).unwrap();
            }
        }
        let merged = merged.finalize().unwrap();
        prop_assert_eq!(merged.scores, sequential.scores);
        prop_assert_eq!(merged.best_guess, sequential.best_guess);
    }
}
