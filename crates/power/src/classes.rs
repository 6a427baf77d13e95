//! The bounded distinct-input table shared by every class-aggregating path.

/// When the traces carry at most this many distinct inputs, the attacks
/// aggregate per-input-class column sums once and score every key guess in
/// O(classes) per sample instead of O(traces).
pub const MAX_INPUT_CLASSES: usize = 64;

/// Hash slots: twice the class limit, so the table is at most half full.
const SLOTS: usize = 2 * MAX_INPUT_CLASSES;
const SLOT_BITS: u32 = SLOTS.trailing_zeros();
// Slots hold `class + 1` in a `u8`, and probing wraps with a power-of-two
// mask.
const _: () = assert!(SLOTS.is_power_of_two() && SLOTS <= 256);
/// Values below this bound also have a direct one-byte entry.
const DIRECT: usize = 256;

/// The distinct input values of a trace stream, in order of first
/// appearance, bounded by [`MAX_INPUT_CLASSES`].
///
/// **Order contract.** A value's class index is its position in
/// [`InputClasses::values`]: the first distinct value is class 0, the next
/// new value class 1, and so on.  Indices never change once assigned, so
/// per-class sums keyed by them stay aligned with the table however many
/// traces follow.
///
/// **Capacity.** The table holds at most [`MAX_INPUT_CLASSES`] values.  The
/// first new value past that limit overflows it: [`InputClasses::insert`]
/// returns `None`, the table is sealed (every later insert returns `None`)
/// and [`InputClasses::distinct`] reports `None`.
///
/// **Lookup cost.** A held value below 256 — every S-box or byte-wide
/// campaign input — is found with one load from a 256-entry direct table.
/// Any other value, and a small value seen for the first time, is looked
/// up by a fixed multiplicative hash into 128 one-byte slots with linear
/// probing — no per-process random state, so the table is deterministic.
/// The table is never more than half full, which keeps the expected probe
/// count near one; and because a probe sequence stops at the first empty
/// slot and at most [`MAX_INPUT_CLASSES`] slots are occupied, no lookup
/// ever visits more slots than one plus the number of held values — even
/// if every value lands in one probe chain, a lookup costs no more than a
/// linear scan of the value list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputClasses {
    values: Vec<u64>,
    /// `slots[i]` is 0 when empty, otherwise `1 +` the class index of the
    /// value stored there.  Every held value has a slot.
    slots: [u8; SLOTS],
    /// `direct[v]` for `v < 256`: 0 when `v` is not held, otherwise `1 +`
    /// its class index.
    direct: [u8; DIRECT],
    overflowed: bool,
}

impl Default for InputClasses {
    fn default() -> Self {
        Self::new()
    }
}

impl InputClasses {
    /// An empty table.
    pub fn new() -> Self {
        InputClasses {
            values: Vec::new(),
            slots: [0; SLOTS],
            direct: [0; DIRECT],
            overflowed: false,
        }
    }

    /// The home slot of `value`: the top bits of a Fibonacci hash.
    #[inline]
    fn home(value: u64) -> usize {
        (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOT_BITS)) as usize
    }

    /// Walks `value`'s probe sequence: `Ok(class)` when it is held,
    /// otherwise `Err(slot)` with the empty slot that ends the sequence.
    #[inline]
    fn probe(&self, value: u64) -> Result<usize, usize> {
        let mut slot = Self::home(value);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                entry => {
                    let class = usize::from(entry - 1);
                    if self.values[class] == value {
                        return Ok(class);
                    }
                }
            }
            slot = (slot + 1) & (SLOTS - 1);
        }
    }

    /// The class index of `value`, inserting it as the next class when it
    /// is new.  Returns `None` when `value` would be class
    /// [`MAX_INPUT_CLASSES`] (the table overflows and is sealed) or when the
    /// table has already overflowed.
    #[inline]
    pub fn insert(&mut self, value: u64) -> Option<usize> {
        if self.overflowed {
            return None;
        }
        if value < DIRECT as u64 {
            let entry = self.direct[value as usize];
            if entry != 0 {
                return Some(usize::from(entry - 1));
            }
        }
        match self.probe(value) {
            Ok(class) => Some(class),
            Err(_) if self.values.len() == MAX_INPUT_CLASSES => {
                self.overflowed = true;
                None
            }
            Err(slot) => {
                self.values.push(value);
                // At most MAX_INPUT_CLASSES (< 256) values: the index fits.
                let entry = self.values.len() as u8;
                self.slots[slot] = entry;
                if value < DIRECT as u64 {
                    self.direct[value as usize] = entry;
                }
                Some(self.values.len() - 1)
            }
        }
    }

    /// Forgets every value past the first `len`, and any overflow: the
    /// table returns to the state it had when it held `len` values (taken
    /// before it overflowed).  Exact because values leave in the reverse
    /// of their insertion order, so no remaining value's probe sequence
    /// runs through a freed slot.
    pub(crate) fn truncate(&mut self, len: usize) {
        for class in (len..self.values.len()).rev() {
            let value = self.values[class];
            let entry = class as u8 + 1;
            let mut slot = Self::home(value);
            while self.slots[slot] != entry {
                slot = (slot + 1) & (SLOTS - 1);
            }
            self.slots[slot] = 0;
            if value < DIRECT as u64 {
                self.direct[value as usize] = 0;
            }
        }
        self.values.truncate(len);
        self.overflowed = false;
    }

    /// The held values in order of first appearance (index = class).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The exact distinct-value count, or `None` once the table overflowed.
    pub fn distinct(&self) -> Option<usize> {
        (!self.overflowed).then_some(self.values.len())
    }

    /// Folds `other` — the table of a stream that follows this one — into
    /// this table: `other`'s values are inserted in its class order, so the
    /// result equals one table fed both streams back to back.  Returns
    /// `false` when the union overflows (including when either table had
    /// already overflowed).
    pub fn merge(&mut self, other: &InputClasses) -> bool {
        for &value in &other.values {
            if self.insert(value).is_none() {
                return false;
            }
        }
        if other.overflowed {
            self.overflowed = true;
        }
        !self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear-search table every tracker used before the hash index:
    /// first-appearance order, overflow on the first value past the limit.
    #[derive(Default)]
    struct Oracle {
        values: Vec<u64>,
        overflowed: bool,
    }

    impl Oracle {
        fn insert(&mut self, value: u64) -> Option<usize> {
            if self.overflowed {
                return None;
            }
            match self.values.iter().position(|&v| v == value) {
                Some(class) => Some(class),
                None if self.values.len() == MAX_INPUT_CLASSES => {
                    self.overflowed = true;
                    None
                }
                None => {
                    self.values.push(value);
                    Some(self.values.len() - 1)
                }
            }
        }
    }

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A stream of `len` values drawn from `alphabet` distinct values:
    /// sparse 64-bit values (so hash collisions are exercised too), or with
    /// `small` values below 512, half of them in the direct table's range.
    fn stream(seed: u64, len: usize, alphabet: u64, small: bool) -> Vec<u64> {
        (0..len as u64)
            .map(|t| mix((mix(seed ^ t) % alphabet) ^ seed))
            .map(|value| if small { value % 512 } else { value })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every insert returns the oracle's class index (or its overflow),
        /// the value lists agree in first-appearance order, lookups find
        /// exactly the held values, and the overflow lands on the 65th
        /// distinct value.
        #[test]
        fn matches_the_linear_search_oracle(
            seed in 0u64..1_000_000,
            len in 0usize..400,
            alphabet in 1u64..100,
            small in 0u8..2,
        ) {
            let inputs = stream(seed, len, alphabet, small == 1);
            let mut table = InputClasses::new();
            let mut oracle = Oracle::default();
            let mut distinct_seen = Vec::new();
            for &input in &inputs {
                if !distinct_seen.contains(&input) {
                    distinct_seen.push(input);
                }
                let class = table.insert(input);
                prop_assert_eq!(class, oracle.insert(input));
                prop_assert_eq!(
                    table.distinct().is_none(),
                    distinct_seen.len() > MAX_INPUT_CLASSES
                );
            }
            prop_assert_eq!(table.values(), &oracle.values[..]);
            prop_assert_eq!(table.values().len(), distinct_seen.len().min(MAX_INPUT_CLASSES));
            prop_assert_eq!(
                table.distinct(),
                (distinct_seen.len() <= MAX_INPUT_CLASSES).then_some(distinct_seen.len())
            );
            for (class, &value) in oracle.values.iter().enumerate() {
                prop_assert_eq!(table.probe(value).ok(), Some(class));
                if value < DIRECT as u64 {
                    prop_assert_eq!(table.direct[value as usize], class as u8 + 1);
                }
            }
            prop_assert_eq!(
                table.direct.iter().filter(|&&entry| entry != 0).count(),
                oracle.values.iter().filter(|&&value| value < DIRECT as u64).count()
            );
            prop_assert_eq!(
                table.probe(!seed).ok(),
                oracle.values.iter().position(|&v| v == !seed)
            );
        }

        /// Merging the tables of two consecutive streams equals one table
        /// fed both streams in order — values, classes and overflow.
        #[test]
        fn merge_equals_one_table_over_both_streams(
            seed in 0u64..1_000_000,
            first in 0usize..200,
            second in 0usize..200,
            alphabet in 1u64..100,
            small in 0u8..2,
        ) {
            let inputs = stream(seed, first + second, alphabet, small == 1);
            let (head, tail) = inputs.split_at(first);
            let mut whole = InputClasses::new();
            for &input in &inputs {
                whole.insert(input);
            }
            let mut merged = InputClasses::new();
            let mut later = InputClasses::new();
            for &input in head {
                merged.insert(input);
            }
            for &input in tail {
                later.insert(input);
            }
            let fits = merged.merge(&later);
            prop_assert_eq!(fits, whole.distinct().is_some());
            prop_assert_eq!(merged.distinct(), whole.distinct());
            if fits {
                prop_assert_eq!(merged, whole);
            }
        }

        /// Truncating to an earlier length — past an overflow too — gives
        /// back exactly the table that only saw the stream up to there.
        #[test]
        fn truncate_restores_the_table_of_a_prefix(
            seed in 0u64..1_000_000,
            len in 0usize..300,
            alphabet in 1u64..100,
            small in 0u8..2,
        ) {
            let inputs = stream(seed, len, alphabet, small == 1);
            let mut table = InputClasses::new();
            let mut snapshots = vec![table.clone()];
            for &input in &inputs {
                if table.insert(input).is_none() {
                    break;
                }
                if table.values().len() == snapshots.len() {
                    snapshots.push(table.clone());
                }
            }
            for (held, snapshot) in snapshots.iter().enumerate().rev() {
                table.truncate(held);
                prop_assert_eq!(&table, snapshot);
            }
        }
    }

    #[test]
    fn overflow_lands_exactly_on_the_65th_distinct_value() {
        let mut table = InputClasses::new();
        for value in 0..MAX_INPUT_CLASSES as u64 {
            assert_eq!(table.insert(value), Some(value as usize));
            // Repeats keep their class.
            assert_eq!(table.insert(value / 2), Some((value / 2) as usize));
        }
        assert_eq!(table.distinct(), Some(MAX_INPUT_CLASSES));
        assert_eq!(table.insert(1000), None);
        assert_eq!(table.distinct(), None);
        // Sealed: even held values are refused.
        assert_eq!(table.insert(3), None);
        assert_eq!(table.values().len(), MAX_INPUT_CLASSES);

        // An overflowed table poisons any merge it takes part in.
        let mut fresh = InputClasses::new();
        assert!(!fresh.merge(&table));
        assert_eq!(fresh.distinct(), None);
        let mut sealed = table.clone();
        assert!(!sealed.merge(&InputClasses::new()));
    }

    /// The adversarial case: 64 values that all hash to the same home slot,
    /// so every lookup walks one probe chain.  Classes must stay exact, and
    /// a 65th colliding value must overflow.
    #[test]
    fn one_probe_chain_of_colliding_values_stays_exact() {
        let target = InputClasses::home(0);
        let colliding: Vec<u64> = (0u64..)
            .map(mix)
            .filter(|&v| InputClasses::home(v) == target)
            .take(MAX_INPUT_CLASSES + 1)
            .collect();
        let mut table = InputClasses::new();
        for round in 0..3 {
            for (class, &value) in colliding[..MAX_INPUT_CLASSES].iter().enumerate() {
                assert_eq!(table.insert(value), Some(class), "round {round}");
            }
        }
        // The chain fills 64 consecutive slots from the shared home slot.
        let occupied = (0..MAX_INPUT_CLASSES)
            .filter(|i| table.slots[(target + i) & (SLOTS - 1)] != 0)
            .count();
        assert_eq!(occupied, MAX_INPUT_CLASSES);
        assert_eq!(table.values(), &colliding[..MAX_INPUT_CLASSES]);
        assert_eq!(table.insert(colliding[MAX_INPUT_CLASSES]), None);
        assert_eq!(table.distinct(), None);
    }
}
