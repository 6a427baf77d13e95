//! The PRESENT block cipher (Bogdanov et al., CHES 2007): the 4-bit S-box
//! used as the attack target of the DPA experiment, plus the full PRESENT-80
//! round function ([`Present80`]: addRoundKey, sBoxLayer, pLayer and the
//! 80-bit key schedule) so trace archives can carry multi-round leakage
//! scenarios rather than a lone S-box lookup.
//!
//! The round function runs on byte tables built by `const` evaluation: the
//! S-box applied to both nibbles of a byte (`SBOX8`) and the pLayer image
//! of each byte position (`P8`), fused into one table (`SP8`) so an
//! encryption round is 8 table lookups instead of a 16-nibble loop and a
//! 64-iteration bit loop.  Decryption uses the inverse tables built the
//! same way, unfused.
//!
//! PRESENT is the standard lightweight cipher for smart-card style
//! evaluations; the implementation is validated against the published test
//! vectors of the CHES 2007 paper.

/// The PRESENT S-box lookup table.
pub const PRESENT_SBOX: [u8; 16] = [
    0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
];

/// The inverse PRESENT S-box lookup table.
pub const PRESENT_SBOX_INV: [u8; 16] = invert_sbox(&PRESENT_SBOX);

/// The S-box applied to both nibbles of a byte: eight lookups make one
/// sBoxLayer.
static SBOX8: [u8; 256] = byte_sbox(&PRESENT_SBOX);
/// [`SBOX8`] for the inverse S-box.
static SBOX8_INV: [u8; 256] = byte_sbox(&PRESENT_SBOX_INV);
/// `P8[b][v]` is the pLayer image of byte value `v` at byte position `b`;
/// pLayer is GF(2)-linear, so the OR of the eight images is the permuted
/// state.
static P8: [[u64; 256]; 8] = byte_permutation(16);
/// The fused round table `SP8[b][v] = P8[b][SBOX8[v]]`: sBoxLayer
/// followed by pLayer in one lookup per byte, so an encryption round is a
/// single level of eight loads on the state's dependency chain.
static SP8: [[u64; 256]; 8] = fuse_sbox_permutation(&SBOX8, &P8);
/// [`P8`] for the inverse pLayer (bit `i` moves to `4 * i mod 63`, and
/// `4 * 16 = 64 ≡ 1 mod 63`).
static P8_INV: [[u64; 256]; 8] = byte_permutation(4);

const fn invert_sbox(sbox: &[u8; 16]) -> [u8; 16] {
    let mut inverse = [0u8; 16];
    let mut x = 0;
    while x < 16 {
        inverse[sbox[x] as usize] = x as u8;
        x += 1;
    }
    inverse
}

const fn byte_sbox(sbox: &[u8; 16]) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut v = 0;
    while v < 256 {
        table[v] = sbox[v & 0xF] | (sbox[v >> 4] << 4);
        v += 1;
    }
    table
}

/// Byte tables of the bit permutation sending bit `i` to
/// `multiplier * i mod 63` (bit 63 fixed).
const fn byte_permutation(multiplier: usize) -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut position = 0;
    while position < 8 {
        let mut v = 0;
        while v < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (v >> bit) & 1 == 1 {
                    let i = 8 * position + bit;
                    let target = if i == 63 { 63 } else { (multiplier * i) % 63 };
                    tables[position][v] |= 1 << target;
                }
                bit += 1;
            }
            v += 1;
        }
        position += 1;
    }
    tables
}

const fn fuse_sbox_permutation(sbox: &[u8; 256], p: &[[u64; 256]; 8]) -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut position = 0;
    while position < 8 {
        let mut v = 0;
        while v < 256 {
            tables[position][v] = p[position][sbox[v] as usize];
            v += 1;
        }
        position += 1;
    }
    tables
}

#[inline]
fn substitute_bytes(table: &[u8; 256], state: u64) -> u64 {
    u64::from_le_bytes(state.to_le_bytes().map(|b| table[b as usize]))
}

#[inline]
fn permute_bytes(tables: &[[u64; 256]; 8], state: u64) -> u64 {
    tables
        .iter()
        .zip(state.to_le_bytes())
        .fold(0, |out, (table, b)| out | table[b as usize])
}

/// Applies the PRESENT S-box to the low nibble of `x`.
pub fn present_sbox(x: u8) -> u8 {
    PRESENT_SBOX[(x & 0xF) as usize]
}

/// Applies the inverse PRESENT S-box to the low nibble of `x`.
pub fn present_sbox_inverse(x: u8) -> u8 {
    PRESENT_SBOX_INV[(x & 0xF) as usize]
}

/// Applies the PRESENT S-box to every nibble of the 64-bit state
/// (the cipher's sBoxLayer).
#[inline]
pub fn sbox_layer(state: u64) -> u64 {
    substitute_bytes(&SBOX8, state)
}

/// Applies the inverse S-box to every nibble of the state.
#[inline]
pub fn sbox_layer_inverse(state: u64) -> u64 {
    substitute_bytes(&SBOX8_INV, state)
}

/// The PRESENT bit permutation (pLayer): bit `i` of the state moves to bit
/// `16 * i mod 63` (bit 63 is a fixed point).
#[inline]
pub fn p_layer(state: u64) -> u64 {
    permute_bytes(&P8, state)
}

/// The inverse pLayer: bit `i` moves to bit `4 * i mod 63` (bit 63 fixed).
#[inline]
pub fn p_layer_inverse(state: u64) -> u64 {
    permute_bytes(&P8_INV, state)
}

/// The round-key addition (addRoundKey): a plain XOR, named for symmetry
/// with the paper's round description.
pub fn add_round_key(state: u64, round_key: u64) -> u64 {
    state ^ round_key
}

/// Number of full rounds of PRESENT (plus one final key whitening).
pub const PRESENT_ROUNDS: usize = 31;

const KEY_MASK_80: u128 = (1u128 << 80) - 1;

/// PRESENT-80: the 31-round lightweight block cipher with an 80-bit key,
/// expanded once into its 32 round keys.
///
/// The key is given big-endian (`key[0]` holds bits 79..72), matching the
/// notation of the CHES 2007 paper and its published test vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Present80 {
    round_keys: [u64; PRESENT_ROUNDS + 1],
}

impl Present80 {
    /// Expands an 80-bit key into the 32 round keys.
    pub fn new(key: [u8; 10]) -> Self {
        let mut register: u128 = 0;
        for &byte in &key {
            register = (register << 8) | u128::from(byte);
        }
        let mut round_keys = [0u64; PRESENT_ROUNDS + 1];
        for (round, slot) in round_keys.iter_mut().enumerate() {
            // Round key i = the 64 leftmost bits of the register.
            *slot = (register >> 16) as u64;
            // Register update: rotate left 61, S-box the top nibble, XOR the
            // round counter into bits 19..15.
            register = ((register << 61) | (register >> 19)) & KEY_MASK_80;
            let top = ((register >> 76) & 0xF) as u8;
            register = (register & !(0xFu128 << 76)) | (u128::from(present_sbox(top)) << 76);
            register ^= ((round + 1) as u128) << 15;
        }
        Present80 { round_keys }
    }

    /// The 32 expanded round keys (round key `i` is added before round `i`;
    /// the last entry is the final whitening key).
    pub fn round_keys(&self) -> &[u64; PRESENT_ROUNDS + 1] {
        &self.round_keys
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt(&self, plaintext: u64) -> u64 {
        let mut state = plaintext;
        for &round_key in &self.round_keys[..PRESENT_ROUNDS] {
            // sBoxLayer and pLayer through the fused table.
            state = permute_bytes(&SP8, add_round_key(state, round_key));
        }
        add_round_key(state, self.round_keys[PRESENT_ROUNDS])
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt(&self, ciphertext: u64) -> u64 {
        let mut state = add_round_key(ciphertext, self.round_keys[PRESENT_ROUNDS]);
        for round in (0..PRESENT_ROUNDS).rev() {
            state = p_layer_inverse(state);
            state = sbox_layer_inverse(state);
            state = add_round_key(state, self.round_keys[round]);
        }
        state
    }

    /// Encrypts one block and returns the ciphertext with the 31
    /// intermediate states after each round's sBoxLayer — the classic
    /// per-round leakage points a multi-sample trace records (e.g. one
    /// Hamming-weight sample per round).  The states come back in a fixed
    /// array, so a capture loop allocates nothing per trace.
    pub fn encrypt_trace(&self, plaintext: u64) -> (u64, [u64; PRESENT_ROUNDS]) {
        let mut states = [0u64; PRESENT_ROUNDS];
        let mut state = plaintext;
        for (slot, &round_key) in states.iter_mut().zip(&self.round_keys) {
            let keyed = add_round_key(state, round_key);
            // The recorded sBoxLayer output hangs off the chain; the next
            // state takes the fused table straight from `keyed`.
            *slot = sbox_layer(keyed);
            state = permute_bytes(&SP8, keyed);
        }
        (
            add_round_key(state, self.round_keys[PRESENT_ROUNDS]),
            states,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-loop sBoxLayer the byte tables replace (test oracle).
    fn reference_sbox_layer(state: u64, sbox: &[u8; 16]) -> u64 {
        let mut out = 0u64;
        for nibble in 0..16 {
            let x = (state >> (4 * nibble)) & 0xF;
            out |= u64::from(sbox[x as usize]) << (4 * nibble);
        }
        out
    }

    /// The bit-loop pLayer (`multiplier` 16) and its inverse (4) the byte
    /// tables replace (test oracle).
    fn reference_p_layer(state: u64, multiplier: usize) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            let target = if i == 63 { 63 } else { (multiplier * i) % 63 };
            out |= ((state >> i) & 1) << target;
        }
        out
    }

    /// `encrypt_trace` built from the oracle layers over the same key
    /// schedule.
    fn reference_encrypt_trace(cipher: &Present80, plaintext: u64) -> (u64, Vec<u64>) {
        let keys = cipher.round_keys();
        let mut states = Vec::new();
        let mut state = plaintext;
        for &round_key in &keys[..PRESENT_ROUNDS] {
            state = reference_sbox_layer(state ^ round_key, &PRESENT_SBOX);
            states.push(state);
            state = reference_p_layer(state, 16);
        }
        (state ^ keys[PRESENT_ROUNDS], states)
    }

    fn reference_decrypt(cipher: &Present80, ciphertext: u64) -> u64 {
        let keys = cipher.round_keys();
        let mut state = ciphertext ^ keys[PRESENT_ROUNDS];
        for &round_key in keys[..PRESENT_ROUNDS].iter().rev() {
            state = reference_p_layer(state, 4);
            state = reference_sbox_layer(state, &PRESENT_SBOX_INV) ^ round_key;
        }
        state
    }

    fn key_from(high: u64, low: u16) -> [u8; 10] {
        let mut key = [0u8; 10];
        key[..8].copy_from_slice(&high.to_be_bytes());
        key[8..].copy_from_slice(&low.to_be_bytes());
        key
    }

    #[test]
    fn sbox8_applies_the_sbox_to_both_nibbles_of_every_byte() {
        for v in 0..=255u8 {
            let expected = present_sbox(v) | (present_sbox(v >> 4) << 4);
            assert_eq!(SBOX8[v as usize], expected, "byte {v:#04X}");
            assert_eq!(SBOX8_INV[expected as usize], v, "byte {v:#04X}");
        }
    }

    #[test]
    fn layer_tables_match_the_bit_loops_on_unit_vectors_and_are_linear() {
        // pLayer and its inverse are GF(2)-linear: agreeing on the 64 unit
        // vectors and being XOR-linear proves equality on every input.
        for bit in 0..64 {
            let unit = 1u64 << bit;
            assert_eq!(p_layer(unit), reference_p_layer(unit, 16), "bit {bit}");
            assert_eq!(
                p_layer_inverse(unit),
                reference_p_layer(unit, 4),
                "bit {bit}"
            );
        }
        let mut a = 0x0123_4567_89AB_CDEFu64;
        let mut b = 0xF0E1_D2C3_B4A5_9687u64;
        for _ in 0..256 {
            assert_eq!(p_layer(a ^ b), p_layer(a) ^ p_layer(b));
            assert_eq!(
                p_layer_inverse(a ^ b),
                p_layer_inverse(a) ^ p_layer_inverse(b)
            );
            assert_eq!(
                sbox_layer(a),
                reference_sbox_layer(a, &PRESENT_SBOX),
                "{a:#018X}"
            );
            assert_eq!(
                sbox_layer_inverse(a),
                reference_sbox_layer(a, &PRESENT_SBOX_INV),
                "{a:#018X}"
            );
            a = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b);
            b = b.rotate_left(11) ^ a;
        }
    }

    #[test]
    fn fused_round_table_is_the_pbox_of_the_sbox_table() {
        for (b, (fused, permutation)) in SP8.iter().zip(&P8).enumerate() {
            for v in 0..256 {
                assert_eq!(
                    fused[v], permutation[SBOX8[v] as usize],
                    "byte {b}, value {v:#04X}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn table_cipher_matches_the_bit_loop_oracle(
            key_high in 0u64..u64::MAX,
            key_low in 0u16..u16::MAX,
            block in 0u64..u64::MAX,
        ) {
            let cipher = Present80::new(key_from(key_high, key_low));
            let (ciphertext, states) = cipher.encrypt_trace(block);
            let (expected, expected_states) = reference_encrypt_trace(&cipher, block);
            prop_assert_eq!(ciphertext, expected);
            prop_assert_eq!(states.to_vec(), expected_states);
            prop_assert_eq!(cipher.encrypt(block), expected);
            prop_assert_eq!(cipher.decrypt(block), reference_decrypt(&cipher, block));
            prop_assert_eq!(cipher.decrypt(ciphertext), block);
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 16];
        for x in 0..16u8 {
            let y = present_sbox(x);
            assert!(y < 16);
            assert!(!seen[y as usize], "duplicate output {y}");
            seen[y as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inverse_undoes_the_sbox() {
        for x in 0..16u8 {
            assert_eq!(present_sbox_inverse(present_sbox(x)), x);
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(present_sbox(0x0), 0xC);
        assert_eq!(present_sbox(0xF), 0x2);
        assert_eq!(present_sbox(0x5), 0x0);
    }

    #[test]
    fn high_bits_are_ignored() {
        assert_eq!(present_sbox(0x10), present_sbox(0x0));
        assert_eq!(present_sbox_inverse(0xFC), present_sbox_inverse(0xC));
    }

    /// The four published PRESENT-80 test vectors from Bogdanov et al.,
    /// CHES 2007 (Appendix, Table: test vectors).
    #[test]
    fn present80_published_test_vectors() {
        let cases: [([u8; 10], u64, u64); 4] = [
            ([0x00; 10], 0x0000_0000_0000_0000, 0x5579_C138_7B22_8445),
            ([0xFF; 10], 0x0000_0000_0000_0000, 0xE72C_46C0_F594_5049),
            ([0x00; 10], 0xFFFF_FFFF_FFFF_FFFF, 0xA112_FFC7_2F68_417B),
            ([0xFF; 10], 0xFFFF_FFFF_FFFF_FFFF, 0x3333_DCD3_2132_10D2),
        ];
        for (key, plaintext, ciphertext) in cases {
            let cipher = Present80::new(key);
            assert_eq!(
                cipher.encrypt(plaintext),
                ciphertext,
                "key {key:02X?} plaintext {plaintext:#018X}"
            );
            assert_eq!(cipher.decrypt(ciphertext), plaintext);
        }
    }

    #[test]
    fn present80_decrypt_round_trips_arbitrary_blocks() {
        let key = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x13, 0x57];
        let cipher = Present80::new(key);
        let mut block = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..50 {
            let encrypted = cipher.encrypt(block);
            assert_eq!(cipher.decrypt(encrypted), block);
            block = block.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        }
    }

    #[test]
    fn layers_are_inverses() {
        let mut state = 0xFEDC_BA98_7654_3210u64;
        for _ in 0..40 {
            assert_eq!(p_layer_inverse(p_layer(state)), state);
            assert_eq!(p_layer(p_layer_inverse(state)), state);
            assert_eq!(sbox_layer_inverse(sbox_layer(state)), state);
            state = state.rotate_left(7).wrapping_add(0x0F0F_1234);
        }
        // pLayer fixed points: bits 0, 21, 42, 63 (the multiples of 21).
        for bit in [0u64, 21, 42, 63] {
            assert_eq!(p_layer(1 << bit), 1 << bit, "bit {bit}");
        }
        // addRoundKey is its own inverse.
        assert_eq!(add_round_key(add_round_key(77, 123), 123), 77);
    }

    #[test]
    fn sbox_layer_applies_the_sbox_per_nibble() {
        assert_eq!(sbox_layer(0x0000_0000_0000_0000), 0xCCCC_CCCC_CCCC_CCCC);
        assert_eq!(sbox_layer(0xFFFF_FFFF_FFFF_FFFF), 0x2222_2222_2222_2222);
        assert_eq!(sbox_layer(0x0000_0000_0000_0005), 0xCCCC_CCCC_CCCC_CCC0);
    }

    #[test]
    fn key_schedule_first_round_key_is_the_key_top() {
        // Round key 0 is the leftmost 64 bits of the unmodified register.
        let key = [0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x07, 0x18, 0x29, 0x3A];
        let cipher = Present80::new(key);
        assert_eq!(cipher.round_keys()[0], 0xA1B2_C3D4_E5F6_0718);
        // All 32 round keys exist and differ from each other (no stuck
        // schedule).
        let keys = cipher.round_keys();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "round keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn encrypt_trace_matches_encrypt_and_exposes_round_states() {
        let cipher = Present80::new([0x42; 10]);
        let plaintext = 0x0102_0304_0506_0708;
        let (ciphertext, states) = cipher.encrypt_trace(plaintext);
        assert_eq!(ciphertext, cipher.encrypt(plaintext));
        assert_eq!(states.len(), PRESENT_ROUNDS);
        // The first leakage point is the sBoxLayer output of round 0.
        assert_eq!(
            states[0],
            sbox_layer(add_round_key(plaintext, cipher.round_keys()[0]))
        );
        // The last state feeds the final pLayer + whitening.
        assert_eq!(
            ciphertext,
            add_round_key(p_layer(states[30]), cipher.round_keys()[31])
        );
    }

    #[test]
    fn sbox_is_nonlinear_in_every_output_bit() {
        // No output bit is an affine function of the input bits — a sanity
        // property that makes the DPA selection function meaningful.
        for bit in 0..4 {
            let f = |x: u8| (present_sbox(x) >> bit) & 1;
            let mut affine = true;
            let base = f(0);
            for x in 0..16u8 {
                for y in 0..16u8 {
                    if f(x ^ y) != f(x) ^ f(y) ^ base {
                        affine = false;
                    }
                }
            }
            assert!(!affine, "output bit {bit} is affine");
        }
    }
}
