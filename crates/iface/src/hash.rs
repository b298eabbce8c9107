//! The home hash of every word key in the reproduction.
//!
//! One definition for the concurrent tables (`growt-core`, where
//! `config::hash_key` re-exports it), the baselines and the sequential
//! reference tables, so every table puts a key in the same place and their
//! probe distributions are comparable.

/// The wyhash secret the key is xor-ed with before the multiply: 32 of its
/// 64 bits are set, so that a key of 0 (or any key with few bits set)
/// still makes a full-width product.
const HOME_XOR: u64 = 0xA076_1D64_78BD_642F;
/// The wyhash secret the key is multiplied by (odd, 32 bits set).
const HOME_MUL: u64 = 0xE703_7ED1_A0B4_28DB;

/// Both halves of the 128-bit product, xor-ed: every input bit reaches the
/// low *and* the high end of the result, which one `wrapping_mul` (low
/// half only) cannot do.  One `mul` and one `xor` on x86-64.
#[inline]
pub fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The home hash of a word key: one [`fold`] of the key, xor-ed with a
/// constant, by another constant.
///
/// It sits on the dependent path of every operation, between the key and
/// the first cell load, so it is as short as a full-word mix can be: an
/// `xor`, one 64×64→128 multiply and an `xor` of the halves, about seven
/// cycles together with the shift that takes the home cell (the splitmix64
/// finalizer it replaced took two multiplies and three xor-shifts, and
/// scaling took a third multiply).  Both ends avalanche: the tables take
/// the home cell from the top bits and the SIMD fingerprint from the
/// bottom seven.
///
/// The fold is not a bijection, so two keys can share a hash.  Word keys
/// are compared by their whole word, never by their hash, so such a pair
/// costs a probe, not a wrong answer.
#[inline]
pub fn hash_key(x: u64) -> u64 {
    fold(x ^ HOME_XOR, HOME_MUL)
}
