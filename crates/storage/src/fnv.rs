//! A small FNV-1a hasher.
//!
//! The kernel hot paths (hash build/probe/aggregate) need a fast,
//! deterministic integer hash; the std `SipHash` default is unnecessarily
//! slow there, and the usual `rustc-hash` crate is not on the allowed
//! dependency list, so we ship a ~40-line FNV-1a implementation.
//!
//! Two folds share the FNV-1a constants. [`fnv1a_extend`] folds one byte
//! per step: the hash tables, the hub's transfer checksums and checkpoint
//! seals go through it, and their known-answer values depend on it.
//! [`fnv1a_words`] folds one whole `i64` per step, eight times fewer
//! multiplies; the residency cache fingerprints bound input columns with
//! it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

/// FNV-1a offset basis: the state of a hash that has seen no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h` (start from [`FNV_OFFSET`]).
/// Hashing a value in pieces gives the same result as hashing all of its
/// bytes at once.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds `words` into the FNV-1a state `h` (start from [`FNV_OFFSET`]) one
/// whole word per step: `h = (h ^ w) * FNV_PRIME`. For a fixed word a step
/// is a bijection of `h`, and for a fixed `h` a bijection of the word, so
/// changing any single element always changes the result. Not
/// interchangeable with [`fnv1a_extend`] over the same bytes.
#[inline]
pub fn fnv1a_words(mut h: u64, words: &[i64]) -> u64 {
    for &w in words {
        h = (h ^ w as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` with the FNV hasher.
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
/// `HashSet` with the FNV hasher.
pub type FnvHashSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

/// Hashes a single `i64` key directly (used by the open-addressing tables in
/// the device kernels, which never go through `Hasher`).
#[inline]
pub fn fnv1a_i64(v: i64) -> u64 {
    fnv1a_extend(FNV_OFFSET, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a_extend(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a_extend(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a_extend(fnv1a_extend(FNV_OFFSET, b"ada"), b"mant"),
            fnv1a_extend(FNV_OFFSET, b"adamant")
        );
    }

    #[test]
    fn word_fold_known_answers() {
        assert_eq!(fnv1a_words(FNV_OFFSET, &[]), FNV_OFFSET);
        assert_eq!(fnv1a_words(FNV_OFFSET, &[0]), 0xaf63_bd4c_8601_b7df);
        assert_eq!(fnv1a_words(FNV_OFFSET, &[1]), 0xaf63_bc4c_8601_b62c);
        assert_eq!(fnv1a_words(FNV_OFFSET, &[-1]), 0x509c_41b3_79fe_466e);
        assert_eq!(fnv1a_words(FNV_OFFSET, &[1, 2, 3]), 0xd0aa_6218_672c_f5ab);
        assert_eq!(
            fnv1a_words(fnv1a_words(FNV_OFFSET, &[1]), &[2, 3]),
            fnv1a_words(FNV_OFFSET, &[1, 2, 3])
        );
    }

    #[test]
    fn word_fold_detects_every_single_bit_flip() {
        let column: Vec<i64> = (0..64).map(|i| i * 0x9e37_79b9 - 7).collect();
        let clean = fnv1a_words(FNV_OFFSET, &column);
        let mut flipped = column.clone();
        for i in 0..column.len() {
            for bit in 0..64 {
                flipped[i] ^= 1 << bit;
                assert_ne!(
                    fnv1a_words(FNV_OFFSET, &flipped),
                    clean,
                    "flip of bit {bit} in element {i} went unnoticed"
                );
                flipped[i] = column[i];
            }
        }
    }

    #[test]
    fn word_fold_separates_prefixes_and_lengths() {
        let column: Vec<i64> = (0..64).collect();
        let full = fnv1a_words(FNV_OFFSET, &column);
        let mut seen: FnvHashSet<u64> = FnvHashSet::default();
        for n in 0..=column.len() {
            assert!(
                seen.insert(fnv1a_words(FNV_OFFSET, &column[..n])),
                "prefix of {n} elements collided"
            );
        }
        for tail in [0, 1, -1, 64] {
            let mut longer = column.clone();
            longer.push(tail);
            assert_ne!(fnv1a_words(FNV_OFFSET, &longer), full, "appended {tail}");
        }
        let zeros = [0i64; 8];
        assert_ne!(
            fnv1a_words(FNV_OFFSET, &zeros[..3]),
            fnv1a_words(FNV_OFFSET, &zeros[..4])
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(fnv1a_i64(42), fnv1a_i64(42));
        assert_ne!(fnv1a_i64(42), fnv1a_i64(43));
    }

    #[test]
    fn map_works() {
        let mut m: FnvHashMap<i64, i64> = FnvHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn set_works() {
        let mut s: FnvHashSet<i64> = FnvHashSet::default();
        s.insert(1);
        s.insert(1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn spreads_small_keys() {
        // Not a rigorous avalanche test, just a sanity check that sequential
        // keys do not collide in the low bits used by power-of-two tables.
        let mut low_bits: FnvHashSet<u64> = FnvHashSet::default();
        for i in 0..256i64 {
            low_bits.insert(fnv1a_i64(i) & 0x3ff);
        }
        assert!(low_bits.len() > 200, "got {} distinct", low_bits.len());
    }
}
