//! A fast, deterministic, non-cryptographic hasher for simulator hot
//! paths.
//!
//! The std `HashMap` defaults to SipHash-1-3 behind a per-process random
//! seed. That is the right default for servers facing untrusted keys, but
//! the simulators hash *trusted, small* keys (cycle numbers, PCs, word
//! addresses, dependence edges) millions of times per run, where SipHash's
//! per-lookup cost dominates the inner loops. [`FxHasher`] is the
//! multiply-and-rotate hash used by the Rust compiler itself ("FxHash"):
//! one rotate, one xor, and one multiply per 8-byte word, no seed, no
//! allocation.
//!
//! Determinism is load-bearing here: every simulator result must be
//! byte-identical across runs, machines, and thread counts. `FxHasher`
//! has **no random state**, so two processes hashing the same keys agree
//! — which also means iteration order of an [`FxHashMap`] is stable for a
//! fixed insertion history (std's `RandomState` cannot promise that).
//! Nothing in the workspace may depend on map iteration order for output
//! anyway (the parallel runner proves that property), but stability
//! removes a whole class of heisenbugs while debugging.
//!
//! The exact hash function is a **pinned contract**: the
//! `pinned_hash_contract` test hard-codes known input/output pairs, and
//! changing the constants or the mixing is a breaking change that must be
//! made deliberately (update the pins in the same commit and say why).
//!
//! This module is hot-path infrastructure; treat keys from untrusted
//! clients (HTTP headers, JSON fields) with the std default instead.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (64-bit golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied before each word is mixed in.
const ROTATE: u32 = 5;

/// The FxHash streaming hasher: `state = (rotl(state, 5) ^ word) * SEED`
/// per 8-byte word, with shorter writes zero-extended.
///
/// Not cryptographic and not DoS-resistant — for trusted keys only.
///
/// # Examples
///
/// ```
/// use mds_harness::hash::FxHashMap;
/// let mut m: FxHashMap<u64, &str> = FxHashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Seedless `BuildHasher` for [`FxHasher`] (every build starts at state 0).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by [`FxHasher`] — drop-in for trusted hot-path keys.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by [`FxHasher`] — drop-in for trusted hot-path keys.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    /// THE PINNED HASHING CONTRACT. These exact values are frozen: the
    /// simulators' scratch structures and any on-disk artifact that ever
    /// derives from hash values depend on them. If this test fails, you
    /// changed the hash function — do it deliberately, update the pins in
    /// the same commit, and re-verify `repro all --json` byte-identity.
    #[test]
    fn pinned_hash_contract() {
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0x517c_c1b7_2722_0a95);
        assert_eq!(hash_of(0xdead_beefu64), 0x67f3_c037_2953_771b);
        assert_eq!(hash_of(42u32), 0x5e77_c80c_6b95_bc72);
        assert_eq!(hash_of(7u8), 0x3a69_4c02_11ee_4a13);
        assert_eq!(hash_of((4u32, 12u32)), 0xbf8a_69f7_9e85_86d4);
        assert_eq!(hash_of(u64::MAX), 0xae83_3e48_d8dd_f56b);
    }

    #[test]
    fn byte_stream_equals_word_stream_for_whole_words() {
        let mut a = FxHasher::default();
        a.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn short_tails_are_zero_extended() {
        let mut a = FxHasher::default();
        a.write(&[0xab, 0xcd]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([0xab, 0xcd, 0, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn deterministic_across_builders() {
        // No RandomState anywhere: two independently built hashers agree.
        let h1 = FxBuildHasher::default().hash_one(0x1234_5678u64);
        let h2 = FxBuildHasher::default().hash_one(0x1234_5678u64);
        assert_eq!(h1, h2);
    }

    #[test]
    fn distinct_small_keys_do_not_collide() {
        // The simulators key maps by cycle number, PC, and word address —
        // small dense integers. A hash that collapses them would degrade
        // every map to a list silently.
        let mut seen = HashSet::new();
        for k in 0u64..100_000 {
            assert!(seen.insert(hash_of(k)), "collision at {k}");
        }
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7)), u64::from(i));
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(7))), Some(&u64::from(i)));
        }
        assert_eq!(m.get(&(5, 0)), None);
    }
}
