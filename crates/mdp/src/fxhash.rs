//! A fast, non-cryptographic hasher for state interning.
//!
//! State-space exploration spends a large share of its time hashing
//! concrete states into the intern map. The std `HashMap` default
//! (SipHash-1-3) is keyed and DoS-resistant, which exploration does not
//! need: keys are model states, not attacker-controlled input. This module
//! provides a multiply-xor hasher in the style of Firefox's FxHash — one
//! multiplication per word of input — plus map aliases used by the
//! [`crate::Explore`] builder.
//!
//! The hash is unkeyed, so it is the same in every run and every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (a 64-bit odd constant derived from
/// the golden ratio, spreading entropy into high bits under wrapping
/// multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-xor streaming hasher: `state = (state rotl 5 ^ word) * SEED`
/// per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
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
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]. Drop-in for `HashMap` where keys
/// are trusted (e.g. model states during exploration).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let a = hash_of(&(1u64, 2u64, [3u8; 5]));
        let b = hash_of(&(1u64, 2u64, [3u8; 5]));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(
            seen.len(),
            10_000,
            "no collisions on small consecutive keys"
        );
    }

    #[test]
    fn byte_stream_prefix_matters() {
        assert_ne!(hash_of(&[0u8; 3]), hash_of(&[0u8; 4]));
        assert_ne!(hash_of(&b"abcdefgh"), hash_of(&b"abcdefgi"));
    }

    #[test]
    fn map_alias_behaves_like_hashmap() {
        let mut m: FxHashMap<(u8, u8), usize> = FxHashMap::default();
        for i in 0..100u8 {
            m.insert((i, i / 2), i as usize);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&(40, 20)], 40);
    }
}
