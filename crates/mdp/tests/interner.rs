//! Parity of the two state stores' interner with a `std` `HashMap`
//! reference: random key streams with many repeats, across several
//! doublings of the index, and keys whose hash tags collide.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use pa_mdp::{BoxedSpace, FxBuildHasher, PackedSpace, StateCodec, StateSpace};
use proptest::prelude::*;

/// Packs a `(u32, u32)` state into one `u64` word.
struct PairCodec;

impl StateCodec for PairCodec {
    type State = (u32, u32);
    type Word = u64;

    fn pack(&self, s: &(u32, u32)) -> u64 {
        u64::from(s.0) << 32 | u64::from(s.1)
    }

    fn unpack(&self, w: &u64) -> (u32, u32) {
        ((w >> 32) as u32, *w as u32)
    }
}

/// Both stores and the reference, fed the same keys.
struct Stores {
    boxed: BoxedSpace<(u32, u32)>,
    packed: PackedSpace<PairCodec>,
    reference: HashMap<(u32, u32), usize>,
    order: Vec<(u32, u32)>,
}

impl Stores {
    fn new() -> Stores {
        Stores {
            boxed: BoxedSpace::default(),
            packed: PackedSpace::new(PairCodec),
            reference: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Interns `s` everywhere; each store must answer as the reference.
    fn intern(&mut self, s: (u32, u32)) {
        let next = self.order.len();
        let id = *self.reference.entry(s).or_insert(next);
        let want = (id, id == next);
        if want.1 {
            self.order.push(s);
        }
        assert_eq!(self.boxed.intern(&s), want, "boxed intern {s:?}");
        assert_eq!(self.packed.intern(&s), want, "packed intern {s:?}");
    }

    /// Looks `s` up everywhere.
    fn get(&self, s: (u32, u32)) {
        let want = self.reference.get(&s).copied();
        assert_eq!(self.boxed.get(&s), want, "boxed get {s:?}");
        assert_eq!(self.packed.get(&s), want, "packed get {s:?}");
    }

    /// Every interned state decodes and looks up to its id.
    fn check_all(self) {
        assert_eq!(self.boxed.len(), self.order.len());
        assert_eq!(self.packed.len(), self.order.len());
        for (id, &s) in self.order.iter().enumerate() {
            self.get(s);
            assert_eq!(self.boxed.state(id), s);
            assert_eq!(self.packed.state(id), s);
        }
        assert_eq!(self.boxed.states(), &self.order[..]);
    }
}

proptest! {
    #[test]
    fn both_stores_intern_like_a_hash_map(
        keys in prop::collection::vec((0u32..40, 0u32..64), 0..3000),
        probes in prop::collection::vec((0u32..48, 0u32..64), 0..64),
        spread in prop::sample::select(vec![1u32, 7, 1 << 20, u32::MAX / 40]),
    ) {
        // Small coordinates repeat often; `spread` moves them apart in
        // the high half of the word, where the hash tag comes from.
        let scale = |(a, b): (u32, u32)| (a.wrapping_mul(spread), b);
        let mut stores = Stores::new();
        for (i, &k) in keys.iter().enumerate() {
            stores.intern(scale(k));
            if let Some(&p) = probes.get(i % 97) {
                stores.get(scale(p));
            }
        }
        for &p in &probes {
            stores.get(scale(p));
        }
        stores.check_all();
    }
}

#[test]
fn many_doublings_keep_every_id() {
    // 150,000 distinct states in a scrambled order, each seen three
    // times: the index doubles from 8 to 2^19 slots on the way.
    let mut stores = Stores::new();
    let key = |i: u64| {
        let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((x >> 40) as u32, (i % 150_000) as u32)
    };
    for round in 0..3u64 {
        for i in 0..150_000u64 {
            stores.intern(key((i * 7_919 + round) % 150_000));
        }
    }
    assert_eq!(stores.order.len(), 150_000);
    stores.get((u32::MAX, u32::MAX));
    stores.check_all();
}

/// The first `pairs` pairs of distinct keys, taken from `keys` in order,
/// whose hashes agree in their high 32 bits, which the index keeps as the
/// tag: a birthday search. Consecutive integers spread evenly under the
/// multiplicative hash and do not collide below `2^32`, so the keys come
/// scrambled.
fn tag_collisions<K: Hash + Copy>(keys: impl Fn(u64) -> K, pairs: usize) -> Vec<(K, K)> {
    let mut seen: HashMap<u64, K> = HashMap::new();
    let mut found = Vec::new();
    for i in 0..1 << 22 {
        let k = keys(i);
        if let Some(other) = seen.insert(FxBuildHasher::default().hash_one(k) >> 32, k) {
            found.push((other, k));
            if found.len() == pairs {
                break;
            }
        }
    }
    assert_eq!(found.len(), pairs, "birthday search came up short");
    found
}

/// A bijective scramble of `i` (the SplitMix64 finalizer).
fn scramble(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn keys_with_equal_tags_are_told_apart() {
    let unpack = |w: u64| PairCodec.unpack(&w);
    // The packed store hashes the word, the boxed one the state tuple,
    // so each gets its own colliding pairs.
    let packed_pairs = tag_collisions(scramble, 8);
    let boxed_pairs = tag_collisions(|i| unpack(scramble(i)), 8);
    let pairs: Vec<_> = packed_pairs
        .iter()
        .map(|&(a, b)| (unpack(a), unpack(b)))
        .chain(boxed_pairs)
        .collect();
    for &(a, b) in &pairs {
        assert_ne!(a, b);
    }

    // The first key of every pair, then a filler, then the second keys:
    // a lookup of a second key before its interning finds a slot with
    // its tag occupied by another key, and must miss.
    let mut stores = Stores::new();
    for &(a, _) in &pairs {
        stores.intern(a);
    }
    for i in 0..1000 {
        stores.intern((i, u32::MAX - i));
    }
    for &(_, b) in &pairs {
        stores.get(b);
        stores.intern(b);
        stores.intern(b);
    }
    for &(a, b) in &pairs {
        stores.get(a);
        stores.get(b);
    }
    stores.check_all();
}
