//! Pluggable state representations for exploration: the [`StateSpace`]
//! trait and its two implementations.
//!
//! Exploration needs exactly three things from a state store: intern a
//! state to a dense id, look a state up, and decode an id back to a state.
//! [`BoxedSpace`] is the historical representation — states kept verbatim
//! in a `Vec` plus an `FxHashMap` interner. [`PackedSpace`] stores each
//! state as a fixed-width word produced by a [`StateCodec`], so the
//! frontier, the interner, and [`crate::Explored`] hold copyable words
//! instead of heap-allocating state structs — several-fold less resident
//! memory on the ring models, which is what buys exploration headroom at
//! `n = 8..9` (see BENCH's `symmetry` block).
//!
//! The two are interchangeable anywhere an [`crate::Explored`] is
//! consumed: analyses only see dense indices, and the decoded-state
//! accessors ([`StateSpace::state`], [`StateSpace::for_each_state`])
//! reconstruct states on demand.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::fxhash::FxHashMap;

/// A dense-id state store: the interner and decoder behind
/// [`crate::Explored`].
///
/// Ids are assigned contiguously from 0 in interning order, which the
/// explorers rely on for their determinism contract.
pub trait StateSpace<S> {
    /// Interns `s`, returning its id and whether it was newly inserted.
    fn intern(&mut self, s: &S) -> (usize, bool);

    /// The id of `s`, if it has been interned.
    fn get(&self, s: &S) -> Option<usize>;

    /// Decodes the state with id `id` (clones for boxed spaces, unpacks
    /// for packed ones).
    fn state(&self, id: usize) -> S;

    /// Number of interned states.
    fn len(&self) -> usize;

    /// Whether the space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the lookup index, keeping id-to-state decoding intact. Frees
    /// the interner's memory once no further [`StateSpace::intern`] /
    /// [`StateSpace::get`] calls are needed (long-lived benchmark models
    /// do this between exploration and analysis).
    fn clear_index(&mut self);

    /// Estimated resident bytes of the store's own tables (vectors and
    /// interner). Heap payloads owned by individual boxed states are not
    /// counted — packed spaces have none, which is the point.
    fn mem_bytes(&self) -> u64;

    /// Calls `f` with every `(id, state)` pair in id order, decoding each
    /// state once.
    fn for_each_state(&self, f: impl FnMut(usize, &S));
}

/// The boxed representation: states stored verbatim.
#[derive(Debug, Clone)]
pub struct BoxedSpace<S> {
    states: Vec<S>,
    index: FxHashMap<S, usize>,
}

impl<S> Default for BoxedSpace<S> {
    fn default() -> BoxedSpace<S> {
        BoxedSpace {
            states: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

impl<S> BoxedSpace<S> {
    /// The interned states, in id order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Consumes the space into its state vector.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }
}

impl<S: Clone + Eq + Hash> StateSpace<S> for BoxedSpace<S> {
    /// A hit costs one probe, a miss two. The entry API would need an
    /// owned key, so every hit would pay for a clone; on the protocol
    /// quotient that measured no faster.
    fn intern(&mut self, s: &S) -> (usize, bool) {
        if let Some(&id) = self.index.get(s) {
            return (id, false);
        }
        let id = self.states.len();
        self.states.push(s.clone());
        self.index.insert(s.clone(), id);
        (id, true)
    }

    fn get(&self, s: &S) -> Option<usize> {
        self.index.get(s).copied()
    }

    fn state(&self, id: usize) -> S {
        self.states[id].clone()
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn clear_index(&mut self) {
        self.index = FxHashMap::default();
    }

    fn mem_bytes(&self) -> u64 {
        self.states.capacity() as u64 * std::mem::size_of::<S>() as u64 + index_bytes(&self.index)
    }

    fn for_each_state(&self, mut f: impl FnMut(usize, &S)) {
        for (i, s) in self.states.iter().enumerate() {
            f(i, s);
        }
    }
}

/// Resident bytes of an interner's table. `capacity()` reports how many
/// entries fit before the next grow, which is 7/8 of the allocated buckets
/// (all but one below 8 buckets); inverting that load factor and rounding
/// up to the power of two recovers the bucket count. Each bucket holds a
/// `(key, id)` entry and one control byte, and the control bytes carry one
/// trailing SIMD group of 16.
fn index_bytes<K>(index: &FxHashMap<K, usize>) -> u64 {
    let capacity = index.capacity() as u64;
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
    buckets * (std::mem::size_of::<(K, usize)>() as u64 + 1) + 16
}

/// A fixed-width encoding of a state type: the bridge into
/// [`PackedSpace`].
///
/// `pack` followed by `unpack` must be the identity on every state the
/// model can produce (the codec round-trip property tests pin this for the
/// ring codecs). Equality of words must coincide with equality of states,
/// since the packed interner deduplicates on words.
pub trait StateCodec {
    /// The state type being encoded.
    type State;
    /// The fixed-width encoded form, e.g. `[u64; 3]`.
    type Word: Copy + Eq + Hash;

    /// Encodes a state.
    fn pack(&self, s: &Self::State) -> Self::Word;

    /// Decodes a word produced by [`StateCodec::pack`].
    fn unpack(&self, w: &Self::Word) -> Self::State;
}

/// The packed representation: states stored as fixed-width words.
#[derive(Debug, Clone)]
pub struct PackedSpace<C: StateCodec> {
    codec: C,
    words: Vec<C::Word>,
    index: FxHashMap<C::Word, usize>,
}

impl<C: StateCodec> PackedSpace<C> {
    /// An empty packed space using `codec`.
    pub fn new(codec: C) -> PackedSpace<C> {
        PackedSpace {
            codec,
            words: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// The codec in use.
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// The packed words, in id order.
    pub fn words(&self) -> &[C::Word] {
        &self.words
    }
}

impl<C: StateCodec> StateSpace<C::State> for PackedSpace<C> {
    /// One hash and one probe per call: the word is `Copy`, so it can key
    /// the entry lookup and still be stored on a miss.
    fn intern(&mut self, s: &C::State) -> (usize, bool) {
        let w = self.codec.pack(s);
        match self.index.entry(w) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let id = self.words.len();
                e.insert(id);
                self.words.push(w);
                (id, true)
            }
        }
    }

    fn get(&self, s: &C::State) -> Option<usize> {
        self.index.get(&self.codec.pack(s)).copied()
    }

    fn state(&self, id: usize) -> C::State {
        self.codec.unpack(&self.words[id])
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    fn clear_index(&mut self) {
        self.index = FxHashMap::default();
    }

    fn mem_bytes(&self) -> u64 {
        self.words.capacity() as u64 * std::mem::size_of::<C::Word>() as u64
            + index_bytes(&self.index)
    }

    fn for_each_state(&self, mut f: impl FnMut(usize, &C::State)) {
        for (i, w) in self.words.iter().enumerate() {
            let s = self.codec.unpack(w);
            f(i, &s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A codec packing `(u8, u8)` pairs into a single `u16`.
    struct PairCodec;

    impl StateCodec for PairCodec {
        type State = (u8, u8);
        type Word = u16;

        fn pack(&self, s: &(u8, u8)) -> u16 {
            u16::from(s.0) << 8 | u16::from(s.1)
        }

        fn unpack(&self, w: &u16) -> (u8, u8) {
            ((w >> 8) as u8, (w & 0xFF) as u8)
        }
    }

    #[test]
    fn boxed_interns_and_decodes() {
        let mut sp: BoxedSpace<String> = BoxedSpace::default();
        let (a, fresh_a) = sp.intern(&"a".to_string());
        let (b, fresh_b) = sp.intern(&"b".to_string());
        let (a2, fresh_a2) = sp.intern(&"a".to_string());
        assert_eq!((a, fresh_a), (0, true));
        assert_eq!((b, fresh_b), (1, true));
        assert_eq!((a2, fresh_a2), (0, false));
        assert_eq!(sp.len(), 2);
        assert_eq!(sp.state(1), "b");
        assert_eq!(sp.get(&"b".to_string()), Some(1));
        assert_eq!(sp.get(&"c".to_string()), None);
    }

    #[test]
    fn packed_matches_boxed_behaviour() {
        let mut boxed: BoxedSpace<(u8, u8)> = BoxedSpace::default();
        let mut packed = PackedSpace::new(PairCodec);
        for s in [(1, 2), (3, 4), (1, 2), (0, 0), (3, 4)] {
            assert_eq!(boxed.intern(&s), packed.intern(&s));
        }
        assert_eq!(boxed.len(), packed.len());
        for i in 0..boxed.len() {
            assert_eq!(boxed.state(i), packed.state(i));
        }
        let mut seen = Vec::new();
        packed.for_each_state(|i, s| seen.push((i, *s)));
        assert_eq!(seen, vec![(0, (1, 2)), (1, (3, 4)), (2, (0, 0))]);
    }

    #[test]
    fn clear_index_keeps_decoding() {
        let mut sp = PackedSpace::new(PairCodec);
        sp.intern(&(9, 9));
        sp.clear_index();
        assert_eq!(sp.state(0), (9, 9));
        assert_eq!(sp.len(), 1);
    }

    #[test]
    fn mem_bytes_counts_allocated_buckets_not_usable_capacity() {
        // 100 words grow the interner to 128 buckets, of which only 112
        // are usable capacity: each bucket is a `(u16, usize)` entry plus
        // a control byte, and 16 trailing control bytes close the table.
        let mut sp = PackedSpace::new(PairCodec);
        for i in 0..100u8 {
            sp.intern(&(i, 0));
        }
        assert_eq!(sp.index.capacity(), 112);
        let words = sp.words.capacity() as u64 * 2;
        assert_eq!(sp.mem_bytes(), words + 128 * (16 + 1) + 16);
        // The largest claim model's 788,722 states sit in 2^20 buckets,
        // though `capacity()` reads 917,504.
        let index: FxHashMap<u32, usize> = (0..788_722).map(|i| (i, i as usize)).collect();
        assert_eq!(index.capacity(), 917_504);
        assert_eq!(index_bytes(&index), (1 << 20) * (16 + 1) + 16);
        // Small tables keep all but one bucket usable.
        let small: FxHashMap<u32, usize> = (0..3).map(|i| (i, 0)).collect();
        assert_eq!(small.capacity(), 3);
        assert_eq!(index_bytes(&small), 4 * 17 + 16);
        assert_eq!(index_bytes(&FxHashMap::<u32, usize>::default()), 0);
    }

    #[test]
    fn packed_word_store_is_smaller_than_boxed() {
        let mut boxed: BoxedSpace<(u64, u64, u64, u64)> = BoxedSpace::default();
        let mut packed = PackedSpace::new(PairCodec);
        for i in 0..100u8 {
            boxed.intern(&(u64::from(i), 0, 0, 0));
            packed.intern(&(i, 0));
        }
        assert!(packed.mem_bytes() < boxed.mem_bytes());
    }
}
