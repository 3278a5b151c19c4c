//! Pluggable state representations for exploration: the [`StateSpace`]
//! trait and its two implementations.
//!
//! Exploration needs exactly three things from a state store: intern a
//! state to a dense id, look a state up, and decode an id back to a state.
//! [`BoxedSpace`] keeps states verbatim in a `Vec`. [`PackedSpace`] stores
//! each state as a fixed-width word produced by a [`StateCodec`], so the
//! frontier and [`crate::Explored`] hold copyable words instead of
//! heap-allocating state structs — several-fold less resident memory on
//! the ring models, which is what buys exploration headroom at `n = 8..9`.
//!
//! Both stores intern through one id-only index: an open-addressed table
//! whose slots hold a 32-bit hash tag and a `u32` id, never a key. The key
//! lives once, in the store's id-ordered `Vec`; a lookup compares tags and
//! then `vec[id]` against the probe, and growing the table rehashes from
//! the tags alone. Ids come from discovery order, not from the table, so
//! the table's layout never shows in an id.
//!
//! The two are interchangeable anywhere an [`crate::Explored`] is
//! consumed: analyses only see dense indices, and the decoded-state
//! accessors ([`StateSpace::state`], [`StateSpace::for_each_state`])
//! reconstruct states on demand.

use std::hash::{BuildHasher, Hash};

use crate::fxhash::FxBuildHasher;

/// A dense-id state store: the interner and decoder behind
/// [`crate::Explored`].
///
/// Ids are assigned contiguously from 0 in interning order, which the
/// explorers rely on for their determinism contract. The index keeps ids
/// as `u32`, so a store holds at most `2^32` states.
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

    /// Estimated resident bytes of the store's own tables: the id-ordered
    /// `Vec`'s capacity times the element size, plus 8 bytes per index
    /// slot. Heap payloads owned by individual boxed states are not
    /// counted — packed spaces have none, which is the point.
    fn mem_bytes(&self) -> u64;

    /// Calls `f` with every `(id, state)` pair in id order, decoding each
    /// state once.
    fn for_each_state(&self, f: impl FnMut(usize, &S));
}

/// An empty slot. Every tag is odd ([`IdIndex::tag`]), so no occupied
/// slot, whatever its id, encodes to zero.
const EMPTY: u64 = 0;

/// The smallest table the index allocates.
const MIN_SLOTS: usize = 8;

/// An occupied slot: the tag in the high half, the id in the low half.
fn slot(tag: u32, id: u32) -> u64 {
    u64::from(tag) << 32 | u64::from(id)
}

fn slot_tag(slot: u64) -> u32 {
    (slot >> 32) as u32
}

fn slot_id(slot: u64) -> usize {
    slot as u32 as usize
}

/// A new state's id as the index keeps it.
fn id_of(next: usize) -> u32 {
    u32::try_from(next).expect("a state store holds at most 2^32 states")
}

/// The id-only interner shared by both stores: open addressing over a
/// power-of-two table with linear probing, at most half full. A slot
/// holds a key's tag and id; the key itself is the store's to compare,
/// through the `is_key` callback.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    slots: Vec<u64>,
}

impl IdIndex {
    /// The tag of `key`: the high half of its [`crate::FxHasher`] hash,
    /// whose multiply puts the best-mixed bits there, with the lowest bit
    /// set so no occupied slot is [`EMPTY`].
    fn tag<K: Hash + ?Sized>(key: &K) -> u32 {
        (FxBuildHasher::default().hash_one(key) >> 32) as u32 | 1
    }

    /// The slot a tag probes first: the tag's top bits, as many as the
    /// table has index bits.
    fn home(&self, tag: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((u64::from(tag) << 32) >> (64 - bits)) as usize
    }

    /// Where the probe for `tag` ends: `Ok(id)` at the key for which
    /// `is_key(id)` holds, `Err(i)` at the first empty slot `i` (there is
    /// one: the table is at most half full). `None` for an empty table.
    fn probe(&self, tag: u32, is_key: impl Fn(usize) -> bool) -> Option<Result<usize, usize>> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Some(Err(i));
            }
            if slot_tag(s) == tag && is_key(slot_id(s)) {
                return Some(Ok(slot_id(s)));
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of the key with `tag` for which `is_key(id)` holds.
    fn get(&self, tag: u32, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        self.probe(tag, is_key)?.ok()
    }

    /// The id of the key with `tag` for which `is_key(id)` holds, or, when
    /// there is none, `next` recorded as that key's id and `(next, true)`
    /// returned. `next` is the store's length, which bounds the number of
    /// occupied slots.
    fn intern(&mut self, tag: u32, next: usize, is_key: impl Fn(usize) -> bool) -> (usize, bool) {
        match self.probe(tag, is_key) {
            Some(Ok(id)) => return (id, false),
            Some(Err(i)) if (next + 1) * 2 <= self.slots.len() => {
                self.slots[i] = slot(tag, id_of(next));
            }
            _ => {
                self.grow(next + 1);
                self.place(slot(tag, id_of(next)));
            }
        }
        (next, true)
    }

    /// Reallocates for `len` keys at load at most 1/2, moving every
    /// occupied slot by its tag alone.
    fn grow(&mut self, len: usize) {
        let size = (len * 2).next_power_of_two().max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; size]);
        for s in old.into_iter().filter(|&s| s != EMPTY) {
            self.place(s);
        }
    }

    /// Puts an occupied slot into the first empty slot from its home.
    fn place(&mut self, s: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot_tag(s));
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = s;
    }

    fn bytes(&self) -> u64 {
        self.slots.capacity() as u64 * 8
    }
}

/// The boxed representation: states stored verbatim.
#[derive(Debug, Clone)]
pub struct BoxedSpace<S> {
    states: Vec<S>,
    index: IdIndex,
}

impl<S> Default for BoxedSpace<S> {
    fn default() -> BoxedSpace<S> {
        BoxedSpace {
            states: Vec::new(),
            index: IdIndex::default(),
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
    /// One hash and one probe; a new state is cloned once, into the
    /// `Vec`.
    fn intern(&mut self, s: &S) -> (usize, bool) {
        let states = &self.states;
        let (id, new) = self
            .index
            .intern(IdIndex::tag(s), states.len(), |id| states[id] == *s);
        if new {
            self.states.push(s.clone());
        }
        (id, new)
    }

    fn get(&self, s: &S) -> Option<usize> {
        self.index.get(IdIndex::tag(s), |id| self.states[id] == *s)
    }

    fn state(&self, id: usize) -> S {
        self.states[id].clone()
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn mem_bytes(&self) -> u64 {
        self.states.capacity() as u64 * std::mem::size_of::<S>() as u64 + self.index.bytes()
    }

    fn for_each_state(&self, mut f: impl FnMut(usize, &S)) {
        for (i, s) in self.states.iter().enumerate() {
            f(i, s);
        }
    }
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
    index: IdIndex,
}

impl<C: StateCodec> PackedSpace<C> {
    /// An empty packed space using `codec`.
    pub fn new(codec: C) -> PackedSpace<C> {
        PackedSpace {
            codec,
            words: Vec::new(),
            index: IdIndex::default(),
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
    /// One pack, one hash and one probe per call.
    fn intern(&mut self, s: &C::State) -> (usize, bool) {
        let w = self.codec.pack(s);
        let words = &self.words;
        let (id, new) = self
            .index
            .intern(IdIndex::tag(&w), words.len(), |id| words[id] == w);
        if new {
            self.words.push(w);
        }
        (id, new)
    }

    fn get(&self, s: &C::State) -> Option<usize> {
        let w = self.codec.pack(s);
        self.index.get(IdIndex::tag(&w), |id| self.words[id] == w)
    }

    fn state(&self, id: usize) -> C::State {
        self.codec.unpack(&self.words[id])
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    fn mem_bytes(&self) -> u64 {
        self.words.capacity() as u64 * std::mem::size_of::<C::Word>() as u64 + self.index.bytes()
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
    fn mem_bytes_counts_allocated_buckets_not_usable_capacity() {
        // An empty store owns nothing; the first state allocates the
        // smallest table.
        let mut sp = PackedSpace::new(PairCodec);
        assert_eq!(sp.mem_bytes(), 0);
        sp.intern(&(0, 0));
        assert_eq!(sp.index.slots.len(), MIN_SLOTS);
        // 100 words grow the index to 256 slots, of which only 128 may
        // fill before the next grow: the 65th word doubled it. Each slot
        // is 8 bytes and each word 2.
        for i in 1..100u8 {
            sp.intern(&(i, 0));
        }
        assert_eq!(sp.index.slots.len(), 256);
        let words = sp.words.capacity() as u64 * 2;
        assert_eq!(sp.mem_bytes(), words + 256 * 8);
        // A boxed store counts its states once, not once more as keys.
        let mut boxed: BoxedSpace<u64> = BoxedSpace::default();
        for i in 0..1000 {
            boxed.intern(&i);
        }
        assert_eq!(boxed.index.slots.len(), 2048);
        let states = boxed.states.capacity() as u64 * 8;
        assert_eq!(boxed.mem_bytes(), states + 2048 * 8);
    }

    #[test]
    fn an_occupied_slot_is_never_empty_and_keeps_its_id() {
        for tag in [1, 3, 0x8000_0001, u32::MAX] {
            for id in [0, 1, 0x7FFF_FFFF, u32::MAX] {
                let s = slot(tag, id);
                assert_ne!(s, EMPTY, "tag {tag:#x} id {id:#x}");
                assert_eq!((slot_tag(s), slot_id(s)), (tag, id as usize));
            }
        }
        // Every tag is odd, so the lowest possible occupied slot is id 0
        // under tag 1, and even a zero hash gets an odd tag.
        assert_eq!(IdIndex::tag(&0u64), 1);
        assert!((0..1000u64).all(|k| IdIndex::tag(&k) & 1 == 1));
    }

    #[test]
    fn the_home_slot_is_the_tags_top_bits() {
        let index = IdIndex {
            slots: vec![EMPTY; 16],
        };
        assert_eq!(index.home(0xF000_0001), 15);
        assert_eq!(index.home(0x1FFF_FFFF), 1);
        // Growing moves each slot by its tag alone, keeping every lookup.
        let mut index = IdIndex::default();
        for id in 0..40 {
            let tag = (id as u32).wrapping_mul(0x9E37_79B9) | 1;
            assert_eq!(index.intern(tag, id, |_| false), (id, true));
        }
        assert_eq!(index.slots.len(), 128);
        for id in 0..40 {
            let tag = (id as u32).wrapping_mul(0x9E37_79B9) | 1;
            assert_eq!(index.get(tag, |found| found == id), Some(id));
        }
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
