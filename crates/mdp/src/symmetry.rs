//! Symmetry reduction: canonicalizing states to per-orbit representatives
//! so exploration builds the *quotient* MDP.
//!
//! A [`Symmetry`] is a finite group action on the state space of an
//! implicit model whose step relation is *equivariant*: for every group
//! element `g`, the choices of `g·s` are exactly the `g`-images of the
//! choices of `s` (as a multiset of cost-labelled distributions). Under
//! that hypothesis the value of any min/max objective is constant on
//! orbits, so it suffices to explore one representative per orbit —
//! [`Symmetry::canon`] — and redirect every successor to its
//! representative. The quotient model has up to `order()`-fold fewer
//! states and bit-identical values on representatives (see DESIGN §13 for
//! the soundness argument and the equality granularity per solver).
//!
//! The only instance shipped here is [`RingRotation`], the cyclic rotation
//! group of a ring of `n` identical processes — the symmetry of the
//! Lehmann–Rabin dining-philosophers ring. States opt in by implementing
//! [`RingState`]; canonical form is the lexicographically least rotation,
//! which the ring-rotation property tests in `pa-lehmann-rabin` pin as
//! value-preserving.
//!
//! Canonicalization runs once per explored successor, so it is the hot
//! path of quotient exploration. [`RingState::least_rotation`] lets a state
//! pick its least rotation from integer keys — [`rotate_lanes`] moves
//! per-process lanes of a packed word, [`least_key`] picks the first
//! minimal key — so [`RingRotation::canon`] builds exactly one rotated
//! state instead of all `n`. The ring states order their rotations by the
//! process lanes first, so [`least_lane_rotation`] settles almost every
//! state from that one word and [`least_key`] runs only on a tie.

/// A group action on states, exposed through its canonicalization map.
///
/// Implementations must guarantee:
///
/// * **Idempotence** — `canon(canon(s)) == canon(s)`.
/// * **Orbit invariance** — `canon(g·s) == canon(s)` for every group
///   element `g` (for [`RingRotation`]: every rotation amount).
///
/// Both laws are property-tested for the shipped instances.
pub trait Symmetry<S>: Send + Sync {
    /// The canonical representative of the orbit of `s`.
    fn canon(&self, s: &S) -> S;

    /// The order of the acting group; each orbit has between 1 and this
    /// many states, so this bounds the achievable reduction factor.
    fn order(&self) -> usize;
}

/// States acted on by the cyclic rotation group of a ring.
///
/// `rotated(k)` relabels the ring so that new process `i` is old process
/// `i + k` (indices mod `n`), together with whatever per-process payload
/// the state carries (resources, obligations, budgets, fault status). The
/// `Ord` bound supplies the total order that picks the lexicographically
/// least rotation as the orbit representative.
pub trait RingState: Clone + Ord {
    /// The state relabelled by rotation amount `k` (new index `i` = old
    /// index `i + k`, mod the ring size).
    fn rotated(&self, k: usize) -> Self;

    /// The first rotation amount `k < n` whose image is least under `Ord`
    /// (`k = 0` stands for the state itself). The default compares all `n`
    /// rotated states; implementations override it with integer keys whose
    /// order equals `Ord` on the rotations, and must pick the same `k`.
    fn least_rotation(&self, n: usize) -> usize {
        let mut best: Option<Self> = None;
        let mut best_k = 0;
        for k in 1..n {
            let r = self.rotated(k);
            if r < *best.as_ref().unwrap_or(self) {
                best = Some(r);
                best_k = k;
            }
        }
        best_k
    }
}

/// Rotates a ring of `n` lanes of `lane_bits` bits each, packed into
/// `word` with lane `i` at bits `lane_bits·i ..`, so that lane `k` becomes
/// lane 0: the word-level image of [`RingState::rotated`] on per-process
/// masks and nibble arrays. Bits above the ring are dropped, except for
/// `k ≡ 0 (mod n)`, which returns `word` unchanged (the state itself, as
/// [`RingState::least_rotation`] compares it). Rings up to 128 bits wide
/// are supported, so a full 64-bit word of 16 nibbles needs no special
/// case.
///
/// For lanes stored with process 0 *most* significant (so the integer
/// order is the lexicographic order over processes), rotate by `n - k`.
pub fn rotate_lanes(word: u128, lane_bits: u32, n: usize, k: usize) -> u128 {
    let k = k % n;
    if k == 0 {
        return word;
    }
    let width = lane_bits * n as u32;
    let mask = u128::MAX >> (128 - width);
    let word = word & mask;
    let shift = lane_bits * k as u32;
    ((word >> shift) | (word << (width - shift))) & mask
}

/// The first `k < n` with the least `key(k)` — the selection rule of
/// [`RingState::least_rotation`] over precomputed integer keys.
pub fn least_key<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> usize {
    let mut best = key(0);
    let mut best_k = 0;
    for k in 1..n {
        let candidate = key(k);
        if candidate < best {
            best = candidate;
            best_k = k;
        }
    }
    best_k
}

/// The first `k < n` whose rotation of a lane word is least, when it is
/// the *only* `k` with that word; `None` on a tie.
///
/// `word` packs a ring of `n` lanes of `lane_bits` bits with process 0
/// *most* significant, so the word of rotation `k` (new process `i` = old
/// process `i + k`) is `word` rotated left by `k` lanes within the ring:
/// one constant shift per step, no [`rotate_lanes`] call. States whose
/// `Ord` compares this word first can take the answer as their
/// [`RingState::least_rotation`] whenever it is `Some`, since no later
/// key component can reorder distinct lane words. A tie means the lane
/// pattern is rotation-periodic (all idle, say); callers then fall back
/// to [`least_key`] over their full keys, which picks the first minimum
/// just as this does.
pub fn least_lane_rotation(word: u128, lane_bits: u32, n: usize) -> Option<usize> {
    let width = lane_bits * n as u32;
    debug_assert!(width <= 128 && (width == 128 || word >> width == 0));
    let mask = u128::MAX >> (128 - width);
    let (mut w, mut best, mut best_k, mut tie) = (word, word, 0, false);
    for k in 1..n {
        w = ((w << lane_bits) | (w >> (width - lane_bits))) & mask;
        if w < best {
            (best, best_k, tie) = (w, k, false);
        } else if w == best {
            tie = true;
        }
    }
    (!tie).then_some(best_k)
}

/// The cyclic rotation symmetry of a ring of `n` processes.
///
/// Canonical form is the minimum of all `n` rotations under the state's
/// `Ord`, located by [`RingState::least_rotation`] and then built once. Sound whenever the model treats all ring positions identically —
/// for the fault-wrapped models this means the fault plan must not name
/// specific processes (an empty plan); the `pa-faults` quotient entry
/// points enforce that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRotation {
    n: usize,
}

impl RingRotation {
    /// The rotation group of a ring of `n` processes.
    pub fn new(n: usize) -> RingRotation {
        RingRotation { n }
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<S: RingState + Send + Sync> Symmetry<S> for RingRotation {
    fn canon(&self, s: &S) -> S {
        match s.least_rotation(self.n) {
            0 => s.clone(),
            k => s.rotated(k),
        }
    }

    fn order(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy ring state: one small payload value per position.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Toy(Vec<u8>);

    impl RingState for Toy {
        fn rotated(&self, k: usize) -> Toy {
            let n = self.0.len();
            Toy((0..n).map(|i| self.0[(i + k) % n]).collect())
        }
    }

    #[test]
    fn canon_picks_the_least_rotation() {
        let sym = RingRotation::new(4);
        let s = Toy(vec![2, 0, 1, 0]);
        let c = sym.canon(&s);
        assert_eq!(c, Toy(vec![0, 1, 0, 2]));
    }

    #[test]
    fn canon_is_idempotent_and_orbit_invariant() {
        let sym = RingRotation::new(5);
        let s = Toy(vec![3, 1, 4, 1, 5]);
        let c = sym.canon(&s);
        assert_eq!(sym.canon(&c), c);
        for k in 0..5 {
            assert_eq!(sym.canon(&s.rotated(k)), c, "rotation {k}");
        }
    }

    #[test]
    fn rotate_lanes_moves_lane_k_to_lane_zero() {
        // Nibbles 0x4321 on a ring of 4: lane 1 (value 2) becomes lane 0.
        assert_eq!(rotate_lanes(0x4321, 4, 4, 1), 0x1432);
        assert_eq!(rotate_lanes(0x4321, 4, 4, 3), 0x3214);
        // A full 64-bit word of 16 nibbles rotates without overflow.
        let word = 0xFEDC_BA98_7654_3210u128;
        assert_eq!(rotate_lanes(word, 4, 16, 1), 0x0FED_CBA9_8765_4321);
        // Bits above the ring are dropped, except by the identity.
        assert_eq!(rotate_lanes(0b1_101, 1, 3, 1), 0b110);
        assert_eq!(rotate_lanes(0b1_101, 1, 3, 3), 0b1_101);
    }

    #[test]
    fn least_key_picks_the_first_minimum() {
        assert_eq!(least_key(4, |k| [3, 1, 2, 1][k]), 1);
        assert_eq!(least_key(3, |_| 0), 0);
    }

    #[test]
    fn least_lane_rotation_finds_a_unique_minimum_or_reports_a_tie() {
        // 2-bit lanes, process 0 most significant: 0b11_01_10 is
        // (3, 1, 2); its rotations are (1, 2, 3) at k = 1, (2, 3, 1) at 2.
        assert_eq!(least_lane_rotation(0b11_01_10, 2, 3), Some(1));
        assert_eq!(least_lane_rotation(0b01_10_11, 2, 3), Some(0));
        // Periodic patterns tie, including the uniform word.
        assert_eq!(least_lane_rotation(0b01_10_01_10, 2, 4), None);
        assert_eq!(least_lane_rotation(0, 5, 16), None);
        // A full ring of 16 five-bit lanes (80 bits) and of 128 bits.
        let word = 1u128 << 79 | 1;
        assert_eq!(least_lane_rotation(word, 5, 16), Some(1));
        assert_eq!(least_lane_rotation(1u128 << 127, 8, 16), Some(1));
        // A one-process ring is its own least rotation.
        assert_eq!(least_lane_rotation(0b101, 3, 1), Some(0));
    }

    #[test]
    fn least_lane_rotation_agrees_with_least_key_on_lanes() {
        // Over every 3-lane, 2-bit word: the fast path picks least_key's
        // k whenever the minimum is unique.
        for word in 0..64u128 {
            let k = least_key(3, |k| rotate_lanes(word, 2, 3, 3 - k));
            let unique = (0..3)
                .filter(|&j| rotate_lanes(word, 2, 3, 3 - j) == rotate_lanes(word, 2, 3, 3 - k))
                .count()
                == 1;
            let want = if unique { Some(k) } else { None };
            assert_eq!(least_lane_rotation(word, 2, 3), want, "{word:06b}");
        }
    }

    #[test]
    fn default_least_rotation_matches_canon() {
        let s = Toy(vec![2, 0, 1, 0]);
        assert_eq!(s.least_rotation(4), 1);
        assert_eq!(Toy(vec![0, 5]).least_rotation(2), 0);
    }

    #[test]
    fn symmetric_states_are_their_own_orbit() {
        let sym = RingRotation::new(3);
        let s = Toy(vec![7, 7, 7]);
        assert_eq!(sym.canon(&s), s);
        assert_eq!(<RingRotation as Symmetry<Toy>>::order(&sym), 3);
    }
}
