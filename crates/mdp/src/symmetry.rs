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
//! Two instances ship here, both for a ring of `n` identical processes —
//! the symmetry of the Lehmann–Rabin dining-philosophers ring:
//!
//! * [`RingRotation`], the cyclic group C_n of the `n` rotations. States
//!   opt in by implementing [`RingState`]; the canonical form is the
//!   least rotation under the state's `Ord`.
//! * [`RingDihedral`], the dihedral group D_n of order `2n`: the rotations
//!   and the rotations of the mirror image. States opt in by implementing
//!   [`MirrorRingState`] as well; the canonical form is the lesser of the
//!   least rotation of the state and the least rotation of its mirror.
//!
//! The ring-symmetry property tests in `pa-lehmann-rabin` pin both as
//! value-preserving.
//!
//! Canonicalization runs once per explored successor, so it is the hot
//! path of quotient exploration. [`RingState::least_rotation`] lets a state
//! pick its least rotation from integer keys — [`rotate_lanes`] moves
//! per-process lanes of a packed word, [`least_key`] picks the first
//! minimal key — so [`RingRotation::canon`] builds exactly one rotated
//! state instead of all `n`. The ring states order their rotations by the
//! process lanes first, so [`least_lane_rotation`] settles almost every
//! state from that one word and [`least_key`] runs only on a tie. The
//! mirror lengthens the same search: [`reflect_lanes`] reverses the lane
//! word, [`least_lane_image`] walks the `n` rotations of both words in one
//! pass, and [`RingDihedral::canon`] builds the state once, for the
//! winning orientation. The lane kernels keep `u128` signatures but run on
//! `u64` whenever the ring fits 64 bits (5-bit lanes up to `n = 12`, every
//! 4-bit ring), and are `#[inline]` so callers in other crates compile
//! them in place.

/// A group action on states, exposed through its canonicalization map.
///
/// Implementations must guarantee:
///
/// * **Idempotence** — `canon(canon(s)) == canon(s)`.
/// * **Orbit invariance** — `canon(g·s) == canon(s)` for every group
///   element `g` (for [`RingRotation`]: every rotation amount).
///
/// Both laws are property-tested for the shipped instances.
pub trait Symmetry<S> {
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

/// An unsigned integer that holds a lane word: the kernels below have one
/// body each, instantiated for `u64` and `u128`. A ring of at most 64 bits
/// runs on `u64`, whose shifts and compares are single instructions; wider
/// rings (5-bit lanes from `n = 13`) run on `u128`.
trait LaneWord:
    Copy
    + Ord
    + std::ops::Shl<u32, Output = Self>
    + std::ops::Shr<u32, Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitAnd<Output = Self>
{
    const BITS: u32;
    const MAX: Self;
    /// The low `BITS` bits of `word`.
    fn narrow(word: u128) -> Self;
    fn widen(self) -> u128;
}

impl LaneWord for u64 {
    const BITS: u32 = 64;
    const MAX: u64 = u64::MAX;
    #[inline]
    fn narrow(word: u128) -> u64 {
        word as u64
    }
    #[inline]
    fn widen(self) -> u128 {
        u128::from(self)
    }
}

impl LaneWord for u128 {
    const BITS: u32 = 128;
    const MAX: u128 = u128::MAX;
    #[inline]
    fn narrow(word: u128) -> u128 {
        word
    }
    #[inline]
    fn widen(self) -> u128 {
        self
    }
}

/// Whether a ring of `n` lanes of `lane_bits` bits fits a `u64`.
#[inline]
fn fits_u64(lane_bits: u32, n: usize) -> bool {
    lane_bits as usize * n <= 64
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
#[inline]
pub fn rotate_lanes(word: u128, lane_bits: u32, n: usize, k: usize) -> u128 {
    let k = k % n;
    if k == 0 {
        return word;
    }
    if fits_u64(lane_bits, n) {
        rotate::<u64>(word, lane_bits, n, k)
    } else {
        rotate::<u128>(word, lane_bits, n, k)
    }
}

/// [`rotate_lanes`] for `0 < k < n` on a ring that fits `W`.
#[inline]
fn rotate<W: LaneWord>(word: u128, lane_bits: u32, n: usize, k: usize) -> u128 {
    let width = lane_bits * n as u32;
    let mask = W::MAX >> (W::BITS - width);
    let word = W::narrow(word) & mask;
    let shift = lane_bits * k as u32;
    (((word >> shift) | (word << (width - shift))) & mask).widen()
}

/// Reverses a ring of `n` lanes of `lane_bits` bits each, packed into
/// `word` as for [`rotate_lanes`]: lane `i` becomes lane `n − 1 − i`, the
/// word-level image of [`MirrorRingState::reflected`] on per-process masks
/// and nibble arrays. Bits above the ring are dropped. Lane reversal does
/// not depend on which end holds process 0, so it serves words stored
/// either way.
#[inline]
pub fn reflect_lanes(word: u128, lane_bits: u32, n: usize) -> u128 {
    if fits_u64(lane_bits, n) {
        reflect::<u64>(word, lane_bits, n)
    } else {
        reflect::<u128>(word, lane_bits, n)
    }
}

/// [`reflect_lanes`] on a ring that fits `W`.
#[inline]
fn reflect<W: LaneWord>(word: u128, lane_bits: u32, n: usize) -> u128 {
    let lane = W::MAX >> (W::BITS - lane_bits);
    let word = W::narrow(word);
    (0..n as u32)
        .fold(W::narrow(0), |acc, i| {
            acc << lane_bits | (word >> (lane_bits * i) & lane)
        })
        .widen()
}

/// The first `k < n` with the least `key(k)` — the selection rule of
/// [`RingState::least_rotation`] over precomputed integer keys.
#[inline]
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
#[inline]
pub fn least_lane_rotation(word: u128, lane_bits: u32, n: usize) -> Option<usize> {
    least_image(&[word], lane_bits, n).map(|(_, k)| k)
}

/// The least of the `2n` dihedral images of a lane word, as
/// `(reflect, k)`, when it is the *only* image with that word; `None` on a
/// tie.
///
/// `word` packs a ring as for [`least_lane_rotation`], and `mirror` is the
/// lane word of the state's mirror image (for plain per-process lanes,
/// [`reflect_lanes`] of `word`; states whose lanes carry an orientation,
/// such as a side bit, flip it too). The image is rotation `k` of the
/// state, or of its mirror when `reflect`. States whose `Ord` compares
/// this word first can take a `Some` answer as their least image, as with
/// [`least_lane_rotation`]. A tie means two images share the least word:
/// a rotation-periodic pattern, or one whose least rotation is also the
/// least rotation of its mirror (a palindrome, say). Callers then compare
/// full states ([`RingDihedral::least_image`] does).
///
/// One pass visits the state's rotations and then the mirror's.
#[inline]
pub fn least_lane_image(
    word: u128,
    mirror: u128,
    lane_bits: u32,
    n: usize,
) -> Option<(bool, usize)> {
    least_image(&[word, mirror], lane_bits, n)
}

/// The search behind [`least_lane_rotation`] and [`least_lane_image`]:
/// the rotations of each word of `orientations` (the state's, then its
/// mirror's), on `u64` when the ring fits.
#[inline]
fn least_image(orientations: &[u128], lane_bits: u32, n: usize) -> Option<(bool, usize)> {
    if fits_u64(lane_bits, n) {
        least_image_of::<u64>(orientations, lane_bits, n)
    } else {
        least_image_of::<u128>(orientations, lane_bits, n)
    }
}

/// [`least_image`] on a ring that fits `W`, one lane shift per image. It
/// keeps the least word, the first image `(reflect, k)` reaching it and
/// how many images reach it, and answers only when one does.
#[inline]
fn least_image_of<W: LaneWord>(
    orientations: &[u128],
    lane_bits: u32,
    n: usize,
) -> Option<(bool, usize)> {
    let width = lane_bits * n as u32;
    debug_assert!(width <= W::BITS);
    debug_assert!(width == 128 || orientations.iter().all(|w| w >> width == 0));
    let mask = W::MAX >> (W::BITS - width);
    let mut best = W::narrow(orientations[0]);
    let (mut best_image, mut reaching) = ((false, 0), 0);
    for (reflect, &word) in orientations.iter().enumerate() {
        let mut w = W::narrow(word);
        for k in 0..n {
            if k > 0 {
                w = ((w << lane_bits) | (w >> (width - lane_bits))) & mask;
            }
            if w < best {
                (best, best_image, reaching) = (w, (reflect == 1, k), 1);
            } else if w == best {
                reaching += 1;
            }
        }
    }
    (reaching == 1).then_some(best_image)
}

/// The cyclic rotation symmetry of a ring of `n` processes.
///
/// Canonical form is the minimum of all `n` rotations under the state's
/// `Ord`, located by [`RingState::least_rotation`] and then built once.
///
/// Sound whenever the model treats all ring positions identically. For the
/// fault-wrapped models this means the fault plan must not name specific
/// processes (an empty plan); the `pa-faults` quotient entry points
/// enforce that.
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

impl<S: RingState> Symmetry<S> for RingRotation {
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

/// Ring states that also have a mirror image: the action of the dihedral
/// group D_n, generated by the rotations of [`RingState`] and one
/// reflection.
pub trait MirrorRingState: RingState {
    /// The state relabelled by the reflection: new process `i` is old
    /// process `n − 1 − i`, with whatever payload the state carries moved
    /// the same way and whatever names a direction (a side, a resource
    /// between two processes) mirrored. Reflecting twice is the identity,
    /// and reflecting after rotation `k` equals rotation `n − k` after
    /// reflecting.
    fn reflected(&self) -> Self;

    /// The least of the `2n` images under `Ord`, as `(reflect, k)` (see
    /// [`least_lane_image`]), when integer keys decide it; `None` (the
    /// default) when they tie, and [`RingDihedral::least_image`] then
    /// compares full states. A `Some` answer must name an image equal to
    /// the one the full comparison picks.
    fn unique_least_image(&self, _n: usize) -> Option<(bool, usize)> {
        None
    }
}

/// The dihedral symmetry of a ring of `n` processes: the `n` rotations and
/// the `n` rotations of the mirror image.
///
/// Canonical form is the lesser, under the state's `Ord`, of the least
/// rotation of the state and the least rotation of its mirror
/// ([`RingDihedral::least_image`]), built once. Sound whenever the model
/// treats all ring positions alike *and* both directions around the ring
/// alike. The Lehmann–Rabin ring qualifies: its flip is a fair coin
/// between the two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDihedral {
    n: usize,
}

impl RingDihedral {
    /// The dihedral group of a ring of `n` processes.
    pub fn new(n: usize) -> RingDihedral {
        RingDihedral { n }
    }

    /// The least of the `2n` images of `s` as `(reflect, k)`: rotation `k`
    /// of `s`, or of its mirror when `reflect`. The state's
    /// [`MirrorRingState::unique_least_image`] answers when it can;
    /// otherwise the least rotation of `s` and the least rotation of its
    /// mirror are built and compared, and `s`'s wins an equality.
    pub fn least_image<S: MirrorRingState>(&self, s: &S) -> (bool, usize) {
        if let Some(image) = s.unique_least_image(self.n) {
            return image;
        }
        let mirror = s.reflected();
        let (k, j) = (s.least_rotation(self.n), mirror.least_rotation(self.n));
        if mirror.rotated(j) < s.rotated(k) {
            (true, j)
        } else {
            (false, k)
        }
    }
}

impl<S: MirrorRingState> Symmetry<S> for RingDihedral {
    fn canon(&self, s: &S) -> S {
        match self.least_image(s) {
            (false, 0) => s.clone(),
            (false, k) => s.rotated(k),
            (true, k) => s.reflected().rotated(k),
        }
    }

    fn order(&self) -> usize {
        2 * self.n
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

    impl MirrorRingState for Toy {
        fn reflected(&self) -> Toy {
            Toy(self.0.iter().rev().copied().collect())
        }
    }

    /// A toy ring whose payload values are `BITS`-bit lanes of one word
    /// (process 0 most significant), so its `Ord` is the word's order and
    /// the word-level searches decide its least images.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Lanes<const BITS: u32>(Vec<u8>);

    type Nibbles = Lanes<4>;

    impl<const BITS: u32> Lanes<BITS> {
        fn word(&self) -> u128 {
            self.0.iter().fold(0, |acc, &v| acc << BITS | u128::from(v))
        }
    }

    impl<const BITS: u32> RingState for Lanes<BITS> {
        fn rotated(&self, k: usize) -> Lanes<BITS> {
            Lanes(Toy(self.0.clone()).rotated(k).0)
        }

        fn least_rotation(&self, n: usize) -> usize {
            least_lane_rotation(self.word(), BITS, n)
                .unwrap_or_else(|| least_key(n, |k| self.rotated(k)))
        }
    }

    impl<const BITS: u32> MirrorRingState for Lanes<BITS> {
        fn reflected(&self) -> Lanes<BITS> {
            Lanes(self.0.iter().rev().copied().collect())
        }

        fn unique_least_image(&self, n: usize) -> Option<(bool, usize)> {
            let word = self.word();
            least_lane_image(word, reflect_lanes(word, BITS, n), BITS, n)
        }
    }

    /// All `2n` images of `s`: the rotations, then the mirror's rotations.
    fn images<S: MirrorRingState>(s: &S, n: usize) -> Vec<S> {
        let mirror = s.reflected();
        (0..n)
            .map(|k| s.rotated(k))
            .chain((0..n).map(|k| mirror.rotated(k)))
            .collect()
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

    #[test]
    fn reflect_lanes_reverses_the_lane_order() {
        // Nibbles 0x4321 on a ring of 4 reverse to 0x1234.
        assert_eq!(reflect_lanes(0x4321, 4, 4), 0x1234);
        assert_eq!(reflect_lanes(0b110, 1, 3), 0b011);
        // Bits above the ring are dropped.
        assert_eq!(reflect_lanes(0b1_101, 1, 3), 0b101);
        // A full 128-bit word of 16 eight-bit lanes.
        let word = 0x0F0E_0D0C_0B0A_0908_0706_0504_0302_0100u128;
        let reversed = 0x0001_0203_0405_0607_0809_0A0B_0C0D_0E0Fu128;
        assert_eq!(reflect_lanes(word, 8, 16), reversed);
        assert_eq!(reflect_lanes(reversed, 8, 16), word);
        // A one-lane ring is its own mirror.
        assert_eq!(reflect_lanes(0b10110, 5, 1), 0b10110);
    }

    #[test]
    fn reflecting_after_rotation_k_is_rotation_n_minus_k_after_reflecting() {
        let s = Toy(vec![3, 1, 4, 1, 5, 9]);
        assert_eq!(s.reflected().reflected(), s);
        for k in 0..6 {
            assert_eq!(s.rotated(k).reflected(), s.reflected().rotated(6 - k));
        }
        let word = 0x95_1413u128;
        for k in 0..6 {
            assert_eq!(
                reflect_lanes(rotate_lanes(word, 4, 6, k), 4, 6),
                rotate_lanes(reflect_lanes(word, 4, 6), 4, 6, 6 - k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn dihedral_canon_is_idempotent_and_invariant_on_all_2n_images() {
        let sym = RingDihedral::new(5);
        let s = Toy(vec![3, 1, 4, 1, 5]);
        let c = sym.canon(&s);
        assert_eq!(c, images(&s, 5).into_iter().min().unwrap());
        assert_eq!(sym.canon(&c), c);
        for (i, image) in images(&s, 5).iter().enumerate() {
            assert_eq!(sym.canon(image), c, "image {i}");
        }
        // The mirror can win: (1, 4, 2, 5, 3) reflects to (3, 5, 2, 4, 1),
        // whose rotation 4, (1, 3, 5, 2, 4), beats every own rotation.
        let s = Toy(vec![1, 4, 2, 5, 3]);
        assert_eq!(sym.least_image(&s), (true, 4));
        assert_eq!(sym.canon(&s), Toy(vec![1, 3, 5, 2, 4]));
        assert_eq!(<RingDihedral as Symmetry<Toy>>::order(&sym), 10);
    }

    #[test]
    fn a_palindromic_ring_is_its_own_mirror() {
        let s = Toy(vec![1, 2, 3, 2, 1]);
        assert_eq!(s.reflected(), s);
        let sym = RingDihedral::new(5);
        assert_eq!(sym.canon(&s), RingRotation::new(5).canon(&s));
        // Its lane word ties its mirror's, so the word search defers.
        let s: Nibbles = Lanes(s.0);
        let word = s.word();
        assert_eq!(reflect_lanes(word, 4, 5), word);
        assert_eq!(least_lane_image(word, word, 4, 5), None);
        assert_eq!(sym.canon(&s), Lanes(vec![1, 1, 2, 3, 2]));
    }

    #[test]
    fn least_lane_image_finds_a_unique_least_image_or_reports_a_tie() {
        // (2, 0, 1) has least rotation (0, 1, 2) at k = 1; its mirror
        // (1, 0, 2) has (0, 2, 1): the state's own rotation wins.
        let word = 0x201u128;
        assert_eq!(least_lane_image(word, 0x102, 4, 3), Some((false, 1)));
        // (1, 3, 0, 2) reaches (0, 2, 1, 3) at k = 2; its mirror
        // (2, 0, 3, 1) reaches only (0, 3, 1, 2), so the state wins.
        assert_eq!(least_lane_image(0x1302, 0x2031, 4, 4), Some((false, 2)));
        // (0, 3, 1, 2) against its mirror (2, 1, 3, 0): (0, 2, 1, 3) wins.
        assert_eq!(least_lane_image(0x0312, 0x2130, 4, 4), Some((true, 3)));
        // A periodic word ties within its own rotations.
        assert_eq!(least_lane_image(0x0101, 0x1010, 4, 4), None);
    }

    /// Random walks over `BITS`-bit rings of `n` processes, each step
    /// rewriting one lane with a value from a small alphabet (so ties and
    /// palindromes occur): the canon must be the least of all 2n images,
    /// idempotent and invariant on each of them, and the least rotation
    /// the first least of the n rotations.
    fn check_least_images<const BITS: u32>(n: usize, alphabets: &[u8]) {
        use pa_prob::rng::SplitMix64;
        use rand::RngExt;
        let sym = RingDihedral::new(n);
        let mut rng = SplitMix64::new(n as u64 * 100 + u64::from(BITS));
        for &alphabet in alphabets {
            let mut s = Lanes::<BITS>(vec![0; n]);
            for _ in 0..60 {
                let lane = rng.random_range(0..n);
                s.0[lane] = rng.random_range(0..alphabet);
                let all = images(&s, n);
                let least = all.iter().min().unwrap().clone();
                let canon = sym.canon(&s);
                assert_eq!(canon, least, "n = {n}: {s:?}");
                assert_eq!(sym.canon(&canon), canon, "n = {n}: {s:?}");
                assert!(all.iter().all(|image| sym.canon(image) == canon));
                let k = least_key(n, |k| s.rotated(k));
                assert_eq!(s.least_rotation(n), k, "n = {n}: {s:?}");
            }
        }
    }

    #[test]
    fn word_level_least_image_matches_the_naive_rule_up_to_n16() {
        for n in 2..=16 {
            check_least_images::<4>(n, &[2, 3, 16]);
        }
    }

    #[test]
    fn five_bit_lanes_match_the_naive_rule_on_both_sides_of_64_bits() {
        // n = 12 is 60 bits (the `u64` kernels), n = 13..16 is 65–80 bits
        // (the `u128` ones).
        for n in 2..=16 {
            check_least_images::<5>(n, &[2, 3, 32]);
        }
    }

    /// The lanes of `word`, lane `i` at bits `lane_bits·i ..`.
    fn split(word: u128, lane_bits: u32, n: usize) -> Vec<u128> {
        let lane = u128::MAX >> (128 - lane_bits);
        (0..n as u32)
            .map(|i| word >> (lane_bits * i) & lane)
            .collect()
    }

    fn join(lanes: &[u128], lane_bits: u32) -> u128 {
        lanes
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &v)| acc | v << (lane_bits * i as u32))
    }

    #[test]
    fn lane_kernels_match_a_per_lane_reference_at_64_and_65_bits() {
        use pa_prob::rng::SplitMix64;
        use rand::RngExt;
        let mut rng = SplitMix64::new(64);
        // (lane bits, n): widths 64 and 65, with 60, 80 and 128 beside.
        let rings = [
            (1, 64),
            (2, 32),
            (4, 16),
            (8, 8),
            (16, 4),
            (1, 65),
            (5, 13),
            (13, 5),
            (5, 12),
            (5, 16),
            (8, 16),
        ];
        for (lane_bits, n) in rings {
            for _ in 0..50 {
                let word = u128::from(rng.random::<u64>()) << 64 | u128::from(rng.random::<u64>());
                let lanes = split(word, lane_bits, n);
                let mut reversed = lanes.clone();
                reversed.reverse();
                let ring = format!("{lane_bits} × {n}");
                assert_eq!(
                    reflect_lanes(word, lane_bits, n),
                    join(&reversed, lane_bits),
                    "{ring}"
                );
                assert_eq!(rotate_lanes(word, lane_bits, n, 0), word, "{ring}");
                assert_eq!(rotate_lanes(word, lane_bits, n, n), word, "{ring}");
                for k in 1..n {
                    let mut rotated = lanes.clone();
                    rotated.rotate_left(k);
                    let want = join(&rotated, lane_bits);
                    assert_eq!(rotate_lanes(word, lane_bits, n, k), want, "{ring}, k = {k}");
                    assert_eq!(
                        rotate_lanes(word, lane_bits, n, k + n),
                        want,
                        "{ring}, k = {k}"
                    );
                }
            }
        }
    }
}
