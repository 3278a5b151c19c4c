use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use pa_mdp::{least_key, least_lane_image, least_lane_rotation, reflect_lanes, rotate_lanes};

#[cfg(test)]
use crate::Pc;
use crate::{LrError, ProcState, Side};

/// The largest supported ring: [`Config`] stores its processes inline in
/// this many slots, and the packed codecs are sized for it.
pub(crate) const MAX_RING: usize = 16;

/// A global configuration of the `n`-philosopher system: the local state of
/// every process plus the value of every shared resource variable.
///
/// Indexing follows Section 6.1 of the paper: process `i+1` sits to the
/// right of process `i`, resource `Res_i` sits between processes `i` and
/// `i+1`, and indices are taken modulo `n`. Consequently process `i`'s
/// *left* resource is `Res_{i-1}` and its *right* resource is `Res_i`.
///
/// Resources are stored explicitly (as the paper's shared variables) in a
/// bitmask; Lemma 6.1 says the resource values are determined by the local
/// states on every *reachable* configuration, and
/// [`crate::lemma_6_1_invariant`] verifies exactly that.
///
/// The processes live inline in 16 slots (the largest ring), so a
/// configuration is `Copy` and never touches the heap. Slots past `n` are
/// always idle and take no part in equality, hashing or ordering:
/// configurations order lexicographically over their live processes, then
/// by resource mask, exactly as a `Vec`-backed configuration would.
#[derive(Clone, Copy)]
pub struct Config {
    procs: [ProcState; MAX_RING],
    /// Bit `i` set ⇔ `Res_i = taken`.
    res: u16,
    n: u8,
}

impl PartialEq for Config {
    fn eq(&self, other: &Config) -> bool {
        self.procs() == other.procs() && self.res == other.res
    }
}

impl Eq for Config {}

impl Hash for Config {
    /// Feeds the hasher what the former `Vec<ProcState>` + `u32` layout's
    /// derived `Hash` did, so interner layouts are unchanged.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.procs().hash(state);
        u32::from(self.res).hash(state);
    }
}

impl PartialOrd for Config {
    fn partial_cmp(&self, other: &Config) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Config {
    fn cmp(&self, other: &Config) -> Ordering {
        self.procs()
            .cmp(other.procs())
            .then(self.res.cmp(&other.res))
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("procs", &self.procs())
            .field("res", &self.res)
            .finish()
    }
}

impl Config {
    /// The start configuration: every process idle in `R`, every resource
    /// free. (The paper allows arbitrary initial `uᵢ`; `uᵢ` is dead in `R`
    /// and canonicalized, so this single configuration represents them
    /// all.)
    ///
    /// # Errors
    ///
    /// Returns [`LrError::BadRingSize`] unless `2 ≤ n ≤ 16`.
    pub fn initial(n: usize) -> Result<Config, LrError> {
        if !(2..=MAX_RING).contains(&n) {
            return Err(LrError::BadRingSize { n });
        }
        Ok(Config {
            procs: [ProcState::idle(); MAX_RING],
            res: 0,
            n: n as u8,
        })
    }

    /// Builds a configuration from explicit local states and resource bits.
    ///
    /// # Errors
    ///
    /// Returns [`LrError::BadRingSize`] for an unsupported ring size.
    pub fn from_parts(
        procs: Vec<ProcState>,
        taken: impl IntoIterator<Item = usize>,
    ) -> Result<Config, LrError> {
        let mut c = Config::initial(procs.len())?;
        for (slot, p) in c.procs.iter_mut().zip(procs) {
            *slot = ProcState::new(p.pc, p.side);
        }
        for i in taken {
            c.res |= 1 << (i % c.n());
        }
        Ok(c)
    }

    /// Builds a configuration from already side-canonical slots (idle past
    /// `n`) and a resource mask within `n` bits; the packed codecs decode
    /// through this without an intermediate `Vec`.
    pub(crate) fn from_slots(n: usize, procs: [ProcState; MAX_RING], res: u16) -> Config {
        debug_assert!((2..=MAX_RING).contains(&n));
        Config {
            procs,
            res,
            n: n as u8,
        }
    }

    /// The processes as one integer of 5-bit `pc · 2 + side` lanes, process
    /// 0 most significant: for configurations of the same ring size its
    /// order is the lexicographic order of [`Config::procs`].
    fn lanes(&self) -> u128 {
        self.procs().iter().fold(0u128, |acc, &p| {
            acc << 5 | u128::from(crate::packed::pack_proc(p))
        })
    }

    /// The least rotation as decided by the processes alone: `Some(k)`
    /// when rotation `k` is the only one with the least lane word (the
    /// processes as 5-bit `pc · 2 + side` lanes, process 0 most
    /// significant), `None` when the lane pattern is rotation-periodic.
    /// Every [`pa_mdp::RingState::least_rotation`] override over a
    /// configuration orders the lane word first, so `Some(k)` is its
    /// answer and only a tie needs the full rotation keys.
    pub fn unique_least_rotation(&self) -> Option<usize> {
        least_lane_rotation(self.lanes(), 5, self.n())
    }

    /// The least of the `2n` dihedral images as decided by the processes
    /// alone: `Some((reflect, k))` when rotation `k` of the configuration,
    /// or of its mirror when `reflect`, is the only image with the least
    /// lane word; `None` on a tie. As with
    /// [`Config::unique_least_rotation`], every
    /// [`pa_mdp::MirrorRingState::unique_least_image`] over a configuration
    /// orders the lane word first, so `Some` is its answer.
    ///
    /// One loop builds both lane words. The mirror ([`Config::reflected`])
    /// holds process `i` as its process `n − 1 − i`, so in the mirror's
    /// word process `i`'s lane is lane `i` counted from the least
    /// significant end, with the side bit flipped when the side is live.
    pub fn unique_least_image(&self) -> Option<(bool, usize)> {
        let (mut lanes, mut mirror) = (0u128, 0u128);
        for (i, &p) in self.procs().iter().enumerate() {
            let lane = u128::from(crate::packed::pack_proc(p));
            lanes = lanes << 5 | lane;
            mirror |= (lane ^ u128::from(p.pc.side_matters())) << (5 * i);
        }
        least_lane_image(lanes, mirror, 5, self.n())
    }

    /// Integer keys of the rotations, for
    /// [`pa_mdp::RingState::least_rotation`] overrides: `key(k)` orders
    /// like `self.rotated(k)` under `Ord` (`k = 0` is `self`). Wrappers
    /// extend the tuple with their own rotated per-process words.
    pub(crate) fn rotation_keys(&self) -> impl Fn(usize) -> (u128, u128) {
        let (n, lanes, res) = (self.n(), self.lanes(), u128::from(self.res));
        move |k| {
            (
                rotate_lanes(lanes, 5, n, n - k % n),
                rotate_lanes(res, 1, n, k),
            )
        }
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        usize::from(self.n)
    }

    /// The local state of process `i` (mod `n`).
    pub fn proc(&self, i: usize) -> ProcState {
        self.procs[i % self.n()]
    }

    /// All local states in ring order.
    pub fn procs(&self) -> &[ProcState] {
        &self.procs[..self.n()]
    }

    /// Whether `Res_j` is taken.
    pub fn res_taken(&self, j: usize) -> bool {
        self.res & (1 << (j % self.n())) != 0
    }

    /// The index of process `i`'s resource on `side`:
    /// `Res(i, left) = Res_{i-1}`, `Res(i, right) = Res_i`.
    pub fn res_index(&self, i: usize, side: Side) -> usize {
        let n = self.n();
        match side {
            Side::Left => (i + n - 1) % n,
            Side::Right => i % n,
        }
    }

    /// Returns a copy with process `i` replaced (side auto-canonicalized).
    pub fn with_proc(&self, i: usize, p: ProcState) -> Config {
        let mut c = *self;
        c.procs[i % self.n()] = ProcState::new(p.pc, p.side);
        c
    }

    /// Returns a copy with `Res_j` set to taken/free.
    pub fn with_res(&self, j: usize, taken: bool) -> Config {
        let mut c = *self;
        let bit = 1 << (j % self.n());
        if taken {
            c.res |= bit;
        } else {
            c.res &= !bit;
        }
        c
    }

    /// Bitmask of processes that are *ready* (must step within one time
    /// unit under the `Unit-Time` schema).
    pub fn ready_mask(&self) -> u32 {
        let mut m = 0u32;
        for (i, p) in self.procs().iter().enumerate() {
            if p.pc.is_ready() {
                m |= 1 << i;
            }
        }
        m
    }

    /// The resource value `Res_i` *derived* from local states by
    /// Lemma 6.1: taken iff `Xᵢ ∈ {S→, D→, P, C, E_F, E_S→}` or
    /// `Xᵢ₊₁ ∈ {S←, D←, P, C, E_F, E_S←}`.
    pub fn derived_res_taken(&self, i: usize) -> bool {
        let n = self.n();
        let xi = self.procs[i % n];
        let xi1 = self.procs[(i + 1) % n];
        let right_holder = xi.pc.holds_both() || (xi.pc.holds_first() && xi.side == Side::Right);
        let left_holder = xi1.pc.holds_both() || (xi1.pc.holds_first() && xi1.side == Side::Left);
        right_holder || left_holder
    }

    /// The configuration relabelled by ring rotation `k`: new process `i`
    /// is old process `i + k`, new `Res_j` is old `Res_{j+k}` (mod `n`).
    ///
    /// Rotation is a protocol automorphism — the ring is anonymous, so the
    /// step relation commutes with it (the ring-rotation property tests
    /// pin this). It is the group action behind
    /// [`pa_mdp::RingRotation`] quotient exploration.
    pub fn rotated(&self, k: usize) -> Config {
        let n = self.n();
        let k = k % n;
        let mut c = *self;
        c.procs[..n].rotate_left(k);
        c.res = rotate_lanes(u128::from(self.res), 1, n, k) as u16;
        c
    }

    /// The configuration's mirror image: new process `i` is old process
    /// `n − 1 − i` with its side flipped, and new `Res_j` is old
    /// `Res_{(n−2−j) mod n}`, the resource between the same two processes.
    /// A dead side stays `Left` ([`ProcState::new`]).
    ///
    /// Reflection is a protocol automorphism: Figure 1's flip is a fair
    /// coin between the two sides, and every other step names its
    /// resources by side, so the step relation commutes with it (the
    /// mirror property tests pin this). With the rotations it generates
    /// the dihedral group behind [`pa_mdp::RingDihedral`] quotient
    /// exploration.
    pub fn reflected(&self) -> Config {
        let n = self.n();
        let mut c = *self;
        for (slot, p) in c.procs[..n].iter_mut().zip(self.procs().iter().rev()) {
            *slot = ProcState::new(p.pc, p.side.opp());
        }
        let res = reflect_lanes(u128::from(self.res), 1, n);
        c.res = rotate_lanes(res, 1, n, 1) as u16;
        c
    }

    /// The second half of Lemma 6.1: it is never the case that both
    /// process `i` holds `Res_i` (from the left) and process `i+1` holds it
    /// (from the right) — at most one process holds each resource.
    pub fn resource_exclusive(&self, i: usize) -> bool {
        let n = self.n();
        let xi = self.procs[i % n];
        let xi1 = self.procs[(i + 1) % n];
        let right_holder = xi.pc.holds_both() || (xi.pc.holds_first() && xi.side == Side::Right);
        let left_holder = xi1.pc.holds_both() || (xi1.pc.holds_first() && xi1.side == Side::Left);
        !(right_holder && left_holder)
    }
}

impl pa_mdp::RingState for Config {
    fn rotated(&self, k: usize) -> Config {
        Config::rotated(self, k)
    }

    fn least_rotation(&self, n: usize) -> usize {
        self.unique_least_rotation()
            .unwrap_or_else(|| least_key(n, self.rotation_keys()))
    }
}

impl pa_mdp::MirrorRingState for Config {
    fn reflected(&self) -> Config {
        Config::reflected(self)
    }

    fn unique_least_image(&self, _n: usize) -> Option<(bool, usize)> {
        Config::unique_least_image(self)
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, p) in self.procs().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(pc: Pc, side: Side) -> ProcState {
        ProcState::new(pc, side)
    }

    #[test]
    fn initial_is_all_idle_and_free() {
        let c = Config::initial(3).unwrap();
        assert_eq!(c.n(), 3);
        for i in 0..3 {
            assert_eq!(c.proc(i).pc, Pc::R);
            assert!(!c.res_taken(i));
        }
        assert_eq!(c.ready_mask(), 0);
    }

    #[test]
    fn configurations_are_inline() {
        // 16 two-byte process slots, the resource mask and `n`: no heap,
        // and a round state (config + obligations + budgets) fits 48 bytes.
        assert_eq!(std::mem::size_of::<Config>(), 36);
        assert_eq!(std::mem::size_of::<crate::RoundState>(), 48);
    }

    #[test]
    fn ring_size_is_validated() {
        assert!(matches!(
            Config::initial(1),
            Err(LrError::BadRingSize { n: 1 })
        ));
        assert!(matches!(
            Config::initial(17),
            Err(LrError::BadRingSize { .. })
        ));
        assert!(Config::initial(2).is_ok());
        assert!(Config::initial(16).is_ok());
    }

    #[test]
    fn resource_indexing_follows_the_ring() {
        let c = Config::initial(4).unwrap();
        assert_eq!(c.res_index(0, Side::Right), 0);
        assert_eq!(c.res_index(0, Side::Left), 3);
        assert_eq!(c.res_index(2, Side::Left), 1);
        assert_eq!(c.res_index(3, Side::Right), 3);
    }

    #[test]
    fn with_res_sets_and_clears_bits() {
        let c = Config::initial(3).unwrap();
        let c2 = c.with_res(1, true);
        assert!(c2.res_taken(1));
        assert!(!c2.res_taken(0));
        let c3 = c2.with_res(1, false);
        assert_eq!(c3, c);
    }

    #[test]
    fn ready_mask_tracks_pcs() {
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ps(Pc::W, Side::Left))
            .with_proc(2, ps(Pc::C, Side::Left));
        assert_eq!(c.ready_mask(), 0b001);
    }

    #[test]
    fn derived_resource_matches_holders() {
        // Process 0 in S→ holds Res_0; process 1 in W← holds nothing.
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ps(Pc::S, Side::Right))
            .with_proc(1, ps(Pc::W, Side::Left));
        assert!(c.derived_res_taken(0));
        assert!(!c.derived_res_taken(1));
        assert!(!c.derived_res_taken(2));
        assert!(c.resource_exclusive(0));
    }

    #[test]
    fn exclusivity_detects_double_holding() {
        // Both process 0 (S→, holds Res_0) and process 1 (S←, holds Res_0):
        // impossible in reachable states, flagged by the exclusivity check.
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ps(Pc::S, Side::Right))
            .with_proc(1, ps(Pc::S, Side::Left));
        assert!(!c.resource_exclusive(0));
    }

    #[test]
    fn holds_both_states_take_both_adjacent_resources() {
        let c = Config::initial(3)
            .unwrap()
            .with_proc(1, ps(Pc::C, Side::Left));
        // Process 1 holds Res_0 (left) and Res_1 (right).
        assert!(c.derived_res_taken(0));
        assert!(c.derived_res_taken(1));
        assert!(!c.derived_res_taken(2));
    }

    #[test]
    fn from_parts_canonicalizes_sides() {
        let a =
            Config::from_parts(vec![ps(Pc::F, Side::Right), ps(Pc::R, Side::Right)], []).unwrap();
        let b = Config::from_parts(vec![ps(Pc::F, Side::Left), ps(Pc::R, Side::Left)], []).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_compact() {
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ps(Pc::W, Side::Left))
            .with_proc(1, ps(Pc::S, Side::Right));
        assert_eq!(c.to_string(), "⟨W← S→ R⟩");
    }
}
