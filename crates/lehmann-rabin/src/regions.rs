//! The state-set classifiers of Section 6.2: `T`, `C`, `RT`, `F`, `G`, `P`
//! and the *good process* notion behind `G`.
//!
//! [`ATOMS`] is the one table of the atoms: their names, plain and
//! fault-aware predicates, and visibility features. The region resolvers
//! ([`crate::region_pred`], [`crate::region_pred_under`]), [`Visibility`]
//! and the region byte ([`regions_under`], one bit per atom, which the
//! [`crate::ArrowChecker`] keeps per state) all read it.

use pa_core::SetExpr;

use crate::{Config, LrError, Pc, Side};

/// `T`: some process is in its trying region
/// (`∃i Xᵢ ∈ {F, W, S, D, P}`).
pub fn in_t(c: &Config) -> bool {
    c.procs().iter().any(|p| p.pc.in_trying())
}

/// `C`: some process is in its critical region.
pub fn in_c(c: &Config) -> bool {
    c.procs().iter().any(|p| p.pc == Pc::C)
}

/// `P`: some process is in its pre-critical region.
pub fn in_p(c: &Config) -> bool {
    c.procs().iter().any(|p| p.pc == Pc::P)
}

/// `RT`: some process is trying and *every* process is in
/// `{E_R, R} ∪ T` — no process is critical or holds resources while
/// exiting.
pub fn in_rt(c: &Config) -> bool {
    in_t(c)
        && c.procs()
            .iter()
            .all(|p| matches!(p.pc, Pc::Er | Pc::R) || p.pc.in_trying())
}

/// `F`: a state of `RT` where some process is ready to flip.
pub fn in_f(c: &Config) -> bool {
    in_rt(c) && c.procs().iter().any(|p| p.pc == Pc::F)
}

/// Whether process `i` is *committed*: `Xᵢ ∈ {W, S}`.
pub fn is_committed(c: &Config, i: usize) -> bool {
    matches!(c.proc(i).pc, Pc::W | Pc::S)
}

/// Whether process `i` *potentially controls* its resource on `side`:
/// it is pursuing or holding its first resource there
/// (`Xᵢ ∈ {W, S, D}` pointing that way).
pub fn potentially_controls(c: &Config, i: usize, side: Side) -> bool {
    let p = c.proc(i);
    matches!(p.pc, Pc::W | Pc::S | Pc::D) && p.side == side
}

/// Whether process `i` is a *good process*: committed, with its second
/// resource not potentially controlled by the neighbour on that side.
///
/// Formally (the paper's `G` definition): `Xᵢ ∈ {W←, S←}` and
/// `Xᵢ₊₁ ∈ {E_R, R, F, W→, S→, D→}`, or the symmetric right-pointing case
/// with neighbour `i−1`.
pub fn is_good(c: &Config, i: usize) -> bool {
    let n = c.n();
    let p = c.proc(i);
    if !matches!(p.pc, Pc::W | Pc::S) {
        return false;
    }
    match p.side {
        Side::Left => {
            let r = c.proc((i + 1) % n);
            matches!(r.pc, Pc::Er | Pc::R | Pc::F)
                || (matches!(r.pc, Pc::W | Pc::S | Pc::D) && r.side == Side::Right)
        }
        Side::Right => {
            let l = c.proc((i + n - 1) % n);
            matches!(l.pc, Pc::Er | Pc::R | Pc::F)
                || (matches!(l.pc, Pc::W | Pc::S | Pc::D) && l.side == Side::Left)
        }
    }
}

/// `G`: a state of `RT` containing a good process.
pub fn in_g(c: &Config) -> bool {
    in_rt(c) && (0..c.n()).any(|i| is_good(c, i))
}

/// The good processes of a configuration.
pub fn good_processes(c: &Config) -> Vec<usize> {
    (0..c.n()).filter(|&i| is_good(c, i)).collect()
}

// ---------------------------------------------------------------------------
// Static visibility.
//
// Each atom above reads a configuration only through a few features of
// each process's program counter (and, for `G`, the side of a `W`, `S` or
// `D` process). A step that moves one process from `before` to `after`
// without changing its side where the side matters, and otherwise changes
// only forks, which no atom reads, cannot change an atom whose features
// agree on `before` and `after`. The partial-order reduction
// (`crate::Reduced`) keeps such a step alone only when it is invisible for
// every atom of the target.

const TRYING: u8 = 1;
const IDLE: u8 = 1 << 1;
const CRITICAL: u8 = 1 << 2;
const PRE_CRITICAL: u8 = 1 << 3;
const FLIPPING: u8 = 1 << 4;
const COMMITTED: u8 = 1 << 5;
const CONTROLLING: u8 = 1 << 6;

/// The pc features of `pc` (one bit each).
const fn pc_features(pc: Pc) -> u8 {
    const fn bit(on: bool, feature: u8) -> u8 {
        if on {
            feature
        } else {
            0
        }
    }
    bit(pc.in_trying(), TRYING)
        | bit(matches!(pc, Pc::Er | Pc::R), IDLE)
        | bit(matches!(pc, Pc::C), CRITICAL)
        | bit(matches!(pc, Pc::P), PRE_CRITICAL)
        | bit(matches!(pc, Pc::F), FLIPPING)
        | bit(matches!(pc, Pc::W | Pc::S), COMMITTED)
        | bit(matches!(pc, Pc::W | Pc::S | Pc::D), CONTROLLING)
}

/// The features `RT` reads: whether some process is trying and whether
/// each is in `{E_R, R} ∪ T`.
const RT_FEATURES: u8 = TRYING | IDLE;

// ---------------------------------------------------------------------------
// The atom table.

/// One region atom: its name, its plain and fault-aware predicates, and
/// the pc features it reads ([`Visibility`]). Its bit in a region byte
/// ([`regions_under`]) is its index in [`ATOMS`].
#[derive(Debug, Clone, Copy)]
pub struct Atom {
    /// The name a [`SetExpr`] uses.
    pub name: &'static str,
    /// The fault-free predicate.
    pub plain: fn(&Config) -> bool,
    /// The fault-aware predicate under a crash mask.
    pub under: fn(&Config, u32) -> bool,
    /// The pc features the atom reads: `T`, `C` and `P` one each; `RT`
    /// its two; `F` those and `F` itself; `G` those and the committed and
    /// potentially-controlling sets of the good-process test.
    features: u8,
}

/// Every region atom, in region-byte bit order.
pub const ATOMS: [Atom; 6] = [
    Atom {
        name: "T",
        plain: in_t,
        under: in_t_under,
        features: TRYING,
    },
    Atom {
        name: "C",
        plain: in_c,
        under: in_c_under,
        features: CRITICAL,
    },
    Atom {
        name: "RT",
        plain: in_rt,
        under: in_rt_under,
        features: RT_FEATURES,
    },
    Atom {
        name: "F",
        plain: in_f,
        under: in_f_under,
        features: RT_FEATURES | FLIPPING,
    },
    Atom {
        name: "G",
        plain: in_g,
        under: in_g_under,
        features: RT_FEATURES | FLIPPING | COMMITTED | CONTROLLING,
    },
    Atom {
        name: "P",
        plain: in_p,
        under: in_p_under,
        features: PRE_CRITICAL,
    },
];

// Each atom's region-byte bit, in `ATOMS` order (`tests/region_byte.rs`
// checks every bit against its atom's predicate).
const BIT_T: u8 = 1;
const BIT_C: u8 = 1 << 1;
const BIT_RT: u8 = 1 << 2;
const BIT_F: u8 = 1 << 3;
const BIT_G: u8 = 1 << 4;
const BIT_P: u8 = 1 << 5;

/// The atom named `name` and its region-byte bit.
///
/// # Errors
///
/// [`LrError::UnknownRegion`] for a name outside `T`, `C`, `RT`, `F`,
/// `G`, `P`.
pub(crate) fn atom(name: &str) -> Result<(&'static Atom, u8), LrError> {
    ATOMS
        .iter()
        .zip(0..)
        .find(|(a, _)| a.name == name)
        .map(|(a, k)| (a, 1 << k))
        .ok_or_else(|| LrError::UnknownRegion(name.to_string()))
}

/// The region-byte bits of `set`: a state is in `set` exactly when its
/// region byte shares a bit with them.
///
/// # Errors
///
/// [`LrError::UnknownRegion`] for an unknown atom.
pub(crate) fn set_bits(set: &SetExpr) -> Result<u8, LrError> {
    set.atoms()
        .try_fold(0, |bits, name| Ok(bits | atom(name)?.1))
}

// What one process contributes to a region byte (`PROCESS_CODES`): its pc
// features when it is live in the low byte, whether it is outside `RT`,
// and a nibble of good-process flags (`GOOD_FLAGS`).
const OUTSIDE_RT: u16 = 1 << 8;
const GOOD_FLAGS: u32 = 9;
/// Live, committed and pointing left: good when its right neighbour is
/// benign.
const COMMITTED_LEFT: u16 = 1;
/// Live, committed and pointing right: good when its left neighbour is
/// benign.
const COMMITTED_RIGHT: u16 = 1 << 1;
/// Benign as the right neighbour of a process pointing left.
const BENIGN_RIGHT: u16 = 1 << 2;
/// Benign as the left neighbour of a process pointing right.
const BENIGN_LEFT: u16 = 1 << 3;

/// The code of a process with `pc` and `side`, live or crashed. The
/// flags restate [`is_good_under`]: a good process is live and committed,
/// and its neighbour on the second-resource side is idle or flipping,
/// controls the resource away from it, or is a crashed waiter.
const fn process_code(pc: Pc, side: Side, live: bool) -> u16 {
    const fn flag(on: bool, flag: u16) -> u16 {
        if on {
            flag
        } else {
            0
        }
    }
    let features = pc_features(pc);
    let left = matches!(side, Side::Left);
    let committed = live && features & COMMITTED != 0;
    let calm = features & (IDLE | FLIPPING) != 0 || (!live && matches!(pc, Pc::W));
    let controlling = features & CONTROLLING != 0;
    let good = flag(committed && left, COMMITTED_LEFT)
        | flag(committed && !left, COMMITTED_RIGHT)
        | flag(calm || (controlling && !left), BENIGN_RIGHT)
        | flag(calm || (controlling && left), BENIGN_LEFT);
    flag(live, features as u16) | flag(features & RT_FEATURES == 0, OUTSIDE_RT) | good << GOOD_FLAGS
}

/// [`process_code`] of every pc, side and liveness, at
/// `(pc · 2 + side) · 2 + live`.
const PROCESS_CODES: [u16; 40] = {
    let mut table = [0; 40];
    let mut k = 0;
    while k < table.len() {
        let side = if k / 2 % 2 == 0 {
            Side::Left
        } else {
            Side::Right
        };
        table[k] = process_code(Pc::ALL[k / 4], side, k % 2 == 1);
        k += 1;
    }
    table
};

/// The region byte of `c` under the crash mask `crashed`: bit `k` is set
/// when `c` is in [`ATOMS`]`[k]` (its fault-aware predicate). One pass
/// over the processes decides all six atoms; a state read under the mask
/// 0 gets the plain atoms.
pub fn regions_under(c: &Config, crashed: u32) -> u8 {
    let procs = c.procs();
    let n = procs.len();
    let mut any = 0u16;
    // Nibble `i`: the good-process flags of process `i`.
    let mut good = 0u64;
    for (i, p) in procs.iter().enumerate() {
        let live = usize::from(is_live(crashed, i));
        let code = PROCESS_CODES[(p.pc as usize * 2 + p.side as usize) * 2 + live];
        any |= code;
        good |= u64::from(code >> GOOD_FLAGS) << (4 * i);
    }
    // Nibble `i` of `next` is process `i + 1`'s, of `previous` process
    // `i − 1`'s (ring order; `n ≤ 16` nibbles fill at most 64 bits).
    let ring = u64::MAX >> (64 - 4 * n);
    let next = (good >> 4 | good << (4 * n - 4)) & ring;
    let previous = (good << 4 | good >> (4 * n - 4)) & ring;
    let ones = 0x1111_1111_1111_1111u64;
    let left = good & next >> 2;
    let right = good >> 1 & previous >> 3;
    let good = (left | right) & ones != 0;
    let live = any as u8;
    let bit = |on: bool, b: u8| if on { b } else { 0 };
    let t = live & TRYING != 0;
    let rt = t && any & OUTSIDE_RT == 0;
    bit(t, BIT_T)
        | bit(live & CRITICAL != 0, BIT_C)
        | bit(rt, BIT_RT)
        | bit(rt && live & FLIPPING != 0, BIT_F)
        | bit(rt && good, BIT_G)
        | bit(live & PRE_CRITICAL != 0, BIT_P)
}

/// The one-process pc transitions that can change a set of region atoms:
/// bit `10·before + after` (pcs in [`Pc::ALL`] order) is set when moving
/// one process from `before` to `after` can change some atom's truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visibility(u128);

impl Visibility {
    /// The visible transitions of `set`: those of any of its atoms.
    ///
    /// # Errors
    ///
    /// [`LrError::UnknownRegion`] for an atom outside `T`, `C`, `RT`, `F`,
    /// `G`, `P`.
    pub fn of(set: &SetExpr) -> Result<Visibility, LrError> {
        let mut read = 0u8;
        for name in set.atoms() {
            read |= atom(name)?.0.features;
        }
        let mut bits = 0u128;
        for before in Pc::ALL {
            for after in Pc::ALL {
                if (pc_features(before) ^ pc_features(after)) & read != 0 {
                    bits |= 1 << (10 * before as u32 + after as u32);
                }
            }
        }
        Ok(Visibility(bits))
    }

    /// Whether moving one process from `before` to `after` can change the
    /// truth of some atom of the set.
    pub fn may_change(self, before: Pc, after: Pc) -> bool {
        self.0 >> (10 * before as u32 + after as u32) & 1 == 1
    }
}

// ---------------------------------------------------------------------------
// Fault-aware region calculus.
//
// Under fault injection the region predicates must distinguish live from
// crashed processes (`crashed` is a bitmask, bit `i` = process `i` is
// down). Two principles govern the variants below:
//
// * *Progress witnesses must be live.* `T`, `C`, `F`, `P` assert that some
//   process is about to make (or has made) progress; a crashed process in
//   that program counter will never move again, so it cannot witness the
//   region. This is what makes survival maps honest: an arrow into `C`
//   must be satisfied by a live process entering its critical section.
// * *Obstacles need not be live.* A crashed philosopher still *holds* the
//   forks it held (crash-stop does not release resources), so a crashed
//   `S`/`D` neighbour keeps potentially controlling a resource forever —
//   it blocks `first(flipᵢ, …)` progress exactly like a live one, only
//   without ever releasing. A crashed `W`, by contrast, will never grab:
//   it stops being a threat the moment it crashes.

/// Whether process `i` is live under the crash mask.
#[inline]
pub fn is_live(crashed: u32, i: usize) -> bool {
    crashed & (1u32 << i) == 0
}

/// Fault-aware `T`: some *live* process is trying.
pub fn in_t_under(c: &Config, crashed: u32) -> bool {
    c.procs()
        .iter()
        .enumerate()
        .any(|(i, p)| is_live(crashed, i) && p.pc.in_trying())
}

/// Fault-aware `C`: some *live* process is critical.
pub fn in_c_under(c: &Config, crashed: u32) -> bool {
    c.procs()
        .iter()
        .enumerate()
        .any(|(i, p)| is_live(crashed, i) && p.pc == Pc::C)
}

/// Fault-aware `P`: some *live* process is pre-critical.
pub fn in_p_under(c: &Config, crashed: u32) -> bool {
    c.procs()
        .iter()
        .enumerate()
        .any(|(i, p)| is_live(crashed, i) && p.pc == Pc::P)
}

/// Fault-aware `RT`: a live process is trying, and *every* process — live
/// or crashed — is in `{E_R, R} ∪ T`. A crashed critical process still
/// holds both forks, so it keeps its neighbours blocked; that is exactly
/// the situation `RT` is meant to exclude.
pub fn in_rt_under(c: &Config, crashed: u32) -> bool {
    in_t_under(c, crashed)
        && c.procs()
            .iter()
            .all(|p| matches!(p.pc, Pc::Er | Pc::R) || p.pc.in_trying())
}

/// Fault-aware `F`: a state of fault-aware `RT` where some *live* process
/// is ready to flip.
pub fn in_f_under(c: &Config, crashed: u32) -> bool {
    in_rt_under(c, crashed)
        && c.procs()
            .iter()
            .enumerate()
            .any(|(i, p)| is_live(crashed, i) && p.pc == Pc::F)
}

/// Fault-aware potential control: a live process potentially controls its
/// `side` resource as usual (`{W, S, D}` pointing that way); a *crashed*
/// process only blocks what it actually holds (`{S, D}` pointing that way
/// — a crashed `W` never grabs the fork, a crashed holder never releases
/// it).
pub fn potentially_controls_under(c: &Config, i: usize, side: Side, crashed: u32) -> bool {
    let p = c.proc(i);
    if p.side != side {
        return false;
    }
    if is_live(crashed, i) {
        matches!(p.pc, Pc::W | Pc::S | Pc::D)
    } else {
        matches!(p.pc, Pc::S | Pc::D)
    }
}

/// Fault-aware good process: `i` must be live and committed, and its
/// second resource must not be potentially controlled (fault-aware) by the
/// neighbour on that side. A crashed neighbour that merely *waits* no
/// longer contends, so crashes can create good processes; a crashed
/// neighbour that *holds* blocks forever, so crashes can also destroy
/// them permanently.
pub fn is_good_under(c: &Config, i: usize, crashed: u32) -> bool {
    let n = c.n();
    let p = c.proc(i);
    if !is_live(crashed, i) || !matches!(p.pc, Pc::W | Pc::S) {
        return false;
    }
    // The neighbour on the second-resource side is benign if it is in the
    // paper's benign set, or if it is a crashed waiter (it will never grab
    // the fork it was waiting for).
    let benign = |j: usize, away: Side| {
        let r = c.proc(j);
        matches!(r.pc, Pc::Er | Pc::R | Pc::F)
            || (matches!(r.pc, Pc::W | Pc::S | Pc::D) && r.side == away)
            || (!is_live(crashed, j) && r.pc == Pc::W)
    };
    match p.side {
        Side::Left => benign((i + 1) % n, Side::Right),
        Side::Right => benign((i + n - 1) % n, Side::Left),
    }
}

/// Fault-aware `G`: a state of fault-aware `RT` containing a fault-aware
/// good process.
pub fn in_g_under(c: &Config, crashed: u32) -> bool {
    in_rt_under(c, crashed) && (0..c.n()).any(|i| is_good_under(c, i, crashed))
}

/// The fault-aware good processes of a configuration.
pub fn good_processes_under(c: &Config, crashed: u32) -> Vec<usize> {
    (0..c.n())
        .filter(|&i| is_good_under(c, i, crashed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcState;

    fn cfg(pcs: &[(Pc, Side)]) -> Config {
        Config::from_parts(
            pcs.iter().map(|&(pc, s)| ProcState::new(pc, s)).collect(),
            [],
        )
        .unwrap()
    }

    const L: Side = Side::Left;
    const R: Side = Side::Right;

    #[test]
    fn initial_state_is_in_no_region() {
        let c = Config::initial(3).unwrap();
        assert!(!in_t(&c));
        assert!(!in_c(&c));
        assert!(!in_rt(&c));
        assert!(!in_f(&c));
        assert!(!in_g(&c));
        assert!(!in_p(&c));
    }

    #[test]
    fn t_requires_a_trying_process() {
        let c = cfg(&[(Pc::F, L), (Pc::R, L), (Pc::R, L)]);
        assert!(in_t(&c));
        assert!(in_rt(&c));
        assert!(in_f(&c));
    }

    #[test]
    fn rt_excludes_critical_and_resource_holding_exits() {
        let critical = cfg(&[(Pc::W, L), (Pc::C, L), (Pc::R, L)]);
        assert!(in_t(&critical));
        assert!(!in_rt(&critical));
        let exiting = cfg(&[(Pc::W, L), (Pc::Ef, L), (Pc::R, L)]);
        assert!(!in_rt(&exiting));
        let exit_done = cfg(&[(Pc::W, L), (Pc::Er, L), (Pc::R, L)]);
        assert!(in_rt(&exit_done));
    }

    #[test]
    fn p_region_ignores_other_processes() {
        let c = cfg(&[(Pc::P, L), (Pc::C, L), (Pc::R, L)]);
        assert!(in_p(&c));
        assert!(in_c(&c));
    }

    #[test]
    fn committed_and_potential_control() {
        let c = cfg(&[(Pc::W, R), (Pc::S, L), (Pc::D, R)]);
        assert!(is_committed(&c, 0));
        assert!(is_committed(&c, 1));
        assert!(!is_committed(&c, 2), "D is not committed");
        assert!(potentially_controls(&c, 0, R));
        assert!(!potentially_controls(&c, 0, L));
        assert!(potentially_controls(&c, 2, R));
    }

    #[test]
    fn good_process_left_pointing_with_benign_right_neighbour() {
        // X₀ = W←, X₁ = F: process 0 is good (its second resource Res_0 is
        // not potentially controlled by process 1).
        let c = cfg(&[(Pc::W, L), (Pc::F, L), (Pc::R, L)]);
        assert!(is_good(&c, 0));
        assert!(in_g(&c));
        assert_eq!(good_processes(&c), vec![0]);
    }

    #[test]
    fn good_process_fails_when_neighbour_contends() {
        // X₀ = W←, X₁ = W←: process 1 potentially controls Res_0 (its own
        // left resource = process 0's right... careful: process 0 points
        // left, so its second resource is its *right* one, Res_0, which
        // process 1 potentially controls when pointing left).
        let c = cfg(&[(Pc::W, L), (Pc::W, L), (Pc::R, L)]);
        assert!(!is_good(&c, 0));
        // Process 1 points left; its second resource is Res_1; process 2 is
        // in R, so process 1 IS good.
        assert!(is_good(&c, 1));
        assert!(in_g(&c));
    }

    #[test]
    fn good_process_right_pointing_symmetric_case() {
        // X₁ = S→, X₀ = D←: neighbour to the left points away — good.
        let c = cfg(&[(Pc::D, L), (Pc::S, R), (Pc::R, L)]);
        assert!(is_good(&c, 1));
        // Flip neighbour to point right: now it contends for Res_0 which is
        // process 1's second resource — not good.
        let c2 = cfg(&[(Pc::D, R), (Pc::S, R), (Pc::R, L)]);
        assert!(!is_good(&c2, 1));
        assert!(!in_g(&c2));
    }

    #[test]
    fn g_requires_rt() {
        // A good-shaped pair next to a critical process is not in G.
        let c = cfg(&[(Pc::W, L), (Pc::F, L), (Pc::C, L)]);
        assert!(is_good(&c, 0));
        assert!(!in_g(&c));
    }

    #[test]
    fn zero_crash_mask_reduces_to_the_plain_calculus() {
        // Enumerate a structured family of configurations; with an empty
        // crash mask every `_under` predicate must agree with its plain
        // counterpart bit for bit.
        let pcs = [Pc::F, Pc::W, Pc::S, Pc::D, Pc::P, Pc::C, Pc::Er, Pc::R];
        for &a in &pcs {
            for &b in &pcs {
                for &c3 in &pcs {
                    for side in [L, R] {
                        let c = cfg(&[(a, side), (b, L), (c3, R)]);
                        assert_eq!(in_t(&c), in_t_under(&c, 0));
                        assert_eq!(in_c(&c), in_c_under(&c, 0));
                        assert_eq!(in_p(&c), in_p_under(&c, 0));
                        assert_eq!(in_rt(&c), in_rt_under(&c, 0));
                        assert_eq!(in_f(&c), in_f_under(&c, 0));
                        assert_eq!(in_g(&c), in_g_under(&c, 0), "{c:?}");
                        for i in 0..3 {
                            assert_eq!(is_good(&c, i), is_good_under(&c, i, 0));
                            for s in [L, R] {
                                assert_eq!(
                                    potentially_controls(&c, i, s),
                                    potentially_controls_under(&c, i, s, 0)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crashed_processes_cannot_witness_progress_regions() {
        // Only process 0 is trying; crash it and T empties.
        let c = cfg(&[(Pc::F, L), (Pc::R, L), (Pc::R, L)]);
        assert!(in_t_under(&c, 0));
        assert!(!in_t_under(&c, 0b001));
        assert!(!in_f_under(&c, 0b001));
        // Only process 1 is critical; crash it and C empties.
        let c = cfg(&[(Pc::W, L), (Pc::C, L), (Pc::R, L)]);
        assert!(in_c_under(&c, 0));
        assert!(!in_c_under(&c, 0b010));
    }

    #[test]
    fn crashed_waiter_stops_contending_but_crashed_holder_blocks_forever() {
        // X₀ = W←, X₁ = W←: process 1 contends for Res_0 → 0 not good.
        let c = cfg(&[(Pc::W, L), (Pc::W, L), (Pc::R, L)]);
        assert!(!is_good_under(&c, 0, 0));
        // Crash the waiting neighbour: it will never grab Res_0 → 0 good.
        assert!(is_good_under(&c, 0, 0b010));
        // But a crashed *holder* (S←) keeps the fork forever → 0 not good.
        let c = cfg(&[(Pc::W, L), (Pc::S, L), (Pc::R, L)]);
        assert!(!is_good_under(&c, 0, 0b010));
        assert!(!potentially_controls_under(&c, 0, L, 0b001), "crashed W");
        assert!(potentially_controls_under(&c, 1, L, 0b010), "crashed S");
    }

    #[test]
    fn crashing_the_only_good_process_destroys_g() {
        let c = cfg(&[(Pc::W, L), (Pc::F, L), (Pc::R, L)]);
        assert!(in_g_under(&c, 0));
        assert_eq!(good_processes_under(&c, 0), vec![0]);
        assert!(!is_good_under(&c, 0, 0b001), "good process must be live");
        assert!(!in_g_under(&c, 0b011), "no live good process remains");
    }

    #[test]
    fn all_waiting_same_direction_has_no_good_process() {
        // The fully symmetric contention pattern: everyone W←. Every
        // process's second resource is potentially controlled by its right
        // neighbour (also pointing left)? No: pointing left means
        // controlling one's LEFT resource. Process i's second resource is
        // its right one, Res_i, potentially controlled by process i+1 iff
        // i+1 points left — which it does. So nobody is good.
        let c = cfg(&[(Pc::W, L), (Pc::W, L), (Pc::W, L)]);
        assert!(!in_g(&c));
        assert!(good_processes(&c).is_empty());
    }
}
