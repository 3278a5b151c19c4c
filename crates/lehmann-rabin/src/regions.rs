//! The state-set classifiers of Section 6.2: `T`, `C`, `RT`, `F`, `G`, `P`
//! and the *good process* notion behind `G`.

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
fn pc_features(pc: Pc) -> u8 {
    let bit = |on: bool, feature: u8| if on { feature } else { 0 };
    bit(pc.in_trying(), TRYING)
        | bit(matches!(pc, Pc::Er | Pc::R), IDLE)
        | bit(pc == Pc::C, CRITICAL)
        | bit(pc == Pc::P, PRE_CRITICAL)
        | bit(pc == Pc::F, FLIPPING)
        | bit(matches!(pc, Pc::W | Pc::S), COMMITTED)
        | bit(matches!(pc, Pc::W | Pc::S | Pc::D), CONTROLLING)
}

/// The pc features a region atom reads: `T`, `C` and `P` one each; `RT`
/// whether some process is trying and whether each is in `{E_R, R} ∪ T`;
/// `F` those and `F` itself; `G` those and the committed and
/// potentially-controlling sets of the good-process test.
fn atom_features(atom: &str) -> Result<u8, LrError> {
    const RT: u8 = TRYING | IDLE;
    Ok(match atom {
        "T" => TRYING,
        "C" => CRITICAL,
        "P" => PRE_CRITICAL,
        "RT" => RT,
        "F" => RT | FLIPPING,
        "G" => RT | FLIPPING | COMMITTED | CONTROLLING,
        other => return Err(LrError::UnknownRegion(other.to_string())),
    })
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
        for atom in set.atoms() {
            read |= atom_features(atom)?;
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
