use std::fmt;

/// The program counter of a Lehmann–Rabin process, following the table in
/// Section 6.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pc {
    /// 0 — Remainder region (idle).
    R,
    /// 1 — Ready to Flip.
    F,
    /// 2 — Waiting for the first resource.
    W,
    /// 3 — Checking for the Second resource (holds the first).
    S,
    /// 4 — Dropping the first resource.
    D,
    /// 5 — Pre-critical region (holds both resources).
    P,
    /// 6 — Critical region (holds both resources).
    C,
    /// 7 — Exit: drop First resource (holds both).
    Ef,
    /// 8 — Exit: drop Second resource (holds one).
    Es,
    /// 9 — Exit: move to Remainder region (holds none).
    Er,
}

impl Pc {
    /// All program-counter values, in the paper's numbering.
    pub const ALL: [Pc; 10] = [
        Pc::R,
        Pc::F,
        Pc::W,
        Pc::S,
        Pc::D,
        Pc::P,
        Pc::C,
        Pc::Ef,
        Pc::Es,
        Pc::Er,
    ];

    /// `true` for the trying region `T = {F, W, S, D, P}`.
    pub const fn in_trying(self) -> bool {
        matches!(self, Pc::F | Pc::W | Pc::S | Pc::D | Pc::P)
    }

    /// `true` for the exit region `E = {E_F, E_S, E_R}`.
    pub fn in_exit(self) -> bool {
        matches!(self, Pc::Ef | Pc::Es | Pc::Er)
    }

    /// `true` when the process is *ready* in the sense of the `Unit-Time`
    /// schema: it enables an action other than `try` and `exit` (which are
    /// user/adversary controlled). Ready processes must be scheduled within
    /// one time unit.
    pub fn is_ready(self) -> bool {
        !matches!(self, Pc::R | Pc::C)
    }

    /// `true` when the private variable `uᵢ` is semantically relevant for
    /// this program counter: it selects the first resource in `{W, S, D}`
    /// and the still-held resource in `E_S`. Everywhere else the paper's
    /// `uᵢ` is dead and we canonicalize it to reduce the state space.
    pub fn side_matters(self) -> bool {
        matches!(self, Pc::W | Pc::S | Pc::D | Pc::Es)
    }

    /// `true` when a process with this pc and side `u` holds the resource
    /// on side `u` (its "first" resource).
    pub fn holds_first(self) -> bool {
        matches!(self, Pc::S | Pc::D | Pc::Es)
    }

    /// `true` when the process holds both adjacent resources.
    pub fn holds_both(self) -> bool {
        matches!(self, Pc::P | Pc::C | Pc::Ef)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pc::R => "R",
            Pc::F => "F",
            Pc::W => "W",
            Pc::S => "S",
            Pc::D => "D",
            Pc::P => "P",
            Pc::C => "C",
            Pc::Ef => "EF",
            Pc::Es => "ES",
            Pc::Er => "ER",
        };
        f.write_str(s)
    }
}

/// The value of the private variable `uᵢ`: which adjacent resource the
/// process pursues (or holds) first. `Left` is clockwise in the paper's
/// ring orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The resource between process `i-1` and process `i` (`Res_{i-1}`).
    Left,
    /// The resource between process `i` and process `i+1` (`Res_i`).
    Right,
}

impl Side {
    /// The paper's `opp` operator.
    pub fn opp(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "←",
            Side::Right => "→",
        })
    }
}

/// The local state `Xᵢ = (pcᵢ, uᵢ)` of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcState {
    /// The program counter.
    pub pc: Pc,
    /// The side variable `uᵢ` (canonicalized to `Left` when irrelevant).
    pub side: Side,
}

impl ProcState {
    /// Creates a local state, canonicalizing the side when it is dead.
    pub fn new(pc: Pc, side: Side) -> ProcState {
        ProcState {
            pc,
            side: if pc.side_matters() { side } else { Side::Left },
        }
    }

    /// The idle state `(R, ·)`.
    pub fn idle() -> ProcState {
        ProcState::new(Pc::R, Side::Left)
    }

    /// Shorthand membership test against the paper's arrow-annotated sets,
    /// e.g. `W←` is `matches(Pc::W, Some(Side::Left))`; `F` (any side) is
    /// `matches(Pc::F, None)`.
    pub fn matches(self, pc: Pc, side: Option<Side>) -> bool {
        self.pc == pc && side.is_none_or(|s| self.side == s)
    }
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pc.side_matters() {
            write!(f, "{}{}", self.pc, self.side)
        } else {
            write!(f, "{}", self.pc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_predicates_partition_sensibly() {
        assert!(Pc::F.in_trying());
        assert!(Pc::P.in_trying());
        assert!(!Pc::C.in_trying());
        assert!(Pc::Ef.in_exit());
        assert!(!Pc::R.in_exit());
    }

    #[test]
    fn readiness_excludes_user_controlled_states() {
        assert!(!Pc::R.is_ready());
        assert!(!Pc::C.is_ready());
        for pc in [Pc::F, Pc::W, Pc::S, Pc::D, Pc::P, Pc::Ef, Pc::Es, Pc::Er] {
            assert!(pc.is_ready(), "{pc} should be ready");
        }
    }

    #[test]
    fn resource_holding_matches_lemma_6_1_table() {
        // Holders of the first resource on their side.
        for pc in [Pc::S, Pc::D, Pc::Es] {
            assert!(pc.holds_first());
            assert!(!pc.holds_both());
        }
        for pc in [Pc::P, Pc::C, Pc::Ef] {
            assert!(pc.holds_both());
        }
        for pc in [Pc::R, Pc::F, Pc::W, Pc::Er] {
            assert!(!pc.holds_first());
            assert!(!pc.holds_both());
        }
    }

    #[test]
    fn opp_is_involutive() {
        assert_eq!(Side::Left.opp(), Side::Right);
        assert_eq!(Side::Right.opp().opp(), Side::Right);
    }

    #[test]
    fn proc_state_canonicalizes_dead_sides() {
        let a = ProcState::new(Pc::F, Side::Right);
        let b = ProcState::new(Pc::F, Side::Left);
        assert_eq!(a, b);
        let c = ProcState::new(Pc::W, Side::Right);
        let d = ProcState::new(Pc::W, Side::Left);
        assert_ne!(c, d);
    }

    #[test]
    fn matches_checks_pc_and_optionally_side() {
        let w_left = ProcState::new(Pc::W, Side::Left);
        assert!(w_left.matches(Pc::W, None));
        assert!(w_left.matches(Pc::W, Some(Side::Left)));
        assert!(!w_left.matches(Pc::W, Some(Side::Right)));
        assert!(!w_left.matches(Pc::S, None));
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(ProcState::new(Pc::W, Side::Left).to_string(), "W←");
        assert_eq!(ProcState::new(Pc::S, Side::Right).to_string(), "S→");
        assert_eq!(ProcState::new(Pc::F, Side::Right).to_string(), "F");
        assert_eq!(ProcState::new(Pc::Es, Side::Right).to_string(), "ES→");
    }
}
