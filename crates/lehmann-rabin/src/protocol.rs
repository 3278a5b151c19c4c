use pa_core::{collect_steps, Automaton, Step};

use crate::{Config, LrError, Pc, ProcState, Side};

/// An action of the Lehmann–Rabin automaton, labelled with the process that
/// performs it (Section 6.1's action table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LrAction {
    /// `try_i` — the user sends the process into its trying region
    /// (adversary-controlled, external).
    Try(u8),
    /// `flip_i` — the random choice of `uᵢ` (line 1 of Figure 1).
    Flip(u8),
    /// `wait_i` — test-and-take the first resource (line 2).
    Wait(u8),
    /// `second_i` — one-shot test of the second resource (line 3, falling
    /// through to line 4 on failure).
    Second(u8),
    /// `drop_i` — put the first resource back (line 4).
    Drop(u8),
    /// `crit_i` — enter the critical region (external).
    Crit(u8),
    /// `exit_i` — the user ends the critical section
    /// (adversary-controlled, external).
    Exit(u8),
    /// `dropf_i` — first exit drop; the payload records which side is
    /// *kept* (the paper leaves this choice to the adversary as two
    /// distinct steps).
    DropFirst(u8, Side),
    /// `drops_i` — second exit drop (line 8).
    DropSecond(u8),
    /// `rem_i` — return to the remainder region (external).
    Rem(u8),
}

impl LrAction {
    /// The process performing this action.
    pub fn process(self) -> usize {
        match self {
            LrAction::Try(i)
            | LrAction::Flip(i)
            | LrAction::Wait(i)
            | LrAction::Second(i)
            | LrAction::Drop(i)
            | LrAction::Crit(i)
            | LrAction::Exit(i)
            | LrAction::DropFirst(i, _)
            | LrAction::DropSecond(i)
            | LrAction::Rem(i) => i as usize,
        }
    }

    /// `true` for the user-controlled actions `try_i` and `exit_i`, which
    /// the `Unit-Time` schema does *not* oblige the adversary to schedule.
    pub fn is_user_controlled(self) -> bool {
        matches!(self, LrAction::Try(_) | LrAction::Exit(_))
    }

    /// `true` for the paper's external (visible) actions.
    pub fn is_external(self) -> bool {
        matches!(
            self,
            LrAction::Try(_) | LrAction::Crit(_) | LrAction::Exit(_) | LrAction::Rem(_)
        )
    }
}

/// Which user-controlled actions the environment may issue.
///
/// The arrows of the paper quantify over all adversaries, including the
/// user: `allow_try` lets the adversary move idle processes into the trying
/// region mid-analysis; `allow_exit` lets it end critical sections. Both
/// settings only *add* adversary behaviours, so enabling them strengthens a
/// verified claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserModel {
    /// Allow `try_i` from `R`.
    pub allow_try: bool,
    /// Allow `exit_i` from `C`.
    pub allow_exit: bool,
}

impl UserModel {
    /// The user model used for progress analysis: new `try`s may arrive at
    /// any time, but critical sections never end (sound for first-hitting
    /// objectives, whose targets are absorbing by definition).
    pub fn saturating() -> UserModel {
        UserModel {
            allow_try: true,
            allow_exit: false,
        }
    }

    /// The full user model: both `try` and `exit` available. Used when
    /// enumerating the complete reachable configuration space (e.g. for
    /// Lemma 6.1 and for arrow start sets that contain exit states).
    pub fn full() -> UserModel {
        UserModel {
            allow_try: true,
            allow_exit: true,
        }
    }
}

/// The Lehmann–Rabin protocol on a ring of `n` philosophers, as a
/// probabilistic automaton over [`Config`] with *free interleaving*: every
/// enabled step of every process is a nondeterministic choice.
///
/// This automaton is the direct transcription of Figure 1; the
/// `Unit-Time`-faithful timed semantics lives in [`crate::RoundMdp`], which
/// wraps these same per-process steps in round/obligation bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LrProtocol {
    n: usize,
    user: UserModel,
}

impl LrProtocol {
    /// Creates the protocol for a ring of `n` processes.
    ///
    /// # Errors
    ///
    /// Returns [`LrError::BadRingSize`] unless `2 ≤ n ≤ 16`.
    pub fn new(n: usize, user: UserModel) -> Result<LrProtocol, LrError> {
        Config::initial(n)?; // validates n
        Ok(LrProtocol { n, user })
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The user model in force.
    pub fn user(&self) -> UserModel {
        self.user
    }

    /// The steps of process `i` enabled in `config` (at most two: the exit
    /// drop has a nondeterministic variant pair). User-controlled actions
    /// are included only if the [`UserModel`] allows them. A collector
    /// over [`LrProtocol::for_each_step_of_process`].
    pub fn steps_of_process(&self, config: &Config, i: usize) -> Vec<Step<Config, LrAction>> {
        collect_steps(|f| self.for_each_step_of_process(config, i, |a, outcomes| f(&a, outcomes)))
    }

    /// Visits the steps of process `i` enabled in `config` — Figure 1, one
    /// line per program counter — without allocating: `f` receives each
    /// step's action and its outcomes (one point, or the two sides of the
    /// `flip` coin), in [`LrProtocol::steps_of_process`] order.
    pub fn for_each_step_of_process(
        &self,
        config: &Config,
        i: usize,
        mut f: impl FnMut(LrAction, &[(Config, f64)]),
    ) {
        let p = config.proc(i);
        let pi = i as u8;
        match p.pc {
            Pc::R => {
                if self.user.allow_try {
                    f(
                        LrAction::Try(pi),
                        &[(config.with_proc(i, ProcState::new(Pc::F, p.side)), 1.0)],
                    );
                }
            }
            Pc::F => {
                // Line 1: uᵢ ← random, a fair coin over the sides.
                let left = config.with_proc(i, ProcState::new(Pc::W, Side::Left));
                let right = config.with_proc(i, ProcState::new(Pc::W, Side::Right));
                f(LrAction::Flip(pi), &[(left, 0.5), (right, 0.5)]);
            }
            Pc::W => {
                // Line 2: if Res(i, uᵢ) free, take it and move to S; else
                // stay in W (the step still happens — a busy-wait probe).
                let r = config.res_index(i, p.side);
                let next = if config.res_taken(r) {
                    *config
                } else {
                    config
                        .with_res(r, true)
                        .with_proc(i, ProcState::new(Pc::S, p.side))
                };
                f(LrAction::Wait(pi), &[(next, 1.0)]);
            }
            Pc::S => {
                // Line 3: one-shot check of the second resource; on success
                // go to P (line 5), on failure fall to D (line 4).
                let r = config.res_index(i, p.side.opp());
                let next = if config.res_taken(r) {
                    config.with_proc(i, ProcState::new(Pc::D, p.side))
                } else {
                    config
                        .with_res(r, true)
                        .with_proc(i, ProcState::new(Pc::P, p.side))
                };
                f(LrAction::Second(pi), &[(next, 1.0)]);
            }
            Pc::D => {
                // Line 4: put down the first resource, go back to line 1.
                let r = config.res_index(i, p.side);
                let next = config
                    .with_res(r, false)
                    .with_proc(i, ProcState::new(Pc::F, p.side));
                f(LrAction::Drop(pi), &[(next, 1.0)]);
            }
            Pc::P => f(
                LrAction::Crit(pi),
                &[(config.with_proc(i, ProcState::new(Pc::C, p.side)), 1.0)],
            ),
            Pc::C => {
                if self.user.allow_exit {
                    f(
                        LrAction::Exit(pi),
                        &[(config.with_proc(i, ProcState::new(Pc::Ef, p.side)), 1.0)],
                    );
                }
            }
            Pc::Ef => {
                // Line 7: nondeterministic choice — keep one side, free the
                // other. Two distinct steps, resolved by the adversary.
                for keep in [Side::Right, Side::Left] {
                    let freed = config.res_index(i, keep.opp());
                    let next = config
                        .with_res(freed, false)
                        .with_proc(i, ProcState::new(Pc::Es, keep));
                    f(LrAction::DropFirst(pi, keep), &[(next, 1.0)]);
                }
            }
            Pc::Es => {
                // Line 8: free the remaining resource.
                let r = config.res_index(i, p.side);
                let next = config
                    .with_res(r, false)
                    .with_proc(i, ProcState::new(Pc::Er, p.side));
                f(LrAction::DropSecond(pi), &[(next, 1.0)]);
            }
            Pc::Er => f(
                LrAction::Rem(pi),
                &[(config.with_proc(i, ProcState::new(Pc::R, p.side)), 1.0)],
            ),
        }
    }

    /// The forks process `i`'s enabled steps in `config` read or write, as
    /// a mask over `Res_j` (bit `j`): `Res(i, uᵢ)` in `W`, `D` and `E_S`,
    /// `Res(i, opp uᵢ)` in `S`, both forks in `E_F`, and none elsewhere
    /// (`try`, `flip`, `crit`, `exit` and `rem` touch no fork). Two
    /// processes whose footprints are disjoint take steps that commute.
    pub fn footprint(config: &Config, i: usize) -> u16 {
        let p = config.proc(i);
        let fork = |side| 1u16 << config.res_index(i, side);
        match p.pc {
            Pc::W | Pc::D | Pc::Es => fork(p.side),
            Pc::S => fork(p.side.opp()),
            Pc::Ef => fork(Side::Left) | fork(Side::Right),
            Pc::R | Pc::F | Pc::P | Pc::C | Pc::Er => 0,
        }
    }
}

impl Automaton for LrProtocol {
    type State = Config;
    type Action = LrAction;

    fn start_states(&self) -> Vec<Config> {
        vec![Config::initial(self.n).expect("validated at construction")]
    }

    fn steps(&self, state: &Config) -> Vec<Step<Config, LrAction>> {
        collect_steps(|f| self.for_each_step(state, f))
    }

    fn for_each_step<F>(&self, state: &Config, mut f: F)
    where
        F: FnMut(&LrAction, &[(Config, f64)]),
    {
        for i in 0..self.n {
            self.for_each_step_of_process(state, i, |a, outcomes| f(&a, outcomes));
        }
    }

    fn is_external(&self, action: &LrAction) -> bool {
        action.is_external()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> LrProtocol {
        LrProtocol::new(3, UserModel::full()).unwrap()
    }

    fn advance(config: &Config, proto: &LrProtocol, i: usize, pick: usize) -> Config {
        let steps = proto.steps_of_process(config, i);
        let step = &steps[pick];
        assert!(
            step.target.is_point(),
            "use advance only on deterministic steps"
        );
        let next = *step.target.support().next().unwrap();
        next
    }

    #[test]
    fn try_moves_r_to_f() {
        let p = proto();
        let c0 = Config::initial(3).unwrap();
        let c1 = advance(&c0, &p, 0, 0);
        assert_eq!(c1.proc(0).pc, Pc::F);
    }

    #[test]
    fn try_is_suppressed_without_user() {
        let p = LrProtocol::new(
            3,
            UserModel {
                allow_try: false,
                allow_exit: false,
            },
        )
        .unwrap();
        assert!(p
            .steps_of_process(&Config::initial(3).unwrap(), 0)
            .is_empty());
    }

    #[test]
    fn flip_is_a_fair_coin_over_sides() {
        let p = proto();
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::F, Side::Left));
        let steps = p.steps_of_process(&c, 0);
        assert_eq!(steps.len(), 1);
        let dist = &steps[0].target;
        assert_eq!(dist.len(), 2);
        for (t, prob) in dist.iter() {
            assert_eq!(t.proc(0).pc, Pc::W);
            assert_eq!(prob, pa_prob::Prob::HALF);
        }
    }

    #[test]
    fn wait_takes_free_resource() {
        let p = proto();
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::W, Side::Right));
        let c1 = advance(&c, &p, 0, 0);
        assert_eq!(c1.proc(0).pc, Pc::S);
        assert!(c1.res_taken(0));
    }

    #[test]
    fn wait_busy_waits_on_taken_resource() {
        let p = proto();
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::W, Side::Right))
            .with_res(0, true);
        let c1 = advance(&c, &p, 0, 0);
        assert_eq!(c1, c, "wait on a taken resource is a self-loop");
    }

    #[test]
    fn second_succeeds_to_p_taking_resource() {
        let p = proto();
        // Process 0 in S→ holds Res_0, checks Res_2 (its left).
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::S, Side::Right))
            .with_res(0, true);
        let c1 = advance(&c, &p, 0, 0);
        assert_eq!(c1.proc(0).pc, Pc::P);
        assert!(c1.res_taken(2));
        assert!(c1.res_taken(0));
    }

    #[test]
    fn second_fails_to_d_keeping_first() {
        let p = proto();
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::S, Side::Right))
            .with_res(0, true)
            .with_res(2, true); // left resource contended
        let c1 = advance(&c, &p, 0, 0);
        assert_eq!(c1.proc(0).pc, Pc::D);
        assert_eq!(c1.proc(0).side, Side::Right);
        assert!(c1.res_taken(0), "first resource kept in D");
    }

    #[test]
    fn drop_releases_first_and_returns_to_f() {
        let p = proto();
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::D, Side::Right))
            .with_res(0, true);
        let c1 = advance(&c, &p, 0, 0);
        assert_eq!(c1.proc(0).pc, Pc::F);
        assert!(!c1.res_taken(0));
    }

    #[test]
    fn exit_path_releases_resources_one_by_one() {
        let p = proto();
        // Process 1 in C holds Res_0 and Res_1.
        let c = Config::initial(3)
            .unwrap()
            .with_proc(1, ProcState::new(Pc::C, Side::Left))
            .with_res(0, true)
            .with_res(1, true);
        let c1 = advance(&c, &p, 1, 0); // exit → EF
        assert_eq!(c1.proc(1).pc, Pc::Ef);
        // Two nondeterministic dropf variants.
        let steps = p.steps_of_process(&c1, 1);
        assert_eq!(steps.len(), 2);
        // Variant 0 keeps the right resource (Res_1), freeing Res_0.
        let keep_right = *steps[0].target.support().next().unwrap();
        assert_eq!(keep_right.proc(1), ProcState::new(Pc::Es, Side::Right));
        assert!(!keep_right.res_taken(0));
        assert!(keep_right.res_taken(1));
        // drops then frees Res_1; rem returns to R.
        let c3 = advance(&keep_right, &p, 1, 0);
        assert_eq!(c3.proc(1).pc, Pc::Er);
        assert!(!c3.res_taken(1));
        let c4 = advance(&c3, &p, 1, 0);
        assert_eq!(c4.proc(1).pc, Pc::R);
    }

    #[test]
    fn free_interleaving_collects_all_processes() {
        let p = proto();
        let mut c = Config::initial(3).unwrap();
        for i in 0..3 {
            c = c.with_proc(i, ProcState::new(Pc::F, Side::Left));
        }
        let steps = p.steps(&c);
        assert_eq!(steps.len(), 3);
        let procs: Vec<usize> = steps.iter().map(|s| s.action.process()).collect();
        assert_eq!(procs, vec![0, 1, 2]);
    }

    #[test]
    fn external_actions_follow_signature() {
        let p = proto();
        assert!(p.is_external(&LrAction::Try(0)));
        assert!(p.is_external(&LrAction::Crit(1)));
        assert!(p.is_external(&LrAction::Rem(2)));
        assert!(!p.is_external(&LrAction::Flip(0)));
        assert!(!p.is_external(&LrAction::Wait(0)));
    }

    #[test]
    fn user_controlled_actions_are_flagged() {
        assert!(LrAction::Try(0).is_user_controlled());
        assert!(LrAction::Exit(0).is_user_controlled());
        assert!(!LrAction::Crit(0).is_user_controlled());
    }
}
