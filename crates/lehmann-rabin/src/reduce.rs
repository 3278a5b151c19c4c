//! Partial-order reduction of the intra-round interleavings for the
//! bounded arrow checks ([`Reduced`]).

use pa_core::{Automaton, SetExpr, Step};

use crate::regions::Visibility;
use crate::{Config, LrError, LrProtocol, Pc, RoundAction, RoundAutomaton, RoundMdp, RoundState};

/// The round model with the intra-round interleavings reduced for
/// bounded reachability of one target.
///
/// Inside a round the adversary may order the ready processes' steps any
/// way it likes, and most orders commute: two steps on disjoint forks
/// reach the same state either way. `Reduced` keeps one representative
/// order (the ample-set method for MDPs: Baier, Größer & Ciesinski, and
/// D'Argenio & Niebert, QEST 2004). At burst 1, in a state outside the
/// target, it keeps only the step of the lowest process `i` that
///
/// * is obliged, so `EndRound` cannot fire before it;
/// * is in `W`, `S`, `D`, `P`, `E_S` or `E_R`, so its step is one Dirac
///   step (the coin `F` and the two-way drop `E_F` are never kept alone);
/// * has a fork footprint ([`LrProtocol::footprint`]) that no other
///   process with budget left touches, so every step that can precede it
///   commutes with it; and
/// * makes a pc transition the static table ([`Visibility`]) marks
///   invisible for every atom of the target.
///
/// When no process passes, every step stays. At burst > 1 a process may
/// take several steps a round, so every step stays too. DESIGN §13 argues
/// why the reduced model, and its quotient, keep every bounded
/// reachability value of the target, and of any set of the same atoms.
/// Make that target absorbing ([`RoundAutomaton::absorbing`]), as the
/// arrow checks do.
#[derive(Debug, Clone)]
pub struct Reduced {
    mdp: RoundMdp,
    visible: Visibility,
}

impl Reduced {
    /// Reduces `mdp` for questions about reaching `target`.
    ///
    /// # Errors
    ///
    /// [`LrError::UnknownRegion`] for an unknown atom of `target`.
    pub fn new(mdp: RoundMdp, target: &SetExpr) -> Result<Reduced, LrError> {
        Ok(Reduced {
            mdp,
            visible: Visibility::of(target)?,
        })
    }

    /// The unreduced round model.
    pub fn inner(&self) -> &RoundMdp {
        &self.mdp
    }

    /// The one step kept in `state`, or `None` when every step stays.
    fn ample(&self, state: &RoundState) -> Option<(RoundAction, RoundState)> {
        let config = &state.config;
        let n = config.n();
        // Forks touched by at least one, and by at least two, of the
        // processes that can still move this round.
        let (mut once, mut twice) = (0u16, 0u16);
        for j in 0..n {
            if state.budget_of(j) > 0 {
                let forks = LrProtocol::footprint(config, j);
                twice |= once & forks;
                once |= forks;
            }
        }
        (0..n).find_map(|i| {
            let pc = config.proc(i).pc;
            let dirac = matches!(pc, Pc::W | Pc::S | Pc::D | Pc::P | Pc::Es | Pc::Er);
            if state.obliged >> i & 1 == 0
                || !dirac
                || LrProtocol::footprint(config, i) & twice != 0
            {
                return None;
            }
            let mut kept = None;
            self.mdp
                .protocol()
                .for_each_step_of_process(config, i, |action, outcomes| {
                    if let [(next, _)] = outcomes {
                        if !self.visible.may_change(pc, next.proc(i).pc) {
                            kept = Some((
                                RoundAction::Schedule(action),
                                state.with_step_taken(i, *next),
                            ));
                        }
                    }
                });
            kept
        })
    }
}

impl Automaton for Reduced {
    type State = RoundState;
    type Action = RoundAction;

    fn start_states(&self) -> Vec<RoundState> {
        self.mdp.start_states()
    }

    fn steps(&self, state: &RoundState) -> Vec<Step<RoundState, RoundAction>> {
        pa_core::collect_steps(|f| self.for_each_step(state, f))
    }

    /// Nothing in an absorbing state; the one kept step when the rule
    /// applies; otherwise every step of the round model.
    fn for_each_step<F>(&self, state: &RoundState, mut f: F)
    where
        F: FnMut(&RoundAction, &[(RoundState, f64)]),
    {
        if self.mdp.absorbs(&state.config) {
            return;
        }
        let kept = if self.mdp.config().burst == 1 {
            self.ample(state)
        } else {
            None
        };
        let Some((action, next)) = kept else {
            return self.mdp.expand(state, f);
        };
        f(&action, &[(next, 1.0)]);
        if pa_telemetry::enabled() {
            // Every schedulable step; `EndRound` waits for the kept one.
            let mut steps = 0u64;
            for j in (0..state.config.n()).filter(|&j| state.budget_of(j) > 0) {
                self.mdp
                    .protocol()
                    .for_each_step_of_process(&state.config, j, |_, _| steps += 1);
            }
            pa_telemetry::counter("lr.round.expansions").inc();
            pa_telemetry::counter("lr.round.schedule_steps").inc();
            pa_telemetry::counter("lr.reduce.reduced_expansions").inc();
            pa_telemetry::counter("lr.reduce.pruned_steps").add(steps - 1);
        }
    }

    fn is_external(&self, action: &RoundAction) -> bool {
        self.mdp.is_external(action)
    }
}

impl RoundAutomaton for Reduced {
    fn ring_size(&self) -> usize {
        self.mdp.ring_size()
    }
    fn start_crash_mask(&self) -> u32 {
        self.mdp.start_crash_mask()
    }
    fn step_cost(state: &RoundState, action: &RoundAction) -> u32 {
        RoundMdp::step_cost(state, action)
    }
    fn starting_from(self, starts: Vec<Config>) -> Reduced {
        Reduced {
            mdp: self.mdp.starting_from(starts),
            ..self
        }
    }
    fn absorbing(self, region: impl Fn(&Config, u32) -> bool + Send + Sync + 'static) -> Reduced {
        Reduced {
            mdp: self.mdp.absorbing(region),
            ..self
        }
    }
}
