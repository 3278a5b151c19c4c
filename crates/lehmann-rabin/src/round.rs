//! The round-based timed semantics realizing the paper's `Unit-Time`
//! adversary schema (Section 6.2) as a cost-labelled MDP.
//!
//! `Unit-Time` requires that (1) time diverges and (2) every *ready*
//! process takes a step within one time unit of becoming ready. We
//! discretize: round `k` covers the time interval `(k−1, k]`. At the start
//! of a round, every ready process becomes *obliged*; the adversary
//! interleaves process steps in any order, each process taking between 1
//! (if obliged) and `burst` steps, and may close the round only once every
//! obligation is discharged. Closing the round is the only transition with
//! time cost 1 — so "a state of `U'` is reached within time `t`"
//! (Definition 3.1) becomes "reached with accumulated cost ≤ t−1", i.e.
//! during the first `t` rounds.
//!
//! Every adversary of this round model maps to a `Unit-Time` adversary (lay
//! its rounds out over consecutive unit intervals), so the *minimal*
//! reachability probability computed here upper-bounds the `Unit-Time`
//! infimum, and checking `measured ≥ p` is a sound necessary condition for
//! the paper's claims. Raising `burst` enlarges the adversary class toward
//! the unbounded rushing `Unit-Time` allows (ablation experiment E12).
//!
//! Execution closure (Definition 3.3, the hypothesis of Theorem 3.4) holds
//! structurally: the scheduler-relevant history (obligations and budgets)
//! is part of the state, so truncating a prefix of an execution leaves the
//! adversary's continuation behaviour expressible by another round
//! adversary — the formal counterpart of the paper's informal argument for
//! `Unit-Time`.

use std::sync::{Arc, OnceLock};

use pa_core::{collect_steps, map_outcomes, Automaton, Step};
use pa_mdp::{least_key, reflect_lanes, rotate_lanes, MdpError};

use crate::{Config, LrAction, LrError, LrProtocol, Quotient, UserModel};

/// A state of the round MDP: the protocol configuration plus the
/// scheduler's intra-round bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoundState {
    /// The protocol configuration.
    pub config: Config,
    /// Bitmask of processes that were ready at the round start and have
    /// not yet taken a step this round.
    pub obliged: u32,
    /// Remaining steps each process may still take this round (4 bits per
    /// process, so `burst ≤ 15`).
    pub budget: u64,
}

impl RoundState {
    /// Remaining budget of process `i`.
    pub fn budget_of(&self, i: usize) -> u8 {
        ((self.budget >> (4 * i)) & 0xF) as u8
    }

    /// The round state relabelled by ring rotation `k`: the configuration
    /// rotates (see [`Config::rotated`]) and the per-process obligation
    /// bits and budget nibbles move with their processes. The round
    /// scheduler treats all positions identically, so rotation commutes
    /// with [`RoundMdp`]'s step relation — the hypothesis behind quotient
    /// exploration with [`pa_mdp::RingRotation`].
    pub fn rotated(&self, k: usize) -> RoundState {
        let n = self.config.n();
        let k = k % n;
        RoundState {
            config: self.config.rotated(k),
            obliged: rotate_lanes(u128::from(self.obliged), 1, n, k) as u32,
            budget: rotate_lanes(u128::from(self.budget), 4, n, k) as u64,
        }
    }

    /// The round state's mirror image: the configuration reflects (see
    /// [`Config::reflected`]) and the obligation bits and budget nibbles
    /// move from process `i` to process `n − 1 − i`. The round scheduler
    /// treats both directions around the ring alike, so reflection
    /// commutes with [`RoundMdp`]'s step relation, which is the hypothesis
    /// behind quotient exploration with [`pa_mdp::RingDihedral`].
    pub fn reflected(&self) -> RoundState {
        let n = self.config.n();
        RoundState {
            config: self.config.reflected(),
            obliged: reflect_lanes(u128::from(self.obliged), 1, n) as u32,
            budget: reflect_lanes(u128::from(self.budget), 4, n) as u64,
        }
    }

    /// Integer keys of the rotations, ordered like the derived `Ord` on
    /// `self.rotated(k)` (`k = 0` is `self`): the processes as 5-bit
    /// `pc·2 + side` lanes with process 0 most significant, the rotated
    /// resource mask, the rotated obligation mask, then the rotated budget
    /// word. Wrappers extend the tuple with their own rotated words.
    pub fn rotation_keys(&self) -> impl Fn(usize) -> ((u128, u128), u128, u128) {
        let n = self.config.n();
        let config = self.config.rotation_keys();
        let (obliged, budget) = (u128::from(self.obliged), u128::from(self.budget));
        move |k| {
            (
                config(k),
                rotate_lanes(obliged, 1, n, k),
                rotate_lanes(budget, 4, n, k),
            )
        }
    }

    /// The state after process `i` takes a step to `config`: its
    /// obligation is discharged and one unit of its budget spent.
    pub(crate) fn with_step_taken(&self, i: usize, config: Config) -> RoundState {
        let b = self.budget_of(i) - 1;
        let mask = !(0xFu64 << (4 * i));
        RoundState {
            config,
            obliged: self.obliged & !(1 << i),
            budget: (self.budget & mask) | (u64::from(b) << (4 * i)),
        }
    }
}

impl pa_mdp::RingState for RoundState {
    fn rotated(&self, k: usize) -> RoundState {
        RoundState::rotated(self, k)
    }

    fn least_rotation(&self, n: usize) -> usize {
        self.config
            .unique_least_rotation()
            .unwrap_or_else(|| least_key(n, self.rotation_keys()))
    }
}

impl pa_mdp::MirrorRingState for RoundState {
    fn reflected(&self) -> RoundState {
        RoundState::reflected(self)
    }

    /// The configuration leads the derived `Ord`, so its lane words decide
    /// ([`Config::unique_least_image`]).
    fn unique_least_image(&self, _n: usize) -> Option<(bool, usize)> {
        self.config.unique_least_image()
    }
}

impl std::fmt::Display for RoundState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} obliged={:b}", self.config, self.obliged)
    }
}

/// An action of the round MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundAction {
    /// Schedule one protocol step (time cost 0).
    Schedule(LrAction),
    /// Close the round: one unit of time passes and all ready processes
    /// become obliged (cost 1). Enabled only when no obligation is open.
    EndRound,
}

/// The time cost of a round-MDP action: 1 for [`RoundAction::EndRound`],
/// 0 otherwise. Pass to [`pa_mdp::Explore`] as the cost function.
pub fn round_cost(_state: &RoundState, action: &RoundAction) -> u32 {
    match action {
        RoundAction::Schedule(_) => 0,
        RoundAction::EndRound => 1,
    }
}

/// Converts a Definition 3.1 time bound `t ≥ 1` into the cost budget of the
/// round model: a hit within time `t` is a hit during rounds `1..=t`, i.e.
/// with at most `t − 1` round closures before it.
pub fn time_to_budget(t: f64) -> u32 {
    (t.ceil().max(1.0) as u32) - 1
}

/// Configuration of the round model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    /// Ring size.
    pub n: usize,
    /// Maximal steps per process per round (`≥ 1`; 1 = synchronous
    /// permutation semantics, larger values let the adversary rush some
    /// processes).
    pub burst: u8,
    /// Which user actions the adversary may issue.
    pub user: UserModel,
}

impl RoundConfig {
    /// The default configuration for a ring of `n`: `burst = 1` and the
    /// full user model.
    ///
    /// # Errors
    ///
    /// Returns [`LrError::BadRingSize`] for unsupported `n`.
    pub fn new(n: usize) -> Result<RoundConfig, LrError> {
        Config::initial(n)?;
        Ok(RoundConfig {
            n,
            burst: 1,
            user: UserModel::full(),
        })
    }

    /// Sets the burst cap.
    ///
    /// # Errors
    ///
    /// Returns [`LrError::ZeroBurst`] for `burst = 0` and
    /// [`LrError::BurstTooLarge`] if it exceeds the 4-bit budget encoding.
    pub fn with_burst(mut self, burst: u8) -> Result<RoundConfig, LrError> {
        if burst == 0 {
            return Err(LrError::ZeroBurst);
        }
        if burst > 15 {
            return Err(LrError::BurstTooLarge { burst });
        }
        self.burst = burst;
        Ok(self)
    }

    /// Sets the user model.
    pub fn with_user(mut self, user: UserModel) -> RoundConfig {
        self.user = user;
        self
    }
}

type AbsorbPred = Arc<dyn Fn(&Config) -> bool + Send + Sync>;

/// The round-scheduler MDP over the Lehmann–Rabin protocol.
///
/// Implements [`pa_core::Automaton`] with [`RoundState`] states; explore it
/// with [`pa_mdp::Explore`] using [`round_cost`] and analyse with the
/// `pa-mdp` algorithms. [`crate::check_arrow`] wires this together for the
/// paper's arrow claims.
///
/// # The reachable-configuration memo
///
/// Every arrow analysis of the round model quantifies over the same set,
/// the reachable configurations `rstates(M)` of the ring (one
/// representative per orbit under a quotient). The first analysis on a
/// value that needs them under a [`Quotient`] enumerates them
/// ([`crate::reachable_configs_in`]) and keeps them on the value; every
/// later analysis under that quotient reads them back. So checking the
/// six paper claims on one model enumerates once, not six times.
///
/// * The enumeration uses the full user model and the all-idle start
///   whatever this value's configuration says, so the memo depends on the
///   ring size alone: [`RoundMdp::with_starts`] and
///   [`RoundMdp::with_absorb`] keep it.
/// * A clone of a value whose memo is filled shares the configurations; a
///   clone taken before the first enumeration fills its own.
/// * A state limit below the memoised count fails with the
///   [`MdpError::StateLimitExceeded`] a fresh enumeration gives; a failed
///   enumeration is not memoised.
#[derive(Clone)]
pub struct RoundMdp {
    cfg: RoundConfig,
    protocol: LrProtocol,
    starts: Vec<Config>,
    absorb: Option<AbsorbPred>,
    /// The reachable configurations, one slot per [`Quotient`] (indexed
    /// by its discriminant), each filled on first use.
    reachable: [OnceLock<Arc<[Config]>>; 3],
}

impl std::fmt::Debug for RoundMdp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundMdp")
            .field("cfg", &self.cfg)
            .field("starts", &self.starts.len())
            .field("absorbing", &self.absorb.is_some())
            .finish()
    }
}

impl RoundMdp {
    /// Creates the round model starting from the all-idle configuration.
    pub fn new(cfg: RoundConfig) -> RoundMdp {
        let protocol =
            LrProtocol::new(cfg.n, cfg.user).expect("RoundConfig validated the ring size");
        let starts = vec![Config::initial(cfg.n).expect("validated")];
        RoundMdp {
            cfg,
            protocol,
            starts,
            absorb: None,
            reachable: Default::default(),
        }
    }

    /// Replaces the start configurations (each is wrapped as a fresh round
    /// start: all ready processes obliged, budgets full).
    pub fn with_starts(mut self, starts: Vec<Config>) -> RoundMdp {
        self.starts = starts;
        self
    }

    /// Makes states satisfying `pred` absorbing. Sound for first-hitting
    /// analyses whose target contains `pred` (a target state's value is
    /// fixed regardless of outgoing transitions), and prunes the explored
    /// space.
    pub fn with_absorb(
        mut self,
        pred: impl Fn(&Config) -> bool + Send + Sync + 'static,
    ) -> RoundMdp {
        self.absorb = Some(Arc::new(pred));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &RoundConfig {
        &self.cfg
    }

    /// The underlying per-process protocol semantics.
    pub fn protocol(&self) -> &LrProtocol {
        &self.protocol
    }

    /// The reachable configurations under `quotient`, from the memo (see
    /// the [type docs](RoundMdp)) or enumerated into it.
    ///
    /// # Errors
    ///
    /// [`MdpError::StateLimitExceeded`] (wrapped) when there are more
    /// than `limit`, as a fresh enumeration reports it.
    pub(crate) fn reachable(
        &self,
        limit: usize,
        quotient: Quotient,
    ) -> Result<Arc<[Config]>, LrError> {
        let slot = &self.reachable[quotient as usize];
        let configs = match slot.get() {
            Some(configs) => Arc::clone(configs),
            None => {
                let configs = crate::reachable_configs_in(self.cfg.n, limit, quotient)?;
                // An exact-length copy: the enumeration's buffer has slack.
                Arc::clone(slot.get_or_init(|| configs.into()))
            }
        };
        if configs.len() > limit {
            return Err(MdpError::StateLimitExceeded { limit }.into());
        }
        Ok(configs)
    }

    /// Whether `config` is absorbing ([`RoundMdp::with_absorb`]).
    pub(crate) fn absorbs(&self, config: &Config) -> bool {
        self.absorb.as_ref().is_some_and(|pred| pred(config))
    }

    /// Every step of a state that is not absorbing: one `Schedule` step
    /// per enabled protocol step of every process with budget left
    /// (outcomes mapped on the stack by [`pa_core::map_outcomes`]), then
    /// `EndRound` once no obligation is open.
    pub(crate) fn expand<F>(&self, state: &RoundState, mut f: F)
    where
        F: FnMut(&RoundAction, &[(RoundState, f64)]),
    {
        let mut schedule_steps = 0u64;
        for i in 0..self.cfg.n {
            if state.budget_of(i) == 0 {
                continue;
            }
            self.protocol
                .for_each_step_of_process(&state.config, i, |action, outcomes| {
                    schedule_steps += 1;
                    map_outcomes(
                        outcomes,
                        |cfg| state.with_step_taken(i, *cfg),
                        |targets| f(&RoundAction::Schedule(action), targets),
                    );
                });
        }
        let mut round_closes = 0u64;
        if state.obliged == 0 {
            f(&RoundAction::EndRound, &[(self.fresh(state.config), 1.0)]);
            round_closes = 1;
        }
        if pa_telemetry::enabled() {
            pa_telemetry::counter("lr.round.expansions").inc();
            pa_telemetry::counter("lr.round.schedule_steps").add(schedule_steps);
            pa_telemetry::counter("lr.round.round_closes").add(round_closes);
        }
    }

    /// Wraps a configuration as a fresh round start.
    pub fn fresh(&self, config: Config) -> RoundState {
        let obliged = config.ready_mask();
        let mut budget = 0u64;
        for i in 0..self.cfg.n {
            budget |= u64::from(self.cfg.burst) << (4 * i);
        }
        RoundState {
            config,
            obliged,
            budget,
        }
    }
}

impl Automaton for RoundMdp {
    type State = RoundState;
    type Action = RoundAction;

    fn start_states(&self) -> Vec<RoundState> {
        self.starts.iter().cloned().map(|c| self.fresh(c)).collect()
    }

    fn steps(&self, state: &RoundState) -> Vec<Step<RoundState, RoundAction>> {
        collect_steps(|f| self.for_each_step(state, f))
    }

    /// The round scheduler's choices: nothing in an absorbing state;
    /// otherwise one `Schedule` step per enabled protocol step of every
    /// process with budget left, then `EndRound` once no obligation is
    /// open.
    fn for_each_step<F>(&self, state: &RoundState, f: F)
    where
        F: FnMut(&RoundAction, &[(RoundState, f64)]),
    {
        if !self.absorbs(&state.config) {
            self.expand(state, f);
        }
    }

    fn is_external(&self, action: &RoundAction) -> bool {
        match action {
            RoundAction::Schedule(a) => a.is_external(),
            RoundAction::EndRound => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pc, ProcState, Side};

    fn mdp3() -> RoundMdp {
        RoundMdp::new(RoundConfig::new(3).unwrap())
    }

    fn trying_config() -> Config {
        let mut c = Config::initial(3).unwrap();
        for i in 0..3 {
            c = c.with_proc(i, ProcState::new(Pc::F, Side::Left));
        }
        c
    }

    #[test]
    fn fresh_obliges_exactly_ready_processes() {
        let m = mdp3();
        let rs = m.fresh(trying_config());
        assert_eq!(rs.obliged, 0b111);
        for i in 0..3 {
            assert_eq!(rs.budget_of(i), 1);
        }
        let idle = m.fresh(Config::initial(3).unwrap());
        assert_eq!(idle.obliged, 0);
    }

    #[test]
    fn end_round_requires_all_obligations_discharged() {
        let m = mdp3();
        let rs = m.fresh(trying_config());
        let actions: Vec<_> = m.steps(&rs).iter().map(|s| s.action).collect();
        assert!(!actions.contains(&RoundAction::EndRound));
        // All three flips are schedulable.
        assert_eq!(actions.len(), 3);
    }

    #[test]
    fn scheduling_discharges_obligation_and_budget() {
        let m = mdp3();
        let rs = m.fresh(trying_config());
        let step = &m.steps(&rs)[0]; // flip of process 0
        let next = step.target.support().next().unwrap();
        assert_eq!(next.obliged, 0b110);
        assert_eq!(next.budget_of(0), 0);
        assert_eq!(next.budget_of(1), 1);
    }

    #[test]
    fn end_round_appears_after_all_steps_and_renews_budgets() {
        let m = mdp3();
        let mut rs = m.fresh(trying_config());
        // Schedule each process once (taking the first outcome each time).
        for _ in 0..3 {
            let steps = m.steps(&rs);
            let sched = steps
                .iter()
                .find(|s| matches!(s.action, RoundAction::Schedule(_)))
                .expect("schedulable step");
            rs = sched.target.support().next().unwrap().clone();
        }
        assert_eq!(rs.obliged, 0);
        let steps = m.steps(&rs);
        let end = steps
            .iter()
            .find(|s| s.action == RoundAction::EndRound)
            .expect("end-of-round available");
        let fresh = end.target.support().next().unwrap();
        assert_eq!(fresh.obliged, fresh.config.ready_mask());
        for i in 0..3 {
            assert_eq!(fresh.budget_of(i), 1);
        }
    }

    #[test]
    fn burst_two_allows_two_steps_per_round() {
        let cfg = RoundConfig::new(3).unwrap().with_burst(2).unwrap();
        let m = RoundMdp::new(cfg);
        let rs = m.fresh(trying_config());
        assert_eq!(rs.budget_of(0), 2);
        // Process 0 flips...
        let flip = &m.steps(&rs)[0];
        let next = flip.target.support().next().unwrap().clone();
        // ...and can immediately take its wait step in the same round.
        let again = m
            .steps(&next)
            .iter()
            .any(|s| matches!(s.action, RoundAction::Schedule(a) if a.process() == 0));
        assert!(again);
    }

    #[test]
    fn zero_burst_is_rejected() {
        assert!(matches!(
            RoundConfig::new(3).unwrap().with_burst(0),
            Err(LrError::ZeroBurst)
        ));
    }

    #[test]
    fn burst_above_the_budget_nibble_is_rejected_as_such() {
        assert!(RoundConfig::new(3).unwrap().with_burst(15).is_ok());
        let err = RoundConfig::new(3).unwrap().with_burst(16).unwrap_err();
        assert_eq!(err, LrError::BurstTooLarge { burst: 16 });
        let msg = err.to_string();
        assert!(
            msg.contains("burst cap 16") && msg.contains("4-bit"),
            "{msg}"
        );
        assert!(!msg.contains("ring size"), "{msg}");
    }

    #[test]
    fn absorbing_states_are_terminal() {
        let m = mdp3().with_absorb(crate::regions::in_c);
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::C, Side::Left))
            .with_res(0, true)
            .with_res(2, true);
        let rs = m.fresh(c);
        assert!(m.steps(&rs).is_empty());
    }

    #[test]
    fn user_model_controls_try_availability() {
        let cfg = RoundConfig::new(3).unwrap().with_user(UserModel {
            allow_try: false,
            allow_exit: false,
        });
        let m = RoundMdp::new(cfg);
        let rs = m.fresh(Config::initial(3).unwrap());
        // Nobody ready, nothing schedulable: only EndRound self-loops.
        let steps = m.steps(&rs);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].action, RoundAction::EndRound);
    }

    #[test]
    fn round_cost_charges_only_round_ends() {
        let m = mdp3();
        let rs = m.fresh(trying_config());
        assert_eq!(round_cost(&rs, &RoundAction::EndRound), 1);
        assert_eq!(
            round_cost(&rs, &RoundAction::Schedule(LrAction::Flip(0))),
            0
        );
    }

    #[test]
    fn time_to_budget_shifts_by_one() {
        assert_eq!(time_to_budget(1.0), 0);
        assert_eq!(time_to_budget(2.0), 1);
        assert_eq!(time_to_budget(13.0), 12);
        assert_eq!(time_to_budget(0.0), 0, "degenerate bound clamps");
    }

    #[test]
    fn time_divergence_holds_without_ready_processes() {
        // The all-idle state with no user actions loops through EndRound:
        // time still diverges, as Unit-Time requires.
        let cfg = RoundConfig::new(3).unwrap().with_user(UserModel {
            allow_try: false,
            allow_exit: false,
        });
        let m = RoundMdp::new(cfg);
        let rs = m.fresh(Config::initial(3).unwrap());
        let steps = m.steps(&rs);
        let next = steps[0].target.support().next().unwrap();
        assert_eq!(*next, rs, "idle round end is a self-loop");
    }
}
