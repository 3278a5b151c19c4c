//! The fault-wrapped round model: [`FaultyRoundMdp`] lowers a
//! [`FaultPlan`] over the Lehmann–Rabin round semantics
//! ([`pa_lehmann_rabin::RoundMdp`]) into an ordinary
//! [`pa_core::Automaton`], so the whole `pa-mdp` pipeline — exploration,
//! [`pa_mdp::Query`], both solvers — applies unchanged.
//!
//! Semantics, relative to the fault-free round model:
//!
//! * Fault events strike at **round starts** (the `EndRound` transition
//!   that opens round `r` applies `plan.events_at(r)`; round-1 events are
//!   applied when the start states are built).
//! * A **crashed process takes no steps** and incurs no obligations; it
//!   keeps whatever resources it holds (`Config` is untouched), which is
//!   the adversarial reading — a crashed fork-holder starves its
//!   neighbours forever.
//! * A **crash-restart** process resumes from its pre-crash local state
//!   after its downtime elapses (counted in round closures), and is
//!   re-obliged from its first live round.
//! * An **obligation drop** leaves the process up but waives its
//!   `Unit-Time` obligation for one round — the scheduler may (but need
//!   not) starve it for that round.
//!
//! Wrapping with [`FaultPlan::none`] is a strict identity: the step
//! enumeration, exploration order, and resulting [`pa_mdp::CsrMdp`]
//! are bitwise identical to the unwrapped model's (the zero-fault column
//! of every survival map is *equal*, not just close, to the fault-free
//! arrow results).
//!
//! After total crashes the model reaches states where every process is
//! stopped; once the fault schedule is exhausted these are deterministic
//! `EndRound` self-loops (time still diverges, as `Unit-Time` requires,
//! but nothing else ever happens). [`FaultyRoundMdp::crash_tags`] tags
//! exactly those choices so [`pa_mdp::tagged_absorbing_violations`] can
//! certify the absorbing structure both solvers rely on.

use std::sync::Arc;

use pa_core::{collect_steps, map_outcomes, Automaton, Step};
use pa_lehmann_rabin::{
    ArrowChecker, CheckedState, Config, RoundAction, RoundAutomaton, RoundConfig, RoundMdp,
    RoundState,
};
use pa_mdp::{least_key, reflect_lanes, rotate_lanes, tag_choices, ChoiceTags, Explored, TAG_NONE};

use crate::{FaultError, FaultKind, FaultPlan};

/// Status-nibble value marking a permanently crashed process.
pub const STOPPED: u8 = 0xF;

/// Tag applied by [`FaultyRoundMdp::crash_tags`] to the self-loop choices
/// of dead (fully crashed, schedule-exhausted) states.
pub const TAG_CRASH: u8 = 1;

/// A state of the fault-wrapped round model: the fault-free round state
/// plus per-process fault status and the current round number.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultyRoundState {
    /// The wrapped round state (crashed processes simply have no budget
    /// and no obligation in it).
    pub inner: RoundState,
    /// 4 bits per process: `0` = live, [`STOPPED`] = crash-stopped,
    /// `1..=14` = down, restarting after that many more round closures.
    pub status: u64,
    /// The current 1-based round, saturating once the fault schedule is
    /// exhausted (keeping the state space finite).
    pub round: u32,
}

impl FaultyRoundState {
    /// The status nibble of process `i`.
    pub fn status_of(&self, i: usize) -> u8 {
        ((self.status >> (4 * i)) & 0xF) as u8
    }

    /// Whether process `i` is currently live.
    pub fn is_live(&self, i: usize) -> bool {
        self.status_of(i) == 0
    }

    /// Bitmask of processes currently *not* live (stopped or down), in the
    /// shape the fault-aware region predicates
    /// (`pa_lehmann_rabin::regions::*_under`) expect.
    pub fn crashed_mask(&self, n: usize) -> u32 {
        let mut mask = 0;
        for i in 0..n {
            if !self.is_live(i) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// The state relabelled by ring rotation `k`: the wrapped round state
    /// rotates ([`RoundState::rotated`]) and the status nibbles rotate
    /// with the processes; the round counter is position-free.
    ///
    /// Rotation is only a symmetry of the *model* when the fault plan is
    /// empty (scripted events name processes); the quotient entry points
    /// enforce that with [`crate::FaultError::SymmetryBroken`].
    pub fn rotated(&self, k: usize) -> FaultyRoundState {
        let n = self.inner.config.n();
        let k = k % n;
        FaultyRoundState {
            inner: self.inner.rotated(k),
            status: rotate_lanes(u128::from(self.status), 4, n, k) as u64,
            round: self.round,
        }
    }
}

impl pa_mdp::RingState for FaultyRoundState {
    fn rotated(&self, k: usize) -> FaultyRoundState {
        FaultyRoundState::rotated(self, k)
    }

    /// The round counter is rotation-invariant, so the derived `Ord` on
    /// the rotations reduces to the inner round state's keys
    /// ([`RoundState::rotation_keys`]) followed by the rotated status word;
    /// the process lanes lead, so they alone decide unless they tie.
    fn least_rotation(&self, n: usize) -> usize {
        self.inner
            .config
            .unique_least_rotation()
            .unwrap_or_else(|| {
                let inner = self.inner.rotation_keys();
                let (ring, status) = (self.inner.config.n(), u128::from(self.status));
                least_key(n, |k| (inner(k), rotate_lanes(status, 4, ring, k)))
            })
    }
}

impl pa_mdp::MirrorRingState for FaultyRoundState {
    /// The wrapped round state reflects ([`RoundState::reflected`]) and
    /// the status nibbles move with their processes; the round counter is
    /// position-free. As with rotation, this is a symmetry of the model
    /// only under the empty plan.
    fn reflected(&self) -> FaultyRoundState {
        let n = self.inner.config.n();
        FaultyRoundState {
            inner: self.inner.reflected(),
            status: reflect_lanes(u128::from(self.status), 4, n) as u64,
            round: self.round,
        }
    }

    fn unique_least_image(&self, _n: usize) -> Option<(bool, usize)> {
        self.inner.config.unique_least_image()
    }
}

impl std::fmt::Display for FaultyRoundState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} status={:x} round={}",
            self.inner, self.status, self.round
        )
    }
}

/// The time cost of an action of the fault-wrapped round model: 1 for
/// [`RoundAction::EndRound`], 0 otherwise. Pass to [`pa_mdp::Explore`].
pub fn faulty_round_cost(_state: &FaultyRoundState, action: &RoundAction) -> u32 {
    match action {
        RoundAction::Schedule(_) => 0,
        RoundAction::EndRound => 1,
    }
}

type AbsorbPred = Arc<dyn Fn(&FaultyRoundState) -> bool + Send + Sync>;

/// The round model of a ring of `n` under a scripted [`FaultPlan`].
#[derive(Clone)]
pub struct FaultyRoundMdp {
    base: RoundMdp,
    plan: FaultPlan,
    starts: Vec<Config>,
    absorb: Option<AbsorbPred>,
    /// Rounds saturate here: one past the last scripted event, so every
    /// event fires before states start collapsing.
    cap: u32,
}

impl std::fmt::Debug for FaultyRoundMdp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyRoundMdp")
            .field("cfg", self.base.config())
            .field("plan", &self.plan)
            .field("starts", &self.starts.len())
            .field("absorbing", &self.absorb.is_some())
            .finish()
    }
}

impl FaultyRoundMdp {
    /// Wraps the round model of `cfg` in `plan`, starting from the
    /// all-idle configuration.
    ///
    /// # Errors
    ///
    /// [`FaultError::ProcessOutOfRange`] if the plan names a process
    /// outside the ring.
    pub fn new(cfg: RoundConfig, plan: FaultPlan) -> Result<FaultyRoundMdp, FaultError> {
        if let Some(p) = plan.max_process() {
            if p >= cfg.n {
                return Err(FaultError::ProcessOutOfRange {
                    process: p,
                    n: cfg.n,
                });
            }
        }
        let base = RoundMdp::new(cfg);
        let starts = vec![Config::initial(cfg.n)?];
        // Saturating: a plan scripted at round u32::MAX must cap *at* it,
        // not wrap to 0 (which would saturate every state's round counter
        // at zero and collapse the model). FaultyStateCodec packs every
        // u32 cap up to n = 11; past that its constructor checks the cap.
        let cap = plan.max_round().saturating_add(1);
        Ok(FaultyRoundMdp {
            base,
            plan,
            starts,
            absorb: None,
            cap,
        })
    }

    /// Replaces the start configurations (each wrapped as a fresh round-1
    /// start with the round-1 fault events already applied).
    pub fn with_starts(mut self, starts: Vec<Config>) -> FaultyRoundMdp {
        self.starts = starts;
        self
    }

    /// Makes states satisfying `pred` absorbing (sound for first-hitting
    /// analyses whose target contains `pred`).
    pub fn with_absorb(
        mut self,
        pred: impl Fn(&FaultyRoundState) -> bool + Send + Sync + 'static,
    ) -> FaultyRoundMdp {
        self.absorb = Some(Arc::new(pred));
        self
    }

    /// The wrapped fault-free round model.
    pub fn base(&self) -> &RoundMdp {
        &self.base
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `state` is dead: every process crash-stopped and the fault
    /// schedule exhausted, so its only behaviour is the `EndRound`
    /// self-loop.
    pub fn is_dead(&self, state: &FaultyRoundState) -> bool {
        state.round >= self.cap && (0..self.base.config().n).all(|i| state.status_of(i) == STOPPED)
    }

    /// Rounds saturate at this cap: one past the last scripted event.
    pub fn round_cap(&self) -> u32 {
        self.cap
    }

    /// Tags the `EndRound` choices of dead states with [`TAG_CRASH`] so
    /// [`pa_mdp::tagged_absorbing_violations`] can certify they are
    /// absorbing self-loops before either solver runs.
    pub fn crash_tags<SP: pa_mdp::StateSpace<FaultyRoundState>>(
        &self,
        explored: &Explored<FaultyRoundState, SP>,
    ) -> ChoiceTags {
        tag_choices(self, explored, |s, a| {
            if *a == RoundAction::EndRound && self.is_dead(s) {
                TAG_CRASH
            } else {
                TAG_NONE
            }
        })
    }

    /// `RoundState::with_step_taken`, reconstructed over the public
    /// fields: process `i` spends one budget unit and discharges its
    /// obligation.
    fn step_taken(rs: &RoundState, i: usize, config: Config) -> RoundState {
        let b = rs.budget_of(i) - 1;
        let mask = !(0xFu64 << (4 * i));
        RoundState {
            config,
            obliged: rs.obliged & !(1 << i),
            budget: (rs.budget & mask) | (u64::from(b) << (4 * i)),
        }
    }

    /// Wraps a configuration as a fresh round start under `status`:
    /// obligations and budgets go only to live, non-dropped processes.
    fn fresh_inner(&self, config: Config, status: u64, dropped: u32) -> RoundState {
        let n = self.base.config().n;
        let burst = self.base.config().burst;
        let mut live = 0u32;
        for i in 0..n {
            if (status >> (4 * i)) & 0xF == 0 {
                live |= 1 << i;
            }
        }
        let obliged = config.ready_mask() & live & !dropped;
        let mut budget = 0u64;
        for i in 0..n {
            if live & (1 << i) != 0 {
                budget |= u64::from(burst) << (4 * i);
            }
        }
        RoundState {
            config,
            obliged,
            budget,
        }
    }

    /// Applies the events scheduled for the start of `round` to `status`,
    /// returning the mask of processes whose obligation is dropped for
    /// this round. Records `faults.*` telemetry.
    fn apply_events(&self, status: &mut u64, round: u32, config: &Config) -> u32 {
        let mut dropped = 0u32;
        let mut crashes = 0u64;
        let mut drops = 0u64;
        let mut violations = 0u64;
        for e in self.plan.events_at(round) {
            let i = e.process;
            let nibble_mask = !(0xFu64 << (4 * i));
            match e.kind {
                FaultKind::CrashStop => {
                    *status = (*status & nibble_mask) | (u64::from(STOPPED) << (4 * i));
                    crashes += 1;
                }
                FaultKind::CrashRestart { downtime } => {
                    *status = (*status & nibble_mask) | (u64::from(downtime) << (4 * i));
                    crashes += 1;
                }
                FaultKind::DropObligation => {
                    dropped |= 1 << i;
                    drops += 1;
                    // A drop only violates the Unit-Time envelope if the
                    // process would actually have been obliged.
                    if config.ready_mask() & (1 << i) != 0 && (*status >> (4 * i)) & 0xF == 0 {
                        violations += 1;
                    }
                }
            }
        }
        if pa_telemetry::enabled() && (crashes | drops) != 0 {
            pa_telemetry::counter("faults.crashes_injected").add(crashes);
            pa_telemetry::counter("faults.obligations_dropped").add(drops);
            pa_telemetry::counter("faults.envelope_violations").add(violations);
        }
        dropped
    }
}

impl Automaton for FaultyRoundMdp {
    type State = FaultyRoundState;
    type Action = RoundAction;

    fn start_states(&self) -> Vec<FaultyRoundState> {
        self.starts
            .iter()
            .cloned()
            .map(|config| {
                let mut status = 0u64;
                let dropped = self.apply_events(&mut status, 1, &config);
                FaultyRoundState {
                    inner: self.fresh_inner(config, status, dropped),
                    status,
                    round: 1,
                }
            })
            .collect()
    }

    fn steps(&self, state: &FaultyRoundState) -> Vec<Step<FaultyRoundState, RoundAction>> {
        collect_steps(|f| self.for_each_step(state, f))
    }

    /// The fault-free round scheduler's choices restricted to live
    /// processes, then an `EndRound` that ticks restart countdowns and
    /// applies the next round's fault events.
    fn for_each_step<F>(&self, state: &FaultyRoundState, mut f: F)
    where
        F: FnMut(&RoundAction, &[(FaultyRoundState, f64)]),
    {
        if let Some(pred) = &self.absorb {
            if pred(state) {
                return;
            }
        }
        let n = self.base.config().n;
        for i in 0..n {
            if !state.is_live(i) || state.inner.budget_of(i) == 0 {
                continue;
            }
            self.base.protocol().for_each_step_of_process(
                &state.inner.config,
                i,
                |action, outcomes| {
                    map_outcomes(
                        outcomes,
                        |cfg| FaultyRoundState {
                            inner: Self::step_taken(&state.inner, i, *cfg),
                            status: state.status,
                            round: state.round,
                        },
                        |targets| f(&RoundAction::Schedule(action), targets),
                    );
                },
            );
        }
        if state.inner.obliged == 0 {
            let mut status = state.status;
            let mut restarts = 0u64;
            for i in 0..n {
                let d = (status >> (4 * i)) & 0xF;
                if d >= 1 && d <= u64::from(crate::MAX_DOWNTIME) {
                    status = (status & !(0xFu64 << (4 * i))) | ((d - 1) << (4 * i));
                    if d == 1 {
                        restarts += 1;
                    }
                }
            }
            if pa_telemetry::enabled() && restarts != 0 {
                pa_telemetry::counter("faults.restarts").add(restarts);
            }
            let next_round = (state.round + 1).min(self.cap);
            let dropped = self.apply_events(&mut status, next_round, &state.inner.config);
            let next = FaultyRoundState {
                inner: self.fresh_inner(state.inner.config, status, dropped),
                status,
                round: next_round,
            };
            f(&RoundAction::EndRound, &[(next, 1.0)]);
        }
    }

    fn is_external(&self, action: &RoundAction) -> bool {
        match action {
            RoundAction::Schedule(a) => a.is_external(),
            RoundAction::EndRound => false,
        }
    }
}

/// An [`ArrowChecker`] over the in-core rows of a fault-wrapped model.
pub type FaultChecker = ArrowChecker<FaultyRoundState>;

/// The checker reads a fault-wrapped state's regions under the faults in
/// force and reports a worst start as the whole state.
impl CheckedState for FaultyRoundState {
    fn config(&self) -> &Config {
        &self.inner.config
    }
    fn crash_mask(&self, n: usize) -> u32 {
        self.crashed_mask(n)
    }
    fn render(&self) -> String {
        self.to_string()
    }
}

impl RoundAutomaton for FaultyRoundMdp {
    fn ring_size(&self) -> usize {
        self.base.config().n
    }
    fn start_crash_mask(&self) -> u32 {
        crate::start_crash_mask(&self.plan)
    }
    fn step_cost(state: &FaultyRoundState, action: &RoundAction) -> u32 {
        faulty_round_cost(state, action)
    }
    fn starting_from(self, starts: Vec<Config>) -> FaultyRoundMdp {
        self.with_starts(starts)
    }
    fn absorbing(
        self,
        region: impl Fn(&Config, u32) -> bool + Send + Sync + 'static,
    ) -> FaultyRoundMdp {
        let n = self.ring_size();
        self.with_absorb(move |s| region(&s.inner.config, s.crashed_mask(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_lehmann_rabin::{Pc, ProcState, Side};
    use pa_mdp::{tagged_absorbing_violations, Explore};

    fn trying_config() -> Config {
        let mut c = Config::initial(3).unwrap();
        for i in 0..3 {
            c = c.with_proc(i, ProcState::new(Pc::F, Side::Left));
        }
        c
    }

    fn wrapped(plan: FaultPlan) -> FaultyRoundMdp {
        FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), plan)
            .unwrap()
            .with_starts(vec![trying_config()])
    }

    #[test]
    fn crashed_process_neither_steps_nor_owes() {
        let m = wrapped(FaultPlan::single(1, 0, FaultKind::CrashStop).unwrap());
        let start = &m.start_states()[0];
        assert!(!start.is_live(0));
        assert_eq!(start.inner.obliged, 0b110);
        assert_eq!(start.inner.budget_of(0), 0);
        assert!(m
            .steps(start)
            .iter()
            .all(|s| !matches!(s.action, RoundAction::Schedule(a) if a.process() == 0)));
    }

    #[test]
    fn crash_restart_comes_back_after_downtime() {
        let m = wrapped(FaultPlan::single(1, 0, FaultKind::CrashRestart { downtime: 1 }).unwrap());
        let mut state = m.start_states()[0].clone();
        assert!(!state.is_live(0));
        // Discharge the two live obligations, then close the round.
        loop {
            let steps = m.steps(&state);
            let step = steps
                .iter()
                .find(|s| matches!(s.action, RoundAction::Schedule(_)))
                .or_else(|| steps.iter().find(|s| s.action == RoundAction::EndRound))
                .expect("some step");
            let closed = step.action == RoundAction::EndRound;
            state = step.target.support().next().unwrap().clone();
            if closed {
                break;
            }
        }
        assert!(state.is_live(0), "downtime 1 expires at the first closure");
        assert_eq!(
            state.inner.obliged & 1,
            state.inner.config.ready_mask() & 1,
            "restarted process is re-obliged iff ready"
        );
    }

    #[test]
    fn dropped_obligation_waives_exactly_one_round() {
        let m = wrapped(FaultPlan::single(1, 1, FaultKind::DropObligation).unwrap());
        let start = &m.start_states()[0];
        assert!(start.is_live(1), "dropped process stays up");
        assert_eq!(start.inner.obliged, 0b101, "but owes nothing this round");
        assert_eq!(
            start.inner.budget_of(1),
            1,
            "it may still be scheduled this round"
        );
    }

    #[test]
    fn total_crash_states_are_tagged_absorbing_self_loops() {
        let plan = FaultPlan::new(
            (0..3)
                .map(|i| crate::FaultEvent {
                    round: 2,
                    process: i,
                    kind: FaultKind::CrashStop,
                })
                .collect(),
        )
        .unwrap();
        let m = wrapped(plan);
        let e = Explore::new(&m)
            .cost(faulty_round_cost)
            .limit(1_000_000)
            .run()
            .unwrap();
        let tags = m.crash_tags(&e);
        assert!(tags.count(TAG_CRASH) > 0, "total crash must be reachable");
        assert!(tagged_absorbing_violations(&e.mdp, &tags, TAG_CRASH).is_empty());
    }

    #[test]
    fn rotation_relabels_status_nibbles_with_the_ring() {
        let m = wrapped(FaultPlan::single(1, 1, FaultKind::CrashStop).unwrap());
        let s = m.start_states()[0].clone();
        assert_eq!(s.status_of(1), STOPPED);
        let r = s.rotated(1);
        assert_eq!(r.status_of(0), STOPPED, "old process 1 is new process 0");
        assert_eq!(r.status_of(1), 0);
        assert_eq!(r.status_of(2), 0);
        assert_eq!(r.round, s.round);
        assert_eq!(s.rotated(3), s, "rotating by n is the identity");
    }

    #[test]
    fn plan_naming_an_outside_process_is_rejected() {
        let plan = FaultPlan::single(1, 7, FaultKind::CrashStop).unwrap();
        assert!(matches!(
            FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), plan),
            Err(FaultError::ProcessOutOfRange { process: 7, n: 3 })
        ));
    }
}
