//! The one arrow checker: every arrow `U —t→_p U'` and every expected-time
//! question is answered by an [`ArrowChecker`] over one explored model.
//!
//! [`explore_checker`] is the one builder. It explores a
//! [`RoundAutomaton`] (the round model, or `pa-faults`' fault-wrapped one)
//! from a set of configurations, either as an *arrow model* (starts
//! filtered by the source region, target region absorbing) or as a
//! *shared model* (every configuration a start, nothing absorbing). The
//! checker then does the one tail every question shares: filter the
//! model's starts by the source region, answer an empty source vacuously,
//! build the target mask, run the query, and take the worst start.
//!
//! The checker reads the model's states once, when it is built: one
//! region byte per state ([`crate::regions::regions_under`], one bit per
//! atom, judged under the state's own crash mask), and the decoded
//! initial states with their bytes under the start crash mask. After that
//! it holds the rows, the region bytes and the starts, and no state
//! store: every source and target set of a question is a byte test. A
//! fault-free state's mask is 0, under which every atom agrees with
//! [`crate::region_pred`]. Callers that decode states along a policy keep
//! the store [`explore_checker`] hands back beside the checker.
//!
//! # Why one model can answer many questions
//!
//! An arrow model has the arrow's source configurations as its starts and
//! its target region absorbing. A shared model has **every** reachable
//! configuration as a start and **no** absorption, and each query picks
//! its own start subset and target mask:
//!
//! * Bounded reachability clamps target states to their value (1) at every
//!   budget level, so a target state's outgoing transitions — the only
//!   thing absorption removes — never influence any value. Every state of
//!   the arrow model appears in the shared model with an identical
//!   successor distribution, so per-state value arithmetic is the same
//!   `f64` operations in the same order: the results are bitwise equal,
//!   which `pa-batch`'s determinism tests pin.
//! * Expected-cost analyses clamp target states to 0 the same way; states
//!   from which an adversary avoids the target get `∞`, and
//!   [`pa_mdp::Analysis::worst_over`] only faults on *queried* infinite
//!   states, so reading just the question's start subset is safe.
//!
//! The starts keep the model's initial-state order, which is the order of
//! the configurations the model was explored from, so the worst start is
//! the same on either model.
//!
//! # Solving only the cone
//!
//! A shared model is much larger than any one arrow needs: an arrow's
//! value depends only on its *cone*, the states reachable from its starts
//! without passing a target state. That is exactly the state set of the
//! arrow model, with the same rows. [`ArrowChecker::solve_arrow`] hands
//! its starts to [`Query::cone`], which solves the cone's states alone,
//! in place over the shared rows (on `n = 4` shared models, 1.8%–85% of
//! the states), and reports the arrow model's values. An arrow model is
//! already its own cone: every initial state is a start and every target
//! state is terminal. The checker then names no cone, so the per-arrow
//! checks run no search. Expected-time questions solve the whole model:
//! their iteration stops on a residual over every state, which a cone
//! would change.

use pa_core::{Arrow, ArrowCheck, Automaton, SetExpr};
use pa_mdp::{
    Analysis, CsrMdp, CsrSource, Explore, Explored, MirrorRingState, Objective, Query,
    QueryObjective, RingDihedral, RingRotation, StateSpace,
};
use pa_prob::{Prob, ProbInterval};

use crate::regions::{regions_under, set_bits};
use crate::{round_cost, set_pred_under, time_to_budget, Config, LrError, RoundMdp, RoundState};

/// A state the checker reads regions from.
pub trait CheckedState {
    /// The protocol configuration.
    fn config(&self) -> &Config;
    /// The crashed processes in force (bit `i` = process `i`); always 0
    /// on the fault-free model.
    fn crash_mask(&self, n: usize) -> u32;
    /// How a worst start state is reported.
    fn render(&self) -> String;
}

impl CheckedState for RoundState {
    fn config(&self) -> &Config {
        &self.config
    }
    fn crash_mask(&self, _n: usize) -> u32 {
        0
    }
    fn render(&self) -> String {
        self.config.to_string()
    }
}

/// A round automaton [`explore_checker`] can explore: its starts are
/// configurations, and a region can be made absorbing.
pub trait RoundAutomaton: Automaton<State: CheckedState + MirrorRingState> + Sized {
    /// Ring size.
    fn ring_size(&self) -> usize;
    /// The crash mask in force when the clock starts, under which the
    /// source region of a question is judged.
    fn start_crash_mask(&self) -> u32;
    /// The time cost of a step (1 at a round boundary, else 0).
    fn step_cost(state: &Self::State, action: &Self::Action) -> u32;
    /// The automaton with `starts` as its start configurations.
    fn starting_from(self, starts: Vec<Config>) -> Self;
    /// The automaton with the states in `region` absorbing.
    fn absorbing(self, region: impl Fn(&Config, u32) -> bool + Send + Sync + 'static) -> Self;
}

impl RoundAutomaton for RoundMdp {
    fn ring_size(&self) -> usize {
        self.config().n
    }
    fn start_crash_mask(&self) -> u32 {
        0
    }
    fn step_cost(state: &RoundState, action: &crate::RoundAction) -> u32 {
        round_cost(state, action)
    }
    fn starting_from(self, starts: Vec<Config>) -> RoundMdp {
        self.with_starts(starts)
    }
    fn absorbing(self, region: impl Fn(&Config, u32) -> bool + Send + Sync + 'static) -> RoundMdp {
        self.with_absorb(move |c| region(c, 0))
    }
}

/// Which ring symmetry an exploration quotients by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quotient {
    /// No quotient: every state of the full space.
    Full,
    /// One representative per rotation orbit ([`RingRotation`]).
    Rotation,
    /// One representative per orbit of the rotations and the mirror
    /// ([`RingDihedral`]): down to half the states of `Rotation`.
    Dihedral,
}

impl Quotient {
    /// `explore` with this quotient's symmetry of a ring of `n` installed.
    pub(crate) fn install<'a, M, F>(self, explore: Explore<'a, M, F>, n: usize) -> Explore<'a, M, F>
    where
        M: Automaton,
        M::State: MirrorRingState,
    {
        match self {
            Quotient::Full => explore,
            Quotient::Rotation => explore.symmetry(RingRotation::new(n)),
            Quotient::Dihedral => explore.symmetry(RingDihedral::new(n)),
        }
    }
}

/// Explores `automaton` from `configs` into `space` under `quotient` and
/// wraps the result in a checker. `configs` should be representatives of
/// the same quotient (or all configurations for [`Quotient::Full`]).
///
/// With `arrow = Some((from, to))` this is the arrow model: only the
/// configurations in `from` (judged under the start crash mask) start,
/// and `to` is absorbing, which is sound for first-hitting questions.
/// It is `None` when no configuration lies in `from`. With `arrow = None`
/// every configuration starts and nothing absorbs: the shared model.
/// The automaton and the state store come back too, for callers that
/// replay steps or decode states along a policy; every other caller drops
/// the store, which the checker does not need.
///
/// # Errors
///
/// [`LrError::UnknownRegion`] for unresolvable atoms, and exploration
/// errors.
#[allow(clippy::type_complexity)]
pub fn explore_checker<A, SP>(
    automaton: A,
    configs: &[Config],
    arrow: Option<(&SetExpr, &SetExpr)>,
    limit: usize,
    quotient: Quotient,
    space: SP,
) -> Result<Option<(A, ArrowChecker<A::State>, SP)>, LrError>
where
    A: RoundAutomaton,
    SP: StateSpace<A::State>,
{
    let n = automaton.ring_size();
    let mask0 = automaton.start_crash_mask();
    let automaton = match arrow {
        Some((from, to)) => {
            let from = set_pred_under(from)?;
            let to = set_pred_under(to)?;
            let starts: Vec<Config> = configs.iter().filter(|c| from(c, mask0)).copied().collect();
            if starts.is_empty() {
                return Ok(None);
            }
            automaton.starting_from(starts).absorbing(to)
        }
        None => automaton.starting_from(configs.to_vec()),
    };
    let explore = Explore::new(&automaton).cost(A::step_cost).limit(limit);
    let Explored { space, mdp, .. } = quotient.install(explore, n).run_in(space)?;
    let checker = ArrowChecker::new(n, mask0, &space, mdp);
    Ok(Some((automaton, checker, space)))
}

/// One arrow's bounded solve: the answer and what it was read from.
#[derive(Debug)]
pub struct ArrowSolve {
    /// The answer.
    pub check: ArrowCheck,
    /// The worst start's state id.
    pub worst: usize,
    /// The analysis (with the policy, if the query asked for one).
    pub analysis: Analysis,
}

/// A start of the model: an initial state, its region byte under the
/// start crash mask, and the state itself, decoded once to render a worst
/// start.
#[derive(Debug)]
struct Start<S> {
    id: usize,
    regions: u8,
    state: S,
}

/// Answers arrows and expected times over the rows of one explored model
/// of a ring (see the [module docs](self)).
///
/// The rows are any [`CsrSource`]: in-core [`CsrMdp`] rows (the
/// default), or a stored model's rows paged from disk.
#[derive(Debug)]
pub struct ArrowChecker<S, R = CsrMdp> {
    rows: R,
    regions: Vec<u8>,
    starts: Vec<Start<S>>,
}

impl<S: CheckedState, R: CsrSource> ArrowChecker<S, R> {
    /// A checker over `rows` of a ring of `n`, explored into `space`. Reads
    /// every state once: its region byte under its own crash mask, and,
    /// for the initial states, their region byte under the start crash
    /// mask `mask0` (0 when fault-free). Keeps no reference to `space`.
    pub fn new<SP: StateSpace<S>>(n: usize, mask0: u32, space: &SP, rows: R) -> ArrowChecker<S, R> {
        debug_assert_eq!(space.len(), rows.num_states());
        let mut regions = Vec::with_capacity(space.len());
        space.for_each_state(|_, s| regions.push(regions_under(s.config(), s.crash_mask(n))));
        let starts = rows
            .initial_states()
            .iter()
            .map(|&id| {
                let state = space.state(id);
                Start {
                    id,
                    regions: regions_under(state.config(), mask0),
                    state,
                }
            })
            .collect();
        ArrowChecker {
            rows,
            regions,
            starts,
        }
    }

    /// The rows.
    pub fn rows(&self) -> &R {
        &self.rows
    }

    /// Each state's region byte under its own crash mask: bit `k` is
    /// [`crate::regions::ATOMS`]`[k]`.
    pub fn regions(&self) -> &[u8] {
        &self.regions
    }

    /// Heap bytes the checker holds beside its rows: one region byte per
    /// state and the starts.
    pub fn mem_bytes(&self) -> u64 {
        (self.regions.capacity() + self.starts.capacity() * std::mem::size_of::<Start<S>>()) as u64
    }

    /// The initial states in `from`, in initial-state order.
    fn starts(&self, from: &SetExpr) -> Result<Vec<usize>, LrError> {
        let from = set_bits(from)?;
        Ok(self
            .starts
            .iter()
            .filter(|s| s.regions & from != 0)
            .map(|s| s.id)
            .collect())
    }

    /// The target mask of `to`, each state judged under its own crash
    /// mask.
    ///
    /// # Errors
    ///
    /// [`LrError::UnknownRegion`] for unresolvable atoms.
    pub(crate) fn target_mask(&self, to: &SetExpr) -> Result<Vec<bool>, LrError> {
        let to = set_bits(to)?;
        Ok(self.regions.iter().map(|&b| b & to != 0).collect())
    }

    /// How the start `id` is reported.
    fn render(&self, id: usize) -> String {
        self.starts
            .iter()
            .find(|s| s.id == id)
            .expect("the worst state is a start")
            .state
            .render()
    }

    /// Whether an arrow from `starts` to `target` needs a cone: not when
    /// the model is its own cone, an arrow model (every initial state
    /// starts and every target state is terminal), and not on a
    /// multi-block model, which the query solves whole anyway (scanning
    /// its rows would page every block).
    fn needs_cone(&self, starts: &[usize], target: &[bool]) -> Result<bool, LrError> {
        let rows = &self.rows;
        if rows.num_blocks() > 1 {
            return Ok(false);
        }
        if starts.len() < rows.initial_states().len() {
            return Ok(true);
        }
        let mut absorbing = true;
        rows.with_rows(0, &mut |rows| {
            absorbing = rows.states().all(|s| !target[s] || rows.is_terminal(s));
        })?;
        Ok(!absorbing)
    }

    /// Checks `arrow`: the least probability over all adversaries of
    /// reaching its target within its time, from its worst start.
    /// `tune` adds per-call query settings (`|q| q` keeps the defaults).
    ///
    /// # Errors
    ///
    /// Region and analysis errors.
    pub fn arrow(
        &self,
        arrow: &Arrow,
        tune: impl FnOnce(Query<'_>) -> Query<'_>,
    ) -> Result<ArrowCheck, LrError> {
        Ok(self
            .solve_arrow(arrow, tune)?
            .map_or_else(|| ArrowCheck::vacuous(arrow), |solve| solve.check))
    }

    /// [`ArrowChecker::arrow`] with the analysis it read the answer from,
    /// for callers that replay the policy; `None` for an empty source.
    ///
    /// # Errors
    ///
    /// As [`ArrowChecker::arrow`].
    pub fn solve_arrow(
        &self,
        arrow: &Arrow,
        tune: impl FnOnce(Query<'_>) -> Query<'_>,
    ) -> Result<Option<ArrowSolve>, LrError> {
        let starts = self.starts(arrow.from())?;
        if starts.is_empty() {
            return Ok(None);
        }
        let target = self.target_mask(arrow.to())?;
        let mut query = Query::source(&self.rows)
            .objective(Objective::MinProb)
            .horizon(time_to_budget(arrow.time()));
        if self.needs_cone(&starts, &target)? {
            query = query.cone(&starts);
        }
        let analysis = tune(query.target(target)).run()?;
        let (worst, measured) = analysis.worst_over(&starts)?.expect("starts are nonempty");
        let check = ArrowCheck {
            arrow: arrow.clone(),
            measured: ProbInterval::exact(Prob::clamped(measured)),
            worst_state: Some(self.render(worst)),
            states_checked: starts.len(),
        };
        Ok(Some(ArrowSolve {
            check,
            worst,
            analysis,
        }))
    }

    /// The worst start's expected time to reach `to` from `from` under
    /// `objective` (`MaxCost` for the worst scheduler, `MinCost` for the
    /// most cooperative one), in time units: expected rounds `+ 1`, which
    /// covers the partial final round. 0 for an empty source.
    ///
    /// # Errors
    ///
    /// Region and analysis errors, and
    /// [`pa_mdp::MdpError::DivergentExpectation`] (wrapped in
    /// [`LrError::Mdp`]) when some adversary avoids `to` from a start.
    pub fn expected_time(
        &self,
        from: &SetExpr,
        to: &SetExpr,
        objective: QueryObjective,
        tune: impl FnOnce(Query<'_>) -> Query<'_>,
    ) -> Result<f64, LrError> {
        let starts = self.starts(from)?;
        if starts.is_empty() {
            return Ok(0.0);
        }
        let query = Query::source(&self.rows)
            .objective(objective)
            .target(self.target_mask(to)?);
        let (_, worst) = tune(query)
            .run()?
            .worst_over(&starts)?
            .expect("starts are nonempty");
        Ok(worst + 1.0)
    }
}
