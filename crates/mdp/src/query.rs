//! The unified quantitative-analysis entry point: [`Query`].
//!
//! Every analysis — bounded/unbounded reachability, expected cost, policy
//! extraction, the per-level values of a bounded query — runs through one
//! builder, and it is the only way to run a solver:
//!
//! ```
//! use pa_mdp::{Choice, CsrMdp, ExplicitMdp, Query, QueryObjective};
//!
//! # fn main() -> Result<(), pa_mdp::MdpError> {
//! // Geometric trial: win a coin flip once per time unit.
//! let m = CsrMdp::from(&ExplicitMdp::new(
//!     vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
//!     vec![0],
//! )?);
//! let analysis = Query::csr(&m)
//!     .objective(QueryObjective::MinProb)
//!     .target(vec![false, true])
//!     .horizon(3)
//!     .run()?;
//! assert!((analysis.values[0] - 0.875).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! Targets are accepted as a `bool` mask, a list of state indices, or (via
//! [`Query::target_where`]) a predicate, resolving the historical
//! `target: &[bool]`-vs-predicate split between `csr.rs` and `explore.rs`.
//! Every failure surfaces as a single [`MdpError::Query`] carrying the
//! stage that failed and the root cause as its
//! [`source`](std::error::Error::source).
//!
//! # Solver selection
//!
//! A query reads its model through one view, a [`CsrSource`]: an in-core
//! [`CsrMdp`] ([`Query::csr`]) is a source with a single block, and a
//! stored model ([`Query::source`]) is a source with one block or many.
//! The block count, not the model's type, decides which algorithms can
//! run.
//!
//! [`Solver::Jacobi`] is the original engine: global sweeps, each
//! computed from the previous iterate alone, bit-for-bit reproducible
//! across block structures. Over a single block a sweep re-evaluates only
//! the states some successor of which changed in the sweep before, which
//! returns the bits of a full sweep (see [`crate::source`]).
//! It is the one kernel set of [`crate::source`]. [`Solver::SccOrdered`] condenses the
//! choice graph of a single-block source first and solves components in
//! reverse topological order (see [`crate::SccDecomposition`]); on layered
//! models such as the Lehmann–Rabin round MDPs it performs strictly fewer
//! state updates. It evaluates the same per-state updates as Jacobi.
//!
//! A query that picks no solver with [`Query::solver`] is routed
//! automatically:
//!
//! * a **bounded** probability query (`MinProb`/`MaxProb` with a
//!   [`Query::horizon`]) over a **single-block** source builds the
//!   zero-cost condensation and runs [`Solver::SccOrdered`] when it has no
//!   nontrivial component. Every state is then solved once from final
//!   successor values, by the same floating-point expression the last
//!   Jacobi sweep evaluates, so the values are bitwise identical to
//!   Jacobi's. A zero-cost cycle sends the query to Jacobi;
//! * a bounded probability query over a **multi-block** source builds no
//!   condensation: it solves each budget level in one reverse pass over
//!   the blocks (see [`crate::source`]), which is exact, and bitwise equal
//!   to Jacobi, when every zero-cost transition out of a non-target state
//!   goes to a higher state id or to a target. Level 0's pass checks this
//!   as it goes; if the check fails the query reruns on Jacobi from
//!   scratch. The pass is reported as [`Solver::SccOrdered`]: descending
//!   ids order a condensation whose components are single states;
//! * every other query — unbounded or expected cost — runs Jacobi.
//!
//! A query pinned to [`Solver::Jacobi`] always runs Jacobi. Pinned to
//! [`Solver::SccOrdered`], a single-block source always runs the
//! SCC-ordered solver. A multi-block bounded query takes the reverse pass
//! and fails at the `"solve"` stage where that pass would fall back; a
//! multi-block unbounded or expected-cost query fails at `"validate"`.
//!
//! [`Analysis::solver`] reports the solver that actually ran.
//!
//! # Bounded queries and their levels
//!
//! With intra-round scheduling steps costing 0 and round boundaries
//! costing 1, the minimal probability over all adversaries of reaching
//! the target with total cost at most `t` is exactly the quantity an arrow
//! `U —t→_p U'` bounds (Definition 3.1). For finite-horizon reachability on
//! a finite MDP, deterministic cost-indexed Markov policies attain the
//! optimum over all history-dependent adversaries, so backward induction
//! over the budget quantifies over the paper's full adversary class
//! (substitution 2 in DESIGN.md).
//!
//! The induction solves one budget level `k = 0..=horizon` after another,
//! each the least fixpoint of
//! `v(s) = opt_c [ Σ p · (cost(c)=1 ? prev : v)(t) ]` over the zero-cost
//! subgraph. [`Query::on_level`] hands each level's values to a callback
//! as it is solved — a whole probability-vs-time curve from one query.
//! The automatic rule leaves Jacobi only for a route whose every level is
//! bitwise equal to Jacobi's, so an unpinned query reports the levels of
//! a Jacobi-pinned one, bit for bit.
//!
//! # Cone restriction
//!
//! A bounded question about a few start states of a large model — one
//! arrow on a model shared by many — depends only on its *cone*: the
//! states reachable from the starts without passing a target state.
//! [`Query::cone`] names the starts. On a single-block source the query
//! then:
//!
//! 1. finds the cone by a graph search from the starts that does not
//!    expand target states, as a list of state ids in ascending order;
//! 2. routes the query exactly as above (a pinned solver stays pinned)
//!    and solves it in place over the source's rows, visiting only the
//!    cone's states: Jacobi's first sweep of a level evaluates the cone,
//!    its predecessor lists keep only the transitions out of non-target
//!    cone states, and its per-level sweep cap counts the cone's states;
//!    the zero-cost condensation roots only cone states, in ascending
//!    order, and does not expand targets. Every level resets, solves and
//!    decides the cone alone, so its work grows with the cone, not the
//!    model;
//! 3. reports the answer in the source's numbering, as it solved it:
//!    `NaN` values and `None` policy decisions outside the cone, at every
//!    level [`Query::on_level`] reports too, and [`SolveStats`] that count
//!    only the states solved. [`Analysis::worst_over`] names an unsolved
//!    start with [`MdpError::Unsolved`].
//!
//! A cone that holds every state is solved as if no cone were named.
//!
//! A cone state's row is read unchanged, its successors stay in the cone,
//! and a target state's value is fixed at every level. So each cone state
//! evaluates the same floating-point expression on the same operands as
//! in the unrestricted query, and the cone solve is the solve of the cone
//! as a model of its own: for an arrow on a shared model, the arrow's own
//! model, with its target absorbing, with the same values, work counts
//! and solver. Against the unrestricted query, one thing can differ: a
//! Jacobi level may stop after fewer sweeps, because its residual then
//! ranges over fewer states. A level whose zero-cost subgraph has no
//! cycle reaches its fixpoint exactly, so further sweeps recompute the
//! same bits and the values agree bitwise. A level with a zero-cost cycle
//! converges only to within `1e-14`, and its last bits may differ.
//!
//! Two cases solve without a cone:
//!
//! * a **multi-block** source solves the whole model, as if no cone were
//!   named: its kernels page every block in turn, and none of them skips
//!   the blocks that hold no cone state;
//! * an **unbounded** or **expected-cost** query rejects a cone at the
//!   `"validate"` stage. Its Jacobi iteration stops on the largest
//!   residual over every state, so a cone solve could stop at an earlier
//!   sweep and return different bits.

use crate::source::{self, with_one_block, CsrSource, LevelSolver};
use crate::{scc, CsrMdp, MdpError, SolveStats};

/// Whether the adversary minimizes or maximizes the probability of
/// reaching the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Worst case for the algorithm: the adversary minimizes the
    /// probability of reaching the target (the quantifier in `U —t→_p U'`).
    MinProb,
    /// Best case: the adversary maximizes the probability.
    MaxProb,
}

impl Objective {
    /// Whether `a` improves on `b` under this objective.
    #[inline]
    pub(crate) fn better(self, a: f64, b: f64) -> bool {
        match self {
            Objective::MinProb => a < b,
            Objective::MaxProb => a > b,
        }
    }

    /// The identity element of the optimization (`±∞`).
    #[inline]
    pub(crate) fn start(self) -> f64 {
        match self {
            Objective::MinProb => f64::INFINITY,
            Objective::MaxProb => f64::NEG_INFINITY,
        }
    }
}

/// A deterministic cost-indexed policy extracted from backward induction:
/// `decision[k][s]` is the optimal choice index in state `s` with `k` cost
/// units of budget remaining (`None` for states without choices).
#[derive(Debug, Clone)]
pub struct BoundedPolicy {
    /// `decision[k][s]`, `k = 0..=budget`.
    pub decision: Vec<Vec<Option<u32>>>,
}

impl BoundedPolicy {
    /// The optimal choice in `state` with `remaining` budget (clamped to
    /// the largest computed level).
    pub fn choice(&self, state: usize, remaining: u32) -> Option<u32> {
        let k = (remaining as usize).min(self.decision.len() - 1);
        self.decision[k][state]
    }
}

/// Numerical options of the iterative (unbounded and expected-cost)
/// solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterOptions {
    /// Stop when the largest per-sweep change drops below this.
    pub epsilon: f64,
    /// Hard cap on sweeps.
    pub max_sweeps: usize,
}

impl Default for IterOptions {
    fn default() -> IterOptions {
        IterOptions {
            epsilon: 1e-12,
            max_sweeps: 1_000_000,
        }
    }
}

/// What a [`Query`] optimizes, quantifying over all adversaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryObjective {
    /// Minimal probability of reaching the target (the quantifier in the
    /// paper's `U —t→_p U'` statements).
    MinProb,
    /// Maximal probability of reaching the target.
    MaxProb,
    /// Minimal expected accumulated cost to the target.
    MinCost,
    /// Maximal expected accumulated cost to the target (Section 6.2).
    MaxCost,
}

impl From<Objective> for QueryObjective {
    fn from(o: Objective) -> QueryObjective {
        match o {
            Objective::MinProb => QueryObjective::MinProb,
            Objective::MaxProb => QueryObjective::MaxProb,
        }
    }
}

/// Which value-iteration engine a [`Query`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Global Jacobi sweeps, each from the previous iterate alone.
    Jacobi,
    /// SCC-condensed sweeps: components of the choice graph are solved in
    /// reverse topological order against already-fixed successors. Over a
    /// stored backend, a bounded query's one reverse pass per budget level.
    SccOrdered,
}

/// Anything [`Query::target`] accepts: a per-state `bool` mask or a list
/// of target state indices.
pub trait IntoTarget {
    /// Resolves to a `bool` mask over `num_states` states.
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError>;
}

impl IntoTarget for Vec<bool> {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        if self.len() != num_states {
            return Err(MdpError::TargetLengthMismatch {
                got: self.len(),
                expected: num_states,
            });
        }
        Ok(self)
    }
}

impl IntoTarget for &[bool] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.to_vec().into_target(num_states)
    }
}

impl IntoTarget for &Vec<bool> {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.clone().into_target(num_states)
    }
}

impl<const N: usize> IntoTarget for &[bool; N] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.as_slice().into_target(num_states)
    }
}

impl IntoTarget for &[usize] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        let mut mask = vec![false; num_states];
        for &s in self {
            if s >= num_states {
                return Err(MdpError::BadStateIndex {
                    index: s,
                    num_states,
                });
            }
            mask[s] = true;
        }
        Ok(mask)
    }
}

impl IntoTarget for Vec<usize> {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.as_slice().into_target(num_states)
    }
}

impl<const N: usize> IntoTarget for &[usize; N] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.as_slice().into_target(num_states)
    }
}

/// The typed result of [`Query::run`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The per-state optimal values: probabilities for the `*Prob`
    /// objectives, expected costs (with `f64::INFINITY` marking divergent
    /// states) for the `*Cost` objectives.
    pub values: Vec<f64>,
    /// The optimal cost-indexed policy, when [`Query::with_policy`] was
    /// requested.
    pub policy: Option<BoundedPolicy>,
    /// Work counters of the solve (sweeps, state updates, condensation
    /// shape).
    pub stats: SolveStats,
    /// The objective that was solved.
    pub objective: QueryObjective,
    /// The solver that ran (for an automatically routed query, the one
    /// the selection rule chose).
    pub solver: Solver,
    /// The time horizon, if the query was cost-bounded.
    pub horizon: Option<u32>,
}

impl Analysis {
    /// The value of one state.
    pub fn value(&self, state: usize) -> f64 {
        self.values[state]
    }

    /// The worst of `starts` with its value: the first start with the
    /// least value under a probability objective (the quantifier of an
    /// arrow `U —t→_p U'`), the first with the greatest under a cost
    /// objective. `None` for an empty start set.
    ///
    /// # Errors
    ///
    /// [`MdpError::Unsolved`] naming the first start outside the solved
    /// cone (its value is `NaN`, see [`Query::cone`]). Under a cost
    /// objective, [`MdpError::DivergentExpectation`] naming the first
    /// start whose expectation is infinite.
    pub fn worst_over(&self, starts: &[usize]) -> Result<Option<(usize, f64)>, MdpError> {
        let cost = matches!(
            self.objective,
            QueryObjective::MinCost | QueryObjective::MaxCost
        );
        let mut worst: Option<(usize, f64)> = None;
        for &s in starts {
            let v = self.values[s];
            if v.is_nan() {
                return Err(MdpError::Unsolved { state: s });
            }
            if cost && v.is_infinite() {
                return Err(MdpError::DivergentExpectation { state: s });
            }
            let worse = match worst {
                None => true,
                Some((_, w)) if cost => v > w,
                Some((_, w)) => v < w,
            };
            if worse {
                worst = Some((s, v));
            }
        }
        Ok(worst)
    }
}

/// A builder for one quantitative analysis over all adversaries: pick an
/// objective, a target, optionally a time horizon / solver / tolerance /
/// policy extraction / level callback, then [`run`](Query::run).
///
/// See the [module docs](self) for an example and the solver-selection
/// guidance.
pub struct Query<'m> {
    model: &'m dyn CsrSource,
    objective: QueryObjective,
    target: Option<Result<Vec<bool>, MdpError>>,
    horizon: Option<u32>,
    solver: Option<Solver>,
    options: IterOptions,
    with_policy: bool,
    cone: Option<Vec<usize>>,
    on_level: Option<LevelFn<'m>>,
}

/// A [`Query::on_level`] callback.
type LevelFn<'m> = Box<dyn FnMut(u32, &[f64]) + 'm>;

impl<'m> Query<'m> {
    /// Starts a query over an in-core model, a source with a single block
    /// (flatten a hand-built [`crate::ExplicitMdp`] with `CsrMdp::from`
    /// first).
    pub fn csr(mdp: &'m CsrMdp) -> Query<'m> {
        Query::source(mdp)
    }

    /// Starts a query over any CSR backend — in-core or out-of-core —
    /// behind the [`CsrSource`] trait.
    ///
    /// Every backend runs the same kernels, so the values are bitwise
    /// identical for any block structure (see the [`crate::source`] module
    /// docs). The solver follows the block count (see the
    /// [module docs](self)): a single-block source routes exactly like an
    /// in-core model. A multi-block bounded probability query pages each
    /// block once per budget level when the model's zero-cost transitions
    /// all point to higher state ids or to the target, and otherwise falls
    /// back to Jacobi. Pinned to [`Solver::SccOrdered`], a multi-block
    /// source fails such a model at the `"solve"` stage, and an unbounded
    /// or expected-cost query at `"validate"`.
    pub fn source(model: &'m dyn CsrSource) -> Query<'m> {
        Query {
            model,
            objective: QueryObjective::MinProb,
            target: None,
            horizon: None,
            solver: None,
            options: IterOptions::default(),
            with_policy: false,
            cone: None,
            on_level: None,
        }
    }

    /// Sets the objective (default [`QueryObjective::MinProb`]).
    pub fn objective(mut self, objective: impl Into<QueryObjective>) -> Self {
        self.objective = objective.into();
        self
    }

    /// Sets the target set: a `bool` mask (`Vec<bool>` / `&[bool]`) or a
    /// list of state indices (`Vec<usize>` / `&[usize]`). Resolution
    /// errors are deferred to [`Query::run`].
    pub fn target(mut self, target: impl IntoTarget) -> Self {
        let n = self.model.num_states();
        self.target = Some(target.into_target(n));
        self
    }

    /// Sets the target set from a predicate over state indices.
    pub fn target_where(mut self, mut pred: impl FnMut(usize) -> bool) -> Self {
        let n = self.model.num_states();
        self.target = Some(Ok((0..n).map(&mut pred).collect()));
        self
    }

    /// Bounds the total accumulated cost (time, under the round-based
    /// model): the query becomes cost-bounded backward induction.
    /// Probability objectives only.
    pub fn horizon(mut self, budget: u32) -> Self {
        self.horizon = Some(budget);
        self
    }

    /// Picks the solver for this query (default: automatic selection — see
    /// the [module docs](self)).
    pub fn solver(mut self, solver: Solver) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Sets the convergence tolerance of iterative solves.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.options.epsilon = epsilon;
        self
    }

    /// Caps the number of sweeps of iterative solves.
    pub fn max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.options.max_sweeps = max_sweeps;
        self
    }

    /// Sets both iteration options at once.
    pub fn options(mut self, options: IterOptions) -> Self {
        self.options = options;
        self
    }

    /// Also extracts the optimal cost-indexed policy (the concrete
    /// worst-case or best-case adversary). Requires a [`Query::horizon`].
    pub fn with_policy(mut self) -> Self {
        self.with_policy = true;
        self
    }

    /// Restricts a bounded probability query to the cone of `starts`: the
    /// states reachable from them without passing a target state, which
    /// are all the states their values depend on. On a single-block
    /// source the query solves the cone's states alone, in place over the
    /// source's rows, and reports `NaN` values and `None` decisions
    /// outside it; a multi-block source solves the whole model. Inside the
    /// cone the values are those of the unrestricted query, bitwise
    /// wherever a level reaches its fixpoint exactly (see the
    /// [module docs](self#cone-restriction)). Unbounded and expected-cost
    /// queries reject a cone.
    pub fn cone(mut self, starts: &[usize]) -> Self {
        self.cone = Some(starts.to_vec());
        self
    }

    /// Calls `f(k, values)` after each budget level `k = 0..=horizon` of a
    /// bounded probability query, with that level's values of every state
    /// (see the [module docs](self#bounded-queries-and-their-levels)),
    /// `NaN` outside a [`Query::cone`]. Unbounded and expected-cost
    /// queries reject it.
    pub fn on_level(mut self, f: impl FnMut(u32, &[f64]) + 'm) -> Self {
        self.on_level = Some(Box::new(f));
        self
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Always a [`MdpError::Query`] naming the failed stage, with the root
    /// cause in its [`source`](std::error::Error::source) chain:
    /// `"target"` for a missing or malformed target, `"validate"` for an
    /// unsupported setting combination ([`MdpError::InvalidQuery`] inside,
    /// or [`MdpError::BadStateIndex`] for a cone start out of range),
    /// `"solve"` for failures of the underlying analysis (including an
    /// [`MdpError::InvalidQuery`] for a model the pinned solver cannot
    /// solve).
    pub fn run(self) -> Result<Analysis, MdpError> {
        let wrap = |stage: &'static str| {
            move |e: MdpError| MdpError::Query {
                stage,
                source: Box::new(e),
            }
        };
        let target = self
            .target
            .ok_or(MdpError::InvalidQuery {
                reason: "no target set; call .target(...) or .target_where(...)".into(),
            })
            .and_then(|t| t)
            .map_err(wrap("target"))?;
        let invalid = |reason: &str| {
            wrap("validate")(MdpError::InvalidQuery {
                reason: reason.into(),
            })
        };
        let pinned = self.solver;
        let src = self.model;
        let one_block = src.num_blocks() == 1;
        let prob_objective = match self.objective {
            QueryObjective::MinProb => Some(Objective::MinProb),
            QueryObjective::MaxProb => Some(Objective::MaxProb),
            QueryObjective::MinCost | QueryObjective::MaxCost => None,
        };
        let bounded = prob_objective.is_some() && self.horizon.is_some();
        if let Some(starts) = &self.cone {
            if !bounded {
                return Err(invalid(
                    "a cone restricts bounded probability queries only (an iterative solve \
                     stops on the residual over every state, so a cone could change its values)",
                ));
            }
            let num_states = src.num_states();
            if let Some(&index) = starts.iter().find(|&&s| s >= num_states) {
                return Err(wrap("validate")(MdpError::BadStateIndex {
                    index,
                    num_states,
                }));
            }
        }
        if self.on_level.is_some() && !bounded {
            return Err(invalid(
                "on_level reports the levels of bounded probability queries only",
            ));
        }
        if pinned == Some(Solver::SccOrdered) && !one_block && !bounded {
            return Err(invalid(
                "multi-block sources run unbounded and expected-cost queries on the Jacobi \
                 solver only (the SCC-ordered solver needs rows that span every state)",
            ));
        }
        match (prob_objective, self.horizon) {
            (Some(_), None) if self.with_policy => {
                return Err(invalid(
                    "policy extraction requires a horizon (cost-indexed policies are only \
                     defined for bounded queries)",
                ))
            }
            (None, horizon) if horizon.is_some() || self.with_policy => {
                return Err(invalid(
                    "expected-cost objectives support neither a horizon nor policy extraction",
                ))
            }
            _ => {}
        }

        let mut solver = pinned.unwrap_or(Solver::Jacobi);
        let mut stats = SolveStats::default();
        let mut policy = None;
        let values = match (prob_objective, self.horizon) {
            (Some(objective), Some(budget)) => {
                let solve = wrap("solve");
                let cone = match &self.cone {
                    Some(starts) if one_block => find_cone(src, starts, &target).map_err(solve)?,
                    _ => None,
                };
                let cone = cone.as_deref();
                // A single-block source unless pinned to Jacobi: the
                // zero-cost condensation, which picks SCC or Jacobi.
                let condensation = (one_block && pinned != Some(Solver::Jacobi))
                    .then(|| with_one_block(src, |rows| scc::zero_cost_scc(rows, cone, &target)))
                    .transpose()
                    .map_err(solve)?;
                let level_solver = match (pinned, &condensation) {
                    (Some(Solver::Jacobi), _) => LevelSolver::Jacobi,
                    (Some(_), Some(scc)) => LevelSolver::Scc(scc),
                    (None, Some(scc)) if scc.num_nontrivial() == 0 => LevelSolver::Scc(scc),
                    (None, Some(_)) => LevelSolver::Jacobi,
                    (pinned, None) => LevelSolver::Reverse {
                        strict: pinned == Some(Solver::SccOrdered),
                    },
                };
                let mut decisions = Vec::new();
                let mut on_level = self.on_level.unwrap_or_else(|| Box::new(|_, _| {}));
                let (values, ran) = source::bounded_levels(
                    src,
                    &target,
                    cone,
                    budget,
                    objective,
                    level_solver,
                    self.with_policy.then_some(&mut decisions),
                    &mut *on_level,
                    &mut stats,
                )
                .map_err(solve)?;
                policy = self.with_policy.then_some(BoundedPolicy {
                    decision: decisions,
                });
                solver = ran;
                Ok(values)
            }
            (Some(objective), None) => {
                source::reach_prob(src, &target, objective, self.options, solver, &mut stats)
            }
            (None, _) => {
                // The cost direction, in the probability objectives' terms.
                let objective = match self.objective {
                    QueryObjective::MaxCost => Objective::MaxProb,
                    _ => Objective::MinProb,
                };
                let live =
                    source::finite_cost_states(src, &target, objective).map_err(wrap("solve"))?;
                source::expected_cost(
                    src,
                    &target,
                    &live,
                    objective,
                    self.options,
                    solver,
                    &mut stats,
                )
            }
        }
        .map_err(wrap("solve"))?;
        Ok(Analysis {
            values,
            policy,
            stats,
            objective: self.objective,
            solver,
            horizon: self.horizon,
        })
    }
}

/// The cone of `starts` under `target` on a single-block source, as an
/// ascending id list; `None` when it holds every state, so the query
/// solves the source as if no cone were named.
fn find_cone(
    src: &dyn CsrSource,
    starts: &[usize],
    target: &[bool],
) -> Result<Option<Vec<usize>>, MdpError> {
    let _span = pa_telemetry::span("mdp.query.cone_seconds");
    let cone = with_one_block(src, |rows| source::cone(rows, starts, target))?;
    if pa_telemetry::enabled() {
        pa_telemetry::counter("mdp.query.cone_states").add(cone.len() as u64);
    }
    Ok((cone.len() < src.num_states()).then_some(cone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, ExplicitMdp};

    /// Geometric trial: each round, flip a coin; heads wins.
    /// State 0 = trying, 1 = won.
    fn geometric_trial() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap()
    }

    fn geometric() -> CsrMdp {
        CsrMdp::from(&geometric_trial())
    }

    /// Expected costs of `m` under `objective` (Jacobi), root errors.
    fn expected(
        m: &ExplicitMdp,
        objective: QueryObjective,
        target: &[bool],
    ) -> Result<Vec<f64>, MdpError> {
        Query::csr(&CsrMdp::from(m))
            .objective(objective)
            .target(target)
            .solver(Solver::Jacobi)
            .run()
            .map(|a| a.values)
            .map_err(MdpError::into_root)
    }

    #[test]
    fn target_accepts_mask_indices_and_predicate() {
        let m = geometric();
        let by_mask = Query::csr(&m)
            .target(vec![false, true])
            .horizon(3)
            .run()
            .unwrap();
        let by_index = Query::csr(&m).target(vec![1]).horizon(3).run().unwrap();
        let by_pred = Query::csr(&m)
            .target_where(|s| s == 1)
            .horizon(3)
            .run()
            .unwrap();
        assert_eq!(by_mask.values, by_index.values);
        assert_eq!(by_mask.values, by_pred.values);
        assert_eq!(by_mask.values[0], 0.875);
    }

    #[test]
    fn missing_target_is_reported_at_the_target_stage() {
        let err = Query::csr(&geometric()).horizon(1).run().unwrap_err();
        assert!(matches!(
            err,
            MdpError::Query {
                stage: "target",
                ..
            }
        ));
        assert!(matches!(err.into_root(), MdpError::InvalidQuery { .. }));
    }

    #[test]
    fn out_of_range_index_target_surfaces_bad_state_index() {
        let err = Query::csr(&geometric())
            .target(vec![7usize])
            .horizon(1)
            .run()
            .unwrap_err();
        assert_eq!(
            err.into_root(),
            MdpError::BadStateIndex {
                index: 7,
                num_states: 2
            }
        );
    }

    #[test]
    fn horizon_on_cost_objective_is_rejected() {
        let err = Query::csr(&geometric())
            .objective(QueryObjective::MaxCost)
            .target(vec![1])
            .horizon(3)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            MdpError::Query {
                stage: "validate",
                ..
            }
        ));
    }

    #[test]
    fn unbounded_policy_extraction_is_rejected() {
        let err = Query::csr(&geometric())
            .target(vec![1])
            .with_policy()
            .run()
            .unwrap_err();
        assert!(matches!(err.into_root(), MdpError::InvalidQuery { .. }));
    }

    #[test]
    fn expected_cost_objective_runs_both_solvers() {
        let m = geometric();
        for solver in [Solver::Jacobi, Solver::SccOrdered] {
            let a = Query::csr(&m)
                .objective(QueryObjective::MaxCost)
                .target(vec![1])
                .solver(solver)
                .run()
                .unwrap();
            assert!((a.values[0] - 2.0).abs() < 1e-6, "{solver:?}");
            assert_eq!(a.solver, solver);
        }
    }

    fn analysis(objective: QueryObjective, values: Vec<f64>) -> Analysis {
        Analysis {
            values,
            policy: None,
            stats: SolveStats::default(),
            objective,
            solver: Solver::Jacobi,
            horizon: None,
        }
    }

    #[test]
    fn worst_over_picks_the_first_worst_start_by_objective() {
        let values = vec![0.5, 0.25, 0.75, 0.25, 0.75];
        for objective in [QueryObjective::MinProb, QueryObjective::MaxProb] {
            let a = analysis(objective, values.clone());
            assert_eq!(a.worst_over(&[]).unwrap(), None);
            assert_eq!(a.worst_over(&[0, 1, 2, 3]).unwrap(), Some((1, 0.25)));
            assert_eq!(a.worst_over(&[4, 2, 0]).unwrap(), Some((0, 0.5)));
        }
        for objective in [QueryObjective::MinCost, QueryObjective::MaxCost] {
            let a = analysis(objective, values.clone());
            assert_eq!(a.worst_over(&[]).unwrap(), None);
            assert_eq!(a.worst_over(&[0, 1, 2, 3, 4]).unwrap(), Some((2, 0.75)));
            assert_eq!(a.worst_over(&[3, 1]).unwrap(), Some((3, 0.25)));
        }
    }

    #[test]
    fn worst_over_names_the_first_divergent_start() {
        let a = analysis(
            QueryObjective::MaxCost,
            vec![1.0, f64::INFINITY, 2.0, f64::INFINITY],
        );
        assert_eq!(a.worst_over(&[0, 2]).unwrap(), Some((2, 2.0)));
        assert_eq!(
            a.worst_over(&[0, 3, 1]),
            Err(MdpError::DivergentExpectation { state: 3 })
        );
        // A probability objective has no divergence: ∞ is never least.
        let p = analysis(QueryObjective::MinProb, a.values.clone());
        assert_eq!(p.worst_over(&[3, 0]).unwrap(), Some((0, 1.0)));
    }

    #[test]
    fn worst_over_reads_expected_costs_of_a_solved_model() {
        // Geometric trial: expected time 2 from state 0, 0 at the target.
        let e = Query::csr(&geometric())
            .objective(QueryObjective::MaxCost)
            .target(vec![false, true])
            .run()
            .unwrap();
        let (state, worst) = e.worst_over(&[0, 1]).unwrap().unwrap();
        assert_eq!(state, 0);
        assert!((worst - 2.0).abs() < 1e-6);
        // The adversary can loop forever away from the target.
        let m = CsrMdp::from(
            &ExplicitMdp::new(
                vec![vec![Choice::to(1, 0), Choice::to(1, 1)], vec![]],
                vec![0],
            )
            .unwrap(),
        );
        let e = Query::csr(&m)
            .objective(QueryObjective::MaxCost)
            .target(vec![false, true])
            .run()
            .unwrap();
        assert!(e.values[0].is_infinite());
        assert!(matches!(
            e.worst_over(&[0]),
            Err(MdpError::DivergentExpectation { state: 0 })
        ));
    }

    #[test]
    fn geometric_expected_time_is_two() {
        let e = Query::csr(&geometric())
            .objective(QueryObjective::MaxCost)
            .target(vec![false, true])
            .run()
            .unwrap();
        assert!((e.values[0] - 2.0).abs() < 1e-6, "{}", e.values[0]);
        assert_eq!(e.values[1], 0.0);
    }

    #[test]
    fn target_states_cost_zero() {
        let e = Query::csr(&geometric())
            .objective(QueryObjective::MaxCost)
            .target(vec![true, true])
            .run()
            .unwrap();
        assert_eq!(e.values, vec![0.0, 0.0]);
    }

    #[test]
    fn the_adversary_picks_the_slow_branch_and_the_scheduler_the_fast_one() {
        // Choice A: reach the target in 1 step; choice B: geometric with
        // expectation 4 (p = 1/4).
        let m = ExplicitMdp::new(
            vec![
                vec![
                    Choice::to(1, 1),
                    Choice::dist(1, vec![(1, 0.25), (0, 0.75)]),
                ],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let hi = expected(&m, QueryObjective::MaxCost, &[false, true]).unwrap();
        assert!((hi[0] - 4.0).abs() < 1e-6, "{}", hi[0]);
        let lo = expected(&m, QueryObjective::MinCost, &[false, true]).unwrap();
        assert!((lo[0] - 1.0).abs() < 1e-9, "{}", lo[0]);
    }

    #[test]
    fn slow_mixing_chain_is_still_proper() {
        // The single choice leaks to the target with probability 1e-6 and
        // otherwise self-loops: Pmin = 1, so the expectation is finite
        // (1e6 rounds), but numeric value iteration on the reachability
        // probability stops far below 1. A thresholded numeric properness
        // mask misclassified exactly this shape as divergent (observed on
        // the batch driver's shared ring models); the qualitative prob1
        // mask must keep it live under both analyses.
        let m = ExplicitMdp::new(
            vec![
                vec![Choice::dist(1, vec![(0, 1.0 - 1e-6), (1, 1e-6)])],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let hi = expected(&m, QueryObjective::MaxCost, &[false, true]).unwrap();
        assert!(hi[0].is_finite(), "proper state marked divergent");
        // The cost iteration is itself sweep-capped well short of
        // convergence here; only finiteness and the right order of
        // magnitude are owed.
        assert!(hi[0] > 1.0e5, "{}", hi[0]);
        let lo = expected(&m, QueryObjective::MinCost, &[false, true]).unwrap();
        assert!(lo[0].is_finite(), "feasible state marked divergent");
    }

    #[test]
    fn zero_cost_steps_add_no_time() {
        // 0 -0-> 1 -1-> 2 (target): expected cost 1.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(0, 1)], vec![Choice::to(1, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        let e = expected(&m, QueryObjective::MaxCost, &[false, false, true]).unwrap();
        assert!((e[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_cost_rejects_zero_cost_cycles_and_marks_unreachable_states_infinite() {
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(0, 0), Choice::to(1, 1)], vec![]],
            vec![0],
        )
        .unwrap();
        assert!(matches!(
            expected(&m, QueryObjective::MinCost, &[false, true]),
            Err(MdpError::DivergentExpectation { .. })
        ));
        let m = ExplicitMdp::new(vec![vec![], vec![]], vec![0]).unwrap();
        let e = expected(&m, QueryObjective::MinCost, &[false, true]).unwrap();
        assert!(e[0].is_infinite());
    }

    #[test]
    fn min_is_below_max() {
        let m = ExplicitMdp::new(
            vec![
                vec![Choice::to(1, 1), Choice::dist(1, vec![(1, 0.5), (0, 0.5)])],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let lo = expected(&m, QueryObjective::MinCost, &[false, true]).unwrap();
        let hi = expected(&m, QueryObjective::MaxCost, &[false, true]).unwrap();
        assert!(lo[0] <= hi[0]);
    }

    /// Bounded reachability values of `mdp`, root errors.
    fn cost_bounded_reach(
        mdp: &ExplicitMdp,
        target: &[bool],
        budget: u32,
        objective: Objective,
    ) -> Result<Vec<f64>, MdpError> {
        Ok(Query::csr(&CsrMdp::from(mdp))
            .objective(objective)
            .target(target)
            .horizon(budget)
            .run()
            .map_err(MdpError::into_root)?
            .values)
    }

    fn cost_bounded_reach_with_policy(
        mdp: &ExplicitMdp,
        target: &[bool],
        budget: u32,
        objective: Objective,
    ) -> Result<(Vec<f64>, BoundedPolicy), MdpError> {
        let analysis = Query::csr(&CsrMdp::from(mdp))
            .objective(objective)
            .target(target)
            .horizon(budget)
            .with_policy()
            .run()
            .map_err(MdpError::into_root)?;
        let policy = analysis
            .policy
            .expect("with_policy() query returns a policy");
        Ok((analysis.values, policy))
    }

    #[test]
    fn geometric_bounded_reach_is_one_minus_half_pow() {
        let m = geometric_trial();
        let target = [false, true];
        for budget in 0..6 {
            let v = cost_bounded_reach(&m, &target, budget, Objective::MinProb).unwrap();
            let expect = 1.0 - 0.5f64.powi(budget as i32);
            assert!(
                (v[0] - expect).abs() < 1e-12,
                "budget {budget}: {} vs {expect}",
                v[0]
            );
        }
    }

    #[test]
    fn target_states_have_probability_one_at_zero_budget() {
        let m = geometric_trial();
        let v = cost_bounded_reach(&m, &[false, true], 0, Objective::MinProb).unwrap();
        assert_eq!(v[1], 1.0);
    }

    /// Adversary picks between a safe branch (never reaches) and a risky
    /// branch (reaches with probability 1): min picks safe, max risky.
    fn pick() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![
                vec![Choice::to(1, 1), Choice::to(1, 2)],
                vec![], // dead end
                vec![], // target
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn min_and_max_differ_under_nondeterminism() {
        let m = pick();
        let target = [false, false, true];
        let vmin = cost_bounded_reach(&m, &target, 3, Objective::MinProb).unwrap();
        let vmax = cost_bounded_reach(&m, &target, 3, Objective::MaxProb).unwrap();
        assert_eq!(vmin[0], 0.0);
        assert_eq!(vmax[0], 1.0);
    }

    #[test]
    fn zero_cost_steps_do_not_consume_budget() {
        // 0 -0-> 1 -0-> 2 (target): reachable even with budget 0.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(0, 1)], vec![Choice::to(0, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        let v = cost_bounded_reach(&m, &[false, false, true], 0, Objective::MinProb).unwrap();
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn cost_one_steps_consume_budget() {
        // 0 -1-> 1 -1-> 2 (target): needs budget 2.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(1, 1)], vec![Choice::to(1, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        let target = [false, false, true];
        let v1 = cost_bounded_reach(&m, &target, 1, Objective::MinProb).unwrap();
        let v2 = cost_bounded_reach(&m, &target, 2, Objective::MinProb).unwrap();
        assert_eq!(v1[0], 0.0);
        assert_eq!(v2[0], 1.0);
    }

    #[test]
    fn levels_are_monotone_in_budget_and_end_at_the_answer() {
        let m = geometric();
        let mut levels = Vec::new();
        let a = Query::csr(&m)
            .target(vec![false, true])
            .horizon(8)
            .on_level(|k, v| levels.push((k, v.to_vec())))
            .run()
            .unwrap();
        assert_eq!(levels.len(), 9);
        for (k, (level, v)) in levels.iter().enumerate() {
            assert_eq!(*level as usize, k);
            assert_eq!(v[0], 1.0 - 0.5f64.powi(k as i32));
        }
        assert_eq!(levels[8].1, a.values);
    }

    #[test]
    fn on_level_is_rejected_by_unbounded_and_expected_cost_queries() {
        let m = geometric();
        for objective in [QueryObjective::MinProb, QueryObjective::MaxCost] {
            let err = Query::csr(&m)
                .objective(objective)
                .target(vec![1])
                .on_level(|_, _| {})
                .run()
                .unwrap_err();
            assert!(matches!(
                err,
                MdpError::Query {
                    stage: "validate",
                    ..
                }
            ));
            assert!(matches!(err.into_root(), MdpError::InvalidQuery { .. }));
        }
    }

    #[test]
    fn on_level_reports_a_cone_in_the_source_numbering() {
        // 0 —1→ {1, 0} half each, 1 the target, and 2 —1→ 1 outside the
        // cone of 0.
        let m = CsrMdp::from(
            &ExplicitMdp::new(
                vec![
                    vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])],
                    vec![],
                    vec![Choice::to(1, 1)],
                ],
                vec![0],
            )
            .unwrap(),
        );
        let mut levels = Vec::new();
        let a = Query::csr(&m)
            .target(vec![1])
            .horizon(3)
            .cone(&[0])
            .on_level(|k, v| levels.push((k, v.to_vec())))
            .run()
            .unwrap();
        assert_eq!(levels.len(), 4);
        for (k, (level, v)) in levels.iter().enumerate() {
            assert_eq!(*level as usize, k);
            assert_eq!(v[..2], [1.0 - 0.5f64.powi(k as i32), 1.0]);
            assert!(v[2].is_nan(), "2 lies outside the cone");
        }
        assert_eq!(levels[3].1[..2], a.values[..2]);
    }

    #[test]
    fn rejects_costs_above_one() {
        let m = ExplicitMdp::new(vec![vec![Choice::to(2, 0)]], vec![0]).unwrap();
        assert!(matches!(
            cost_bounded_reach(&m, &[false], 3, Objective::MinProb),
            Err(MdpError::BadDistribution { .. })
        ));
    }

    #[test]
    fn rejects_bad_target_length() {
        let m = geometric_trial();
        assert!(matches!(
            cost_bounded_reach(&m, &[false], 3, Objective::MinProb),
            Err(MdpError::TargetLengthMismatch { .. })
        ));
    }

    #[test]
    fn policy_extraction_picks_optimal_choice() {
        let m = pick();
        let target = [false, false, true];
        let (_, pmin) = cost_bounded_reach_with_policy(&m, &target, 3, Objective::MinProb).unwrap();
        let (_, pmax) = cost_bounded_reach_with_policy(&m, &target, 3, Objective::MaxProb).unwrap();
        // With budget remaining, min avoids the target (choice 0 → dead end),
        // max goes for it (choice 1 → target).
        assert_eq!(pmin.choice(0, 3), Some(0));
        assert_eq!(pmax.choice(0, 3), Some(1));
        // Terminal states have no decision.
        assert_eq!(pmin.choice(1, 3), None);
    }

    #[test]
    fn policy_clamps_budget_lookup() {
        let m = pick();
        let (_, p) =
            cost_bounded_reach_with_policy(&m, &[false, false, true], 1, Objective::MaxProb)
                .unwrap();
        assert_eq!(p.choice(0, 99), p.choice(0, 1));
    }
}
