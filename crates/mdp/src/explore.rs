//! State-space exploration: building a [`CsrMdp`] from an implicit
//! [`pa_core::Automaton`].
//!
//! The single entry point is the [`Explore`] builder:
//!
//! ```ignore
//! let explored = Explore::new(&model)
//!     .cost(round_cost)             // default: every transition costs 1
//!     .symmetry(RingRotation::new(n)) // default: no reduction
//!     .limit(20_000_000)
//!     .run()?;                      // or .run_in(PackedSpace::new(codec))
//! ```
//!
//! # One BFS core, rows straight into CSR
//!
//! The engine is a FIFO breadth-first search. It enumerates a state's
//! steps through [`Automaton::for_each_step`] and writes its choices into
//! one reusable flat row buffer — costs, transition ends, `u32` successor
//! ids and probabilities — so exploration allocates nothing per state or
//! per choice. States are interned through a [`StateSpace`] (hashing with
//! the crate's [`FxHashMap`]; SipHash dominated the profile, and model
//! states are not attacker-controlled, see [`crate::fxhash`]). Interning a
//! packed word hashes and probes once, through the map's entry API,
//! whether the state is new or known. Ids are assigned in discovery
//! order, so a popped state's row is final at once: it is validated (as
//! [`crate::ExplicitMdp::new`] would: non-empty support, finite
//! non-negative weights summing to one) and handed to a [`RowSink`] in
//! dense-id order (`0, 1, 2, …`). [`Explore::run_in`] passes the in-core
//! sink, a [`CsrBuilder`], whose arrays become [`Explored::mdp`];
//! [`Explore::run_streamed`] passes the caller's sink (e.g. `pa-store`'s
//! block writer). No nested model is built, copied or dropped on either
//! path.
//!
//! The engine runs on the calling thread. Callers that want parallelism
//! run independent questions side by side (as `pa-batch`'s workers do),
//! so one run's ids, rows and the state at which a
//! [`MdpError::StateLimitExceeded`] or a [`MdpError::BadDistribution`]
//! fires depend on the model alone.
//!
//! With a [`Symmetry`] installed, every start state and every successor is
//! canonicalized to its orbit representative before interning, so the
//! explorer builds the *quotient* MDP (up to `order()`-fold smaller). The
//! cost function must be constant on orbits (all shipped cost functions
//! depend only on the action).
//!
//! Successor ids are `u32` in CSR, so the state limit is capped at `2^32`.

use std::collections::VecDeque;
use std::marker::PhantomData;

use pa_core::Automaton;

use crate::csr::{CsrBuilder, CsrRow};
use crate::fxhash::FxHashMap;
use crate::space::{BoxedSpace, StateSpace};
use crate::symmetry::Symmetry;
use crate::{CsrMdp, MdpError};

/// The result of exploring an implicit model: the CSR model plus the state
/// store mapping dense indices to concrete states.
///
/// Choice order is preserved: state `i`'s `k`-th choice
/// (`mdp.rows().choice_range(i).nth(k)`) corresponds to
/// `automaton.steps(&state(i))[k]`, so an optimal policy over the explicit
/// model can be replayed on the implicit one. The space parameter defaults
/// to the boxed representation; [`crate::PackedSpace`] substitutes a
/// fixed-width encoded store with the same dense ids.
#[derive(Debug, Clone)]
pub struct Explored<S, SP = BoxedSpace<S>> {
    /// The state store: dense id ↔ concrete state.
    pub space: SP,
    /// The explored model.
    pub mdp: CsrMdp,
    marker: PhantomData<fn() -> S>,
}

impl<S, SP: StateSpace<S>> Explored<S, SP> {
    /// Wraps a state store and model pair.
    fn new(space: SP, mdp: CsrMdp) -> Explored<S, SP> {
        Explored {
            space,
            mdp,
            marker: PhantomData,
        }
    }

    /// Decodes the concrete state with dense index `i`.
    pub fn state(&self, i: usize) -> S {
        self.space.state(i)
    }

    /// Number of explored states.
    pub fn num_states(&self) -> usize {
        self.space.len()
    }

    /// Builds a dense boolean target vector from a state predicate.
    ///
    /// This is the bridge between the two target conventions in this crate:
    /// analyses take dense `&[bool]` masks (states are anonymous indices
    /// there), while exploration-level code thinks in predicates over
    /// concrete states. [`Explored::query_where`] composes the two
    /// directly; [`crate::Query::target`] also accepts index lists.
    pub fn target_where(&self, mut pred: impl FnMut(&S) -> bool) -> Vec<bool> {
        let mut out = vec![false; self.space.len()];
        self.space.for_each_state(|i, s| out[i] = pred(s));
        out
    }

    /// Starts a [`crate::Query`] over the explored model.
    pub fn query(&self) -> crate::Query<'_> {
        crate::Query::csr(&self.mdp)
    }

    /// Starts a [`crate::Query`] targeting the states that satisfy `pred`.
    pub fn query_where(&self, pred: impl FnMut(&S) -> bool) -> crate::Query<'_> {
        let target = self.target_where(pred);
        self.query().target(target)
    }

    /// Dense index of a concrete state, or `None` when it was never
    /// reached. This is the lookup direction policy replay needs: a
    /// trajectory's concrete state maps back to the index the extracted
    /// [`crate::BoundedPolicy`] was computed over.
    ///
    /// On a quotient model the store holds orbit representatives only —
    /// canonicalize the probe with the same [`Symmetry`] before looking it
    /// up.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.space.get(state)
    }

    /// Indices of states satisfying a predicate.
    pub fn states_where(&self, mut pred: impl FnMut(&S) -> bool) -> Vec<usize> {
        let mut out = Vec::new();
        self.space.for_each_state(|i, s| {
            if pred(s) {
                out.push(i);
            }
        });
        out
    }

    /// Estimated resident bytes of the state store (see
    /// [`StateSpace::mem_bytes`]); [`CsrMdp::mem_bytes`] counts the model.
    pub fn mem_bytes(&self) -> u64 {
        self.space.mem_bytes()
    }
}

/// An explored model as a checker reads it: a state store plus the rows
/// over the same dense ids. [`Explored`] holds its rows in core,
/// `pa-store`'s `StoredModel` pages them from disk, and a `(space, rows)`
/// pair joins a store to rows opened separately.
pub trait StateRows<S> {
    /// The state store's type.
    type Space: StateSpace<S>;
    /// The state store.
    fn space(&self) -> &Self::Space;
    /// The rows.
    fn rows(&self) -> &dyn crate::CsrSource;
}

impl<S, SP: StateSpace<S>> StateRows<S> for Explored<S, SP> {
    type Space = SP;
    fn space(&self) -> &SP {
        &self.space
    }
    fn rows(&self) -> &dyn crate::CsrSource {
        &self.mdp
    }
}

impl<S, SP: StateSpace<S>, R: crate::CsrSource> StateRows<S> for (&SP, &R) {
    type Space = SP;
    fn space(&self) -> &SP {
        self.0
    }
    fn rows(&self) -> &dyn crate::CsrSource {
        self.1
    }
}

impl<S: Clone + Eq + std::hash::Hash> Explored<S, BoxedSpace<S>> {
    /// The explored states in id order (boxed representation only).
    pub fn states(&self) -> &[S] {
        self.space.states()
    }

    /// Consumes the exploration into its state vector.
    pub fn into_states(self) -> Vec<S> {
        self.space.into_states()
    }
}

/// Builder for state-space exploration — see the crate docs for the
/// contract and an example.
pub struct Explore<
    'a,
    M: Automaton,
    F = fn(&<M as Automaton>::State, &<M as Automaton>::Action) -> u32,
> {
    automaton: &'a M,
    cost_of: F,
    limit: usize,
    symmetry: Option<Box<dyn Symmetry<M::State> + 'a>>,
}

/// Successor ids are `u32` in CSR, so no exploration holds more states.
const MAX_STATES: usize = (u32::MAX as usize).saturating_add(1);

/// The default cost function: every transition costs one unit.
fn unit_cost<S, A>(_s: &S, _a: &A) -> u32 {
    1
}

impl<'a, M: Automaton> Explore<'a, M> {
    /// Starts a builder over `automaton` with unit costs, no state limit
    /// and no symmetry reduction.
    pub fn new(automaton: &'a M) -> Explore<'a, M> {
        Explore {
            automaton,
            cost_of: unit_cost::<M::State, M::Action>,
            limit: MAX_STATES,
            symmetry: None,
        }
    }
}

impl<'a, M: Automaton, F> Explore<'a, M, F> {
    /// Sets the transition cost function (replacing the unit default).
    /// With a symmetry installed the function must be constant on orbits.
    pub fn cost<F2: Fn(&M::State, &M::Action) -> u32>(self, cost_of: F2) -> Explore<'a, M, F2> {
        Explore {
            automaton: self.automaton,
            cost_of,
            limit: self.limit,
            symmetry: self.symmetry,
        }
    }

    /// Caps the number of explored states;
    /// [`MdpError::StateLimitExceeded`] fires beyond it.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit.min(MAX_STATES);
        self
    }

    /// Does nothing: exploration is serial. Kept only because the
    /// benchmark's traced claim replay (`perfbench/src/claims.rs`) still
    /// calls it; it goes with that replay's next update (ROADMAP item 6).
    #[doc(hidden)]
    pub fn parallel(self) -> Self {
        self
    }

    /// Installs a symmetry: states are canonicalized to orbit
    /// representatives before interning, building the quotient MDP.
    pub fn symmetry(mut self, symmetry: impl Symmetry<M::State> + 'a) -> Self {
        self.symmetry = Some(Box::new(symmetry));
        self
    }
}

/// A row-by-row consumer of an exploration: receives each explored
/// state's validated choices exactly once, in dense-id order
/// (`0, 1, 2, …`), as a flat [`CsrRow`].
///
/// [`CsrBuilder`] is the in-core sink behind [`Explore::run_in`];
/// `pa-store`'s block writer implements this to spill CSR blocks to disk
/// as exploration closes them ([`Explore::run_streamed`]).
pub trait RowSink {
    /// Consumes state `id`'s choices. `id` increases by exactly one per
    /// call. Errors (e.g. I/O failures of a disk spill) abort the
    /// exploration; [`MdpError::Backend`] is the conventional carrier.
    fn state_row(&mut self, id: usize, row: CsrRow<'_>) -> Result<(), MdpError>;
}

/// Counts of a finished exploration — what [`Explore::run_streamed`]
/// reports alongside the state store, whatever the sink kept of the rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// The initial state indices.
    pub initial: Vec<usize>,
    /// Number of explored states (rows emitted).
    pub num_states: usize,
    /// Total number of choices across all rows.
    pub num_choices: u64,
    /// Total number of probabilistic transitions across all rows.
    pub num_transitions: u64,
}

impl<M, F> Explore<'_, M, F>
where
    M: Automaton,
    F: Fn(&M::State, &M::Action) -> u32,
{
    /// Runs the exploration into the default boxed state store.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateLimitExceeded`] if more than the configured
    /// limit of states is discovered, [`MdpError::NoInitialStates`] for a
    /// model without start states, and [`MdpError::BadDistribution`] for a
    /// malformed step distribution (a bug in the implicit model).
    pub fn run(self) -> Result<Explored<M::State>, MdpError> {
        self.run_in(BoxedSpace::default())
    }

    /// Runs the exploration into an explicit state store (e.g. a
    /// [`crate::PackedSpace`] holding fixed-width encoded states), with the
    /// rows written straight into the in-core [`CsrMdp`].
    ///
    /// # Errors
    ///
    /// Same as [`Explore::run`].
    pub fn run_in<SP>(self, space: SP) -> Result<Explored<M::State, SP>, MdpError>
    where
        SP: StateSpace<M::State>,
    {
        let mut csr = CsrBuilder::new();
        let (space, summary) = self.explore_into(space, &mut csr)?;
        Ok(Explored::new(space, csr.finish(summary.initial)))
    }

    /// Runs the exploration, streaming each state's row to `sink` instead
    /// of keeping the model. Returns the state store and the exploration
    /// counts; peak memory is the store (the BFS queue is just the next id
    /// to expand) — the model itself lives wherever the sink puts it.
    ///
    /// Rows are exactly those [`Explore::run_in`] builds its [`CsrMdp`]
    /// from, emitted in dense-id order by the same engine, each as soon as
    /// its state is expanded.
    ///
    /// # Errors
    ///
    /// As [`Explore::run_in`], plus whatever `sink` returns.
    pub fn run_streamed<SP>(
        self,
        space: SP,
        sink: &mut dyn RowSink,
    ) -> Result<(SP, StreamSummary), MdpError>
    where
        SP: StateSpace<M::State>,
    {
        self.explore_into(space, sink)
    }

    /// The one exploration core: runs the BFS into `sink` and records the
    /// run's telemetry.
    fn explore_into<SP, K>(
        self,
        mut space: SP,
        sink: &mut K,
    ) -> Result<(SP, StreamSummary), MdpError>
    where
        SP: StateSpace<M::State>,
        K: RowSink + ?Sized,
    {
        let summary = self.bfs(&mut space, sink)?;
        if pa_telemetry::enabled() {
            pa_telemetry::counter("mdp.explore.runs").inc();
            pa_telemetry::counter("mdp.explore.states").add(summary.num_states as u64);
            pa_telemetry::counter("mdp.explore.choices").add(summary.num_choices);
            pa_telemetry::counter("mdp.explore.transitions").add(summary.num_transitions);
        }
        Ok((space, summary))
    }
}

/// One state's choices under construction: the flat arrays a [`CsrRow`]
/// borrows, reused across states.
#[derive(Debug, Default)]
struct RowBuf {
    costs: Vec<u32>,
    trans_ends: Vec<u32>,
    targets: Vec<u32>,
    probs: Vec<f64>,
}

impl RowBuf {
    fn clear(&mut self) {
        self.costs.clear();
        self.trans_ends.clear();
        self.targets.clear();
        self.probs.clear();
    }

    fn row(&self) -> CsrRow<'_> {
        CsrRow {
            costs: &self.costs,
            trans_ends: &self.trans_ends,
            targets: &self.targets,
            probs: &self.probs,
        }
    }

    /// Validates the row of `state` as [`crate::ExplicitMdp::new`] would
    /// (successor ids come from the interner and are in range by
    /// construction), then hands it to `sink` and adds its counts to
    /// `summary`.
    fn emit<K: RowSink + ?Sized>(
        &self,
        state: usize,
        sink: &mut K,
        summary: &mut StreamSummary,
    ) -> Result<(), MdpError> {
        let row = self.row();
        for k in 0..row.costs.len() {
            let range = row.trans_range(k);
            if range.is_empty() {
                return Err(MdpError::BadDistribution {
                    state,
                    reason: "empty support".into(),
                });
            }
            let mut sum = 0.0;
            for &p in &row.probs[range] {
                if !p.is_finite() || p < 0.0 {
                    return Err(MdpError::BadDistribution {
                        state,
                        reason: format!("weight {p}"),
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-6 {
                return Err(MdpError::BadDistribution {
                    state,
                    reason: format!("weights sum to {sum}"),
                });
            }
        }
        debug_assert_eq!(summary.num_states, state, "rows leave in dense-id order");
        sink.state_row(state, row)?;
        summary.num_states += 1;
        summary.num_choices += row.costs.len() as u64;
        summary.num_transitions += row.targets.len() as u64;
        Ok(())
    }
}

impl<M, F> Explore<'_, M, F>
where
    M: Automaton,
    F: Fn(&M::State, &M::Action) -> u32,
{
    /// Interns `s` (canonicalized first under a symmetry), returning its
    /// id and enforcing the state limit; the hot path (an already-known
    /// successor) is a single hash lookup.
    fn intern<SP: StateSpace<M::State>>(
        &self,
        s: &M::State,
        space: &mut SP,
    ) -> Result<usize, MdpError> {
        let (id, new) = match &self.symmetry {
            Some(sym) => space.intern(&sym.canon(s)),
            None => space.intern(s),
        };
        if new && space.len() > self.limit {
            return Err(MdpError::StateLimitExceeded { limit: self.limit });
        }
        Ok(id)
    }

    /// Interns the start states, returning the initial ids (the first
    /// BFS level is the new ones among them, in id order).
    fn starts<SP: StateSpace<M::State>>(&self, space: &mut SP) -> Result<Vec<usize>, MdpError> {
        let mut initial = Vec::new();
        for s in self.automaton.start_states() {
            initial.push(self.intern(&s, space)?);
        }
        if initial.is_empty() {
            return Err(MdpError::NoInitialStates);
        }
        Ok(initial)
    }

    /// FIFO BFS. Ids are dense in discovery order, so the queue is just
    /// the next id to expand.
    fn bfs<SP, K>(&self, space: &mut SP, sink: &mut K) -> Result<StreamSummary, MdpError>
    where
        SP: StateSpace<M::State>,
        K: RowSink + ?Sized,
    {
        let _span = pa_telemetry::span("mdp.explore.seconds");
        let initial = self.starts(space)?;
        let mut summary = StreamSummary {
            initial,
            num_states: 0,
            num_choices: 0,
            num_transitions: 0,
        };
        let mut row = RowBuf::default();
        let mut failed: Option<MdpError> = None;
        let mut id = 0;
        while id < space.len() {
            let state = space.state(id);
            row.clear();
            self.automaton.for_each_step(&state, |action, outcomes| {
                if failed.is_some() {
                    return;
                }
                row.costs.push((self.cost_of)(&state, action));
                for (t, p) in outcomes {
                    match self.intern(t, space) {
                        Ok(ti) => {
                            row.targets.push(ti as u32);
                            row.probs.push(*p);
                        }
                        Err(e) => {
                            failed = Some(e);
                            return;
                        }
                    }
                }
                row.trans_ends.push(row.targets.len() as u32);
            });
            if let Some(e) = failed {
                return Err(e);
            }
            row.emit(id, sink, &mut summary)?;
            id += 1;
        }
        Ok(summary)
    }
}

/// The outcome of an exhaustive invariant check over the reachable states.
#[derive(Debug, Clone)]
pub enum InvariantResult<S> {
    /// Every reachable state satisfies the invariant.
    Holds {
        /// Number of states examined.
        states_checked: usize,
    },
    /// A reachable state violates the invariant; a shortest witness path of
    /// states from a start state is included.
    Violated {
        /// The violating state.
        state: S,
        /// States along a shortest path from a start state to the violation
        /// (inclusive of both endpoints).
        path: Vec<S>,
    },
}

impl<S> InvariantResult<S> {
    /// `true` when the invariant holds everywhere.
    pub fn holds(&self) -> bool {
        matches!(self, InvariantResult::Holds { .. })
    }
}

/// Exhaustively checks a state invariant over the reachable state space of
/// `automaton` (breadth-first, so a violation comes with a shortest witness
/// path). Used for Lemma 6.1 of the paper.
///
/// # Errors
///
/// Returns [`MdpError::StateLimitExceeded`] if the reachable space exceeds
/// `limit`.
pub fn check_invariant<M: Automaton>(
    automaton: &M,
    mut invariant: impl FnMut(&M::State) -> bool,
    limit: usize,
) -> Result<InvariantResult<M::State>, MdpError> {
    let mut index: FxHashMap<M::State, usize> = FxHashMap::default();
    let mut parent: Vec<Option<usize>> = Vec::new();
    let mut states: Vec<M::State> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let push = |s: &M::State,
                from: Option<usize>,
                index: &mut FxHashMap<M::State, usize>,
                states: &mut Vec<M::State>,
                parent: &mut Vec<Option<usize>>,
                queue: &mut VecDeque<usize>|
     -> Result<Option<usize>, MdpError> {
        if index.contains_key(s) {
            return Ok(None);
        }
        let id = states.len();
        if id >= limit {
            return Err(MdpError::StateLimitExceeded { limit });
        }
        index.insert(s.clone(), id);
        states.push(s.clone());
        parent.push(from);
        queue.push_back(id);
        Ok(Some(id))
    };

    let mut witness: Option<usize> = None;
    'outer: {
        for s in automaton.start_states() {
            if let Some(id) = push(&s, None, &mut index, &mut states, &mut parent, &mut queue)? {
                if !invariant(&states[id]) {
                    witness = Some(id);
                    break 'outer;
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            let state = states[id].clone();
            for step in automaton.steps(&state) {
                for (t, _) in step.target.iter() {
                    if let Some(nid) = push(
                        t,
                        Some(id),
                        &mut index,
                        &mut states,
                        &mut parent,
                        &mut queue,
                    )? {
                        if !invariant(&states[nid]) {
                            witness = Some(nid);
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    match witness {
        None => Ok(InvariantResult::Holds {
            states_checked: states.len(),
        }),
        Some(id) => {
            let mut path = Vec::new();
            let mut cur = Some(id);
            while let Some(i) = cur {
                path.push(states[i].clone());
                cur = parent[i];
            }
            path.reverse();
            Ok(InvariantResult::Violated {
                state: states[id].clone(),
                path,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetry::RingState;
    use pa_core::TableAutomaton;

    fn coin_walk() -> TableAutomaton<u8, &'static str> {
        // 0 --flip--> {1, 2}; 1 --back--> 0; 2 terminal.
        TableAutomaton::builder()
            .start(0)
            .step(0, "flip", [(1, 0.5), (2, 0.5)])
            .unwrap()
            .det_step(1, "back", 0)
            .build()
            .unwrap()
    }

    #[test]
    fn explore_builds_consistent_mapping() {
        let m = coin_walk();
        let e = Explore::new(&m).limit(1000).run().unwrap();
        assert_eq!(e.num_states(), 3);
        assert_eq!(e.mdp.num_states(), 3);
        for (i, s) in e.states().iter().enumerate() {
            assert_eq!(e.index_of(s), Some(i));
        }
        // Initial state is state 0 of the automaton.
        let init = e.mdp.initial_states()[0];
        assert_eq!(e.state(init), 0);
    }

    #[test]
    fn explore_respects_costs() {
        let m = coin_walk();
        let e = Explore::new(&m)
            .cost(|_, a| if *a == "flip" { 1 } else { 0 })
            .limit(1000)
            .run()
            .unwrap();
        let s0 = e.index_of(&0).unwrap();
        let s1 = e.index_of(&1).unwrap();
        let rows = e.mdp.rows();
        assert_eq!(rows.costs[rows.choice_range(s0).start], 1);
        assert_eq!(rows.costs[rows.choice_range(s1).start], 0);
    }

    #[test]
    fn explore_enforces_limit() {
        let m = coin_walk();
        assert!(matches!(
            Explore::new(&m).limit(2).run(),
            Err(MdpError::StateLimitExceeded { limit: 2 })
        ));
    }

    /// A chain `0 → 1 → 2 → …` whose state `bad` steps with weight 1/2.
    struct LeakyChain {
        bad: u8,
    }

    impl Automaton for LeakyChain {
        type State = u8;
        type Action = ();

        fn start_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn steps(&self, _: &u8) -> Vec<pa_core::Step<u8, ()>> {
            unreachable!("exploration enumerates through for_each_step")
        }

        fn for_each_step<F>(&self, s: &u8, mut f: F)
        where
            F: FnMut(&(), &[(u8, f64)]),
        {
            let p = if *s == self.bad { 0.5 } else { 1.0 };
            f(&(), &[(s + 1, p)]);
        }
    }

    #[test]
    fn the_first_bad_row_or_the_limit_stops_exploration() {
        let m = LeakyChain { bad: 3 };
        match Explore::new(&m).limit(100).run() {
            Err(MdpError::BadDistribution { state, .. }) => assert_eq!(state, 3),
            other => panic!("expected a bad distribution, got {:?}", other.err()),
        }
        // Expanding state 2 discovers a fourth state before state 3's row.
        assert!(matches!(
            Explore::new(&m).limit(3).run(),
            Err(MdpError::StateLimitExceeded { limit: 3 })
        ));
    }

    #[test]
    fn target_where_matches_predicate() {
        let m = coin_walk();
        let e = Explore::new(&m).limit(1000).run().unwrap();
        let t = e.target_where(|s| *s == 2);
        assert_eq!(t.iter().filter(|b| **b).count(), 1);
        assert_eq!(e.states_where(|s| *s == 2).len(), 1);
    }

    /// A ring automaton over rotation-closed `Vec<u8>` states: each step
    /// increments one position (saturating at 2), so the full space is all
    /// `{0,1,2}^n` vectors and the quotient is their necklace classes.
    #[derive(Clone)]
    struct RingCounter {
        n: usize,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct RingVec(Vec<u8>);

    impl RingState for RingVec {
        fn rotated(&self, k: usize) -> RingVec {
            let n = self.0.len();
            RingVec((0..n).map(|i| self.0[(i + k) % n]).collect())
        }
    }

    impl Automaton for RingCounter {
        type State = RingVec;
        type Action = usize;

        fn start_states(&self) -> Vec<RingVec> {
            vec![RingVec(vec![0; self.n])]
        }

        fn steps(&self, s: &RingVec) -> Vec<pa_core::Step<RingVec, usize>> {
            (0..self.n)
                .filter(|&i| s.0[i] < 2)
                .map(|i| {
                    let mut t = s.clone();
                    t.0[i] += 1;
                    pa_core::Step::deterministic(i, t)
                })
                .collect()
        }
    }

    #[test]
    fn symmetry_builds_the_quotient() {
        use crate::symmetry::{RingRotation, Symmetry};
        let m = RingCounter { n: 4 };
        let full = Explore::new(&m).limit(100_000).run().unwrap();
        let quot = Explore::new(&m)
            .limit(100_000)
            .symmetry(RingRotation::new(4))
            .run()
            .unwrap();
        // Full space: 3^4 = 81 vectors; necklaces of {0,1,2}^4: 24.
        assert_eq!(full.num_states(), 81);
        assert_eq!(quot.num_states(), 24);
        // Every quotient state is canonical and every full state's orbit
        // representative is present.
        let sym = RingRotation::new(4);
        for i in 0..quot.num_states() {
            let s = quot.state(i);
            assert_eq!(sym.canon(&s), s);
        }
        for i in 0..full.num_states() {
            let rep = sym.canon(&full.state(i));
            assert!(quot.index_of(&rep).is_some());
        }
    }

    #[test]
    fn invariant_holds_on_safe_model() {
        let m = coin_walk();
        let r = check_invariant(&m, |s| *s <= 2, 1000).unwrap();
        assert!(r.holds());
        match r {
            InvariantResult::Holds { states_checked } => assert_eq!(states_checked, 3),
            _ => unreachable!(),
        }
    }

    #[test]
    fn invariant_violation_gives_shortest_path() {
        let m = coin_walk();
        let r = check_invariant(&m, |s| *s != 2, 1000).unwrap();
        match r {
            InvariantResult::Violated { state, path } => {
                assert_eq!(state, 2);
                assert_eq!(path, vec![0, 2]);
            }
            _ => panic!("expected violation"),
        }
    }

    #[test]
    fn invariant_checks_start_states_too() {
        let m = TableAutomaton::<u8, char>::builder()
            .start(9)
            .build()
            .unwrap();
        let r = check_invariant(&m, |s| *s != 9, 10).unwrap();
        assert!(!r.holds());
    }
}
