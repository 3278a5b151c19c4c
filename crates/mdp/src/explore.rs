//! State-space exploration: building a [`CsrMdp`] from an implicit
//! [`pa_core::Automaton`].
//!
//! The single entry point is the [`Explore`] builder:
//!
//! ```ignore
//! let explored = Explore::new(&model)
//!     .cost(round_cost)             // default: every transition costs 1
//!     .workers(4)                   // default: serial
//!     .symmetry(RingRotation::new(n)) // default: no reduction
//!     .capacity_hint(1 << 20)
//!     .limit(20_000_000)
//!     .run()?;                      // or .run_in(PackedSpace::new(codec))
//! ```
//!
//! # One BFS core, rows straight into CSR
//!
//! Both engines enumerate a state's steps through
//! [`Automaton::for_each_step`] and write its choices into one reusable
//! flat row buffer — costs, transition ends, `u32` successor ids and
//! probabilities — so exploration allocates nothing per state or per
//! choice. Each finished row is validated (as [`crate::ExplicitMdp::new`]
//! would: non-empty support, finite non-negative weights summing to one)
//! and handed to a [`RowSink`] in dense-id order (`0, 1, 2, …`).
//! [`Explore::run_in`] passes the in-core sink, a [`CsrBuilder`], whose
//! arrays become [`Explored::mdp`]; [`Explore::run_streamed`] passes the
//! caller's sink (e.g. `pa-store`'s block writer). No nested model is
//! built, copied or dropped on either path.
//!
//! Serial and parallel runs share one deterministic contract:
//!
//! * serial — FIFO breadth-first search, interning states through a
//!   [`StateSpace`] (hashing with the crate's [`FxHashMap`]; SipHash
//!   dominated the profile, and model states are not attacker-controlled,
//!   see [`crate::fxhash`]). Interning a packed word hashes and probes
//!   once, through the map's entry API, whether the state is new or
//!   known. Ids are assigned in pop order, so a popped state's row is
//!   final and goes to the sink at once.
//! * parallel — level-synchronized BFS. Each BFS level is split into
//!   contiguous shards (adaptively oversharded when the fresh yield of the
//!   busiest shard runs hot — see [`next_shard_factor`]); workers expand
//!   their shard into flat arrays against a read-only snapshot of the
//!   intern table, deduplicating *new* successor states in a worker-local
//!   `FxHashMap` (one entry lookup each). The main thread then merges
//!   shard outputs **in shard order**, row by row, interning each
//!   shard-new state at its first reference — exactly when the serial
//!   explorer would intern it (shard order = level order; within a
//!   shard, encounter order). The result —
//!   state ids, choice lists, transitions, and even the state at which a
//!   [`MdpError::StateLimitExceeded`] or a
//!   [`MdpError::BadDistribution`] fires — is identical to the serial run
//!   for every worker count, which the property tests assert.
//!
//! With a [`Symmetry`] installed, every start state and every successor is
//! canonicalized to its orbit representative before interning, so the
//! explorers build the *quotient* MDP (up to `order()`-fold smaller).
//! Canonicalization happens at the same points in both engines, so the
//! determinism contract extends to quotient runs. The cost function must
//! be constant on orbits (all shipped cost functions depend only on the
//! action).
//!
//! Successor ids are `u32` in CSR, so the state limit is capped at `2^32`.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;

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

/// Worker-count selection for an [`Explore`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workers {
    /// Serial FIFO BFS (the default).
    Serial,
    /// Parallel with the environment-resolved count
    /// ([`crate::resolve_workers`] with `None`).
    Auto,
    /// Parallel with an explicit count.
    Exact(usize),
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
    workers: Workers,
    symmetry: Option<Box<dyn Symmetry<M::State> + 'a>>,
    capacity_hint: usize,
}

/// The default cost function: every transition costs one unit.
fn unit_cost<S, A>(_s: &S, _a: &A) -> u32 {
    1
}

impl<'a, M: Automaton> Explore<'a, M> {
    /// Starts a builder over `automaton` with unit costs, no state limit,
    /// serial execution, and no symmetry reduction.
    pub fn new(automaton: &'a M) -> Explore<'a, M> {
        Explore {
            automaton,
            cost_of: unit_cost::<M::State, M::Action>,
            limit: usize::MAX,
            workers: Workers::Serial,
            symmetry: None,
            capacity_hint: 0,
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
            workers: self.workers,
            symmetry: self.symmetry,
            capacity_hint: self.capacity_hint,
        }
    }

    /// Caps the number of explored states;
    /// [`MdpError::StateLimitExceeded`] fires beyond it.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Requests parallel exploration: `Some(k)` for an explicit worker
    /// count, `None` for the environment-resolved default (as in
    /// [`crate::resolve_workers`]). A count of 1 runs the serial engine,
    /// which produces the identical result by contract.
    pub fn workers(mut self, workers: impl Into<Option<usize>>) -> Self {
        self.workers = match workers.into() {
            Some(k) => Workers::Exact(k),
            None => Workers::Auto,
        };
        self
    }

    /// Requests parallel exploration with the environment-resolved worker
    /// count (sugar for `.workers(None)`).
    pub fn parallel(mut self) -> Self {
        self.workers = Workers::Auto;
        self
    }

    /// Installs a symmetry: states are canonicalized to orbit
    /// representatives before interning, building the quotient MDP.
    pub fn symmetry(mut self, symmetry: impl Symmetry<M::State> + 'a) -> Self {
        self.symmetry = Some(Box::new(symmetry));
        self
    }

    /// Pre-reserves the state store (and interner) for roughly `states`
    /// entries, avoiding rehash stalls on explorations of known size.
    pub fn capacity_hint(mut self, states: usize) -> Self {
        self.capacity_hint = states;
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
    M: Automaton + Sync,
    M::State: Send + Sync,
    F: Fn(&M::State, &M::Action) -> u32 + Sync,
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
        SP: StateSpace<M::State> + Send + Sync,
    {
        let mut csr = CsrBuilder::new();
        let (space, summary) = self.explore_into(space, &mut csr)?;
        Ok(Explored::new(space, csr.finish(summary.initial)))
    }

    /// Runs the exploration, streaming each state's row to `sink` instead
    /// of keeping the model. Returns the state store and the exploration
    /// counts; peak memory is the store plus the BFS frontier — the model
    /// itself lives wherever the sink puts it.
    ///
    /// Rows are exactly those [`Explore::run_in`] builds its [`CsrMdp`]
    /// from, emitted in dense-id order by the same engine (serial or
    /// parallel, as configured). The serial engine emits each row as soon
    /// as its state is expanded; the parallel one holds a whole BFS
    /// level's rows until the level's merge, so a spill that must stay
    /// within a memory bound keeps the serial default.
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
        SP: StateSpace<M::State> + Send + Sync,
    {
        self.explore_into(space, sink)
    }

    /// The one exploration core: resolves the engine, runs it into
    /// `sink`, and records the run's telemetry.
    fn explore_into<SP, K>(
        self,
        mut space: SP,
        sink: &mut K,
    ) -> Result<(SP, StreamSummary), MdpError>
    where
        SP: StateSpace<M::State> + Send + Sync,
        K: RowSink + ?Sized,
    {
        let limit = self.limit.min((u32::MAX as usize).saturating_add(1));
        if self.capacity_hint > 0 {
            space.reserve(self.capacity_hint.min(limit));
        }
        let sym = self.symmetry.as_deref();
        let workers = match self.workers {
            Workers::Serial => 1,
            Workers::Auto => crate::resolve_workers(None),
            Workers::Exact(k) => crate::resolve_workers(Some(k)),
        };
        let core = Core {
            automaton: self.automaton,
            cost_of: &self.cost_of,
            limit,
            sym,
        };
        let summary = if workers <= 1 {
            core.serial(&mut space, sink)?
        } else {
            core.parallel(&mut space, sink, workers)?
        };
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

/// The parts of an [`Explore`] both engines read.
struct Core<'e, M: Automaton, F> {
    automaton: &'e M,
    cost_of: &'e F,
    limit: usize,
    sym: Option<&'e dyn Symmetry<M::State>>,
}

impl<M, F> Core<'_, M, F>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    F: Fn(&M::State, &M::Action) -> u32 + Sync,
{
    /// Interns `s` (canonicalized first under a symmetry), returning its
    /// id; the hot path (an already-known successor) is a single hash
    /// lookup.
    fn intern<SP: StateSpace<M::State>>(
        &self,
        s: &M::State,
        space: &mut SP,
    ) -> Result<usize, MdpError> {
        match self.sym {
            Some(sym) => self.intern_canonical(&sym.canon(s), space),
            None => self.intern_canonical(s, space),
        }
    }

    /// Interns an orbit representative (any state without a symmetry),
    /// enforcing the state limit.
    fn intern_canonical<SP: StateSpace<M::State>>(
        &self,
        s: &M::State,
        space: &mut SP,
    ) -> Result<usize, MdpError> {
        let (id, new) = space.intern(s);
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

    /// Serial FIFO BFS. Ids are dense in discovery order, so the queue is
    /// just the next id to expand.
    fn serial<SP, K>(&self, space: &mut SP, sink: &mut K) -> Result<StreamSummary, MdpError>
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

/// Cap on the adaptive oversharding factor: more than 8 shards per worker
/// buys no further balance but multiplies spawn overhead.
const MAX_SHARD_FACTOR: usize = 8;

/// Adapts the oversharding factor from one BFS level's fresh-state yields.
///
/// Contiguous chunking keeps the *input* shards even; imbalance shows up in
/// how unevenly *new* states fall out of them. When the busiest shard
/// yields more than ~150% of an even split, the next level is cut into
/// `2×` as many shards per worker (capped at [`MAX_SHARD_FACTOR`]) so the
/// OS scheduler can spread the hot region across workers; once yields are
/// within ~110% of even, the factor decays back toward 1 to shed spawn
/// overhead.
///
/// Pure and driven only by deterministic quantities (fresh yields are a
/// function of the model and the previous factors), so the shard schedule —
/// and therefore the exploration result, which is shard-size-invariant by
/// the merge contract anyway — stays reproducible for a fixed worker count.
fn next_shard_factor(factor: usize, max_fresh: u64, total_fresh: u64, shards: usize) -> usize {
    if shards <= 1 || total_fresh == 0 {
        return factor;
    }
    let even = total_fresh as f64 / shards as f64;
    if max_fresh as f64 > even * 1.5 {
        (factor * 2).min(MAX_SHARD_FACTOR)
    } else if max_fresh as f64 <= even * 1.1 {
        (factor / 2).max(1)
    } else {
        factor
    }
}

/// A successor reference produced by a shard worker: either a state already
/// interned when the level started, or the `k`-th *new* state this shard
/// discovered.
#[derive(Debug, Clone, Copy)]
enum Succ {
    Known(usize),
    Fresh(usize),
}

/// One shard's expansion of a slice of a BFS level, in flat form: the
/// shard's rows as they will be emitted, with successors still
/// shard-relative.
struct ShardOutput<S> {
    /// New states in encounter order (shard-local ids `0..fresh.len()`).
    fresh: Vec<S>,
    /// Per expanded state, the end of its choices in `costs`/`trans_ends`.
    row_ends: Vec<usize>,
    /// Cost of each choice.
    costs: Vec<u32>,
    /// Per choice, the end of its transitions in `succs`/`probs`.
    trans_ends: Vec<usize>,
    /// Successor of each transition.
    succs: Vec<Succ>,
    /// Probability of each transition.
    probs: Vec<f64>,
}

impl<M, F> Core<'_, M, F>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    F: Fn(&M::State, &M::Action) -> u32 + Sync,
{
    /// Expands the states `shard` (a slice of the current level) against
    /// the read-only snapshot: successors already interned become
    /// [`Succ::Known`], new ones are deduplicated into a shard-local intern
    /// map. Under a symmetry, each successor is canonicalized first — the
    /// same point at which the serial engine canonicalizes, preserving the
    /// determinism contract.
    fn expand_shard<SP: StateSpace<M::State>>(
        &self,
        space: &SP,
        shard: Range<usize>,
    ) -> ShardOutput<M::State> {
        let mut local: FxHashMap<M::State, usize> = FxHashMap::default();
        let mut out = ShardOutput {
            fresh: Vec::new(),
            row_ends: Vec::with_capacity(shard.len()),
            costs: Vec::new(),
            trans_ends: Vec::new(),
            succs: Vec::new(),
            probs: Vec::new(),
        };
        for id in shard {
            let state = space.state(id);
            self.automaton.for_each_step(&state, |action, outcomes| {
                out.costs.push((self.cost_of)(&state, action));
                for (t, p) in outcomes {
                    let canon;
                    let t = match self.sym {
                        Some(sym) => {
                            canon = sym.canon(t);
                            &canon
                        }
                        None => t,
                    };
                    let succ = match space.get(t) {
                        Some(g) => Succ::Known(g),
                        None => {
                            let fresh = &mut out.fresh;
                            Succ::Fresh(*local.entry(t.clone()).or_insert_with(|| {
                                fresh.push(t.clone());
                                fresh.len() - 1
                            }))
                        }
                    };
                    out.succs.push(succ);
                    out.probs.push(*p);
                }
                out.trans_ends.push(out.succs.len());
            });
            out.row_ends.push(out.costs.len());
        }
        out
    }

    /// Level-synchronized parallel BFS (see the [module docs](self) for
    /// the merge contract). `workers` is already resolved and `> 1`. BFS
    /// levels are contiguous id ranges, because ids are dense in discovery
    /// order.
    fn parallel<SP, K>(
        &self,
        space: &mut SP,
        sink: &mut K,
        workers: usize,
    ) -> Result<StreamSummary, MdpError>
    where
        SP: StateSpace<M::State> + Send + Sync,
        K: RowSink + ?Sized,
    {
        // Below this level width, shard spawn overhead dominates expansion.
        const PAR_MIN_LEVEL: usize = 128;

        let initial = self.starts(space)?;
        let mut summary = StreamSummary {
            initial,
            num_states: 0,
            num_choices: 0,
            num_transitions: 0,
        };
        let _span = pa_telemetry::span("mdp.explore.seconds");
        let mut row = RowBuf::default();
        let mut level = 0..space.len();
        // Adaptive oversharding: shards per level = workers × this factor,
        // adjusted between levels by `next_shard_factor`.
        let mut shard_factor: usize = 1;
        while !level.is_empty() {
            if pa_telemetry::enabled() {
                pa_telemetry::histogram("mdp.explore.frontier").record(level.len() as u64);
                pa_telemetry::gauge("mdp.explore.peak_frontier").set_max(level.len() as i64);
            }
            // Expand the level in shards (in parallel when it pays off)...
            let outputs: Vec<ShardOutput<M::State>> = if level.len() < PAR_MIN_LEVEL {
                vec![self.expand_shard(space, level.clone())]
            } else {
                let shards = (workers * shard_factor).min(level.len());
                let chunk = level.len().div_ceil(shards);
                let snapshot: &SP = space;
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = level
                        .clone()
                        .step_by(chunk)
                        .map(|first| {
                            let shard = first..(first + chunk).min(level.end);
                            scope.spawn(move |_| self.expand_shard(snapshot, shard))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("exploration worker panicked"))
                        .collect()
                })
                .expect("exploration scope panicked")
            };

            // Shard imbalance: how much the busiest shard's fresh-state
            // yield exceeds a perfectly even split (100 = balanced). The
            // same yields drive the adaptive factor for the next level —
            // unconditionally, so the shard schedule does not depend on
            // whether telemetry is on.
            if outputs.len() > 1 {
                let total: u64 = outputs.iter().map(|o| o.fresh.len() as u64).sum();
                let max = outputs
                    .iter()
                    .map(|o| o.fresh.len() as u64)
                    .max()
                    .unwrap_or(0);
                let next = next_shard_factor(shard_factor, max, total, outputs.len());
                if pa_telemetry::enabled() {
                    if let Some(pct) = (max * outputs.len() as u64 * 100).checked_div(total) {
                        pa_telemetry::histogram("mdp.explore.shard_imbalance_pct").record(pct);
                    }
                    if next > shard_factor {
                        pa_telemetry::counter("mdp.explore.rebalances").inc();
                    }
                    pa_telemetry::gauge("mdp.explore.shard_factor").set_max(next as i64);
                }
                shard_factor = next;
            }

            // ...then merge deterministically, shard by shard and row by
            // row. A shard-new state is interned at its first reference —
            // shard-local ids are numbered in encounter order, so that is
            // exactly when serial BFS interns it. A state can be fresh in
            // two shards at once; the earlier shard (in level order) wins,
            // as in serial BFS.
            let next_first = space.len();
            for out in outputs {
                let mut local_to_global: Vec<usize> = Vec::with_capacity(out.fresh.len());
                let (mut c0, mut t0) = (0, 0);
                for &row_end in &out.row_ends {
                    row.clear();
                    for c in c0..row_end {
                        row.costs.push(out.costs[c]);
                        let t_end = out.trans_ends[c];
                        for t in t0..t_end {
                            let g = match out.succs[t] {
                                Succ::Known(g) => g,
                                Succ::Fresh(l) => {
                                    if l == local_to_global.len() {
                                        let g = self.intern_canonical(&out.fresh[l], space)?;
                                        local_to_global.push(g);
                                    }
                                    local_to_global[l]
                                }
                            };
                            row.targets.push(g as u32);
                            row.probs.push(out.probs[t]);
                        }
                        row.trans_ends.push(row.targets.len() as u32);
                        t0 = t_end;
                    }
                    c0 = row_end;
                    row.emit(summary.num_states, sink, &mut summary)?;
                }
            }
            debug_assert_eq!(summary.num_states, level.end);
            level = next_first..space.len();
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

    #[test]
    fn par_explore_matches_serial_exactly() {
        let m = coin_walk();
        let serial = Explore::new(&m).limit(1000).run().unwrap();
        for workers in [1, 2, 5] {
            let par = Explore::new(&m).limit(1000).workers(workers).run().unwrap();
            assert_eq!(par.states(), serial.states(), "workers={workers}");
            assert_eq!(par.mdp, serial.mdp, "workers={workers}");
        }
    }

    #[test]
    fn shard_factor_doubles_on_hot_shard_and_decays_when_even() {
        // Busiest shard at 4× even split: double, then saturate at the cap.
        assert_eq!(next_shard_factor(1, 40, 40, 4), 2);
        assert_eq!(next_shard_factor(4, 40, 40, 4), 8);
        assert_eq!(next_shard_factor(8, 40, 40, 4), 8);
        // Perfectly even yields decay the factor back toward 1.
        assert_eq!(next_shard_factor(4, 10, 40, 4), 2);
        assert_eq!(next_shard_factor(1, 10, 40, 4), 1);
        // In the dead band (110%..150% of even) the factor holds.
        assert_eq!(next_shard_factor(2, 13, 40, 4), 2);
        // Degenerate inputs leave the factor alone.
        assert_eq!(next_shard_factor(3, 0, 0, 4), 3);
        assert_eq!(next_shard_factor(3, 5, 5, 1), 3);
    }

    /// A two-level model wide enough to trigger parallel sharding
    /// (`PAR_MIN_LEVEL`), with all the branching concentrated in one corner
    /// of the first level so the contiguous shards yield unevenly and the
    /// adaptive factor actually engages.
    fn skewed_fanout() -> TableAutomaton<u32, &'static str> {
        let mut b = TableAutomaton::builder().start(0);
        let width = 400u32;
        for i in 0..width {
            b = b.det_step(0, "spread", i + 1).det_step(i + 1, "go", {
                // The last few first-level states fan out 64-wide; the rest
                // are funnels into a handful of shared states.
                if i >= width - 8 {
                    10_000 + i * 64
                } else {
                    1_000 + i % 4
                }
            });
        }
        for i in width - 8..width {
            for j in 0..64u32 {
                b = b.det_step(10_000 + i * 64, "fan", 20_000 + i * 64 + j);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn adaptive_sharding_leaves_exploration_unchanged() {
        let m = skewed_fanout();
        let serial = Explore::new(&m).limit(1_000_000).run().unwrap();
        for workers in [2, 3, 8] {
            let par = Explore::new(&m)
                .limit(1_000_000)
                .workers(workers)
                .run()
                .unwrap();
            assert_eq!(par.states(), serial.states(), "workers={workers}");
            assert_eq!(par.mdp, serial.mdp, "workers={workers}");
        }
    }

    #[test]
    fn par_explore_enforces_limit_like_serial() {
        let m = coin_walk();
        assert!(matches!(
            Explore::new(&m).limit(2).workers(3).run(),
            Err(MdpError::StateLimitExceeded { limit: 2 })
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
    fn quotient_exploration_is_deterministic_across_workers() {
        use crate::symmetry::RingRotation;
        let m = RingCounter { n: 5 };
        let serial = Explore::new(&m)
            .limit(100_000)
            .symmetry(RingRotation::new(5))
            .run()
            .unwrap();
        for workers in [2, 4] {
            let par = Explore::new(&m)
                .limit(100_000)
                .symmetry(RingRotation::new(5))
                .workers(workers)
                .run()
                .unwrap();
            assert_eq!(par.states(), serial.states(), "workers={workers}");
            assert_eq!(par.mdp, serial.mdp, "workers={workers}");
        }
    }

    #[test]
    fn capacity_hint_does_not_change_the_result() {
        let m = coin_walk();
        let plain = Explore::new(&m).limit(1000).run().unwrap();
        let hinted = Explore::new(&m)
            .limit(1000)
            .capacity_hint(512)
            .run()
            .unwrap();
        assert_eq!(plain.states(), hinted.states());
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
