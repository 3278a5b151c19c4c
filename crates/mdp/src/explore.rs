//! State-space exploration: building an [`ExplicitMdp`] from an implicit
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
//! Serial and parallel runs share one deterministic contract:
//!
//! * serial — FIFO breadth-first search, interning states through a
//!   [`StateSpace`] (hashing with the crate's [`FxHashMap`]; SipHash
//!   dominated the profile, and model states are not attacker-controlled,
//!   see [`crate::fxhash`]).
//! * parallel — level-synchronized BFS. Each BFS level is split into
//!   contiguous shards (adaptively oversharded when the fresh yield of the
//!   busiest shard runs hot — see [`next_shard_factor`]); workers expand
//!   their shard against a read-only snapshot of the intern table,
//!   deduplicating *new* successor states in a worker-local `FxHashMap`.
//!   The main thread then merges shard outputs **in shard order**,
//!   assigning global state ids in exactly the order the serial explorer
//!   would (shard order = level order; within a shard, encounter order).
//!   The result — state ids, choice lists, transitions, and even the state
//!   at which a [`MdpError::StateLimitExceeded`] fires — is identical to
//!   the serial run for every worker count, which the property tests
//!   assert.
//!
//! With a [`Symmetry`] installed, every start state and every successor is
//! canonicalized to its orbit representative before interning, so the
//! explorers build the *quotient* MDP (up to `order()`-fold smaller).
//! Canonicalization happens at the same points in both engines, so the
//! determinism contract extends to quotient runs. The cost function must
//! be constant on orbits (all shipped cost functions depend only on the
//! action).

use std::collections::VecDeque;
use std::marker::PhantomData;

use pa_core::Automaton;

use crate::fxhash::FxHashMap;
use crate::space::{BoxedSpace, StateSpace};
use crate::symmetry::Symmetry;
use crate::{Choice, ExplicitMdp, MdpError};

/// The result of exploring an implicit model: the explicit MDP plus the
/// state store mapping dense indices to concrete states.
///
/// Choice order is preserved: `mdp.choices(i)[k]` corresponds to
/// `automaton.steps(&state(i))[k]`, so an optimal policy over the explicit
/// model can be replayed on the implicit one. The space parameter defaults
/// to the boxed representation; [`crate::PackedSpace`] substitutes a
/// fixed-width encoded store with the same dense ids.
#[derive(Debug, Clone)]
pub struct Explored<S, SP = BoxedSpace<S>> {
    /// The state store: dense id ↔ concrete state.
    pub space: SP,
    /// The explicit model.
    pub mdp: ExplicitMdp,
    marker: PhantomData<fn() -> S>,
}

impl<S, SP: StateSpace<S>> Explored<S, SP> {
    /// Wraps a state store and model pair.
    fn new(space: SP, mdp: ExplicitMdp) -> Explored<S, SP> {
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

    /// Starts a [`crate::Query`] over the explored model (flattening it to
    /// CSR once).
    pub fn query(&self) -> crate::Query<'static> {
        crate::Query::over(&self.mdp)
    }

    /// Starts a [`crate::Query`] targeting the states that satisfy `pred`.
    pub fn query_where(&self, pred: impl FnMut(&S) -> bool) -> crate::Query<'static> {
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
    /// [`StateSpace::mem_bytes`]).
    pub fn mem_bytes(&self) -> u64 {
        self.space.mem_bytes()
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

/// Records the outcome of a finished exploration into the telemetry
/// registry. Serial and parallel explorers share these names, so consumers
/// see one set of exploration metrics regardless of engine.
fn record_explored(mdp: &ExplicitMdp) {
    if !pa_telemetry::enabled() {
        return;
    }
    pa_telemetry::counter("mdp.explore.runs").inc();
    pa_telemetry::counter("mdp.explore.states").add(mdp.num_states() as u64);
    pa_telemetry::counter("mdp.explore.choices").add(mdp.num_choices() as u64);
    pa_telemetry::counter("mdp.explore.transitions").add(mdp.num_transitions() as u64);
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
    /// model without start states, and propagates model-validation errors
    /// (which indicate a bug in the implicit model, e.g. an unnormalized
    /// step distribution).
    pub fn run(self) -> Result<Explored<M::State>, MdpError> {
        self.run_in(BoxedSpace::default())
    }

    /// Runs the exploration into an explicit state store (e.g. a
    /// [`crate::PackedSpace`] holding fixed-width encoded states).
    ///
    /// # Errors
    ///
    /// Same as [`Explore::run`].
    pub fn run_in<SP>(self, mut space: SP) -> Result<Explored<M::State, SP>, MdpError>
    where
        SP: StateSpace<M::State> + Send + Sync,
    {
        if self.capacity_hint > 0 {
            space.reserve(self.capacity_hint.min(self.limit));
        }
        let sym = self.symmetry.as_deref();
        let workers = match self.workers {
            Workers::Serial => 1,
            Workers::Auto => crate::resolve_workers(None),
            Workers::Exact(k) => crate::resolve_workers(Some(k)),
        };
        let mdp = if workers <= 1 {
            let mut cost_of = &self.cost_of;
            serial_core(self.automaton, &mut cost_of, self.limit, sym, &mut space)?
        } else {
            par_core(
                self.automaton,
                &self.cost_of,
                self.limit,
                sym,
                &mut space,
                workers,
            )?
        };
        record_explored(&mdp);
        Ok(Explored::new(space, mdp))
    }
}

/// A row-by-row consumer for [`Explore::run_streamed`]: receives each
/// explored state's validated choice list exactly once, in dense-id order
/// (`0, 1, 2, …`), instead of the exploration accumulating the whole
/// nested model in memory.
///
/// `pa-store`'s block writer implements this to spill CSR blocks to disk
/// as exploration closes them.
pub trait RowSink {
    /// Consumes state `id`'s choices. `id` increases by exactly one per
    /// call. Errors (e.g. I/O failures of a disk spill) abort the
    /// exploration; [`MdpError::Backend`] is the conventional carrier.
    fn state_row(&mut self, id: usize, choices: &[Choice]) -> Result<(), MdpError>;
}

/// Counts of a finished [`Explore::run_streamed`] exploration — what an
/// [`ExplicitMdp`] would have reported, without the model ever having been
/// resident.
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
    /// Runs the exploration, streaming each state's choices to `sink`
    /// instead of materializing an [`ExplicitMdp`]. Returns the state store
    /// and the exploration counts; peak memory is the store plus the BFS
    /// frontier — the model itself lives wherever the sink puts it.
    ///
    /// Rows are emitted in dense-id order with the exact ids, choice
    /// order, and transition order of [`Explore::run_in`] (serial FIFO BFS
    /// assigns ids in pop order, so a popped state's row is final).
    /// Streaming always runs the serial engine — a worker-count setting is
    /// ignored — and the serial/parallel determinism contract makes that
    /// the same model the parallel explorer would build.
    ///
    /// Each row is validated as [`ExplicitMdp::new`] would (empty support,
    /// non-finite or negative weights, weight sums); successor indices come
    /// from the interner and are in range by construction.
    ///
    /// # Errors
    ///
    /// As [`Explore::run_in`], plus whatever `sink` returns.
    pub fn run_streamed<SP>(
        self,
        mut space: SP,
        sink: &mut dyn RowSink,
    ) -> Result<(SP, StreamSummary), MdpError>
    where
        SP: StateSpace<M::State> + Send + Sync,
    {
        if self.capacity_hint > 0 {
            space.reserve(self.capacity_hint.min(self.limit));
        }
        let sym = self.symmetry.as_deref();
        let _span = pa_telemetry::span("mdp.explore.seconds");
        let mut queue: VecDeque<usize> = VecDeque::new();

        let intern = |s: &M::State,
                      space: &mut SP,
                      queue: &mut VecDeque<usize>|
         -> Result<usize, MdpError> {
            let canon;
            let s = match sym {
                Some(sym) => {
                    canon = sym.canon(s);
                    &canon
                }
                None => s,
            };
            let (id, new) = space.intern(s);
            if new {
                if space.len() > self.limit {
                    return Err(MdpError::StateLimitExceeded { limit: self.limit });
                }
                queue.push_back(id);
            }
            Ok(id)
        };

        let mut initial = Vec::new();
        for s in self.automaton.start_states() {
            initial.push(intern(&s, &mut space, &mut queue)?);
        }
        if initial.is_empty() {
            return Err(MdpError::NoInitialStates);
        }

        let cost_of = &self.cost_of;
        let mut num_choices = 0u64;
        let mut num_transitions = 0u64;
        let mut emitted = 0usize;
        while let Some(id) = queue.pop_front() {
            let state = space.state(id);
            let mut cs = Vec::new();
            for step in self.automaton.steps(&state) {
                let cost = cost_of(&state, &step.action);
                let mut transitions = Vec::with_capacity(step.target.len());
                for (t, p) in step.target.iter() {
                    let ti = intern(t, &mut space, &mut queue)?;
                    transitions.push((ti, p.value()));
                }
                cs.push(Choice { cost, transitions });
            }
            validate_row(id, &cs)?;
            num_choices += cs.len() as u64;
            num_transitions += cs.iter().map(|c| c.transitions.len() as u64).sum::<u64>();
            debug_assert_eq!(emitted, id);
            sink.state_row(id, &cs)?;
            emitted += 1;
        }

        let summary = StreamSummary {
            initial,
            num_states: space.len(),
            num_choices,
            num_transitions,
        };
        debug_assert_eq!(emitted, summary.num_states);
        if pa_telemetry::enabled() {
            pa_telemetry::counter("mdp.explore.runs").inc();
            pa_telemetry::counter("mdp.explore.states").add(summary.num_states as u64);
            pa_telemetry::counter("mdp.explore.choices").add(summary.num_choices);
            pa_telemetry::counter("mdp.explore.transitions").add(summary.num_transitions);
        }
        Ok((space, summary))
    }
}

/// Per-row distribution validation for the streaming explorer — the same
/// rules [`ExplicitMdp::new`] applies to a finished model (successor
/// indices are interner-produced and therefore in range).
fn validate_row(state: usize, cs: &[Choice]) -> Result<(), MdpError> {
    for c in cs {
        if c.transitions.is_empty() {
            return Err(MdpError::BadDistribution {
                state,
                reason: "empty support".into(),
            });
        }
        let mut sum = 0.0;
        for &(_, p) in &c.transitions {
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
    Ok(())
}

/// Serial FIFO BFS over `automaton`, interning (canonicalized) states into
/// `space`. The builder's serial path.
fn serial_core<M: Automaton, SP: StateSpace<M::State>>(
    automaton: &M,
    cost_of: &mut impl FnMut(&M::State, &M::Action) -> u32,
    limit: usize,
    sym: Option<&dyn Symmetry<M::State>>,
    space: &mut SP,
) -> Result<ExplicitMdp, MdpError> {
    let _span = pa_telemetry::span("mdp.explore.seconds");
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut choices: Vec<Vec<Choice>> = Vec::new();

    // Interns a state (canonicalizing first under a symmetry); the hot
    // path (an already-known successor) is a single hash lookup.
    let intern =
        |s: &M::State, space: &mut SP, queue: &mut VecDeque<usize>| -> Result<usize, MdpError> {
            let canon;
            let s = match sym {
                Some(sym) => {
                    canon = sym.canon(s);
                    &canon
                }
                None => s,
            };
            let (id, new) = space.intern(s);
            if new {
                if space.len() > limit {
                    return Err(MdpError::StateLimitExceeded { limit });
                }
                queue.push_back(id);
            }
            Ok(id)
        };

    let mut initial = Vec::new();
    for s in automaton.start_states() {
        initial.push(intern(&s, space, &mut queue)?);
    }
    if initial.is_empty() {
        return Err(MdpError::NoInitialStates);
    }

    while let Some(id) = queue.pop_front() {
        let state = space.state(id);
        let mut cs = Vec::new();
        for step in automaton.steps(&state) {
            let cost = cost_of(&state, &step.action);
            let mut transitions = Vec::with_capacity(step.target.len());
            for (t, p) in step.target.iter() {
                let ti = intern(t, space, &mut queue)?;
                transitions.push((ti, p.value()));
            }
            cs.push(Choice { cost, transitions });
        }
        debug_assert_eq!(choices.len(), id);
        choices.push(cs);
    }

    ExplicitMdp::new(choices, initial)
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
enum Succ {
    Known(usize),
    Fresh(usize),
}

/// One choice as expanded by a shard: its cost and shard-relative targets.
type ShardChoice = (u32, Vec<(Succ, f64)>);

/// One shard's expansion output for a BFS level.
struct ShardOutput<S> {
    /// New states in encounter order (shard-local ids `0..fresh.len()`).
    fresh: Vec<S>,
    /// Per expanded state, its choices as `(cost, transitions)`.
    expansions: Vec<Vec<ShardChoice>>,
}

/// Expands `chunk` (state ids of the current level) against the read-only
/// snapshot: successors already interned become [`Succ::Known`], new ones
/// are deduplicated into a shard-local intern map. Under a symmetry, each
/// successor is canonicalized first — the same point at which the serial
/// engine canonicalizes, preserving the determinism contract.
fn expand_shard<M: Automaton, SP: StateSpace<M::State>>(
    automaton: &M,
    cost_of: &(impl Fn(&M::State, &M::Action) -> u32 + Sync),
    sym: Option<&dyn Symmetry<M::State>>,
    space: &SP,
    chunk: &[usize],
) -> ShardOutput<M::State> {
    let mut fresh: Vec<M::State> = Vec::new();
    let mut local: FxHashMap<M::State, usize> = FxHashMap::default();
    let mut expansions = Vec::with_capacity(chunk.len());
    for &id in chunk {
        let state = space.state(id);
        let mut cs = Vec::new();
        for step in automaton.steps(&state) {
            let cost = cost_of(&state, &step.action);
            let mut transitions = Vec::with_capacity(step.target.len());
            for (t, p) in step.target.iter() {
                let canon;
                let t = match sym {
                    Some(sym) => {
                        canon = sym.canon(t);
                        &canon
                    }
                    None => t,
                };
                let succ = if let Some(g) = space.get(t) {
                    Succ::Known(g)
                } else if let Some(&l) = local.get(t) {
                    Succ::Fresh(l)
                } else {
                    let l = fresh.len();
                    fresh.push(t.clone());
                    local.insert(t.clone(), l);
                    Succ::Fresh(l)
                };
                transitions.push((succ, p.value()));
            }
            cs.push((cost, transitions));
        }
        expansions.push(cs);
    }
    ShardOutput { fresh, expansions }
}

/// Level-synchronized parallel BFS (see the [module docs](self) for the
/// merge contract). `workers` is already resolved and `> 1`.
fn par_core<M, F, SP>(
    automaton: &M,
    cost_of: &F,
    limit: usize,
    sym: Option<&dyn Symmetry<M::State>>,
    space: &mut SP,
    workers: usize,
) -> Result<ExplicitMdp, MdpError>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    F: Fn(&M::State, &M::Action) -> u32 + Sync,
    SP: StateSpace<M::State> + Send + Sync,
{
    // Below this level width, shard spawn overhead dominates expansion.
    const PAR_MIN_LEVEL: usize = 128;

    let mut choices: Vec<Vec<Choice>> = Vec::new();

    // Level 0: intern the start states serially, exactly like the serial
    // engine.
    let mut initial = Vec::new();
    let mut level: Vec<usize> = Vec::new();
    for s in automaton.start_states() {
        let canon;
        let s = match sym {
            Some(sym) => {
                canon = sym.canon(&s);
                &canon
            }
            None => &s,
        };
        let (id, new) = space.intern(s);
        if new {
            if space.len() > limit {
                return Err(MdpError::StateLimitExceeded { limit });
            }
            level.push(id);
        }
        initial.push(id);
    }
    if initial.is_empty() {
        return Err(MdpError::NoInitialStates);
    }

    let _span = pa_telemetry::span("mdp.explore.seconds");
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
            vec![expand_shard(automaton, cost_of, sym, space, &level)]
        } else {
            let shards = (workers * shard_factor).min(level.len());
            let chunk = level.len().div_ceil(shards);
            let space_ref: &SP = space;
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = level
                    .chunks(chunk)
                    .map(|shard| {
                        scope
                            .spawn(move |_| expand_shard(automaton, cost_of, sym, space_ref, shard))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("exploration worker panicked"))
                    .collect()
            })
            .expect("exploration scope panicked")
        };

        // Shard imbalance: how much the busiest shard's fresh-state yield
        // exceeds a perfectly even split (100 = balanced). Contiguous
        // chunking makes the *input* shards even; the imbalance shows up in
        // how unevenly new states fall out of them. The same yields drive
        // the adaptive factor for the next level — unconditionally, so the
        // shard schedule does not depend on whether telemetry is on.
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

        // ...then merge deterministically: shard order is level order, so
        // global ids are assigned exactly as the serial explorer would.
        let mut next_level: Vec<usize> = Vec::new();
        for out in outputs {
            let mut local_to_global = Vec::with_capacity(out.fresh.len());
            for s in out.fresh {
                // A state can be fresh in two shards at once; the first
                // shard (earlier in level order) wins, as in serial BFS.
                let (id, new) = space.intern(&s);
                if new {
                    if space.len() > limit {
                        return Err(MdpError::StateLimitExceeded { limit });
                    }
                    next_level.push(id);
                }
                local_to_global.push(id);
            }
            for cs in out.expansions {
                let resolved: Vec<Choice> = cs
                    .into_iter()
                    .map(|(cost, transitions)| Choice {
                        cost,
                        transitions: transitions
                            .into_iter()
                            .map(|(succ, p)| {
                                let t = match succ {
                                    Succ::Known(g) => g,
                                    Succ::Fresh(l) => local_to_global[l],
                                };
                                (t, p)
                            })
                            .collect(),
                    })
                    .collect();
                choices.push(resolved);
            }
        }
        debug_assert_eq!(choices.len() + next_level.len(), space.len());
        level = next_level;
    }

    ExplicitMdp::new(choices, initial)
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
        assert_eq!(e.mdp.choices(s0)[0].cost, 1);
        assert_eq!(e.mdp.choices(s1)[0].cost, 0);
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
            for s in 0..serial.mdp.num_states() {
                assert_eq!(
                    par.mdp.choices(s),
                    serial.mdp.choices(s),
                    "workers={workers}"
                );
            }
            assert_eq!(
                par.mdp.initial_states(),
                serial.mdp.initial_states(),
                "workers={workers}"
            );
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
            for s in 0..serial.mdp.num_states() {
                assert_eq!(
                    par.mdp.choices(s),
                    serial.mdp.choices(s),
                    "workers={workers}"
                );
            }
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
            for s in 0..serial.mdp.num_states() {
                assert_eq!(par.mdp.choices(s), serial.mdp.choices(s));
            }
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
