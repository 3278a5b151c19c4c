//! Backend-agnostic CSR access — the [`CsrSource`] trait — and the one set
//! of solver kernels that every query runs on.
//!
//! [`crate::CsrMdp`] holds the whole model in five flat arrays; an
//! out-of-core backend (e.g. `pa-store`'s mmap-backed block file) holds the
//! same arrays cut into contiguous *blocks* of states and pages them in on
//! demand. [`CsrSource`] is the seam between the two: a backend exposes its
//! rows block by block as borrowed [`CsrRows`] slices, and every kernel in
//! this module visits whole blocks in a fixed order — ascending state order
//! for the Jacobi sweeps and the qualitative fixpoints, descending for the
//! reverse level pass below. An in-core model is a single block spanning
//! every state, so the in-core and the stored paths are the *same* code
//! executing the *same* per-state floating-point operations in the *same*
//! order.
//!
//! # Block-structure invariance
//!
//! The Jacobi kernels are **double-buffered** sweeps: the new value of
//! every state is computed from the previous iterate only, never from
//! values updated earlier in the same sweep. Each state's update therefore
//! reads the same immutable previous iterate and performs the same
//! floating-point operations in the same order however the rows are cut
//! into blocks, and the convergence test reduces deltas with a maximum
//! (order-independent for the finite values these kernels produce), so
//! **results are bit-for-bit identical for every block structure** — one
//! block or seven hundred return the same bytes.
//! `crates/mdp/tests/csr_equivalence.rs` and `crates/store`'s parity tests
//! pin this contract. The sweeps run on the calling thread.
//!
//! # One pass per budget level
//!
//! A cost-bounded query solves one least fixpoint over the zero-cost
//! subgraph per budget level. When every zero-cost transition out of a
//! non-target state `s` goes to a higher id or to a target state — as on
//! the spilled fault-free rotation quotient, whose exploration order is
//! already a topological order of that subgraph — descending id order is
//! a reverse topological order of a condensation with only trivial
//! components. The reverse level pass then visits the blocks from last to
//! first and the states from high id to low, updating each state *in
//! place*: zero-cost choices read values already final at this level,
//! cost-1 choices read the level below. Every state is computed once,
//! from final successor values, by the expression the last Jacobi sweep
//! evaluates ([`CsrRows::choice_value`], first best choice wins), so the
//! level is bitwise identical to the Jacobi fixpoint at the price of one
//! paging pass instead of one per sweep. Level 0's pass checks the edge
//! order and the costs as it goes; a backward zero-cost edge sends the
//! query back to Jacobi from scratch. [`crate::Query`] routes the bounded
//! queries of a multi-block source here and reports the pass as
//! [`crate::Solver::SccOrdered`].
//!
//! # One block or many
//!
//! Whether a source has one block or several is the one property that
//! picks an algorithm; the Rust type of the model never does. A
//! single-block source — an in-core [`crate::CsrMdp`], or a stored model
//! that fits in one block — hands out rows that span every state, so the
//! kernels that need random access to the whole graph run on it:
//!
//! * the SCC-ordered solver of `scc.rs` ([`crate::Solver::SccOrdered`]),
//!   which condenses the choice graph with Tarjan and calls the same
//!   per-state updates as the Jacobi sweeps (`level_choice`,
//!   `reach_update` and `cost_update`);
//! * the two qualitative checks: `prob0` for
//!   [`crate::Objective::MaxProb`] is a backward BFS over a predecessor
//!   graph, and the zero-cost cycle check asks Tarjan for a nontrivial
//!   component of the zero-cost subgraph without the target states.
//!
//! A multi-block source runs the two checks as fixpoints over the blocks
//! in order, because a graph search's random state-access pattern defeats
//! block paging. Both strategies compute the same set/answer, so the
//! numeric phases they feed remain bitwise identical. A multi-block source
//! has no general SCC-ordered solver: only its bounded queries whose
//! zero-cost edges all point forward take the SCC-ordered route (the
//! reverse level pass above), and [`crate::Query`] rejects
//! [`crate::Solver::SccOrdered`] for the rest with
//! [`MdpError::InvalidQuery`].

use std::ops::Range;

use crate::scc::{self, SccDecomposition};
use crate::{IterOptions, MdpError, Objective, Solver};

/// Work counters accumulated by one quantitative solve, reported through
/// [`crate::Analysis::stats`]. The update counts are what the SCC-ordered
/// solver is designed to shrink: a global Jacobi sweep recomputes every
/// state until the slowest one converges, while the SCC-ordered path
/// touches each component only as long as *it* needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Value-iteration sweeps performed (global sweeps for the Jacobi
    /// solver, per-block sweeps for the SCC-ordered solver, one pass per
    /// budget level for the reverse level pass).
    pub sweeps: u64,
    /// Individual state-value computations performed.
    pub state_updates: u64,
    /// Strongly connected components of the condensation (0 for the
    /// Jacobi solver, which never builds one; one per state for the
    /// reverse level pass).
    pub components: u64,
    /// Components that contained a cycle and needed local iteration.
    pub nontrivial_components: u64,
}

/// One contiguous block of CSR rows, borrowed from a backend.
///
/// Offsets are *block-relative*: `choice_offsets[0] == 0` indexes into the
/// block's own `costs`/`trans_offsets` slices, and `trans_offsets[0] == 0`
/// indexes into the block's own `targets`/`probs` slices. Successor state
/// ids in `targets` are **global**. The accessor methods take global state
/// indices (within [`CsrRows::states`]) and block-local choice/transition
/// indices. [`crate::CsrMdp::rows`] is the single block of an in-core
/// model.
#[derive(Debug, Clone, Copy)]
pub struct CsrRows<'a> {
    /// Global index of the first state in this block.
    pub first_state: usize,
    /// Per-state ranges into the block's choice arrays:
    /// `choice_offsets[s - first_state] .. choice_offsets[s - first_state + 1]`,
    /// length `states + 1`, starting at 0.
    pub choice_offsets: &'a [u32],
    /// Per-choice ranges into the block's transition arrays, length
    /// `choices + 1`, starting at 0.
    pub trans_offsets: &'a [u32],
    /// Cost of each choice in the block.
    pub costs: &'a [u32],
    /// Global successor state of each transition in the block.
    pub targets: &'a [u32],
    /// Probability of each transition in the block.
    pub probs: &'a [f64],
}

impl CsrRows<'_> {
    /// The global state indices covered by this block.
    #[inline]
    pub fn states(&self) -> Range<usize> {
        self.first_state..self.first_state + (self.choice_offsets.len() - 1)
    }

    /// The block-local choice-index range of global state `s`.
    #[inline]
    pub fn choice_range(&self, s: usize) -> Range<usize> {
        let ls = s - self.first_state;
        self.choice_offsets[ls] as usize..self.choice_offsets[ls + 1] as usize
    }

    /// The block-local transition-index range of block-local choice `c`.
    #[inline]
    pub fn trans_range(&self, c: usize) -> Range<usize> {
        self.trans_offsets[c] as usize..self.trans_offsets[c + 1] as usize
    }

    /// Whether global state `s` has no choices.
    #[inline]
    pub fn is_terminal(&self, s: usize) -> bool {
        let ls = s - self.first_state;
        self.choice_offsets[ls] == self.choice_offsets[ls + 1]
    }

    /// The expected value of block-local choice `c` under the value vector
    /// `source`, accumulated in transition order — the floating-point
    /// operation order every engine in this crate agrees on.
    #[inline]
    pub fn choice_value(&self, c: usize, source: &[f64]) -> f64 {
        let mut val = 0.0f64;
        for i in self.trans_range(c) {
            val += self.probs[i] * source[self.targets[i] as usize];
        }
        val
    }
}

/// A CSR model backend: rows grouped into contiguous blocks of states,
/// fetched one block at a time by index.
///
/// Implementations must partition `0..num_states()` into consecutive
/// non-overlapping block ranges (`block_states(0).start == 0`, each block
/// starts where the previous ended). Kernels fetch blocks in ascending or
/// descending index order (see the [module docs](self)).
/// [`crate::CsrMdp`] implements this as a single block over its full
/// arrays; `pa-store`'s `StoredCsr` pages each block in from disk on
/// demand.
pub trait CsrSource {
    /// Number of states.
    fn num_states(&self) -> usize;
    /// Total number of choices.
    fn num_choices(&self) -> u64;
    /// Total number of probabilistic transitions.
    fn num_transitions(&self) -> u64;
    /// The initial state indices.
    fn initial_states(&self) -> &[usize];
    /// Number of row blocks.
    fn num_blocks(&self) -> usize;
    /// The global state range of block `block`.
    fn block_states(&self, block: usize) -> Range<usize>;
    /// Calls `f` with block `block`'s rows. Backends that page blocks in
    /// may fail with [`MdpError::Backend`] (I/O error, corrupt block).
    fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError>;
}

pub(crate) fn check_target<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
) -> Result<(), MdpError> {
    if target.len() != src.num_states() {
        return Err(MdpError::TargetLengthMismatch {
            got: target.len(),
            expected: src.num_states(),
        });
    }
    Ok(())
}

fn for_each_block<S: CsrSource + ?Sized>(
    src: &S,
    f: &mut dyn FnMut(CsrRows<'_>),
) -> Result<(), MdpError> {
    for b in 0..src.num_blocks() {
        src.with_rows(b, f)?;
    }
    Ok(())
}

/// Runs `f` on the rows of a single-block source, which span every state.
pub(crate) fn with_one_block<S, R>(
    src: &S,
    f: impl FnOnce(&CsrRows<'_>) -> R,
) -> Result<R, MdpError>
where
    S: CsrSource + ?Sized,
{
    debug_assert_eq!(src.num_blocks(), 1, "a single-block source");
    let mut f = Some(f);
    let mut out = None;
    src.with_rows(0, &mut |rows| out = f.take().map(|f| f(&rows)))?;
    Ok(out.expect("with_rows calls back once"))
}

/// States with **maximal** reachability probability zero (no path to the
/// target). A single-block source takes a backward BFS over a predecessor
/// graph built on the fly; a multi-block one, for which no predecessor
/// graph can be held in memory, a forward least fixpoint: mark states
/// with a positive-probability edge into the marked set until stable.
pub(crate) fn prob0_max<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
) -> Result<Vec<bool>, MdpError> {
    check_target(src, target)?;
    let mut can_reach = target.to_vec();
    if src.num_blocks() == 1 {
        with_one_block(src, |rows| {
            let n = rows.states().len();
            // In-degree count, prefix sum, fill: a predecessor CSR without
            // per-state vectors.
            let mut pred_off = vec![0u32; n + 1];
            for (&t, &p) in rows.targets.iter().zip(rows.probs) {
                if p > 0.0 {
                    pred_off[t as usize + 1] += 1;
                }
            }
            for t in 0..n {
                pred_off[t + 1] += pred_off[t];
            }
            let mut preds = vec![0u32; pred_off[n] as usize];
            let mut cursor = pred_off.clone();
            for s in 0..n {
                for i in rows.choice_range(s).flat_map(|c| rows.trans_range(c)) {
                    if rows.probs[i] > 0.0 {
                        let t = rows.targets[i] as usize;
                        preds[cursor[t] as usize] = s as u32;
                        cursor[t] += 1;
                    }
                }
            }
            let mut stack: Vec<usize> = (0..n).filter(|&s| target[s]).collect();
            while let Some(t) = stack.pop() {
                for &s in &preds[pred_off[t] as usize..pred_off[t + 1] as usize] {
                    if !can_reach[s as usize] {
                        can_reach[s as usize] = true;
                        stack.push(s as usize);
                    }
                }
            }
        })?;
    } else {
        loop {
            let mut changed = false;
            for_each_block(src, &mut |rows| {
                for s in rows.states() {
                    if can_reach[s] {
                        continue;
                    }
                    let reaches = rows.choice_range(s).any(|c| {
                        rows.trans_range(c)
                            .any(|i| rows.probs[i] > 0.0 && can_reach[rows.targets[i] as usize])
                    });
                    if reaches {
                        can_reach[s] = true;
                        changed = true;
                    }
                }
            })?;
            if !changed {
                break;
            }
        }
    }
    Ok(can_reach.iter().map(|&b| !b).collect())
}

/// Whether the zero-cost subgraph without the target states — states
/// connected by positive-probability transitions of choices with
/// `cost == 0` — has a cycle.
///
/// Zero-cost cycles make *minimizing* expected-cost analyses degenerate: a
/// policy may loop forever at zero cost without reaching the target, and
/// value iteration from below would report 0 instead of rejecting the
/// improper policy, so a `MinCost` [`crate::Query`] refuses such models.
/// (The round models of the case study are zero-cost-acyclic by
/// construction: every scheduling step consumes per-round budget.)
///
/// A single-block source asks Tarjan for a nontrivial component of that
/// subgraph. A multi-block source runs a peeling greatest fixpoint:
/// repeatedly discard states with no zero-cost positive-probability edge
/// into the remaining set; the remainder is nonempty iff the subgraph has
/// a cycle.
pub(crate) fn has_zero_cost_cycle<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
) -> Result<bool, MdpError> {
    check_target(src, target)?;
    if src.num_blocks() == 1 {
        return with_one_block(src, |rows| {
            scc::condense(rows, |c| rows.costs[c] == 0, |t| !target[t]).num_nontrivial() > 0
        });
    }
    let mut in_u: Vec<bool> = target.iter().map(|&t| !t).collect();
    loop {
        let mut changed = false;
        for_each_block(src, &mut |rows| {
            for s in rows.states() {
                if !in_u[s] {
                    continue;
                }
                let keeps = rows.choice_range(s).any(|c| {
                    rows.costs[c] == 0
                        && rows
                            .trans_range(c)
                            .any(|i| rows.probs[i] > 0.0 && in_u[rows.targets[i] as usize])
                });
                if !keeps {
                    in_u[s] = false;
                    changed = true;
                }
            }
        })?;
        if !changed {
            return Ok(in_u.iter().any(|&b| b));
        }
    }
}

/// One double-buffered Jacobi sweep over all blocks in state order.
///
/// `update(rows, s, prev)` computes state `s`'s next value from the
/// previous iterate only, `None` keeping a fixed state's value; the sweep
/// writes it to `next[s]` and returns the maximal `|next[s] - prev[s]|`.
/// See the module docs for why the result is bitwise independent of the
/// block structure.
fn jacobi_sweep<S, F>(src: &S, next: &mut [f64], prev: &[f64], update: &F) -> Result<f64, MdpError>
where
    S: CsrSource + ?Sized,
    F: Fn(&CsrRows<'_>, usize, &[f64]) -> Option<f64>,
{
    let mut delta = 0.0f64;
    for_each_block(src, &mut |rows| {
        for (off, slot) in next[rows.states()].iter_mut().enumerate() {
            let s = rows.first_state + off;
            let v = update(&rows, s, prev).unwrap_or(prev[s]);
            let d = (v - prev[s]).abs();
            if d > delta {
                delta = d;
            }
            *slot = v;
        }
    })?;
    Ok(delta)
}

/// States with **minimal** reachability probability zero: greatest
/// fixpoint of "not target, and terminal or some choice keeps all mass in
/// the set" (terminal states count as avoiding because the adversary may
/// stop scheduling).
pub(crate) fn prob0_min<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
) -> Result<Vec<bool>, MdpError> {
    check_target(src, target)?;
    let mut in_x: Vec<bool> = target.iter().map(|&t| !t).collect();
    loop {
        let mut changed = false;
        for_each_block(src, &mut |rows| {
            for s in rows.states() {
                if !in_x[s] {
                    continue;
                }
                let stays = rows.is_terminal(s)
                    || rows.choice_range(s).any(|c| {
                        rows.trans_range(c)
                            .all(|i| rows.probs[i] == 0.0 || in_x[rows.targets[i] as usize])
                    });
                if !stays {
                    in_x[s] = false;
                    changed = true;
                }
            }
        })?;
        if !changed {
            return Ok(in_x);
        }
    }
}

/// States whose optimal reachability probability is zero under
/// `objective` — the states unbounded value iteration keeps at 0.
pub(crate) fn prob0<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    objective: Objective,
) -> Result<Vec<bool>, MdpError> {
    match objective {
        Objective::MaxProb => prob0_max(src, target),
        Objective::MinProb => prob0_min(src, target),
    }
}

/// Qualitative almost-sure reachability: the set of states whose
/// `MinProb` (resp. `MaxProb`) reachability value is *exactly* 1,
/// decided on the transition graph alone.
///
/// This is the standard nested fixpoint
/// `νZ. μY. { s | s ∈ T ∨ Q a ∈ A(s): succ(a) ⊆ Z ∧ succ(a) ∩ Y ≠ ∅ }`
/// with `Q = ∀` for [`Objective::MinProb`] (every adversary reaches the
/// target almost surely) and `Q = ∃` for [`Objective::MaxProb`] (some
/// policy does). Terminal non-target states never qualify: they stay
/// put forever.
///
/// The expected-cost solvers use this instead of thresholding a
/// numerically iterated reachability value: on large models value
/// iteration can stop with true-1 states still measurably below 1, and
/// any cutoff then misclassifies proper states as divergent.
pub(crate) fn prob1<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    objective: Objective,
) -> Result<Vec<bool>, MdpError> {
    check_target(src, target)?;
    let n = src.num_states();
    // A choice "stays" in Z when every positive-probability successor is
    // in Z, and "progresses" when some such successor is already in Y.
    let choice_ok = |rows: &CsrRows<'_>, c: usize, z: &[bool], y: &[bool]| -> bool {
        let mut progresses = false;
        for i in rows.trans_range(c) {
            if rows.probs[i] == 0.0 {
                continue;
            }
            let t = rows.targets[i] as usize;
            if !z[t] {
                return false;
            }
            progresses |= y[t];
        }
        progresses
    };
    let mut z = vec![true; n];
    loop {
        // Inner least fixpoint: states that, while confined to Z, reach
        // a target state with positive probability.
        let mut y = target.to_vec();
        loop {
            let mut changed = false;
            for_each_block(src, &mut |rows| {
                for s in rows.states() {
                    if y[s] || !z[s] || rows.is_terminal(s) {
                        continue;
                    }
                    let ok = match objective {
                        Objective::MinProb => {
                            rows.choice_range(s).all(|c| choice_ok(&rows, c, &z, &y))
                        }
                        Objective::MaxProb => {
                            rows.choice_range(s).any(|c| choice_ok(&rows, c, &z, &y))
                        }
                    };
                    if ok {
                        y[s] = true;
                        changed = true;
                    }
                }
            })?;
            if !changed {
                break;
            }
        }
        if y == z {
            return Ok(y);
        }
        z = y;
    }
}

/// The reach update: state `s`'s best choice value under `values`, or
/// `None` for a state whose value is fixed (target, qualitative zero,
/// terminal).
#[inline]
fn reach_update(
    rows: &CsrRows<'_>,
    s: usize,
    target: &[bool],
    zero: &[bool],
    objective: Objective,
    values: &[f64],
) -> Option<f64> {
    if target[s] || zero[s] || rows.is_terminal(s) {
        return None;
    }
    let mut best = objective.start();
    for c in rows.choice_range(s) {
        let val = rows.choice_value(c, values);
        if objective.better(val, best) {
            best = val;
        }
    }
    Some(best)
}

/// Unbounded reachability `P^opt[eventually reach target]` by qualitative
/// precomputation plus value iteration (semantics of an unbounded
/// reachability [`crate::Query`]): Jacobi sweeps, or, for
/// [`Solver::SccOrdered`] over a single-block source, the SCC-ordered
/// solve. Both schedules evaluate [`reach_update`].
pub(crate) fn reach_prob<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    objective: Objective,
    options: IterOptions,
    solver: Solver,
    stats: &mut SolveStats,
) -> Result<Vec<f64>, MdpError> {
    let _span = pa_telemetry::span("mdp.vi.reach_prob_seconds");
    let zero = prob0(src, target, objective)?;
    let n = src.num_states();
    let mut cur = vec![0.0f64; n];
    for s in 0..n {
        if target[s] {
            cur[s] = 1.0;
        }
    }
    let update = |rows: &CsrRows<'_>, s: usize, v: &[f64]| {
        reach_update(rows, s, target, &zero, objective, v)
    };
    if solver == Solver::SccOrdered {
        scc::solve_unbounded(src, &mut cur, options, &update, stats)?;
        return Ok(cur);
    }
    if pa_telemetry::enabled() {
        pa_telemetry::counter("mdp.vi.runs").inc();
    }
    let mut prev = cur.clone();
    for _ in 0..options.max_sweeps {
        let sweep_span = pa_telemetry::span("mdp.vi.sweep_seconds");
        let delta = jacobi_sweep(src, &mut cur, &prev, &update)?;
        sweep_span.finish();
        stats.sweeps += 1;
        stats.state_updates += n as u64;
        if pa_telemetry::enabled() {
            pa_telemetry::counter("mdp.vi.sweeps").inc();
            pa_telemetry::series("mdp.vi.residual").push(delta);
        }
        std::mem::swap(&mut cur, &mut prev);
        if delta <= options.epsilon {
            break;
        }
    }
    Ok(prev)
}

fn bad_cost(state: usize, cost: u32) -> MdpError {
    MdpError::BadDistribution {
        state,
        reason: format!("cost-bounded reachability supports costs 0 and 1, found {cost}"),
    }
}

/// The first choice of state `s` whose cost exceeds 1, as `(s, cost)`.
fn first_bad_cost(rows: &CsrRows<'_>, s: usize) -> Option<(usize, u32)> {
    rows.choice_range(s)
        .map(|c| rows.costs[c])
        .find(|&cost| cost > 1)
        .map(|cost| (s, cost))
}

fn validate_costs<S: CsrSource + ?Sized>(src: &S) -> Result<(), MdpError> {
    let mut bad: Option<(usize, u32)> = None;
    for_each_block(src, &mut |rows| {
        if bad.is_none() {
            bad = rows.states().find_map(|s| first_bad_cost(&rows, s));
        }
    })?;
    match bad {
        Some((state, cost)) => Err(bad_cost(state, cost)),
        None => Ok(()),
    }
}

/// The value of state `s` at one budget level, and the index (among `s`'s
/// choices) of the first choice attaining it: cost-1 choices read the
/// level below, `level_prev`, zero-cost choices read the current level,
/// `cur`. `None` for a state whose value is fixed (target or terminal).
/// Every level solver and the policy extraction evaluate this expression.
#[inline]
fn level_choice(
    rows: &CsrRows<'_>,
    s: usize,
    target: &[bool],
    objective: Objective,
    level_prev: &[f64],
    cur: &[f64],
) -> Option<(f64, u32)> {
    if target[s] || rows.is_terminal(s) {
        return None;
    }
    let mut best = objective.start();
    let mut best_i = 0u32;
    for (i, c) in rows.choice_range(s).enumerate() {
        let source = if rows.costs[c] == 1 { level_prev } else { cur };
        let val = rows.choice_value(c, source);
        if objective.better(val, best) {
            best = val;
            best_i = i as u32;
        }
    }
    Some((best, best_i))
}

/// Resets `values` to a level's starting point: 1 on the target, else 0.
fn init_level(target: &[bool], values: &mut Vec<f64>) {
    values.clear();
    values.extend(target.iter().map(|&t| if t { 1.0 } else { 0.0 }));
}

/// One level of cost-bounded backward induction: the least fixpoint of
/// the zero-cost subgraph given the previous level, as a Jacobi
/// iteration of the level's `update` capped at `4n + 8` sweeps (see
/// [`crate::cost_bounded_reach_levels`] for the semantics).
///
/// The level's values end up in `values`; `scratch` is the second Jacobi
/// buffer. Both are reused across calls (cleared and resized here), so a
/// `budget`-level induction allocates two vectors total instead of one per
/// level.
fn solve_level<S, F>(
    src: &S,
    target: &[bool],
    update: &F,
    values: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
    stats: &mut SolveStats,
) -> Result<(), MdpError>
where
    S: CsrSource + ?Sized,
    F: Fn(&CsrRows<'_>, usize, &[f64]) -> Option<f64>,
{
    let n = src.num_states();
    init_level(target, values);
    scratch.clear();
    scratch.extend_from_slice(values);
    let level_sweeps =
        pa_telemetry::enabled().then(|| pa_telemetry::counter("mdp.vi.level_sweeps"));
    let max_sweeps = 4 * n + 8;
    // Alternate write/read roles between the two buffers; after sweep
    // `k` the newest iterate is in `values` iff `k` is odd.
    let mut done = 0usize;
    for k in 0..max_sweeps {
        if let Some(c) = &level_sweeps {
            c.inc();
        }
        stats.sweeps += 1;
        stats.state_updates += n as u64;
        let delta = if k % 2 == 0 {
            jacobi_sweep(src, values, scratch, update)?
        } else {
            jacobi_sweep(src, scratch, values, update)?
        };
        done = k + 1;
        if delta <= 1e-14 {
            break;
        }
    }
    if done.is_multiple_of(2) {
        std::mem::swap(values, scratch);
    }
    Ok(())
}

/// One level of cost-bounded backward induction in a single reverse pass
/// (see the [module docs](self)): blocks from last to first, states from
/// high id to low, every non-fixed state updated in place by the level's
/// `update`.
///
/// With `check` set (level 0), the pass also validates the costs as
/// [`validate_costs`] does, and checks that every zero-cost transition
/// out of a non-target state goes to a higher id or to a target state. At
/// the first one that does not, it stops and returns `Ok(false)`; the
/// level's values are then meaningless. Later levels reuse level 0's
/// verdict, because the model does not change between levels.
fn reverse_level<S, F>(
    src: &S,
    target: &[bool],
    check: bool,
    update: &F,
    values: &mut Vec<f64>,
    stats: &mut SolveStats,
) -> Result<bool, MdpError>
where
    S: CsrSource + ?Sized,
    F: Fn(&CsrRows<'_>, usize, &[f64]) -> Option<f64>,
{
    init_level(target, values);
    let reads_final = |rows: &CsrRows<'_>, s: usize| {
        rows.choice_range(s)
            .filter(|&c| rows.costs[c] != 1)
            .flat_map(|c| rows.trans_range(c))
            .all(|i| {
                let t = rows.targets[i] as usize;
                t > s || target[t]
            })
    };
    let mut forward = true;
    let mut bad: Option<(usize, u32)> = None;
    let mut updates = 0u64;
    for b in (0..src.num_blocks()).rev() {
        src.with_rows(b, &mut |rows| {
            for s in rows.states().rev() {
                if check {
                    // States come high to low, so the last one found is
                    // the lowest, the state `validate_costs` reports.
                    bad = first_bad_cost(&rows, s).or(bad);
                }
                let Some(v) = update(&rows, s, values) else {
                    continue;
                };
                if check && !reads_final(&rows, s) {
                    forward = false;
                    return;
                }
                values[s] = v;
                updates += 1;
            }
        })?;
        if !forward {
            return Ok(false);
        }
    }
    if let Some((state, cost)) = bad {
        return Err(bad_cost(state, cost));
    }
    if pa_telemetry::enabled() {
        pa_telemetry::counter("mdp.vi.level_sweeps").inc();
    }
    stats.sweeps += 1;
    stats.state_updates += updates;
    Ok(true)
}

/// Extracts the optimal per-state choice of one budget level, given the
/// converged level `values` and the previous level `level_prev`.
/// Solver-independent: every level solver feeds its fixpoint through this.
fn extract_level_decisions<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    level_prev: &[f64],
    values: &[f64],
    objective: Objective,
    dec: &mut Vec<Option<u32>>,
) -> Result<(), MdpError> {
    dec.clear();
    dec.resize(src.num_states(), None);
    for_each_block(src, &mut |rows| {
        for s in rows.states() {
            dec[s] = level_choice(&rows, s, target, objective, level_prev, values).map(|(_, i)| i);
        }
    })
}

/// How [`bounded_levels`] solves each budget level.
#[derive(Clone, Copy)]
pub(crate) enum LevelSolver<'a> {
    /// Double-buffered Jacobi over the source.
    Jacobi,
    /// The SCC-ordered solver of a single-block source over its zero-cost
    /// condensation (built once by the caller).
    Scc(&'a SccDecomposition),
    /// The reverse level pass over the source. On a backward zero-cost
    /// edge the query falls back to Jacobi from scratch, or, when
    /// `strict`, fails with [`MdpError::InvalidQuery`].
    Reverse { strict: bool },
}

/// Cost-bounded backward induction (semantics of
/// [`crate::cost_bounded_reach_levels`]): rotates three reused buffers
/// (previous level, current level, Jacobi scratch) through every budget
/// level instead of materializing one vector per level, optionally
/// extracting the optimal cost-indexed policy along the way and reporting
/// each level to `on_level`. Every level solver evaluates
/// [`level_choice`]. Returns the final level and the solver that ran:
/// [`Solver::Jacobi`] for Jacobi, including a reverse pass that fell back
/// to it, else [`Solver::SccOrdered`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn bounded_levels<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    budget: u32,
    objective: Objective,
    mut solver: LevelSolver<'_>,
    mut policy: Option<&mut Vec<Vec<Option<u32>>>>,
    on_level: &mut dyn FnMut(u32, &[f64]),
    stats: &mut SolveStats,
) -> Result<(Vec<f64>, Solver), MdpError> {
    check_target(src, target)?;
    // The reverse pass validates the costs during level 0 instead.
    if !matches!(solver, LevelSolver::Reverse { .. }) {
        validate_costs(src)?;
    }
    let _span = pa_telemetry::span("mdp.vi.cost_bounded_seconds");
    let levels = pa_telemetry::enabled().then(|| pa_telemetry::counter("mdp.vi.levels"));
    let n = src.num_states();
    if let LevelSolver::Scc(scc) = solver {
        scc::record_shape(scc, stats);
    }
    let mut level_prev = vec![0.0f64; n];
    let mut cur: Vec<f64> = Vec::new();
    let mut scratch: Vec<f64> = Vec::new();
    if pa_telemetry::enabled() {
        // High-water value-buffer footprint of the whole induction:
        // three reused f64 vectors, independent of the budget.
        pa_telemetry::gauge("mdp.vi.level_buffer_bytes")
            .set_max((3 * n * std::mem::size_of::<f64>()) as i64);
    }
    for k in 0..=budget {
        let level_prev_ref = &level_prev;
        let update = |rows: &CsrRows<'_>, s: usize, cur: &[f64]| {
            level_choice(rows, s, target, objective, level_prev_ref, cur).map(|(v, _)| v)
        };
        let jacobi = |cur: &mut Vec<f64>, scratch: &mut Vec<f64>, stats: &mut SolveStats| {
            solve_level(src, target, &update, cur, scratch, stats)
        };
        match solver {
            LevelSolver::Scc(scc) => {
                init_level(target, &mut cur);
                with_one_block(src, |rows| {
                    scc::ordered_solve(
                        rows,
                        scc,
                        &mut cur,
                        1e-14,
                        |len| 4 * len + 8,
                        &update,
                        stats,
                    )
                })?;
            }
            LevelSolver::Jacobi => jacobi(&mut cur, &mut scratch, stats)?,
            LevelSolver::Reverse { strict } => {
                if !reverse_level(src, target, k == 0, &update, &mut cur, stats)? {
                    // Only level 0 checks, so this is still level 0:
                    // nothing has been reported yet.
                    validate_costs(src)?;
                    if strict {
                        return Err(MdpError::InvalidQuery {
                            reason: "the SCC-ordered solver over a multi-block source needs \
                                     every zero-cost transition to go to a higher state id or \
                                     to the target"
                                .into(),
                        });
                    }
                    solver = LevelSolver::Jacobi;
                    jacobi(&mut cur, &mut scratch, stats)?;
                }
            }
        }
        if let Some(policy) = policy.as_deref_mut() {
            let mut dec = Vec::new();
            extract_level_decisions(src, target, &level_prev, &cur, objective, &mut dec)?;
            policy.push(dec);
        }
        on_level(k, &cur);
        std::mem::swap(&mut level_prev, &mut cur);
    }
    if let Some(c) = levels {
        c.add(u64::from(budget) + 1);
    }
    let ran = match solver {
        LevelSolver::Jacobi => Solver::Jacobi,
        LevelSolver::Reverse { .. } => {
            // Descending ids order a condensation of single states.
            stats.components = n as u64;
            Solver::SccOrdered
        }
        LevelSolver::Scc(_) => Solver::SccOrdered,
    };
    // The final level ended up in `level_prev` after the last swap.
    Ok((level_prev, ran))
}

/// The states whose optimal expected cost to the target is finite, for
/// the expected-cost direction `objective` ([`Objective::MaxProb`]: the
/// adversary maximizes cost, [`Objective::MinProb`]: the scheduler
/// minimizes it).
///
/// Maximizing needs every adversary to reach the target almost surely
/// (`prob1` under `MinProb`). Minimizing needs some policy to (`prob1`
/// under `MaxProb`), and rejects models whose off-target zero-cost
/// subgraph has a cycle with [`MdpError::DivergentExpectation`] (state 0
/// by convention): a zero-cost loop would corrupt the least fixpoint.
pub(crate) fn finite_cost_states<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    objective: Objective,
) -> Result<Vec<bool>, MdpError> {
    match objective {
        Objective::MaxProb => prob1(src, target, Objective::MinProb),
        Objective::MinProb => {
            if has_zero_cost_cycle(src, target)? {
                return Err(MdpError::DivergentExpectation { state: 0 });
            }
            prob1(src, target, Objective::MaxProb)
        }
    }
}

/// The cost update: state `s`'s best expected cost under `values` over
/// the choices whose positive-probability successors are all live or
/// target, falling back to `values[s]` when no choice qualifies; `None`
/// for a state whose value is fixed (target, not live, terminal).
#[inline]
fn cost_update(
    rows: &CsrRows<'_>,
    s: usize,
    target: &[bool],
    live: &[bool],
    objective: Objective,
    values: &[f64],
) -> Option<f64> {
    if target[s] || !live[s] || rows.is_terminal(s) {
        return None;
    }
    let mut best = objective.start();
    for c in rows.choice_range(s) {
        let mut val = rows.costs[c] as f64;
        let mut ok = true;
        for i in rows.trans_range(c) {
            let p = rows.probs[i];
            if p == 0.0 {
                continue;
            }
            let t = rows.targets[i] as usize;
            if !target[t] && !live[t] {
                ok = false;
                break;
            }
            val += p * values[t];
        }
        if ok && objective.better(val, best) {
            best = val;
        }
    }
    Some(if best.is_finite() { best } else { values[s] })
}

/// Expected-cost value iteration: Jacobi sweeps, or, for
/// [`Solver::SccOrdered`] over a single-block source, the SCC-ordered
/// solve; both evaluate [`cost_update`]. `live[s]` marks states whose
/// expectation is finite ([`finite_cost_states`]); others end at
/// `f64::INFINITY`. A choice with a non-live, non-target successor is
/// excluded (a proper policy never moves there; a maximizing adversary
/// reaching one would contradict `live[s]`).
pub(crate) fn expected_cost<S: CsrSource + ?Sized>(
    src: &S,
    target: &[bool],
    live: &[bool],
    objective: Objective,
    options: IterOptions,
    solver: Solver,
    stats: &mut SolveStats,
) -> Result<Vec<f64>, MdpError> {
    let n = src.num_states();
    let mut cur = vec![0.0f64; n];
    let update =
        |rows: &CsrRows<'_>, s: usize, v: &[f64]| cost_update(rows, s, target, live, objective, v);
    let mut v = if solver == Solver::SccOrdered {
        scc::solve_unbounded(src, &mut cur, options, &update, stats)?;
        cur
    } else {
        let ec_sweeps = pa_telemetry::enabled().then(|| pa_telemetry::counter("mdp.vi.ec_sweeps"));
        let mut prev = cur.clone();
        for _ in 0..options.max_sweeps {
            if let Some(c) = &ec_sweeps {
                c.inc();
            }
            stats.sweeps += 1;
            stats.state_updates += n as u64;
            let delta = jacobi_sweep(src, &mut cur, &prev, &update)?;
            std::mem::swap(&mut cur, &mut prev);
            if delta <= options.epsilon {
                break;
            }
        }
        prev
    };
    for s in 0..n {
        if !target[s] && !live[s] {
            v[s] = f64::INFINITY;
        }
    }
    Ok(v)
}

/// FNV-1a 64 digest of a backend's *logical* content: counts, initial
/// states, then every row's structure (choice count; per choice its cost
/// and transition count; per transition the global target and the exact
/// probability bits) in state order.
///
/// Independent of how the backend splits rows into blocks, so an in-core
/// [`crate::CsrMdp`] and any stored copy of the same model digest to the
/// same value — the round-trip check the `store-smoke` CI job and the bench
/// `store` block gate on.
pub fn csr_digest<S: CsrSource + ?Sized>(src: &S) -> Result<u64, MdpError> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(src.num_states() as u64);
    eat(src.num_choices());
    eat(src.num_transitions());
    eat(src.initial_states().len() as u64);
    for &s in src.initial_states() {
        eat(s as u64);
    }
    let mut hash = h;
    for_each_block(src, &mut |rows| {
        let mut h = hash;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in rows.states() {
            let cr = rows.choice_range(s);
            eat((cr.end - cr.start) as u64);
            for c in cr {
                eat(u64::from(rows.costs[c]));
                let tr = rows.trans_range(c);
                eat((tr.end - tr.start) as u64);
                for i in tr {
                    eat(u64::from(rows.targets[i]));
                    eat(rows.probs[i].to_bits());
                }
            }
        }
        hash = h;
    })?;
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, CsrBuilder, CsrMdp, CsrRow, ExplicitMdp};

    fn escape() -> CsrMdp {
        CsrMdp::from_explicit(
            &ExplicitMdp::new(
                vec![
                    vec![Choice::to(1, 1), Choice::dist(1, vec![(2, 0.5), (0, 0.5)])],
                    vec![Choice::to(1, 0)],
                    vec![],
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    /// An in-core model's rows cut into blocks at the given state bounds,
    /// each rebuilt with block-relative offsets: a multi-block source, so
    /// the qualitative checks take their block fixpoints and a bounded
    /// query the reverse level pass.
    struct Split(Vec<(usize, CsrBuilder)>);

    impl Split {
        fn new(m: &CsrMdp, bounds: &[usize]) -> Split {
            let rows = m.rows();
            let mut cuts = vec![0];
            cuts.extend_from_slice(bounds);
            cuts.push(rows.states().end);
            Split(
                cuts.windows(2)
                    .map(|w| {
                        let mut b = CsrBuilder::new();
                        for s in w[0]..w[1] {
                            let choices = rows.choice_range(s);
                            let trans = rows.trans_offsets[choices.start] as usize
                                ..rows.trans_offsets[choices.end] as usize;
                            let ends: Vec<u32> = choices
                                .clone()
                                .map(|c| (rows.trans_range(c).end - trans.start) as u32)
                                .collect();
                            b.push_row(CsrRow {
                                costs: &rows.costs[choices],
                                trans_ends: &ends,
                                targets: &rows.targets[trans.clone()],
                                probs: &rows.probs[trans],
                            })
                            .unwrap();
                        }
                        (w[0], b)
                    })
                    .collect(),
            )
        }
    }

    impl CsrSource for Split {
        fn num_states(&self) -> usize {
            self.0.iter().map(|(_, b)| b.num_states()).sum()
        }
        fn num_choices(&self) -> u64 {
            self.0
                .iter()
                .map(|(f, b)| b.rows(*f).costs.len() as u64)
                .sum()
        }
        fn num_transitions(&self) -> u64 {
            self.0
                .iter()
                .map(|(f, b)| b.rows(*f).targets.len() as u64)
                .sum()
        }
        fn initial_states(&self) -> &[usize] {
            &[]
        }
        fn num_blocks(&self) -> usize {
            self.0.len()
        }
        fn block_states(&self, block: usize) -> Range<usize> {
            let (first, b) = &self.0[block];
            *first..first + b.num_states()
        }
        fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError> {
            let (first, b) = &self.0[block];
            f(b.rows(*first));
            Ok(())
        }
    }

    #[test]
    fn csr_mdp_is_a_single_block_source() {
        let csr = escape();
        assert_eq!(CsrSource::num_states(&csr), 3);
        assert_eq!(csr.num_blocks(), 1);
        assert_eq!(csr.block_states(0), 0..3);
        let mut seen = 0usize;
        csr.with_rows(0, &mut |rows| {
            for s in rows.states() {
                seen += 1;
                for c in rows.choice_range(s) {
                    let _ = rows.trans_range(c);
                }
            }
        })
        .unwrap();
        assert_eq!(seen, 3);
    }

    /// Every nonempty two- and three-block split of `m`.
    fn splits(m: &CsrMdp) -> Vec<Split> {
        let n = m.num_states();
        let mut out: Vec<Split> = (1..n).map(|i| Split::new(m, &[i])).collect();
        out.extend(
            (1..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .map(|(i, j)| Split::new(m, &[i, j])),
        );
        out
    }

    #[test]
    fn zero_cost_cycle_peeling_matches_tarjan() {
        let model = |rows: Vec<Vec<Choice>>| {
            CsrMdp::from_explicit(&ExplicitMdp::new(rows, vec![0]).unwrap())
        };
        let cases = [
            (
                model(vec![
                    vec![Choice::to(0, 1)],
                    vec![Choice::to(0, 0), Choice::to(1, 2)],
                    vec![],
                ]),
                vec![[false, false, true], [true, false, false], [false; 3]],
            ),
            (
                model(vec![
                    vec![Choice::to(0, 0), Choice::to(1, 2)],
                    vec![Choice::to(0, 2)],
                    vec![Choice::to(0, 1), Choice::to(1, 0)],
                ]),
                vec![
                    [false, false, true],
                    [true, false, false],
                    [false, true, false],
                ],
            ),
        ];
        for (m, targets) in &cases {
            for target in targets {
                let single = has_zero_cost_cycle(m, target).unwrap();
                for split in splits(m) {
                    assert!(split.num_blocks() > 1);
                    assert_eq!(single, has_zero_cost_cycle(&split, target).unwrap());
                }
            }
        }
    }

    #[test]
    fn prob0_max_forward_fixpoint_matches_backward_bfs() {
        let m = escape();
        for target in [[false, false, true], [true, false, false], [false; 3]] {
            let single = prob0_max(&m, &target).unwrap();
            for split in splits(&m) {
                assert_eq!(single, prob0_max(&split, &target).unwrap());
            }
        }
    }

    fn bounded<'m>(
        m: &'m dyn CsrSource,
        target: &[bool],
        solver: Option<Solver>,
    ) -> crate::Query<'m> {
        let q = crate::Query::source(m).target(target).horizon(2);
        match solver {
            Some(solver) => q.solver(solver),
            None => q,
        }
    }

    #[test]
    fn reverse_pass_reports_the_lowest_bad_cost_like_jacobi() {
        // Costs 2 at state 1 and 3 at state 3; the second model adds a
        // zero-cost edge 2 -> 0, which stops level 0's pass at state 2,
        // before it reaches state 1.
        let rows = |back: bool| {
            let mut two = vec![Choice::to(0, 3)];
            if back {
                two.push(Choice::to(0, 0));
            }
            vec![
                vec![Choice::to(0, 1)],
                vec![Choice::to(0, 2), Choice::to(2, 2)],
                two,
                vec![Choice::to(3, 4)],
                vec![],
            ]
        };
        let target = [false, false, false, false, true];
        for back in [false, true] {
            let m = CsrMdp::from_explicit(&ExplicitMdp::new(rows(back), vec![0]).unwrap());
            let m = Split::new(&m, &[2]);
            let reverse = bounded(&m, &target, None).run().unwrap_err().into_root();
            let jacobi = bounded(&m, &target, Some(Solver::Jacobi))
                .run()
                .unwrap_err()
                .into_root();
            assert_eq!(reverse, jacobi, "backward edge: {back}");
            assert!(matches!(
                reverse,
                MdpError::BadDistribution { state: 1, .. }
            ));
        }
    }

    #[test]
    fn edges_back_into_the_target_keep_the_reverse_pass() {
        // 2 -> 0 is a zero-cost edge to a lower id, but 0 is a target, so
        // its value is fixed at every level.
        let m = CsrMdp::from_explicit(
            &ExplicitMdp::new(
                vec![
                    vec![Choice::to(0, 1)],
                    vec![Choice::dist(0, vec![(2, 0.5), (3, 0.5)])],
                    vec![Choice::to(0, 0)],
                    vec![Choice::to(1, 1)],
                ],
                vec![1],
            )
            .unwrap(),
        );
        let m = Split::new(&m, &[2]);
        let target = [true, false, false, false];
        let reverse = bounded(&m, &target, None).run().unwrap();
        let jacobi = bounded(&m, &target, Some(Solver::Jacobi)).run().unwrap();
        assert_eq!(reverse.solver, Solver::SccOrdered);
        assert_eq!(reverse.stats.sweeps, 3);
        assert_eq!(reverse.values, jacobi.values);
        assert_eq!(reverse.values, vec![1.0, 0.875, 1.0, 0.75]);

        // The same edge into a non-target state sends the query to Jacobi.
        let target = [false, false, false, true];
        let fallback = bounded(&m, &target, None).run().unwrap();
        let jacobi = bounded(&m, &target, Some(Solver::Jacobi)).run().unwrap();
        assert_eq!(fallback.solver, Solver::Jacobi);
        assert_eq!(fallback.values, jacobi.values);
        assert_eq!(fallback.stats, jacobi.stats);
    }

    #[test]
    fn digest_is_block_structure_independent_and_content_sensitive() {
        let a = escape();
        let d1 = csr_digest(&a).unwrap();
        let d2 = csr_digest(&a).unwrap();
        assert_eq!(d1, d2);
        let other = CsrMdp::from_explicit(
            &ExplicitMdp::new(
                vec![
                    vec![
                        Choice::to(1, 1),
                        Choice::dist(1, vec![(2, 0.25), (0, 0.75)]),
                    ],
                    vec![Choice::to(1, 0)],
                    vec![],
                ],
                vec![0],
            )
            .unwrap(),
        );
        assert_ne!(d1, csr_digest(&other).unwrap());
    }
}
