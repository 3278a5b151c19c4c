//! Compressed-sparse-row MDP engine: flat arrays plus deterministic
//! parallel value iteration.
//!
//! The nested [`ExplicitMdp`] (`Vec<Vec<Choice>>` with a `Vec<(usize,
//! f64)>` per choice) is convenient to build but hostile to sweep over:
//! every state visit chases two levels of pointers and the transition pairs
//! interleave an 8-byte index with an 8-byte probability across thousands
//! of small allocations. [`CsrMdp`] flattens the same model into five
//! contiguous arrays —
//!
//! ```text
//! choice_offsets : n+1      per-state range into the choice arrays
//! trans_offsets  : m+1      per-choice range into the transition arrays
//! costs          : m        per-choice cost
//! targets        : k        per-transition successor (u32)
//! probs          : k        per-transition probability
//! ```
//!
//! — built once after exploration, so every analysis sweep is a linear
//! walk.
//!
//! # Deterministic parallelism
//!
//! All iterative kernels are **double-buffered Jacobi** sweeps: the new
//! value of every state is computed from the previous iterate only, never
//! from values updated earlier in the same sweep. Per-state updates are
//! therefore independent, and the sweep is chunked across worker threads
//! (crossbeam scoped threads) over disjoint slices of the output buffer.
//! Because each state's update reads the same immutable previous iterate
//! and performs the same floating-point operations in the same order
//! regardless of chunking, and the convergence test reduces per-chunk
//! deltas with `f64::max` (order-independent for the finite values these
//! kernels produce), **results are bit-for-bit identical for every worker
//! count** — `workers = Some(1)` and `Some(8)` return the same bytes. The
//! property tests in `crates/mdp/tests/` pin this contract.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be forced with the `PA_MDP_WORKERS` environment variable or the
//! `workers` argument of each kernel.

use crate::{ExplicitMdp, IterOptions, MdpError, Objective, SccDecomposition};

/// Sweeps over fewer states than this stay on the calling thread: below
/// this size, thread spawn/join costs more than the sweep itself.
const PAR_MIN_STATES: usize = 4096;

/// Work counters accumulated by one quantitative solve, reported through
/// [`crate::Analysis::stats`]. The update counts are what the SCC-ordered
/// solver is designed to shrink: a global Jacobi sweep recomputes every
/// state until the slowest one converges, while the SCC-ordered path
/// touches each component only as long as *it* needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Value-iteration sweeps performed (global sweeps for the Jacobi
    /// solver, per-block sweeps for the SCC-ordered solver).
    pub sweeps: u64,
    /// Individual state-value computations performed.
    pub state_updates: u64,
    /// Strongly connected components of the condensation (0 for the
    /// Jacobi solver, which never builds one).
    pub components: u64,
    /// Components that contained a cycle and needed local iteration.
    pub nontrivial_components: u64,
}

/// Resolves an optional worker-count override: explicit argument, then the
/// `PA_MDP_WORKERS` environment variable, then available parallelism.
pub fn resolve_workers(workers: Option<usize>) -> usize {
    workers
        .or_else(|| {
            std::env::var("PA_MDP_WORKERS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

/// A compressed-sparse-row view of an [`ExplicitMdp`].
///
/// Indices are `u32` internally (a model with 4 billion choices or
/// transitions would not fit in memory as nested vectors either);
/// construction asserts the bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMdp {
    /// `choice_offsets[s]..choice_offsets[s+1]` are state `s`'s choices.
    choice_offsets: Vec<u32>,
    /// `trans_offsets[c]..trans_offsets[c+1]` are choice `c`'s transitions.
    trans_offsets: Vec<u32>,
    /// Cost of each choice.
    costs: Vec<u32>,
    /// Successor state of each transition.
    targets: Vec<u32>,
    /// Probability of each transition.
    probs: Vec<f64>,
    /// Initial state indices.
    initial: Vec<usize>,
}

impl CsrMdp {
    /// Flattens a validated nested model. Choice and transition order are
    /// preserved exactly, so analyses on the CSR form visit successors in
    /// the same order (and produce bitwise-identical floating-point
    /// results) as the same algorithm on the nested form.
    pub fn from_explicit(mdp: &ExplicitMdp) -> CsrMdp {
        let n = mdp.num_states();
        let m = mdp.num_choices();
        let k = mdp.num_transitions();
        assert!(
            m < u32::MAX as usize && k < u32::MAX as usize,
            "model too large for u32 CSR offsets"
        );
        let mut choice_offsets = Vec::with_capacity(n + 1);
        let mut trans_offsets = Vec::with_capacity(m + 1);
        let mut costs = Vec::with_capacity(m);
        let mut targets = Vec::with_capacity(k);
        let mut probs = Vec::with_capacity(k);
        choice_offsets.push(0);
        trans_offsets.push(0);
        for s in 0..n {
            for c in mdp.choices(s) {
                costs.push(c.cost);
                for &(t, p) in &c.transitions {
                    targets.push(t as u32);
                    probs.push(p);
                }
                trans_offsets.push(targets.len() as u32);
            }
            choice_offsets.push(costs.len() as u32);
        }
        CsrMdp {
            choice_offsets,
            trans_offsets,
            costs,
            targets,
            probs,
            initial: mdp.initial_states().to_vec(),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.choice_offsets.len() - 1
    }

    /// Total number of choices.
    pub fn num_choices(&self) -> usize {
        self.costs.len()
    }

    /// Total number of probabilistic transitions.
    pub fn num_transitions(&self) -> usize {
        self.targets.len()
    }

    /// The initial state indices.
    pub fn initial_states(&self) -> &[usize] {
        &self.initial
    }

    /// Heap bytes held by the flattened arrays (offsets, costs, targets,
    /// probabilities, initial states). This is the per-slot size a model
    /// cache accounts a resident CSR at when enforcing a byte budget.
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.choice_offsets.capacity() * size_of::<u32>()
            + self.trans_offsets.capacity() * size_of::<u32>()
            + self.costs.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<u32>()
            + self.probs.capacity() * size_of::<f64>()
            + self.initial.capacity() * size_of::<usize>()) as u64
    }

    /// The flat choice-index range of a state.
    #[inline]
    pub fn choice_range(&self, s: usize) -> std::ops::Range<usize> {
        self.choice_offsets[s] as usize..self.choice_offsets[s + 1] as usize
    }

    /// The flat transition-index range of a choice.
    #[inline]
    pub fn trans_range(&self, c: usize) -> std::ops::Range<usize> {
        self.trans_offsets[c] as usize..self.trans_offsets[c + 1] as usize
    }

    /// The cost of a flat choice index.
    #[inline]
    pub fn cost(&self, c: usize) -> u32 {
        self.costs[c]
    }

    /// The `(successor, probability)` pair of a flat transition index.
    #[inline]
    pub fn transition(&self, i: usize) -> (usize, f64) {
        (self.targets[i] as usize, self.probs[i])
    }

    /// Whether a state has no choices.
    #[inline]
    pub(crate) fn is_terminal(&self, s: usize) -> bool {
        self.choice_offsets[s] == self.choice_offsets[s + 1]
    }

    pub(crate) fn check_target(&self, target: &[bool]) -> Result<(), MdpError> {
        if target.len() != self.num_states() {
            return Err(MdpError::TargetLengthMismatch {
                got: target.len(),
                expected: self.num_states(),
            });
        }
        Ok(())
    }

    /// The expected value of choice `c` under the value vector `source`,
    /// accumulated in transition order (the floating-point operation order
    /// every engine in this crate agrees on).
    #[inline]
    pub(crate) fn choice_value(&self, c: usize, source: &[f64]) -> f64 {
        let mut val = 0.0f64;
        for i in self.trans_range(c) {
            val += self.probs[i] * source[self.targets[i] as usize];
        }
        val
    }

    /// States with **maximal** reachability probability zero (no path to
    /// the target). Backward reachability over a CSR predecessor graph
    /// built on the fly.
    pub fn prob0_max(&self, target: &[bool]) -> Result<Vec<bool>, MdpError> {
        self.check_target(target)?;
        let n = self.num_states();
        // In-degree count, prefix sum, fill: a predecessor CSR without
        // per-state vectors.
        let mut pred_off = vec![0u32; n + 1];
        for i in 0..self.num_transitions() {
            if self.probs[i] > 0.0 {
                pred_off[self.targets[i] as usize + 1] += 1;
            }
        }
        for t in 0..n {
            pred_off[t + 1] += pred_off[t];
        }
        let mut preds = vec![0u32; pred_off[n] as usize];
        let mut cursor = pred_off.clone();
        for s in 0..n {
            for c in self.choice_range(s) {
                for i in self.trans_range(c) {
                    if self.probs[i] > 0.0 {
                        let t = self.targets[i] as usize;
                        preds[cursor[t] as usize] = s as u32;
                        cursor[t] += 1;
                    }
                }
            }
        }
        let mut can_reach = target.to_vec();
        let mut stack: Vec<usize> = (0..n).filter(|&s| target[s]).collect();
        while let Some(t) = stack.pop() {
            for &s in &preds[pred_off[t] as usize..pred_off[t + 1] as usize] {
                if !can_reach[s as usize] {
                    can_reach[s as usize] = true;
                    stack.push(s as usize);
                }
            }
        }
        Ok(can_reach.iter().map(|&b| !b).collect())
    }

    /// States with **minimal** reachability probability zero: greatest
    /// fixpoint of "not target, and terminal or some choice keeps all mass
    /// in the set" (terminal states count as avoiding because the
    /// adversary may stop scheduling).
    pub fn prob0_min(&self, target: &[bool]) -> Result<Vec<bool>, MdpError> {
        self.check_target(target)?;
        let n = self.num_states();
        let mut in_x: Vec<bool> = target.iter().map(|&t| !t).collect();
        loop {
            let mut changed = false;
            for s in 0..n {
                if !in_x[s] {
                    continue;
                }
                let stays = self.is_terminal(s)
                    || self.choice_range(s).any(|c| {
                        self.trans_range(c)
                            .all(|i| self.probs[i] == 0.0 || in_x[self.targets[i] as usize])
                    });
                if !stays {
                    in_x[s] = false;
                    changed = true;
                }
            }
            if !changed {
                return Ok(in_x);
            }
        }
    }

    /// Unbounded reachability `P^opt[eventually reach target]` by
    /// qualitative precomputation plus parallel Jacobi value iteration.
    /// Semantics match an unbounded reachability [`crate::Query`];
    /// `workers` as in [`resolve_workers`].
    pub fn reach_prob(
        &self,
        target: &[bool],
        objective: Objective,
        options: IterOptions,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, MdpError> {
        self.reach_prob_stats(
            target,
            objective,
            options,
            workers,
            &mut SolveStats::default(),
        )
    }

    /// [`CsrMdp::reach_prob`] with work counters accumulated into `stats`.
    pub(crate) fn reach_prob_stats(
        &self,
        target: &[bool],
        objective: Objective,
        options: IterOptions,
        workers: Option<usize>,
        stats: &mut SolveStats,
    ) -> Result<Vec<f64>, MdpError> {
        let _span = pa_telemetry::span("mdp.vi.reach_prob_seconds");
        self.check_target(target)?;
        let zero = match objective {
            Objective::MaxProb => self.prob0_max(target)?,
            Objective::MinProb => self.prob0_min(target)?,
        };
        let n = self.num_states();
        let workers = resolve_workers(workers);
        if pa_telemetry::enabled() {
            pa_telemetry::counter("mdp.vi.runs").inc();
        }
        let mut cur = vec![0.0f64; n];
        for s in 0..n {
            if target[s] {
                cur[s] = 1.0;
            }
        }
        let mut prev = cur.clone();
        for _ in 0..options.max_sweeps {
            let sweep_span = pa_telemetry::span("mdp.vi.sweep_seconds");
            let delta = jacobi_sweep(&mut cur, &prev, workers, |s, prev| {
                if target[s] || zero[s] || self.is_terminal(s) {
                    return prev[s];
                }
                let mut best = objective.start();
                for c in self.choice_range(s) {
                    let val = self.choice_value(c, prev);
                    if objective.better(val, best) {
                        best = val;
                    }
                }
                best
            });
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

    /// One level of cost-bounded backward induction: the least fixpoint of
    /// the zero-cost subgraph given the previous level `level_prev`, as a
    /// parallel Jacobi iteration. See [`crate::cost_bounded_reach_levels`]
    /// for semantics (including the `4n + 8` sweep cap).
    ///
    /// The level's values end up in `values`; `scratch` is the second
    /// Jacobi buffer. Both are reused across calls (cleared and resized
    /// here), so a `budget`-level induction allocates two vectors total
    /// instead of one per level.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_level_into(
        &self,
        target: &[bool],
        level_prev: &[f64],
        objective: Objective,
        workers: usize,
        values: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        stats: &mut SolveStats,
    ) {
        let n = self.num_states();
        values.clear();
        values.resize(n, 0.0);
        for s in 0..n {
            if target[s] {
                values[s] = 1.0;
            }
        }
        scratch.clear();
        scratch.extend_from_slice(values);
        let level_sweeps =
            pa_telemetry::enabled().then(|| pa_telemetry::counter("mdp.vi.level_sweeps"));
        let max_sweeps = 4 * n + 8;
        let update = |s: usize, prev: &[f64]| {
            if target[s] || self.is_terminal(s) {
                return prev[s];
            }
            let mut best = objective.start();
            for c in self.choice_range(s) {
                let source = if self.costs[c] == 1 { level_prev } else { prev };
                let val = self.choice_value(c, source);
                if objective.better(val, best) {
                    best = val;
                }
            }
            best
        };
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
                jacobi_sweep(values, scratch, workers, update)
            } else {
                jacobi_sweep(scratch, values, workers, update)
            };
            done = k + 1;
            if delta <= 1e-14 {
                break;
            }
        }
        if done.is_multiple_of(2) {
            std::mem::swap(values, scratch);
        }
    }

    /// Extracts the optimal per-state choice of one budget level, given the
    /// converged level `values` and the previous level `level_prev`.
    /// Solver-independent: both the Jacobi and the SCC-ordered level solves
    /// feed their fixpoints through this.
    pub(crate) fn extract_level_decisions(
        &self,
        target: &[bool],
        level_prev: &[f64],
        values: &[f64],
        objective: Objective,
        dec: &mut Vec<Option<u32>>,
    ) {
        let n = self.num_states();
        dec.clear();
        dec.resize(n, None);
        for s in 0..n {
            if target[s] || self.is_terminal(s) {
                continue;
            }
            let mut best = objective.start();
            let mut best_i = 0u32;
            for (i, c) in self.choice_range(s).enumerate() {
                let source = if self.costs[c] == 1 {
                    level_prev
                } else {
                    values
                };
                let val = self.choice_value(c, source);
                if objective.better(val, best) {
                    best = val;
                    best_i = i as u32;
                }
            }
            dec[s] = Some(best_i);
        }
    }

    fn validate_costs(&self) -> Result<(), MdpError> {
        for s in 0..self.num_states() {
            for c in self.choice_range(s) {
                if self.costs[c] > 1 {
                    return Err(MdpError::BadDistribution {
                        state: s,
                        reason: format!(
                            "cost-bounded reachability supports costs 0 and 1, found {}",
                            self.costs[c]
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Cost-bounded reachability with a per-level callback; semantics match
    /// [`crate::cost_bounded_reach_levels`].
    pub fn cost_bounded_reach_levels(
        &self,
        target: &[bool],
        budget: u32,
        objective: Objective,
        workers: Option<usize>,
        mut on_level: impl FnMut(u32, &[f64]),
    ) -> Result<Vec<f64>, MdpError> {
        self.bounded_levels_engine(
            target,
            budget,
            objective,
            workers,
            None,
            None,
            &mut |k, v| on_level(k, v),
            &mut SolveStats::default(),
        )
    }

    /// The shared cost-bounded backward-induction loop: rotates three
    /// reused buffers (previous level, current level, Jacobi scratch)
    /// through every budget level instead of materializing one vector per
    /// level, optionally extracting the optimal cost-indexed policy along
    /// the way. Given the zero-cost condensation ([`CsrMdp::zero_cost_scc`],
    /// built once by the caller), every level runs through the SCC-ordered
    /// solver over it; without one, through parallel Jacobi.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bounded_levels_engine(
        &self,
        target: &[bool],
        budget: u32,
        objective: Objective,
        workers: Option<usize>,
        scc: Option<&SccDecomposition>,
        mut policy: Option<&mut Vec<Vec<Option<u32>>>>,
        on_level: &mut dyn FnMut(u32, &[f64]),
        stats: &mut SolveStats,
    ) -> Result<Vec<f64>, MdpError> {
        self.check_target(target)?;
        self.validate_costs()?;
        let workers = resolve_workers(workers);
        let _span = pa_telemetry::span("mdp.vi.cost_bounded_seconds");
        let levels = pa_telemetry::enabled().then(|| pa_telemetry::counter("mdp.vi.levels"));
        let n = self.num_states();
        if let Some(scc) = scc {
            CsrMdp::record_scc_shape(scc);
            stats.components = scc.num_components() as u64;
            stats.nontrivial_components = scc.num_nontrivial() as u64;
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
            match scc {
                Some(scc) => {
                    self.solve_level_scc(scc, target, &level_prev, objective, &mut cur, stats)
                }
                None => self.solve_level_into(
                    target,
                    &level_prev,
                    objective,
                    workers,
                    &mut cur,
                    &mut scratch,
                    stats,
                ),
            }
            if let Some(policy) = policy.as_deref_mut() {
                let mut dec = Vec::new();
                self.extract_level_decisions(target, &level_prev, &cur, objective, &mut dec);
                policy.push(dec);
            }
            on_level(k, &cur);
            std::mem::swap(&mut level_prev, &mut cur);
        }
        if let Some(c) = levels {
            c.add(u64::from(budget) + 1);
        }
        // The final level ended up in `level_prev` after the last swap.
        Ok(level_prev)
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
    pub fn prob1(&self, target: &[bool], objective: Objective) -> Result<Vec<bool>, MdpError> {
        self.check_target(target)?;
        let n = self.num_states();
        // A choice "stays" in Z when every positive-probability successor is
        // in Z, and "progresses" when some such successor is already in Y.
        let choice_ok = |c: usize, z: &[bool], y: &[bool]| -> bool {
            let mut progresses = false;
            for i in self.trans_range(c) {
                if self.probs[i] == 0.0 {
                    continue;
                }
                let t = self.targets[i] as usize;
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
                for s in 0..n {
                    if y[s] || !z[s] || self.is_terminal(s) {
                        continue;
                    }
                    let ok = match objective {
                        Objective::MinProb => self.choice_range(s).all(|c| choice_ok(c, &z, &y)),
                        Objective::MaxProb => self.choice_range(s).any(|c| choice_ok(c, &z, &y)),
                    };
                    if ok {
                        y[s] = true;
                        changed = true;
                    }
                }
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

    /// Worst-case expected accumulated cost; semantics match a `MaxCost`
    /// [`crate::Query`].
    pub fn max_expected_cost(
        &self,
        target: &[bool],
        options: IterOptions,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, MdpError> {
        self.max_expected_cost_solver(target, options, workers, false, &mut SolveStats::default())
    }

    /// [`CsrMdp::max_expected_cost`] with solver selection and work
    /// counters: `use_scc` routes the expected-cost iteration through the
    /// SCC-ordered solver. The properness mask comes from the graph-based
    /// [`CsrMdp::prob1`], so it is identical under either solver.
    pub(crate) fn max_expected_cost_solver(
        &self,
        target: &[bool],
        options: IterOptions,
        workers: Option<usize>,
        use_scc: bool,
        stats: &mut SolveStats,
    ) -> Result<Vec<f64>, MdpError> {
        self.check_target(target)?;
        let proper = self.prob1(target, Objective::MinProb)?;
        if use_scc {
            Ok(self.expected_cost_scc(target, &proper, Objective::MaxProb, options, stats))
        } else {
            self.expected_cost_iterate(target, &proper, Objective::MaxProb, options, workers, stats)
        }
    }

    /// Best-case expected accumulated cost; semantics match
    /// [`crate::min_expected_cost`].
    pub fn min_expected_cost(
        &self,
        target: &[bool],
        options: IterOptions,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, MdpError> {
        self.min_expected_cost_solver(target, options, workers, false, &mut SolveStats::default())
    }

    /// [`CsrMdp::min_expected_cost`] with solver selection and work
    /// counters, as for [`CsrMdp::max_expected_cost_solver`].
    pub(crate) fn min_expected_cost_solver(
        &self,
        target: &[bool],
        options: IterOptions,
        workers: Option<usize>,
        use_scc: bool,
        stats: &mut SolveStats,
    ) -> Result<Vec<f64>, MdpError> {
        self.check_target(target)?;
        if self.has_zero_cost_cycle(target)? {
            return Err(MdpError::DivergentExpectation { state: 0 });
        }
        let feasible = self.prob1(target, Objective::MaxProb)?;
        if use_scc {
            Ok(self.expected_cost_scc(target, &feasible, Objective::MinProb, options, stats))
        } else {
            self.expected_cost_iterate(
                target,
                &feasible,
                Objective::MinProb,
                options,
                workers,
                stats,
            )
        }
    }

    /// Shared expected-cost Jacobi iteration. `live[s]` marks states whose
    /// expectation is finite (proper/feasible); others end at `f64::INFINITY`.
    /// A choice with a non-live, non-target successor is excluded (a proper
    /// policy never moves there; a maximizing adversary reaching one would
    /// contradict `live[s]`).
    fn expected_cost_iterate(
        &self,
        target: &[bool],
        live: &[bool],
        objective: Objective,
        options: IterOptions,
        workers: Option<usize>,
        stats: &mut SolveStats,
    ) -> Result<Vec<f64>, MdpError> {
        let n = self.num_states();
        let workers = resolve_workers(workers);
        let ec_sweeps = pa_telemetry::enabled().then(|| pa_telemetry::counter("mdp.vi.ec_sweeps"));
        let mut cur = vec![0.0f64; n];
        let mut prev = cur.clone();
        for _ in 0..options.max_sweeps {
            if let Some(c) = &ec_sweeps {
                c.inc();
            }
            stats.sweeps += 1;
            stats.state_updates += n as u64;
            let delta = jacobi_sweep(&mut cur, &prev, workers, |s, prev| {
                if target[s] || !live[s] || self.is_terminal(s) {
                    return prev[s];
                }
                let mut best = objective.start();
                for c in self.choice_range(s) {
                    let mut val = self.costs[c] as f64;
                    let mut ok = true;
                    for i in self.trans_range(c) {
                        let p = self.probs[i];
                        if p == 0.0 {
                            continue;
                        }
                        let t = self.targets[i] as usize;
                        if !target[t] && !live[t] {
                            ok = false;
                            break;
                        }
                        val += p * prev[t];
                    }
                    if ok && objective.better(val, best) {
                        best = val;
                    }
                }
                if best.is_finite() {
                    best
                } else {
                    prev[s]
                }
            });
            std::mem::swap(&mut cur, &mut prev);
            if delta <= options.epsilon {
                break;
            }
        }
        let mut v = prev;
        for s in 0..n {
            if !target[s] && !live[s] {
                v[s] = f64::INFINITY;
            }
        }
        Ok(v)
    }

    /// Detects a cycle in the zero-cost off-target transition subgraph.
    /// Semantics match [`crate::has_zero_cost_cycle`]; the CSR walk keeps a
    /// `(choice, transition)` cursor per stack frame instead of
    /// re-collecting successor vectors on every visit.
    pub fn has_zero_cost_cycle(&self, target: &[bool]) -> Result<bool, MdpError> {
        self.check_target(target)?;
        let n = self.num_states();
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; n];
        for root in 0..n {
            if colour[root] != Colour::White || target[root] {
                continue;
            }
            // Stack frames: (state, flat choice cursor, flat trans cursor).
            let mut stack: Vec<(usize, usize, usize)> = Vec::new();
            let start = self.choice_range(root).start;
            stack.push((root, start, usize::MAX));
            colour[root] = Colour::Grey;
            while let Some(&mut (s, ref mut c, ref mut i)) = stack.last_mut() {
                // Advance the cursor to the next zero-cost, positive-
                // probability, off-target successor of `s`.
                let mut next: Option<usize> = None;
                let choice_end = self.choice_range(s).end;
                'scan: while *c < choice_end {
                    if self.costs[*c] != 0 {
                        *c += 1;
                        *i = usize::MAX;
                        continue;
                    }
                    let range = self.trans_range(*c);
                    let mut ti = if *i == usize::MAX {
                        range.start
                    } else {
                        *i + 1
                    };
                    while ti < range.end {
                        let t = self.targets[ti] as usize;
                        if self.probs[ti] > 0.0 && !target[t] {
                            *i = ti;
                            next = Some(t);
                            break 'scan;
                        }
                        ti += 1;
                    }
                    *c += 1;
                    *i = usize::MAX;
                }
                match next {
                    Some(t) => match colour[t] {
                        Colour::Grey => return Ok(true),
                        Colour::White => {
                            colour[t] = Colour::Grey;
                            let start = self.choice_range(t).start;
                            stack.push((t, start, usize::MAX));
                        }
                        Colour::Black => {}
                    },
                    None => {
                        colour[s] = Colour::Black;
                        stack.pop();
                    }
                }
            }
        }
        Ok(false)
    }
}

impl From<&ExplicitMdp> for CsrMdp {
    fn from(mdp: &ExplicitMdp) -> CsrMdp {
        CsrMdp::from_explicit(mdp)
    }
}

/// An in-core model is a [`CsrSource`] with a single block spanning every
/// state: its offset arrays already start at 0, so the full slices satisfy
/// the block-relative contract as-is, and the block-streamed engines
/// execute the exact floating-point operation sequence of the in-core
/// kernels.
impl crate::source::CsrSource for CsrMdp {
    fn num_states(&self) -> usize {
        CsrMdp::num_states(self)
    }

    fn num_choices(&self) -> u64 {
        CsrMdp::num_choices(self) as u64
    }

    fn num_transitions(&self) -> u64 {
        CsrMdp::num_transitions(self) as u64
    }

    fn initial_states(&self) -> &[usize] {
        CsrMdp::initial_states(self)
    }

    fn num_blocks(&self) -> usize {
        1
    }

    fn block_states(&self, block: usize) -> std::ops::Range<usize> {
        assert_eq!(block, 0, "CsrMdp has a single block");
        0..CsrMdp::num_states(self)
    }

    fn with_rows(
        &self,
        block: usize,
        f: &mut dyn FnMut(crate::source::CsrRows<'_>),
    ) -> Result<(), MdpError> {
        assert_eq!(block, 0, "CsrMdp has a single block");
        f(crate::source::CsrRows {
            first_state: 0,
            choice_offsets: &self.choice_offsets,
            trans_offsets: &self.trans_offsets,
            costs: &self.costs,
            targets: &self.targets,
            probs: &self.probs,
        });
        Ok(())
    }
}

/// One double-buffered Jacobi sweep over all states, chunked across
/// `workers` scoped threads.
///
/// `update(s, prev)` computes state `s`'s next value from the previous
/// iterate only; the sweep writes it to `next[s]` and returns the maximal
/// `|next[s] - prev[s]|`. Chunks are disjoint slices of `next`, so no
/// synchronization is needed, and the result is bitwise independent of the
/// worker count (see the module docs).
fn jacobi_sweep<F>(next: &mut [f64], prev: &[f64], workers: usize, update: F) -> f64
where
    F: Fn(usize, &[f64]) -> f64 + Sync,
{
    let n = next.len();
    if workers <= 1 || n < PAR_MIN_STATES {
        let mut delta = 0.0f64;
        for (s, slot) in next.iter_mut().enumerate() {
            let v = update(s, prev);
            let d = (v - prev[s]).abs();
            if d > delta {
                delta = d;
            }
            *slot = v;
        }
        return delta;
    }
    let chunk = n.div_ceil(workers);
    let update = &update;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = next
            .chunks_mut(chunk)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move |_| {
                    let base = w * chunk;
                    let mut delta = 0.0f64;
                    for (off, slot) in slice.iter_mut().enumerate() {
                        let s = base + off;
                        let v = update(s, prev);
                        let d = (v - prev[s]).abs();
                        if d > delta {
                            delta = d;
                        }
                        *slot = v;
                    }
                    delta
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("value-iteration worker panicked"))
            .fold(0.0f64, f64::max)
    })
    .expect("value-iteration scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Choice;

    fn escape() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![
                vec![Choice::to(1, 1), Choice::dist(1, vec![(2, 0.5), (0, 0.5)])],
                vec![Choice::to(1, 0)],
                vec![],
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn csr_layout_matches_nested_counts() {
        let m = escape();
        let csr = CsrMdp::from_explicit(&m);
        assert_eq!(csr.num_states(), m.num_states());
        assert_eq!(csr.num_choices(), m.num_choices());
        assert_eq!(csr.num_transitions(), m.num_transitions());
        assert_eq!(csr.initial_states(), m.initial_states());
        // Spot-check flattening order: state 0's second choice.
        let c = csr.choice_range(0).nth(1).unwrap();
        assert_eq!(csr.cost(c), 1);
        let r = csr.trans_range(c);
        assert_eq!(csr.transition(r.start), (2, 0.5));
        assert_eq!(csr.transition(r.start + 1), (0, 0.5));
    }

    #[test]
    fn reach_prob_matches_known_values() {
        let csr = CsrMdp::from_explicit(&escape());
        let target = [false, false, true];
        let opts = IterOptions::default();
        let vmax = csr
            .reach_prob(&target, Objective::MaxProb, opts, Some(1))
            .unwrap();
        assert!((vmax[0] - 1.0).abs() < 1e-9);
        let vmin = csr
            .reach_prob(&target, Objective::MinProb, opts, Some(1))
            .unwrap();
        assert_eq!(vmin[0], 0.0);
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        // Small model, but force the parallel path decision logic: with
        // n < PAR_MIN_STATES the sweep is serial either way, so exercise
        // the contract on a chain long enough to split.
        let n = PAR_MIN_STATES + 17;
        let mut choices = Vec::with_capacity(n);
        for s in 0..n - 1 {
            choices.push(vec![Choice::dist(
                1,
                vec![(s + 1, 0.7), (s, 0.25), (0, 0.05)],
            )]);
        }
        choices.push(vec![]);
        let m = ExplicitMdp::new(choices, vec![0]).unwrap();
        let csr = CsrMdp::from_explicit(&m);
        let target: Vec<bool> = (0..n).map(|s| s == n - 1).collect();
        let opts = IterOptions {
            epsilon: 1e-10,
            max_sweeps: 50_000,
        };
        let serial = csr
            .reach_prob(&target, Objective::MinProb, opts, Some(1))
            .unwrap();
        let parallel = csr
            .reach_prob(&target, Objective::MinProb, opts, Some(3))
            .unwrap();
        assert_eq!(serial, parallel, "Jacobi sweeps must be chunk-invariant");
    }

    #[test]
    fn zero_cost_cycle_walker_matches_semantics() {
        let cyclic = ExplicitMdp::new(
            vec![
                vec![Choice::to(0, 1)],
                vec![Choice::to(0, 0), Choice::to(1, 2)],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let csr = CsrMdp::from_explicit(&cyclic);
        assert!(csr.has_zero_cost_cycle(&[false, false, true]).unwrap());
        assert!(!csr.has_zero_cost_cycle(&[true, false, false]).unwrap());
    }

    #[test]
    fn resolve_workers_prefers_explicit_argument() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1);
        assert!(resolve_workers(None) >= 1);
    }
}
