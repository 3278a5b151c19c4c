//! Strongly-connected-component condensation of the CSR choice graph and
//! the SCC-ordered value-iteration paths built on it.
//!
//! The round-based timed models this workspace analyses (Section 5's
//! Lehmann–Rabin rounds) are nearly DAGs: obligations and per-round budgets
//! strictly shrink inside a round, so cycles are confined to small pockets
//! of the state space. A global Jacobi sweep nevertheless revisits *every*
//! state until the *slowest* state converges. The SCC-ordered solver
//! instead:
//!
//! 1. condenses the positive-probability choice graph into strongly
//!    connected components with an **iterative** (explicit-stack) Tarjan
//!    pass — no recursion, so million-state models cannot overflow the
//!    call stack;
//! 2. visits components in Tarjan emission order, which is **reverse
//!    topological**: every edge leaving a component points to a component
//!    that has already been solved, so successor values are final;
//! 3. resolves each *trivial* component (a single state without a
//!    self-loop) in one closed-form update from its already-fixed
//!    successors, and iterates each nontrivial component with local
//!    double-buffered Jacobi sweeps until the usual tolerance.
//!
//! On an acyclic model every component is trivial, so each state is
//! computed exactly once from exact inputs — the same floating-point
//! expression, in the same transition order, the global Jacobi sweep
//! evaluates on its final pass. Results are therefore **bit-for-bit
//! identical** to the Jacobi path on acyclic blocks, and agree within
//! iteration tolerance on cyclic ones; the property tests in
//! `crates/mdp/tests/scc_query.rs` pin both contracts.
//!
//! # Telemetry
//!
//! With the registry enabled, every SCC-ordered solve records:
//!
//! * `mdp.scc.runs` — solves taken through the SCC path;
//! * `mdp.scc.components` / `mdp.scc.nontrivial_components` — condensation
//!   shape;
//! * `mdp.scc.component_size` — histogram of component sizes;
//! * `mdp.scc.block_sweeps` — local Jacobi sweeps summed over blocks;
//! * `mdp.scc.state_updates` — individual state-value computations.
//!
//! Recording never rescans the model: the solve itself stays one pass over
//! each component's edges with telemetry on or off. (The exact saving over
//! Jacobi is measured by running both solvers, as the bench's `rings[].scc`
//! block does, not estimated inside the solve.)

use crate::{source, CsrMdp, IterOptions, MdpError, Objective, SolveStats};

/// Marker for an unvisited state in the Tarjan pass.
const UNVISITED: u32 = u32::MAX;

/// A condensation of the CSR choice graph into strongly connected
/// components, stored in **solve order** (reverse topological: component 0
/// is a sink; every edge `s → t` with `component_of(s) != component_of(t)`
/// satisfies `component_of(t) < component_of(s)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccDecomposition {
    /// Component id of each state (ids follow solve order).
    comp_of: Vec<u32>,
    /// `comp_offsets[c]..comp_offsets[c+1]` indexes `comp_states`.
    comp_offsets: Vec<u32>,
    /// States grouped by component.
    comp_states: Vec<u32>,
    /// Whether a component has an internal cycle (more than one state, or
    /// a single state with a self-loop) and so needs local iteration.
    nontrivial: Vec<bool>,
}

impl SccDecomposition {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.comp_offsets.len() - 1
    }

    /// The states of component `c`.
    pub fn component(&self, c: usize) -> &[u32] {
        let lo = self.comp_offsets[c] as usize;
        let hi = self.comp_offsets[c + 1] as usize;
        &self.comp_states[lo..hi]
    }

    /// The component id of a state (solve order).
    pub fn component_of(&self, s: usize) -> usize {
        self.comp_of[s] as usize
    }

    /// Whether component `c` contains a cycle and needs local iteration.
    pub fn is_nontrivial(&self, c: usize) -> bool {
        self.nontrivial[c]
    }

    /// Number of components that need local iteration.
    pub fn num_nontrivial(&self) -> usize {
        self.nontrivial.iter().filter(|&&b| b).count()
    }
}

/// One explicit Tarjan stack frame: a state plus its flat choice/transition
/// cursors into the CSR arrays (resumed after each child visit).
struct Frame {
    state: u32,
    choice: usize,
    trans: usize,
}

impl CsrMdp {
    /// Condenses the positive-probability choice graph (every choice, every
    /// transition with `p > 0`) into strongly connected components in
    /// reverse topological order.
    pub fn scc(&self) -> SccDecomposition {
        self.scc_filtered(false)
    }

    /// Like [`CsrMdp::scc`], but over the **zero-cost** subgraph only:
    /// choices with `cost == 1` read the previous budget level during
    /// cost-bounded induction, so their transitions are always fixed and
    /// do not constrain the per-level solve order.
    pub fn zero_cost_scc(&self) -> SccDecomposition {
        self.scc_filtered(true)
    }

    /// Iterative Tarjan over the CSR arrays. `zero_cost_only` drops
    /// choices with nonzero cost from the edge relation.
    fn scc_filtered(&self, zero_cost_only: bool) -> SccDecomposition {
        let n = self.num_states();
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut next_index = 0u32;
        let mut tarjan_stack: Vec<u32> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();

        let mut comp_of = vec![0u32; n];
        let mut comp_offsets: Vec<u32> = vec![0];
        let mut comp_states: Vec<u32> = Vec::with_capacity(n);
        let mut nontrivial: Vec<bool> = Vec::new();

        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            frames.push(Frame {
                state: root as u32,
                choice: self.choice_range(root).start,
                trans: usize::MAX,
            });
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            tarjan_stack.push(root as u32);
            on_stack[root] = true;

            while let Some(frame) = frames.last_mut() {
                let s = frame.state as usize;
                // Advance the cursor to the next positive-probability
                // successor of `s` (zero-cost choices only, if filtering).
                let mut next: Option<usize> = None;
                let choice_end = self.choice_range(s).end;
                'scan: while frame.choice < choice_end {
                    if zero_cost_only && self.cost(frame.choice) != 0 {
                        frame.choice += 1;
                        frame.trans = usize::MAX;
                        continue;
                    }
                    let range = self.trans_range(frame.choice);
                    let mut ti = if frame.trans == usize::MAX {
                        range.start
                    } else {
                        frame.trans + 1
                    };
                    while ti < range.end {
                        let (t, p) = self.transition(ti);
                        if p > 0.0 {
                            frame.trans = ti;
                            next = Some(t);
                            break 'scan;
                        }
                        ti += 1;
                    }
                    frame.choice += 1;
                    frame.trans = usize::MAX;
                }
                match next {
                    Some(t) if index[t] == UNVISITED => {
                        index[t] = next_index;
                        lowlink[t] = next_index;
                        next_index += 1;
                        tarjan_stack.push(t as u32);
                        on_stack[t] = true;
                        frames.push(Frame {
                            state: t as u32,
                            choice: self.choice_range(t).start,
                            trans: usize::MAX,
                        });
                    }
                    Some(t) => {
                        if on_stack[t] && index[t] < lowlink[s] {
                            lowlink[s] = index[t];
                        }
                    }
                    None => {
                        // `s` is exhausted: emit its component if it is a
                        // root, then propagate its lowlink to the parent.
                        if lowlink[s] == index[s] {
                            let comp = nontrivial.len() as u32;
                            let start = comp_states.len();
                            loop {
                                let w = tarjan_stack.pop().expect("nonempty Tarjan stack");
                                on_stack[w as usize] = false;
                                comp_of[w as usize] = comp;
                                comp_states.push(w);
                                if w as usize == s {
                                    break;
                                }
                            }
                            let size = comp_states.len() - start;
                            let cyclic = size > 1 || self.has_direct_edge(s, s, zero_cost_only);
                            nontrivial.push(cyclic);
                            comp_offsets.push(comp_states.len() as u32);
                        }
                        let low = lowlink[s];
                        frames.pop();
                        if let Some(parent) = frames.last() {
                            let p = parent.state as usize;
                            if low < lowlink[p] {
                                lowlink[p] = low;
                            }
                        }
                    }
                }
            }
        }

        SccDecomposition {
            comp_of,
            comp_offsets,
            comp_states,
            nontrivial,
        }
    }

    /// Whether the (optionally zero-cost-filtered) choice graph has a
    /// direct positive-probability edge `from → to`.
    fn has_direct_edge(&self, from: usize, to: usize, zero_cost_only: bool) -> bool {
        self.choice_range(from).any(|c| {
            (!zero_cost_only || self.cost(c) == 0)
                && self.trans_range(c).any(|i| {
                    let (t, p) = self.transition(i);
                    t == to && p > 0.0
                })
        })
    }

    /// Records the condensation shape into the telemetry registry (once
    /// per solve; the per-block counters are recorded by the solve itself).
    pub(crate) fn record_scc_shape(scc: &SccDecomposition) {
        if !pa_telemetry::enabled() {
            return;
        }
        pa_telemetry::counter("mdp.scc.runs").inc();
        pa_telemetry::counter("mdp.scc.components").add(scc.num_components() as u64);
        pa_telemetry::counter("mdp.scc.nontrivial_components").add(scc.num_nontrivial() as u64);
        // Trivial components are single states: one bulk record covers
        // them, so a million-state condensation costs a handful of atomics.
        let sizes = pa_telemetry::histogram("mdp.scc.component_size");
        let mut singletons = 0u64;
        for c in 0..scc.num_components() {
            match scc.component(c).len() {
                1 => singletons += 1,
                len => sizes.record(len as u64),
            }
        }
        sizes.record_n(1, singletons);
    }

    /// The SCC-ordered solve kernel shared by every quantitative analysis:
    /// visits `scc`'s components in reverse topological order, resolving
    /// trivial components in one update and iterating nontrivial ones with
    /// local double-buffered Jacobi sweeps (reads of `values` during a
    /// block sweep always observe the pre-sweep iterate, exactly like the
    /// global Jacobi kernel).
    ///
    /// `fixed(s)` marks states whose value never changes (targets,
    /// qualitative-zero states, terminals); `update(s, values)` computes a
    /// state's next value from the current iterate. `block_cap(len)` bounds
    /// the local sweeps of a block of `len` states.
    #[allow(clippy::too_many_arguments)]
    fn scc_ordered_solve(
        &self,
        scc: &SccDecomposition,
        values: &mut [f64],
        epsilon: f64,
        block_cap: impl Fn(usize) -> usize,
        fixed: impl Fn(usize) -> bool,
        update: impl Fn(usize, &[f64]) -> f64,
        stats: &mut SolveStats,
    ) {
        let telemetry = pa_telemetry::enabled();
        let block_sweeps = telemetry.then(|| pa_telemetry::counter("mdp.scc.block_sweeps"));
        let updates_before = stats.state_updates;
        let mut scratch: Vec<f64> = Vec::new();

        for c in 0..scc.num_components() {
            let states = scc.component(c);
            if !scc.is_nontrivial(c) {
                let s = states[0] as usize;
                if !fixed(s) {
                    values[s] = update(s, values);
                    stats.state_updates += 1;
                }
            } else {
                let cap = block_cap(states.len()).max(1);
                let mut local = 0u64;
                loop {
                    local += 1;
                    stats.sweeps += 1;
                    stats.state_updates += states.len() as u64;
                    let mut delta = 0.0f64;
                    scratch.clear();
                    for &s in states {
                        let s = s as usize;
                        let v = if fixed(s) {
                            values[s]
                        } else {
                            update(s, values)
                        };
                        let d = (v - values[s]).abs();
                        if d > delta {
                            delta = d;
                        }
                        scratch.push(v);
                    }
                    for (i, &s) in states.iter().enumerate() {
                        values[s as usize] = scratch[i];
                    }
                    if delta <= epsilon || local as usize >= cap {
                        break;
                    }
                }
                if let Some(counter) = &block_sweeps {
                    counter.add(local);
                }
            }
        }

        if telemetry {
            pa_telemetry::counter("mdp.scc.state_updates")
                .add(stats.state_updates - updates_before);
        }
    }

    /// SCC-ordered unbounded reachability: semantics of an unbounded
    /// reachability [`crate::Query`], solved block by block.
    /// Bitwise-identical to the Jacobi path on acyclic models, within
    /// iteration tolerance otherwise.
    pub(crate) fn reach_prob_scc(
        &self,
        target: &[bool],
        objective: Objective,
        options: IterOptions,
        stats: &mut SolveStats,
    ) -> Result<Vec<f64>, MdpError> {
        let _span = pa_telemetry::span("mdp.vi.reach_prob_seconds");
        let zero = source::prob0(self, target, objective)?;
        let scc = self.scc();
        CsrMdp::record_scc_shape(&scc);
        stats.components = scc.num_components() as u64;
        stats.nontrivial_components = scc.num_nontrivial() as u64;
        let n = self.num_states();
        let mut values = vec![0.0f64; n];
        for s in 0..n {
            if target[s] {
                values[s] = 1.0;
            }
        }
        self.scc_ordered_solve(
            &scc,
            &mut values,
            options.epsilon,
            |_| options.max_sweeps,
            |s| target[s] || zero[s] || self.is_terminal(s),
            |s, v| {
                let mut best = objective.start();
                for c in self.choice_range(s) {
                    let val = self.choice_value(c, v);
                    if objective.better(val, best) {
                        best = val;
                    }
                }
                best
            },
            stats,
        );
        Ok(values)
    }

    /// SCC-ordered expected-cost iteration: semantics of the Jacobi
    /// expected-cost kernel (`live` masks proper/feasible states; others
    /// are forced to `f64::INFINITY` at the end).
    pub(crate) fn expected_cost_scc(
        &self,
        target: &[bool],
        live: &[bool],
        objective: Objective,
        options: IterOptions,
        stats: &mut SolveStats,
    ) -> Vec<f64> {
        let scc = self.scc();
        CsrMdp::record_scc_shape(&scc);
        stats.components = scc.num_components() as u64;
        stats.nontrivial_components = scc.num_nontrivial() as u64;
        let n = self.num_states();
        let mut values = vec![0.0f64; n];
        self.scc_ordered_solve(
            &scc,
            &mut values,
            options.epsilon,
            |_| options.max_sweeps,
            |s| target[s] || !live[s] || self.is_terminal(s),
            |s, v| {
                let mut best = objective.start();
                for c in self.choice_range(s) {
                    let mut val = self.cost(c) as f64;
                    let mut ok = true;
                    for i in self.trans_range(c) {
                        let (t, p) = self.transition(i);
                        if p == 0.0 {
                            continue;
                        }
                        if !target[t] && !live[t] {
                            ok = false;
                            break;
                        }
                        val += p * v[t];
                    }
                    if ok && objective.better(val, best) {
                        best = val;
                    }
                }
                if best.is_finite() {
                    best
                } else {
                    v[s]
                }
            },
            stats,
        );
        for s in 0..n {
            if !target[s] && !live[s] {
                values[s] = f64::INFINITY;
            }
        }
        values
    }

    /// One SCC-ordered level of cost-bounded backward induction over the
    /// zero-cost condensation `scc` (choices with `cost == 1` read the
    /// fixed `level_prev`). Writes the level's values into `values`;
    /// semantics of the Jacobi level solve in `source.rs`, including the
    /// per-block `4·len + 8` sweep cap mirroring the global `4n + 8` one.
    pub(crate) fn solve_level_scc(
        &self,
        scc: &SccDecomposition,
        target: &[bool],
        level_prev: &[f64],
        objective: Objective,
        values: &mut Vec<f64>,
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
        self.scc_ordered_solve(
            scc,
            values,
            1e-14,
            |len| 4 * len + 8,
            |s| target[s] || self.is_terminal(s),
            |s, v| {
                let mut best = objective.start();
                for c in self.choice_range(s) {
                    let source = if self.cost(c) == 1 { level_prev } else { v };
                    let val = self.choice_value(c, source);
                    if objective.better(val, best) {
                        best = val;
                    }
                }
                best
            },
            stats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, ExplicitMdp};

    fn csr(choices: Vec<Vec<Choice>>) -> CsrMdp {
        CsrMdp::from_explicit(&ExplicitMdp::new(choices, vec![0]).unwrap())
    }

    /// Every cross-component edge must point to an earlier (already
    /// solved) component.
    fn assert_reverse_topological(m: &CsrMdp, scc: &SccDecomposition) {
        for s in 0..m.num_states() {
            for c in m.choice_range(s) {
                for i in m.trans_range(c) {
                    let (t, p) = m.transition(i);
                    if p > 0.0 && scc.component_of(t) != scc.component_of(s) {
                        assert!(
                            scc.component_of(t) < scc.component_of(s),
                            "edge {s} -> {t} violates solve order"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_cycle_is_one_nontrivial_component() {
        let m = csr(vec![
            vec![Choice::to(1, 1)],
            vec![Choice::to(1, 2)],
            vec![Choice::to(1, 0)],
        ]);
        let scc = m.scc();
        assert_eq!(scc.num_components(), 1);
        assert!(scc.is_nontrivial(0));
        assert_eq!(scc.num_nontrivial(), 1);
        let mut states: Vec<u32> = scc.component(0).to_vec();
        states.sort_unstable();
        assert_eq!(states, vec![0, 1, 2]);
    }

    #[test]
    fn pure_dag_is_all_trivial_in_reverse_topological_order() {
        // Diamond: 0 -> {1, 2} -> 3.
        let m = csr(vec![
            vec![Choice::dist(1, vec![(1, 0.5), (2, 0.5)])],
            vec![Choice::to(1, 3)],
            vec![Choice::to(1, 3)],
            vec![],
        ]);
        let scc = m.scc();
        assert_eq!(scc.num_components(), 4);
        assert_eq!(scc.num_nontrivial(), 0);
        assert_reverse_topological(&m, &scc);
        // The sink must be solved first, the source last.
        assert_eq!(scc.component_of(3), 0);
        assert_eq!(scc.component_of(0), 3);
    }

    #[test]
    fn two_nested_cycles_condense_to_two_components() {
        // {0 <-> 1} -> {2 <-> 3} -> 4.
        let m = csr(vec![
            vec![Choice::to(1, 1)],
            vec![Choice::to(1, 0), Choice::to(1, 2)],
            vec![Choice::to(1, 3)],
            vec![Choice::to(1, 2), Choice::to(1, 4)],
            vec![],
        ]);
        let scc = m.scc();
        assert_eq!(scc.num_components(), 3);
        assert_eq!(scc.num_nontrivial(), 2);
        assert_reverse_topological(&m, &scc);
        assert_eq!(scc.component_of(0), scc.component_of(1));
        assert_eq!(scc.component_of(2), scc.component_of(3));
        assert!(scc.component_of(2) < scc.component_of(0));
        assert_eq!(scc.component_of(4), 0);
        assert!(!scc.is_nontrivial(scc.component_of(4)));
    }

    #[test]
    fn self_loop_makes_a_singleton_nontrivial() {
        let m = csr(vec![
            vec![Choice::dist(1, vec![(0, 0.5), (1, 0.5)])],
            vec![],
        ]);
        let scc = m.scc();
        assert_eq!(scc.num_components(), 2);
        let c0 = scc.component_of(0);
        assert!(scc.is_nontrivial(c0));
        assert!(!scc.is_nontrivial(scc.component_of(1)));
    }

    #[test]
    fn zero_cost_scc_ignores_costed_choices() {
        // The only cycle runs through a cost-1 choice, so the zero-cost
        // condensation is a pure DAG while the full one has a cycle.
        let m = csr(vec![vec![Choice::to(0, 1)], vec![Choice::to(1, 0)]]);
        assert_eq!(m.scc().num_nontrivial(), 1);
        let zc = m.zero_cost_scc();
        assert_eq!(zc.num_components(), 2);
        assert_eq!(zc.num_nontrivial(), 0);
        // 1 has no zero-cost successors: it must be solved before 0.
        assert!(zc.component_of(1) < zc.component_of(0));
    }

    #[test]
    fn zero_probability_edges_do_not_connect_components() {
        let m = csr(vec![
            vec![Choice::dist(1, vec![(1, 0.0), (2, 1.0)])],
            vec![Choice::to(1, 0)],
            vec![],
        ]);
        // Without the p = 0 edge 0 -> 1, states 0 and 1 are not strongly
        // connected (only 1 -> 0 exists).
        let scc = m.scc();
        assert_eq!(scc.num_components(), 3);
        assert_eq!(scc.num_nontrivial(), 0);
    }
}
