//! Strongly-connected-component condensation of the CSR choice graph and
//! the SCC-ordered value-iteration schedule built on it.
//!
//! The round-based timed models this workspace analyses (Section 5's
//! Lehmann–Rabin rounds) are nearly DAGs: obligations and per-round budgets
//! strictly shrink inside a round, so cycles are confined to small pockets
//! of the state space. A global Jacobi iteration nevertheless runs until
//! the *slowest* state converges, revisiting every state whose inputs are
//! still moving. The SCC-ordered solver
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
//! Everything here reads the [`CsrRows`] of a single-block source (an
//! in-core [`crate::CsrMdp`], or a stored model that fits in one block),
//! and every per-state update is the one the Jacobi kernels of
//! [`crate::source`] evaluate. On an acyclic model every component is
//! trivial, so each state is computed exactly once from exact inputs — the
//! same floating-point expression, in the same transition order, the
//! global Jacobi sweep evaluates on its final pass. Results are therefore
//! **bit-for-bit identical** to the Jacobi path on acyclic blocks, and
//! agree within iteration tolerance on cyclic ones; the property tests in
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
//! Jacobi is measured by running both solvers, as
//! `crates/bench/tests/pinned_invariants.rs`'s
//! `saturating_protocol_shape_and_solver_work_are_pinned` does, not
//! estimated inside the solve.)

use crate::source::{with_one_block, CsrRows, CsrSource};
use crate::{CsrMdp, IterOptions, MdpError, SolveStats};

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

impl CsrMdp {
    /// Condenses the positive-probability choice graph (every choice, every
    /// transition with `p > 0`) into strongly connected components in
    /// reverse topological order.
    pub fn scc(&self) -> SccDecomposition {
        condense(&self.rows(), |_| true, |_| true)
    }
}

/// The condensation of the **zero-cost** subgraph only: choices with
/// `cost == 1` read the previous budget level during cost-bounded
/// induction, so their transitions are always fixed and do not constrain
/// the per-level solve order.
pub(crate) fn zero_cost_scc(rows: &CsrRows<'_>) -> SccDecomposition {
    condense(rows, |c| rows.cost(c) == 0, |_| true)
}

/// One explicit Tarjan stack frame: a state plus its choice/transition
/// cursors into the rows (resumed after each child visit).
struct Frame {
    state: u32,
    choice: usize,
    trans: usize,
}

/// Iterative Tarjan over `rows`, which must span every state (a
/// single-block source). The edge relation is every positive-probability
/// transition of a choice `c` with `keep_choice(c)` into a state `t` with
/// `keep_state(t)`.
pub(crate) fn condense(
    rows: &CsrRows<'_>,
    keep_choice: impl Fn(usize) -> bool,
    keep_state: impl Fn(usize) -> bool,
) -> SccDecomposition {
    let n = rows.states().len();
    debug_assert_eq!(rows.first_state, 0, "the rows span every state");
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
            choice: rows.choice_range(root).start,
            trans: usize::MAX,
        });
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        tarjan_stack.push(root as u32);
        on_stack[root] = true;

        while let Some(frame) = frames.last_mut() {
            let s = frame.state as usize;
            // Advance the cursor to the next kept successor of `s`.
            let mut next: Option<usize> = None;
            let choice_end = rows.choice_range(s).end;
            'scan: while frame.choice < choice_end {
                if !keep_choice(frame.choice) {
                    frame.choice += 1;
                    frame.trans = usize::MAX;
                    continue;
                }
                let range = rows.trans_range(frame.choice);
                let mut ti = if frame.trans == usize::MAX {
                    range.start
                } else {
                    frame.trans + 1
                };
                while ti < range.end {
                    let t = rows.targets[ti] as usize;
                    if rows.prob(ti) > 0.0 && keep_state(t) {
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
                        choice: rows.choice_range(t).start,
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
                        let self_loop = keep_state(s)
                            && rows.choice_range(s).any(|c| {
                                keep_choice(c)
                                    && rows.trans_range(c).any(|i| {
                                        rows.targets[i] as usize == s && rows.prob(i) > 0.0
                                    })
                            });
                        nontrivial.push(size > 1 || self_loop);
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

/// Records the condensation shape into `stats` and, once per solve, into
/// the telemetry registry (the per-block counters are recorded by the
/// solve itself).
pub(crate) fn record_shape(scc: &SccDecomposition, stats: &mut SolveStats) {
    stats.components = scc.num_components() as u64;
    stats.nontrivial_components = scc.num_nontrivial() as u64;
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

/// The SCC-ordered solve shared by every quantitative analysis: visits
/// `scc`'s components in reverse topological order, resolving trivial
/// components in one update and iterating nontrivial ones with local
/// double-buffered Jacobi sweeps (reads of `values` during a block sweep
/// always observe the pre-sweep iterate, exactly like the global Jacobi
/// kernel).
///
/// `update(rows, s, values)` is the kernel's per-state update, the one its
/// Jacobi sweep runs: a state's next value from the current iterate, or
/// `None` for a state whose value never changes (targets, qualitative-zero
/// states, terminals). `block_cap(len)` bounds the local sweeps of a block
/// of `len` states.
pub(crate) fn ordered_solve<F>(
    rows: &CsrRows<'_>,
    scc: &SccDecomposition,
    values: &mut [f64],
    epsilon: f64,
    block_cap: impl Fn(usize) -> usize,
    update: &F,
    stats: &mut SolveStats,
) where
    F: Fn(&CsrRows<'_>, usize, &[f64]) -> Option<f64>,
{
    let telemetry = pa_telemetry::enabled();
    let block_sweeps = telemetry.then(|| pa_telemetry::counter("mdp.scc.block_sweeps"));
    let updates_before = stats.state_updates;
    let mut scratch: Vec<f64> = Vec::new();

    for c in 0..scc.num_components() {
        let states = scc.component(c);
        if !scc.is_nontrivial(c) {
            let s = states[0] as usize;
            if let Some(v) = update(rows, s, values) {
                values[s] = v;
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
                    let v = update(rows, s, values).unwrap_or(values[s]);
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
        pa_telemetry::counter("mdp.scc.state_updates").add(stats.state_updates - updates_before);
    }
}

/// An unbounded SCC-ordered solve of a single-block source: condenses the
/// full choice graph and solves `values` in place with the kernel's
/// per-state `update` (see [`ordered_solve`]), each component iterating up
/// to `options.max_sweeps` local sweeps.
pub(crate) fn solve_unbounded<S, F>(
    src: &S,
    values: &mut [f64],
    options: IterOptions,
    update: &F,
    stats: &mut SolveStats,
) -> Result<(), MdpError>
where
    S: CsrSource + ?Sized,
    F: Fn(&CsrRows<'_>, usize, &[f64]) -> Option<f64>,
{
    with_one_block(src, |rows| {
        let scc = condense(rows, |_| true, |_| true);
        record_shape(&scc, stats);
        ordered_solve(
            rows,
            &scc,
            values,
            options.epsilon,
            |_| options.max_sweeps,
            update,
            stats,
        );
    })
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
        let rows = m.rows();
        for s in rows.states() {
            for c in rows.choice_range(s) {
                for i in rows.trans_range(c) {
                    let (t, p) = (rows.targets[i] as usize, rows.prob(i));
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
        let zc = zero_cost_scc(&m.rows());
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
