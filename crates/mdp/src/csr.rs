//! The in-core model representation: an MDP flattened into
//! compressed-sparse-row arrays.
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
//! A `CsrMdp` is a [`CsrSource`] with a single block, so it runs on the
//! same solver kernels as an out-of-core model (see the [`crate::source`]
//! module docs for the kernels and their deterministic parallelism). What
//! is in-core only lives here and in `scc.rs`: the backward-BFS `prob0` and
//! the DFS zero-cost cycle check (overrides of the block-friendly
//! [`CsrSource`] defaults), and the SCC condensation.

use crate::source::{check_target, CsrRows, CsrSource};
use crate::{ExplicitMdp, MdpError};

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
}

impl From<&ExplicitMdp> for CsrMdp {
    fn from(mdp: &ExplicitMdp) -> CsrMdp {
        CsrMdp::from_explicit(mdp)
    }
}

/// An in-core model is a [`CsrSource`] with a single block spanning every
/// state: its offset arrays already start at 0, so the full slices satisfy
/// the block-relative contract as-is. The two qualitative checks that
/// profit from random access to the whole graph are overridden.
impl CsrSource for CsrMdp {
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

    fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError> {
        assert_eq!(block, 0, "CsrMdp has a single block");
        f(CsrRows {
            first_state: 0,
            choice_offsets: &self.choice_offsets,
            trans_offsets: &self.trans_offsets,
            costs: &self.costs,
            targets: &self.targets,
            probs: &self.probs,
        });
        Ok(())
    }

    /// Backward reachability over a CSR predecessor graph built on the
    /// fly.
    fn prob0_max(&self, target: &[bool]) -> Result<Vec<bool>, MdpError> {
        check_target(self, target)?;
        let n = CsrMdp::num_states(self);
        // In-degree count, prefix sum, fill: a predecessor CSR without
        // per-state vectors.
        let mut pred_off = vec![0u32; n + 1];
        for i in 0..CsrMdp::num_transitions(self) {
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

    /// A DFS over the CSR arrays that keeps a `(choice, transition)` cursor
    /// per stack frame instead of re-collecting successor vectors on every
    /// visit.
    fn has_zero_cost_cycle(&self, target: &[bool]) -> Result<bool, MdpError> {
        check_target(self, target)?;
        let n = CsrMdp::num_states(self);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PAR_MIN_STATES;
    use crate::{Choice, IterOptions, Objective, Query, Solver};

    /// Jacobi unbounded reachability on an in-core model with `workers`.
    fn reach_prob(
        csr: &CsrMdp,
        target: &[bool],
        objective: Objective,
        opts: IterOptions,
        workers: usize,
    ) -> Vec<f64> {
        Query::csr(csr)
            .objective(objective)
            .target(target)
            .options(opts)
            .workers(workers)
            .solver(Solver::Jacobi)
            .run()
            .unwrap()
            .values
    }

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
        let vmax = reach_prob(&csr, &target, Objective::MaxProb, opts, 1);
        assert!((vmax[0] - 1.0).abs() < 1e-9);
        let vmin = reach_prob(&csr, &target, Objective::MinProb, opts, 1);
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
        let serial = reach_prob(&csr, &target, Objective::MinProb, opts, 1);
        let parallel = reach_prob(&csr, &target, Objective::MinProb, opts, 3);
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
        use crate::resolve_workers;
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1);
        assert!(resolve_workers(None) >= 1);
    }
}
