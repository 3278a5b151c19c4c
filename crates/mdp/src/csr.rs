//! The model representation: an MDP as compressed-sparse-row arrays.
//!
//! Exploration writes every state's choices straight into five contiguous
//! arrays —
//!
//! ```text
//! choice_offsets : n+1      per-state range into the choice arrays
//! trans_offsets  : m+1      per-choice range into the transition arrays
//! costs          : m        per-choice cost
//! targets        : k        per-transition successor (u32)
//! probs          : k        per-transition probability
//! ```
//!
//! — so every analysis sweep is a linear walk and no per-state or
//! per-choice allocation ever exists. The explorer hands each finished
//! state to a [`crate::RowSink`] as a [`CsrRow`]; [`CsrBuilder`] is the
//! one row builder that appends rows to these arrays, used both for the
//! in-core [`CsrMdp`] of [`crate::Explore::run_in`] and, block by block,
//! by `pa-store`'s disk writer.
//!
//! The nested [`ExplicitMdp`] (`Vec<Vec<Choice>>`) remains the constructor
//! for hand-built models and the input of the [`crate::reference`]
//! oracles; `CsrMdp::from(&explicit)` flattens one for a [`crate::Query`].
//!
//! A `CsrMdp` is a [`CsrSource`] with a single block, read through one
//! view, [`CsrMdp::rows`]. Every solver — the Jacobi kernels, the
//! qualitative checks and the SCC-ordered solver — reads that view, so an
//! in-core model and a stored one that fits in one block take the same
//! code (see the [`crate::source`] module docs).

use crate::source::{CsrRows, CsrSource};
use crate::{ExplicitMdp, MdpError, RowSink};

/// An MDP in compressed-sparse-row form: what [`crate::Explore::run_in`]
/// builds and every in-core analysis runs on.
///
/// Indices are `u32` internally; [`CsrBuilder`] rejects a model whose
/// choice or transition count would overflow them.
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
    /// A flat copy of `mdp`: flattens a nested [`ExplicitMdp`] (choice and
    /// transition order preserved exactly, so analyses produce
    /// bitwise-identical results on either form) and clones a `CsrMdp`.
    pub fn from_explicit<'a, M: ?Sized>(mdp: &'a M) -> CsrMdp
    where
        CsrMdp: From<&'a M>,
    {
        CsrMdp::from(mdp)
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

    /// The whole model as one block of rows: the view every solver reads.
    pub fn rows(&self) -> CsrRows<'_> {
        CsrRows {
            first_state: 0,
            choice_offsets: &self.choice_offsets,
            trans_offsets: &self.trans_offsets,
            costs: &self.costs,
            targets: &self.targets,
            probs: &self.probs,
        }
    }
}

impl From<&CsrMdp> for CsrMdp {
    fn from(mdp: &CsrMdp) -> CsrMdp {
        mdp.clone()
    }
}

impl From<&ExplicitMdp> for CsrMdp {
    fn from(mdp: &ExplicitMdp) -> CsrMdp {
        let mut b = CsrBuilder::new();
        let (mut costs, mut ends, mut targets, mut probs) = (vec![], vec![], vec![], vec![]);
        for s in 0..mdp.num_states() {
            costs.clear();
            ends.clear();
            targets.clear();
            probs.clear();
            for c in mdp.choices(s) {
                costs.push(c.cost);
                for &(t, p) in &c.transitions {
                    targets.push(u32::try_from(t).expect("state index fits u32"));
                    probs.push(p);
                }
                ends.push(targets.len() as u32);
            }
            let row = CsrRow {
                costs: &costs,
                trans_ends: &ends,
                targets: &targets,
                probs: &probs,
            };
            b.push_row(row)
                .expect("model too large for u32 CSR offsets");
        }
        b.finish(mdp.initial_states().to_vec())
    }
}

/// One state's choices in flat form, as exploration emits them to a
/// [`crate::RowSink`]: choice `k` costs `costs[k]` and owns the
/// transitions `trans_ends[k - 1]..trans_ends[k]` (from 0 for `k = 0`) of
/// `targets`/`probs`.
#[derive(Debug, Clone, Copy)]
pub struct CsrRow<'a> {
    /// Cost of each choice.
    pub costs: &'a [u32],
    /// Per choice, the row-relative end of its transitions.
    pub trans_ends: &'a [u32],
    /// Successor state of each transition.
    pub targets: &'a [u32],
    /// Probability of each transition.
    pub probs: &'a [f64],
}

impl CsrRow<'_> {
    /// The transition range of choice `k` within the row.
    pub fn trans_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 {
            0
        } else {
            self.trans_ends[k - 1] as usize
        };
        start..self.trans_ends[k] as usize
    }
}

/// Appends [`CsrRow`]s to CSR arrays — the one row builder shared by the
/// in-core sink of [`crate::Explore::run_in`] (finished with
/// [`CsrBuilder::finish`]) and block writers that flush and
/// [`CsrBuilder::clear`] it per block (`pa-store`).
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    choice_offsets: Vec<u32>,
    trans_offsets: Vec<u32>,
    costs: Vec<u32>,
    targets: Vec<u32>,
    probs: Vec<f64>,
}

impl Default for CsrBuilder {
    fn default() -> CsrBuilder {
        CsrBuilder::new()
    }
}

impl CsrBuilder {
    /// An empty builder.
    pub fn new() -> CsrBuilder {
        CsrBuilder {
            choice_offsets: vec![0],
            trans_offsets: vec![0],
            costs: Vec::new(),
            targets: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Appends one state's row.
    ///
    /// # Errors
    ///
    /// [`MdpError::Backend`] if the builder's choice or transition count
    /// would overflow the `u32` offsets (nothing is appended then).
    pub fn push_row(&mut self, row: CsrRow<'_>) -> Result<(), MdpError> {
        let choices = self.costs.len() + row.costs.len();
        let trans = self.targets.len() + row.targets.len();
        if choices >= u32::MAX as usize || trans >= u32::MAX as usize {
            return Err(MdpError::Backend {
                reason: "model too large for u32 CSR offsets".into(),
            });
        }
        let base = self.targets.len() as u32;
        self.costs.extend_from_slice(row.costs);
        self.trans_offsets
            .extend(row.trans_ends.iter().map(|&end| base + end));
        self.targets.extend_from_slice(row.targets);
        self.probs.extend_from_slice(row.probs);
        self.choice_offsets.push(self.costs.len() as u32);
        Ok(())
    }

    /// Rows appended since creation or the last [`CsrBuilder::clear`].
    pub fn num_states(&self) -> usize {
        self.choice_offsets.len() - 1
    }

    /// Bytes the pending arrays occupy at their lengths: what a block
    /// writer compares against its block target.
    pub fn payload_bytes(&self) -> usize {
        self.probs.len() * 8
            + (self.choice_offsets.len() + self.trans_offsets.len()) * 4
            + (self.costs.len() + self.targets.len()) * 4
    }

    /// The pending rows as one block whose first state is `first_state`.
    pub fn rows(&self, first_state: usize) -> CsrRows<'_> {
        CsrRows {
            first_state,
            choice_offsets: &self.choice_offsets,
            trans_offsets: &self.trans_offsets,
            costs: &self.costs,
            targets: &self.targets,
            probs: &self.probs,
        }
    }

    /// Drops the pending rows, keeping the allocations for the next block.
    pub fn clear(&mut self) {
        self.choice_offsets.truncate(1);
        self.trans_offsets.truncate(1);
        self.costs.clear();
        self.targets.clear();
        self.probs.clear();
    }

    /// The finished in-core model, trimmed to its length.
    pub fn finish(self, initial: Vec<usize>) -> CsrMdp {
        let mut csr = CsrMdp {
            choice_offsets: self.choice_offsets,
            trans_offsets: self.trans_offsets,
            costs: self.costs,
            targets: self.targets,
            probs: self.probs,
            initial,
        };
        csr.choice_offsets.shrink_to_fit();
        csr.trans_offsets.shrink_to_fit();
        csr.costs.shrink_to_fit();
        csr.targets.shrink_to_fit();
        csr.probs.shrink_to_fit();
        csr.initial.shrink_to_fit();
        csr
    }
}

/// The in-core sink: rows land in the builder in dense-id order.
impl RowSink for CsrBuilder {
    fn state_row(&mut self, id: usize, row: CsrRow<'_>) -> Result<(), MdpError> {
        debug_assert_eq!(id, self.num_states(), "rows arrive in dense-id order");
        self.push_row(row)
    }
}

/// An in-core model is a [`CsrSource`] with a single block spanning every
/// state: its offset arrays already start at 0, so [`CsrMdp::rows`]
/// satisfies the block-relative contract as-is.
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
        f(self.rows());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::has_zero_cost_cycle;
    use crate::{Choice, IterOptions, Objective, Query, Solver};

    /// Jacobi unbounded reachability on an in-core model.
    fn reach_prob(
        csr: &CsrMdp,
        target: &[bool],
        objective: Objective,
        opts: IterOptions,
    ) -> Vec<f64> {
        Query::csr(csr)
            .objective(objective)
            .target(target)
            .options(opts)
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
        let rows = csr.rows();
        let c = rows.choice_range(0).nth(1).unwrap();
        assert_eq!(rows.costs[c], 1);
        let r = rows.trans_range(c);
        assert_eq!(&rows.targets[r.clone()], [2, 0]);
        assert_eq!(&rows.probs[r], [0.5, 0.5]);
    }

    #[test]
    fn flattening_keeps_order_and_blocks_reuse_the_builder() {
        let m = escape();
        let csr = CsrMdp::from_explicit(&m);
        let rows = csr.rows();
        for s in 0..m.num_states() {
            let flat: Vec<Choice> = rows
                .choice_range(s)
                .map(|c| Choice {
                    cost: rows.costs[c],
                    transitions: rows
                        .trans_range(c)
                        .map(|i| (rows.targets[i] as usize, rows.probs[i]))
                        .collect(),
                })
                .collect();
            assert_eq!(flat, m.choices(s));
        }
        assert_eq!(CsrMdp::from_explicit(&csr), csr, "a CsrMdp copies as is");
        // A cleared builder starts a fresh block with offsets from 0.
        let mut b = CsrBuilder::new();
        let row = CsrRow {
            costs: &[1, 0],
            trans_ends: &[1, 3],
            targets: &[2, 0, 1],
            probs: &[1.0, 0.5, 0.5],
        };
        b.push_row(row).unwrap();
        b.clear();
        b.push_row(row).unwrap();
        b.push_row(row).unwrap();
        let rows = b.rows(7);
        assert_eq!(rows.choice_offsets, [0, 2, 4]);
        assert_eq!(rows.trans_offsets, [0, 1, 3, 4, 6]);
        assert_eq!(b.num_states(), 2);
        assert_eq!(b.payload_bytes(), 6 * 8 + (3 + 5) * 4 + (4 + 6) * 4);
    }

    #[test]
    fn reach_prob_matches_known_values() {
        let csr = CsrMdp::from_explicit(&escape());
        let target = [false, false, true];
        let opts = IterOptions::default();
        let vmax = reach_prob(&csr, &target, Objective::MaxProb, opts);
        assert!((vmax[0] - 1.0).abs() < 1e-9);
        let vmin = reach_prob(&csr, &target, Objective::MinProb, opts);
        assert_eq!(vmin[0], 0.0);
    }

    #[test]
    fn zero_cost_cycle_walker_matches_semantics() {
        let cycle = |rows: Vec<Vec<Choice>>, target: &[bool]| {
            let csr = CsrMdp::from_explicit(&ExplicitMdp::new(rows, vec![0]).unwrap());
            has_zero_cost_cycle(&csr, target).unwrap()
        };
        let cyclic = || {
            vec![
                vec![Choice::to(0, 1)],
                vec![Choice::to(0, 0), Choice::to(1, 2)],
                vec![],
            ]
        };
        assert!(cycle(cyclic(), &[false, false, true]));
        // Making 0 the target breaks the off-target cycle.
        assert!(!cycle(cyclic(), &[true, false, false]));
        // A chain has no cycle.
        let chain = vec![vec![Choice::to(0, 1)], vec![Choice::to(1, 2)], vec![]];
        assert!(!cycle(chain, &[false, false, true]));
        // A zero-cost self-loop on a non-target state is a cycle.
        let self_loop = vec![vec![Choice::to(0, 0), Choice::to(1, 1)], vec![]];
        assert!(cycle(self_loop, &[false, true]));
        // A zero-cost cycle through a target state is not.
        let through_target = vec![vec![Choice::to(0, 1)], vec![Choice::to(0, 0)]];
        assert!(!cycle(through_target, &[false, true]));
        // Nor is a cycle made only of cost-1 edges.
        let costed = vec![vec![Choice::to(1, 1)], vec![Choice::to(1, 0)], vec![]];
        assert!(!cycle(costed, &[false, false, true]));
    }
}
