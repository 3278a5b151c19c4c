//! Unbounded reachability: qualitative graph precomputation plus value
//! iteration. The PRISM-style baseline against which the paper's manual
//! proof method is compared in the benchmarks.
//!
//! These entry points take an explored [`crate::CsrMdp`] as is, or a
//! hand-built [`crate::ExplicitMdp`] flattened on the way in
//! ([`crate::ToCsr`]), and run on the CSR engine's double-buffered Jacobi
//! sweeps that parallelize deterministically (see the [`crate::source`]
//! module docs).

use crate::{source, MdpError, ToCsr};

/// Numerical options for value iteration.
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

/// States with **maximal** reachability probability zero: no path to the
/// target exists in the transition graph (any choice, any branch).
pub fn prob0_max<M: ToCsr + ?Sized>(mdp: &M, target: &[bool]) -> Result<Vec<bool>, MdpError> {
    source::prob0_max(&*mdp.to_csr(), target)
}

/// States with **minimal** reachability probability zero: the adversary has
/// a strategy that avoids the target surely. Computed as the greatest
/// fixpoint of `X = {s ∉ T : s terminal, or some choice keeps all mass in
/// X}` — terminal states count because an adversary may also stop
/// scheduling (Definition 2.2 allows returning nothing).
pub fn prob0_min<M: ToCsr + ?Sized>(mdp: &M, target: &[bool]) -> Result<Vec<bool>, MdpError> {
    source::prob0_min(&*mdp.to_csr(), target)
}

/// States with reachability probability **exactly one** under the given
/// objective (`MinProb`: every adversary reaches the target almost surely;
/// `MaxProb`: some policy does), decided on the transition graph alone by
/// the nested fixpoint
/// `νZ. μY. { s | s ∈ T ∨ Q a ∈ A(s): succ(a) ⊆ Z ∧ succ(a) ∩ Y ≠ ∅ }`
/// (`Q = ∀` for `MinProb`, `∃` for `MaxProb`). The expected-cost analyses
/// use this instead of thresholding a numerically iterated reachability
/// value, which can stop with true-1 states measurably below 1 and so
/// misclassify proper states as divergent.
pub fn prob1<M: ToCsr + ?Sized>(
    mdp: &M,
    target: &[bool],
    objective: crate::Objective,
) -> Result<Vec<bool>, MdpError> {
    source::prob1(&*mdp.to_csr(), target, objective)
}

/// Computes unbounded reachability probabilities
/// `P^opt[eventually reach target]` by qualitative precomputation followed
/// by value iteration from below (double-buffered Jacobi on the CSR
/// engine; deterministically parallel — see [`crate::CsrMdp`]).
///
/// A terminal non-target state has value 0 under both objectives (for
/// `MinProb` also because the adversary may simply stop scheduling).
///
// Unbounded reachability itself is exposed through `crate::Query` (no
// horizon); only the qualitative precomputations above remain free
// functions.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, CsrMdp, ExplicitMdp, Objective, Query};

    /// Unbounded reachability via the `Query` builder (the migration target
    /// of the removed pre-`Query` free function).
    fn reach_prob(
        mdp: &ExplicitMdp,
        target: &[bool],
        objective: Objective,
        options: IterOptions,
    ) -> Result<Vec<f64>, MdpError> {
        Ok(Query::csr(&CsrMdp::from(mdp))
            .objective(objective)
            .target(target)
            .options(options)
            .run()
            .map_err(MdpError::into_root)?
            .values)
    }

    /// 0: choice A stays in a loop {0,1}; choice B moves towards target 2
    /// with probability 1/2, else back to 0.
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
    fn prob0_max_finds_graph_unreachable_states() {
        // 3-state model where state 1 is a dead end.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(1, 1), Choice::to(1, 2)], vec![], vec![]],
            vec![0],
        )
        .unwrap();
        let z = prob0_max(&m, &[false, false, true]).unwrap();
        assert_eq!(z, vec![false, true, false]);
    }

    #[test]
    fn prob0_min_detects_avoidance_strategy() {
        let m = escape();
        // The adversary can ping-pong 0<->1 forever, avoiding 2.
        let z = prob0_min(&m, &[false, false, true]).unwrap();
        assert_eq!(z, vec![true, true, false]);
    }

    #[test]
    fn prob0_min_counts_halting_as_avoidance() {
        // Single choice leads to target, but a terminal sink exists.
        let m = ExplicitMdp::new(vec![vec![Choice::to(1, 1)], vec![]], vec![0]).unwrap();
        // From 0, the only scheduled run reaches 1. But 1 itself, if it were
        // not the target... here target = {1}: min prob is 1? No: the
        // adversary may stop scheduling *at state 0*, so min reach = 0.
        //
        // Definition 2.2 allows the adversary to return nothing; our
        // prob0_min treats terminal states as avoiding, but a *non-terminal*
        // state where the adversary stops is equivalent to... stopping,
        // which avoids the target. That is exactly why `in_x` keeps states
        // whose choices all leave X OR which the adversary can park in X.
        // State 0 has a choice into the target, and "stopping" is modelled
        // only at terminal states; schemas like Unit-Time forbid stopping,
        // which is the semantics the Lehmann–Rabin analysis uses.
        let z = prob0_min(&m, &[false, true]).unwrap();
        assert_eq!(z, vec![false, false]);
    }

    #[test]
    fn prob1_separates_forced_from_possible() {
        let m = escape();
        // Choice A ping-pongs 0<->1 forever, so an adversary avoids the
        // target: Pmin < 1 on both loop states. Choice B still reaches 2
        // with probability 1/2 per attempt, so a cooperative scheduler
        // gets there almost surely: Pmax = 1 everywhere.
        let t = [false, false, true];
        assert_eq!(
            prob1(&m, &t, Objective::MinProb).unwrap(),
            vec![false, false, true]
        );
        assert_eq!(
            prob1(&m, &t, Objective::MaxProb).unwrap(),
            vec![true, true, true]
        );
    }

    #[test]
    fn prob1_handles_stochastic_loops_and_terminal_sinks() {
        // A stochastic self-loop that leaks to the target has Pmin = 1
        // even though no finite horizon reaches it surely — the case a
        // thresholded numeric reachability value gets wrong when value
        // iteration stops early.
        let m = ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap();
        assert_eq!(
            prob1(&m, &[false, true], Objective::MinProb).unwrap(),
            vec![true, true]
        );
        // A terminal non-target state stays put forever: never almost-sure.
        let m = ExplicitMdp::new(vec![vec![Choice::to(1, 1)], vec![], vec![]], vec![0]).unwrap();
        assert_eq!(
            prob1(&m, &[false, true, false], Objective::MinProb).unwrap(),
            vec![true, true, false]
        );
        assert_eq!(
            prob1(&m, &[false, true, false], Objective::MaxProb).unwrap(),
            vec![true, true, false]
        );
    }

    #[test]
    fn reach_prob_max_is_one_when_escape_possible() {
        let m = escape();
        let v = reach_prob(
            &m,
            &[false, false, true],
            Objective::MaxProb,
            IterOptions::default(),
        )
        .unwrap();
        assert!((v[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reach_prob_min_is_zero_with_avoidance() {
        let m = escape();
        let v = reach_prob(
            &m,
            &[false, false, true],
            Objective::MinProb,
            IterOptions::default(),
        )
        .unwrap();
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 1.0);
    }

    #[test]
    fn forced_geometric_min_reach_is_one() {
        // One choice: flip until heads. Min = max = 1.
        let m = ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap();
        let v = reach_prob(
            &m,
            &[false, true],
            Objective::MinProb,
            IterOptions::default(),
        )
        .unwrap();
        assert!((v[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn iter_options_cap_sweeps() {
        let m = ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap();
        let coarse = reach_prob(
            &m,
            &[false, true],
            Objective::MinProb,
            IterOptions {
                epsilon: 0.0,
                max_sweeps: 3,
            },
        )
        .unwrap();
        assert!(coarse[0] < 1.0);
    }
}
