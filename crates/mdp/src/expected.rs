//! Expected accumulated cost until the target is reached — worst case
//! (`Query` with [`crate::QueryObjective::MaxCost`]) and best case
//! ([`min_expected_cost`]).
//!
//! The worst case is the quantity the paper bounds in Section 6.2: the
//! maximal (over adversaries) expected time to reach the critical region.
//! With round boundaries costing 1 and scheduling steps costing 0, the
//! expected accumulated cost is exactly the expected number of time
//! units. The best case is its dual: the expected time under the most
//! cooperative scheduler.

use crate::{CsrSource, IterOptions, MdpError, Query, QueryObjective, Solver, ToCsr};

/// Result of an expected-cost analysis: per-state expectations, with
/// `f64::INFINITY` marking states from which the target is not reached
/// almost surely under every adversary (so the worst-case expectation
/// diverges).
#[derive(Debug, Clone)]
pub struct ExpectedCost {
    /// Expected cost per state (∞ where divergent).
    pub values: Vec<f64>,
}

/// Computes the worst-case (adversary-maximal) expected accumulated cost to
/// reach `target`.
///
/// Soundness precondition, checked per state: the *minimal* probability of
/// reaching the target must be 1 (then every adversary reaches it almost
/// surely, every policy is proper, and value iteration converges to the
/// optimum). States failing the precondition get `f64::INFINITY`.
///
/// Detects a cycle in the zero-cost transition subgraph (states connected
/// by choices with `cost == 0`, excluding `target` states).
///
/// Zero-cost cycles make *minimizing* expected-cost analyses degenerate: a
/// policy may loop forever at zero cost without reaching the target, and
/// value iteration from below would report 0 instead of rejecting the
/// improper policy. [`min_expected_cost`] therefore refuses such models.
/// (The round models of the case study are zero-cost-acyclic by
/// construction: every scheduling step consumes per-round budget.)
pub fn has_zero_cost_cycle<M: ToCsr + ?Sized>(mdp: &M, target: &[bool]) -> Result<bool, MdpError> {
    mdp.to_csr().has_zero_cost_cycle(target)
}

/// Computes the best-case (scheduler-minimal) expected accumulated cost to
/// reach `target`.
///
/// Soundness preconditions, both checked:
/// * the zero-cost subgraph (off-target) is acyclic — otherwise a
///   zero-cost-looping improper policy would corrupt the least fixpoint
///   (the function returns [`MdpError::BadDistribution`]-style structural
///   rejection via [`MdpError::DivergentExpectation`] on the offending
///   model);
/// * per state, the *maximal* reachability probability is 1 — otherwise
///   no policy reaches the target almost surely from that state and the
///   value is `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`MdpError::TargetLengthMismatch`] for a malformed target, and
/// [`MdpError::DivergentExpectation`] (state 0 by convention) when the
/// zero-cost subgraph has a cycle.
pub fn min_expected_cost<M: ToCsr + ?Sized>(
    mdp: &M,
    target: &[bool],
    options: IterOptions,
) -> Result<ExpectedCost, MdpError> {
    let analysis = Query::over(mdp)
        .objective(QueryObjective::MinCost)
        .target(target)
        .options(options)
        .solver(Solver::Jacobi)
        .run()
        .map_err(MdpError::into_root)?;
    Ok(ExpectedCost {
        values: analysis.values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, ExplicitMdp};

    /// Worst-case expected cost via the `Query` builder (the migration
    /// target of the removed pre-`Query` free function).
    fn max_expected_cost(
        mdp: &ExplicitMdp,
        target: &[bool],
        options: IterOptions,
    ) -> Result<ExpectedCost, MdpError> {
        let analysis = Query::over(mdp)
            .objective(QueryObjective::MaxCost)
            .target(target)
            .options(options)
            .run()
            .map_err(MdpError::into_root)?;
        Ok(ExpectedCost {
            values: analysis.values,
        })
    }

    /// Geometric trial with success probability 1/2 per unit of time:
    /// expected time 2.
    fn geometric() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn geometric_expected_time_is_two() {
        let e = max_expected_cost(&geometric(), &[false, true], IterOptions::default()).unwrap();
        assert!((e.values[0] - 2.0).abs() < 1e-6, "{}", e.values[0]);
        assert_eq!(e.values[1], 0.0);
    }

    #[test]
    fn adversary_maximizes_among_choices() {
        // Choice A: reach target in 1 step; choice B: geometric with
        // expectation 4 (p = 1/4). Worst case picks B.
        let m = ExplicitMdp::new(
            vec![
                vec![
                    Choice::to(1, 1),
                    Choice::dist(1, vec![(1, 0.25), (0, 0.75)]),
                ],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let e = max_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        assert!((e.values[0] - 4.0).abs() < 1e-6, "{}", e.values[0]);
    }

    #[test]
    fn slow_mixing_chain_is_still_proper() {
        // The single choice leaks to the target with probability 1e-6 and
        // otherwise self-loops: Pmin = 1, so the expectation is finite
        // (1e6 rounds), but numeric value iteration on the reachability
        // probability stops far below 1. A thresholded numeric properness
        // mask misclassified exactly this shape as divergent (observed on
        // the batch driver's shared ring models); the qualitative prob1
        // mask must keep it live under both analyses.
        let m = ExplicitMdp::new(
            vec![
                vec![Choice::dist(1, vec![(0, 1.0 - 1e-6), (1, 1e-6)])],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let hi = max_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        assert!(hi.values[0].is_finite(), "proper state marked divergent");
        // The cost iteration is itself sweep-capped well short of
        // convergence here; only finiteness and the right order of
        // magnitude are owed.
        assert!(hi.values[0] > 1.0e5, "{}", hi.values[0]);
        let lo = min_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        assert!(lo.values[0].is_finite(), "feasible state marked divergent");
    }

    #[test]
    fn zero_cost_steps_add_no_time() {
        // 0 -0-> 1 -1-> 2 (target): expected cost 1.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(0, 1)], vec![Choice::to(1, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        let e = max_expected_cost(&m, &[false, false, true], IterOptions::default()).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_cycle_detection() {
        // 0 -0-> 1 -0-> 0 with target {2}: cycle.
        let cyclic = ExplicitMdp::new(
            vec![
                vec![Choice::to(0, 1)],
                vec![Choice::to(0, 0), Choice::to(1, 2)],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        assert!(has_zero_cost_cycle(&cyclic, &[false, false, true]).unwrap());
        // Making 0 the target breaks the off-target cycle.
        assert!(!has_zero_cost_cycle(&cyclic, &[true, false, false]).unwrap());
        // A chain has no cycle.
        let chain = ExplicitMdp::new(
            vec![vec![Choice::to(0, 1)], vec![Choice::to(1, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        assert!(!has_zero_cost_cycle(&chain, &[false, false, true]).unwrap());
    }

    #[test]
    fn min_expected_cost_picks_the_fast_branch() {
        // Choice A: 1 step to target; choice B: geometric expectation 4.
        let m = ExplicitMdp::new(
            vec![
                vec![
                    Choice::to(1, 1),
                    Choice::dist(1, vec![(1, 0.25), (0, 0.75)]),
                ],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let e = min_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-9, "{}", e.values[0]);
    }

    #[test]
    fn min_expected_cost_rejects_zero_cost_cycles() {
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(0, 0), Choice::to(1, 1)], vec![]],
            vec![0],
        )
        .unwrap();
        assert!(matches!(
            min_expected_cost(&m, &[false, true], IterOptions::default()),
            Err(MdpError::DivergentExpectation { .. })
        ));
    }

    #[test]
    fn min_expected_cost_marks_unreachable_states_infinite() {
        let m = ExplicitMdp::new(vec![vec![], vec![]], vec![0]).unwrap();
        let e = min_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        assert!(e.values[0].is_infinite());
    }

    #[test]
    fn min_is_below_max() {
        let m = ExplicitMdp::new(
            vec![
                vec![Choice::to(1, 1), Choice::dist(1, vec![(1, 0.5), (0, 0.5)])],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let lo = min_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        let hi = max_expected_cost(&m, &[false, true], IterOptions::default()).unwrap();
        assert!(lo.values[0] <= hi.values[0]);
    }

    #[test]
    fn target_states_cost_zero() {
        let e = max_expected_cost(&geometric(), &[true, true], IterOptions::default()).unwrap();
        assert_eq!(e.values, vec![0.0, 0.0]);
    }
}
