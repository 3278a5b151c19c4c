//! Property-based tests for the MDP analysis algorithms on randomly
//! generated models.

use pa_mdp::{
    Choice, CsrMdp, ExplicitMdp, IterOptions, MdpError, Objective, Query, QueryObjective,
};
use proptest::prelude::*;

/// Bounded reachability through the `Query` builder (the pre-`Query` free
/// function was removed after its deprecation cycle).
fn cost_bounded_reach(
    mdp: &ExplicitMdp,
    target: &[bool],
    budget: u32,
    objective: Objective,
) -> Result<Vec<f64>, MdpError> {
    Ok(Query::csr(&CsrMdp::from(mdp))
        .objective(objective)
        .target(target)
        .horizon(budget)
        .run()?
        .values)
}

/// Unbounded reachability through the `Query` builder.
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
        .run()?
        .values)
}

/// Worst-case expected cost through the `Query` builder.
fn max_expected_cost(
    mdp: &ExplicitMdp,
    target: &[bool],
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    Ok(Query::csr(&CsrMdp::from(mdp))
        .objective(QueryObjective::MaxCost)
        .target(target)
        .options(options)
        .run()?
        .values)
}

/// Strategy: a random MDP with `n` states, up to `c` choices per state,
/// cost-0/1 transitions, and fair two-point distributions.
fn random_mdp() -> impl Strategy<Value = ExplicitMdp> {
    (2usize..8, any::<u64>()).prop_map(|(n, seed)| {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let choices: Vec<Vec<Choice>> = (0..n)
            .map(|_| {
                let k = next() % 3; // 0..=2 choices; 0 = terminal state
                (0..k)
                    .map(|_| {
                        let cost = (next() % 2) as u32;
                        let a = next() % n;
                        let b = next() % n;
                        if a == b {
                            Choice::to(cost, a)
                        } else {
                            Choice::dist(cost, vec![(a, 0.5), (b, 0.5)])
                        }
                    })
                    .collect()
            })
            .collect();
        ExplicitMdp::new(choices, vec![0]).expect("valid random model")
    })
}

proptest! {
    #[test]
    fn bounded_values_are_probabilities_and_monotone(m in random_mdp(), budget in 0u32..8) {
        let target: Vec<bool> = (0..m.num_states()).map(|s| s == m.num_states() - 1).collect();
        let v1 = cost_bounded_reach(&m, &target, budget, Objective::MinProb).unwrap();
        let v2 = cost_bounded_reach(&m, &target, budget + 1, Objective::MinProb).unwrap();
        for s in 0..m.num_states() {
            prop_assert!((0.0..=1.0).contains(&v1[s]));
            prop_assert!(v2[s] + 1e-12 >= v1[s], "monotone in budget");
        }
    }

    #[test]
    fn min_is_dominated_by_max(m in random_mdp(), budget in 0u32..8) {
        let target: Vec<bool> = (0..m.num_states()).map(|s| s == 0).collect();
        let lo = cost_bounded_reach(&m, &target, budget, Objective::MinProb).unwrap();
        let hi = cost_bounded_reach(&m, &target, budget, Objective::MaxProb).unwrap();
        for s in 0..m.num_states() {
            prop_assert!(lo[s] <= hi[s] + 1e-12);
        }
    }

    #[test]
    fn unbounded_dominates_bounded(m in random_mdp(), budget in 0u32..8) {
        let target: Vec<bool> = (0..m.num_states()).map(|s| s == m.num_states() - 1).collect();
        let bounded = cost_bounded_reach(&m, &target, budget, Objective::MaxProb).unwrap();
        let unbounded = reach_prob(&m, &target, Objective::MaxProb, IterOptions::default()).unwrap();
        for s in 0..m.num_states() {
            prop_assert!(unbounded[s] + 1e-9 >= bounded[s]);
        }
    }

    #[test]
    fn expected_cost_is_nonnegative_and_zero_on_targets(m in random_mdp()) {
        let target: Vec<bool> = (0..m.num_states()).map(|s| s == m.num_states() - 1).collect();
        let e = max_expected_cost(&m, &target, IterOptions::default()).unwrap();
        #[allow(clippy::needless_range_loop)]
        for s in 0..m.num_states() {
            if target[s] {
                prop_assert_eq!(e[s], 0.0);
            } else {
                prop_assert!(e[s] >= 0.0);
            }
        }
    }

    #[test]
    fn target_states_have_value_one_at_any_budget(m in random_mdp(), budget in 0u32..6) {
        let target: Vec<bool> = (0..m.num_states()).map(|s| s % 2 == 0).collect();
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let v = cost_bounded_reach(&m, &target, budget, objective).unwrap();
            for s in 0..m.num_states() {
                if target[s] {
                    prop_assert_eq!(v[s], 1.0);
                }
            }
        }
    }
}
