//! Property-based tests for the MDP analysis algorithms on randomly
//! generated models.

use pa_core::TableAutomaton;
use pa_mdp::{
    prob0_max, prob0_min, Choice, CsrMdp, ExplicitMdp, Explore, IterOptions, MdpError, Objective,
    Query, QueryObjective,
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

/// Strategy: an implicit automaton whose first BFS level is wide enough to
/// shard in parallel, with a seed-controlled skew in where the branching
/// lands — the shape that drives `par_explore`'s adaptive shard sizing.
fn skewed_automaton() -> impl Strategy<Value = TableAutomaton<u32, &'static str>> {
    (150usize..400, any::<u64>()).prop_map(|(width, seed)| {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let hot = next() % width; // branching concentrates after this index
        let mut b = TableAutomaton::builder().start(0);
        for i in 0..width as u32 {
            b = b.det_step(0, "spread", i + 1);
            let fan = if i as usize >= hot {
                1 + next() % 24
            } else {
                1
            };
            for j in 0..fan as u32 {
                b = b.det_step(i + 1, "fan", 10_000 + i * 32 + j);
            }
        }
        b.build().expect("valid generated automaton")
    })
}

proptest! {
    #[test]
    fn adaptive_parallel_exploration_matches_serial(m in skewed_automaton(), workers in 2usize..9) {
        let serial = Explore::new(&m).limit(1_000_000).run().unwrap();
        let par = Explore::new(&m)
            .limit(1_000_000)
            .workers(workers)
            .run()
            .unwrap();
        prop_assert_eq!(par.states(), serial.states());
        prop_assert_eq!(&par.mdp, &serial.mdp);
    }

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
    fn prob0_sets_match_values(m in random_mdp()) {
        let target: Vec<bool> = (0..m.num_states()).map(|s| s == m.num_states() - 1).collect();
        let zero_max = prob0_max(&m, &target).unwrap();
        let zero_min = prob0_min(&m, &target).unwrap();
        let vmax = reach_prob(&m, &target, Objective::MaxProb, IterOptions::default()).unwrap();
        let vmin = reach_prob(&m, &target, Objective::MinProb, IterOptions::default()).unwrap();
        #[allow(clippy::needless_range_loop)]
        for s in 0..m.num_states() {
            if zero_max[s] {
                prop_assert!(vmax[s] == 0.0, "prob0_max state has max value {}", vmax[s]);
            }
            if zero_min[s] {
                prop_assert!(vmin[s] == 0.0, "prob0_min state has min value {}", vmin[s]);
            }
            // Targets are never in a prob0 set.
            if target[s] {
                prop_assert!(!zero_max[s] && !zero_min[s]);
            }
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
