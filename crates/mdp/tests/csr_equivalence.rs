//! Property tests pinning down the CSR engine's equivalence contracts:
//!
//! * every CSR analysis is **bit-for-bit** identical to its nested-model
//!   Jacobi oracle in [`pa_mdp::reference`];
//! * the CSR fixpoints agree with the original Gauss–Seidel engine up to
//!   iteration tolerance (the two methods converge to the same fixpoint
//!   along different trajectories, so only tolerance equality is owed);
//! * every objective answers bit for bit the same on any block structure,
//!   through [`Query::source`] over a model cut into blocks, as through
//!   [`Query::csr`] over the whole in-core model;
//! * every Jacobi-pinned query over one block, whose sweeps re-evaluate
//!   only the states whose own value or some successor's changed, takes
//!   the same sweeps to the same bits, level by level, as over several
//!   blocks, whose sweeps re-evaluate every state — also with self-loops,
//!   zero-probability transitions and zero-cost cycles;
//! * an [`Explore`] run replays the automaton exactly — every state's row
//!   lists its steps in order with interned successor ids — and fails with
//!   [`MdpError::StateLimitExceeded`] exactly when the reachable space
//!   exceeds the limit.

mod common;

use common::Blocked;
use pa_core::{Automaton, Step};

use pa_mdp::{
    reference, Analysis, Choice, CsrMdp, ExplicitMdp, Explore, IterOptions, MdpError, Objective,
    Query, QueryObjective, Solver,
};
use pa_prob::FiniteDist;
use proptest::prelude::*;

// The nested-model oracles pin the *Jacobi* trajectory, so the `Query`
// calls below pin `Solver::Jacobi` explicitly — bitwise comparison is only
// owed against the matching solver, independent of the process default.

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
        .solver(Solver::Jacobi)
        .run()?
        .values)
}

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
        .solver(Solver::Jacobi)
        .run()?
        .values)
}

/// Expected costs under `objective` (`MaxCost` or `MinCost`), with the
/// root cause of a failure.
fn expected_cost(
    mdp: &ExplicitMdp,
    objective: QueryObjective,
    target: &[bool],
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    Ok(Query::csr(&CsrMdp::from(mdp))
        .objective(objective)
        .target(target)
        .options(options)
        .solver(Solver::Jacobi)
        .run()
        .map_err(MdpError::into_root)?
        .values)
}

/// Strategy: a random MDP with up to 8 states, up to 2 choices per state,
/// cost-0/1 transitions, and fair two-point distributions.
fn random_mdp() -> impl Strategy<Value = ExplicitMdp> {
    (2usize..9, any::<u64>()).prop_map(|(n, seed)| scrambled_mdp(n, seed))
}

/// The `random_mdp` model with `n` states drawn from `seed`.
fn scrambled_mdp(n: usize, seed: u64) -> ExplicitMdp {
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
}

fn last_state_target(m: &ExplicitMdp) -> Vec<bool> {
    (0..m.num_states())
        .map(|s| s == m.num_states() - 1)
        .collect()
}

/// Bitwise equality of two value vectors (`to_bits` so that even the sign
/// of zero and the exact rounding of every sum must match).
fn assert_bitwise(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for s in 0..a.len() {
        assert_eq!(
            a[s].to_bits(),
            b[s].to_bits(),
            "state {s}: {} vs {}",
            a[s],
            b[s]
        );
    }
}

fn assert_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for s in 0..a.len() {
        if a[s].is_infinite() || b[s].is_infinite() {
            assert_eq!(a[s], b[s], "state {s}");
        } else {
            let scale = 1.0 + a[s].abs().max(b[s].abs());
            assert!(
                (a[s] - b[s]).abs() <= tol * scale,
                "state {s}: {} vs {}",
                a[s],
                b[s]
            );
        }
    }
}

/// One Jacobi query; a horizon also extracts the policy and collects
/// every level's values.
fn solve(
    query: Query<'_>,
    objective: QueryObjective,
    target: &[bool],
    horizon: Option<u32>,
    options: IterOptions,
) -> (Result<Analysis, MdpError>, Vec<Vec<f64>>) {
    let mut levels = Vec::new();
    let query = query
        .objective(objective)
        .target(target)
        .options(options)
        .solver(Solver::Jacobi);
    let analysis = match horizon {
        Some(budget) => query
            .horizon(budget)
            .with_policy()
            .on_level(|_, level| levels.push(level.to_vec()))
            .run(),
        None => query.run(),
    };
    (analysis, levels)
}

/// Every objective over `m` — unbounded `MinProb`/`MaxProb`,
/// `MinCost`/`MaxCost`, and bounded `MinProb`/`MaxProb` — cut into 1, 2
/// and 5 blocks answers bit for bit as the in-core query: values, every
/// bounded level, policies, sweep counts, and divergence errors. One
/// block re-evaluates only the states whose inputs changed, several
/// blocks every state, so the in-core query never counts more updates.
fn assert_blocks_match_in_core(
    m: &ExplicitMdp,
    target: &[bool],
    budget: u32,
    options: IterOptions,
) {
    let csr = CsrMdp::from_explicit(m);
    let queries = [
        (QueryObjective::MinProb, Some(budget)),
        (QueryObjective::MaxProb, Some(budget)),
        (QueryObjective::MinProb, None),
        (QueryObjective::MaxProb, None),
        (QueryObjective::MinCost, None),
        (QueryObjective::MaxCost, None),
    ];
    for (objective, horizon) in queries {
        let (in_core, in_core_levels) =
            solve(Query::csr(&csr), objective, target, horizon, options);
        for k in [1, 2, 5] {
            let blocked = Blocked::split(&csr, k);
            let (got, levels) = solve(Query::source(&blocked), objective, target, horizon, options);
            let tag = format!("{objective:?} horizon {horizon:?}, {k} blocks");
            match (&in_core, got) {
                (Ok(a), Ok(b)) => {
                    assert_bitwise(&a.values, &b.values);
                    assert_eq!(
                        a.policy.as_ref().map(|p| &p.decision),
                        b.policy.as_ref().map(|p| &p.decision),
                        "{tag}: policy"
                    );
                    assert_eq!(a.stats.sweeps, b.stats.sweeps, "{tag}: sweeps");
                    assert!(
                        a.stats.state_updates <= b.stats.state_updates,
                        "{tag}: {} vs {} state updates",
                        a.stats.state_updates,
                        b.stats.state_updates
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, &b, "{tag}: error"),
                (a, b) => panic!("{tag}: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
            assert_eq!(in_core_levels.len(), levels.len(), "{tag}: levels");
            for (a, b) in in_core_levels.iter().zip(&levels) {
                assert_bitwise(a, b);
            }
        }
    }
}

#[test]
fn large_models_match_in_core_bitwise_on_any_block_structure() {
    // Blocks of thousands of states: one block, two of over 4096 states
    // each, and five. The sweep cap keeps the debug-build run short;
    // equality is owed at any cap.
    let options = IterOptions {
        epsilon: 1e-12,
        max_sweeps: 300,
    };
    for seed in [1u64, 2, 3] {
        let m = scrambled_mdp(8300, seed);
        assert_blocks_match_in_core(&m, &last_state_target(&m), 3, options);
    }
}

/// Strategy: a random MDP over 2 to 12 states whose choices mix
/// self-loops, zero-probability transitions and repeated successors,
/// with costs 0 and 1.
fn edge_case_mdp() -> impl Strategy<Value = ExplicitMdp> {
    (2usize..13, any::<u64>()).prop_map(|(n, seed)| {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let choices: Vec<Vec<Choice>> = (0..n)
            .map(|s| {
                (0..next() % 4)
                    .map(|_| {
                        let cost = (next() % 2) as u32;
                        let (a, b, c) = (next() % n, next() % n, next() % n);
                        let transitions = match next() % 5 {
                            0 => vec![(a, 1.0)],
                            1 => vec![(s, 0.5), (a, 0.5)],
                            2 => vec![(a, 0.0), (b, 1.0)],
                            3 => vec![(a, 0.25), (b, 0.0), (c, 0.75)],
                            _ => vec![(a, 0.5), (a, 0.25), (s, 0.25)],
                        };
                        Choice { cost, transitions }
                    })
                    .collect()
            })
            .collect();
        ExplicitMdp::new(choices, vec![0]).expect("valid edge-case model")
    })
}

#[test]
fn changed_set_sweeps_match_full_sweeps_on_a_slow_self_loop() {
    // 0 loops on itself with 15/16 and otherwise moves to 1, which
    // reaches the target 2 or falls back to 0: a zero-cost cycle, so every
    // bounded level sweeps to its cap or tolerance, and a self-loop whose
    // value keeps changing while the target's stands still.
    let m = ExplicitMdp::new(
        vec![
            vec![Choice::dist(0, vec![(0, 0.9375), (1, 0.0625)])],
            vec![Choice::dist(0, vec![(2, 0.5), (0, 0.5)]), Choice::to(1, 1)],
            vec![],
        ],
        vec![0],
    )
    .unwrap();
    assert_blocks_match_in_core(&m, &[false, false, true], 4, IterOptions::default());
}

proptest! {
    #[test]
    fn reach_prob_matches_nested_jacobi_bitwise(m in random_mdp()) {
        let target = last_state_target(&m);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let csr = reach_prob(&m, &target, objective, IterOptions::default()).unwrap();
            let oracle =
                reference::reach_prob_jacobi(&m, &target, objective, IterOptions::default())
                    .unwrap();
            assert_bitwise(&csr, &oracle);
        }
    }

    #[test]
    fn cost_bounded_reach_matches_nested_jacobi_bitwise(m in random_mdp(), budget in 0u32..8) {
        let target = last_state_target(&m);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let csr = cost_bounded_reach(&m, &target, budget, objective).unwrap();
            let oracle =
                reference::cost_bounded_reach_jacobi(&m, &target, budget, objective).unwrap();
            assert_bitwise(&csr, &oracle);
        }
    }

    #[test]
    fn expected_costs_match_nested_jacobi_bitwise(m in random_mdp()) {
        let target = last_state_target(&m);
        let opts = IterOptions::default();
        let csr = expected_cost(&m, QueryObjective::MaxCost, &target, opts).unwrap();
        let oracle = reference::max_expected_cost_jacobi(&m, &target, opts).unwrap();
        assert_bitwise(&csr, &oracle);

        // The minimizing analysis may reject the model (zero-cost cycles);
        // engine and oracle must agree on that, too.
        let csr_min = expected_cost(&m, QueryObjective::MinCost, &target, opts);
        let oracle_min = reference::min_expected_cost_jacobi(&m, &target, opts);
        match (csr_min, oracle_min) {
            (Ok(e), Ok(o)) => assert_bitwise(&e, &o),
            (Err(MdpError::DivergentExpectation { .. }),
             Err(MdpError::DivergentExpectation { .. })) => {}
            (a, b) => prop_assert!(false, "divergence mismatch: {:?} vs {:?}", a, b),
        }
    }

    #[test]
    fn block_structure_is_invisible_in_results(m in random_mdp(), budget in 0u32..8) {
        assert_blocks_match_in_core(&m, &last_state_target(&m), budget, IterOptions::default());
    }

    #[test]
    fn changed_set_sweeps_match_full_sweeps(
        m in edge_case_mdp(),
        targets in any::<u64>(),
        budget in 0u32..6,
    ) {
        // The last state, and each other with probability 1/4.
        let n = m.num_states();
        let target: Vec<bool> = (0..n)
            .map(|s| s == n - 1 || (targets >> (2 * s)) & 3 == 0)
            .collect();
        assert_blocks_match_in_core(&m, &target, budget, IterOptions::default());
    }

    #[test]
    fn csr_agrees_with_gauss_seidel_up_to_tolerance(m in random_mdp(), budget in 0u32..6) {
        let target = last_state_target(&m);
        let opts = IterOptions::default();
        // Per-level solving truncates its inner fixpoint at 4n + 8 sweeps
        // (a bound on zero-cost *chain* depth, inherited from the original
        // engine). On models with zero-cost cycles that truncation leaves
        // different residues under Jacobi and Gauss–Seidel, so tolerance
        // equality of the bounded recursion is only owed on zero-cost-
        // acyclic models — the shape of every case-study round model.
        let zc = matches!(
            expected_cost(&m, QueryObjective::MinCost, &target, opts),
            Err(MdpError::DivergentExpectation { .. })
        );
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let csr = reach_prob(&m, &target, objective, opts).unwrap();
            let gs = reference::reach_prob_gauss_seidel(&m, &target, objective, opts).unwrap();
            assert_close(&csr, &gs, 1e-6);

            if !zc {
                let csr = cost_bounded_reach(&m, &target, budget, objective).unwrap();
                let gs =
                    reference::cost_bounded_reach_gauss_seidel(&m, &target, budget, objective)
                        .unwrap();
                // Both recursions are exact here, so the gap is tiny.
                assert_close(&csr, &gs, 1e-9);
            }
        }
        let csr = expected_cost(&m, QueryObjective::MaxCost, &target, opts).unwrap();
        let gs = reference::max_expected_cost_gauss_seidel(&m, &target, opts).unwrap();
        assert_close(&csr, &gs, 1e-6);
    }
}

/// A pseudo-random implicit automaton over `0..n`: fanout and successor
/// pairs are scrambled from the state value, so exploration order and
/// deduplication are exercised on irregular graphs without any RNG state.
#[derive(Debug)]
struct ScrambleGraph {
    n: u64,
    fanout: u64,
}

impl Automaton for ScrambleGraph {
    type State = u64;
    type Action = u64;

    fn start_states(&self) -> Vec<u64> {
        vec![0]
    }

    fn steps(&self, s: &u64) -> Vec<Step<u64, u64>> {
        let mix = |k: u64, salt: u64| {
            s.wrapping_add(k.rotate_left(17) ^ salt)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> 11
        };
        (0..self.fanout)
            .map(|k| {
                let a = mix(k, 0xA5A5) % self.n;
                let b = mix(k, 0x5A5A) % self.n;
                if a == b {
                    Step::deterministic(k, a)
                } else {
                    Step {
                        action: k,
                        target: FiniteDist::new([(a, 0.5), (b, 0.5)]).expect("two-point dist"),
                    }
                }
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn explore_rows_replay_the_automaton_steps(n in 2u64..80, fanout in 1u64..4) {
        let g = ScrambleGraph { n, fanout };
        let cost = |s: &u64, a: &u64| ((s ^ a) % 2) as u32;
        let e = Explore::new(&g).cost(cost).limit(10_000).run().unwrap();
        let rows = e.mdp.rows();
        prop_assert_eq!(e.mdp.initial_states(), &[0][..]);
        for (i, s) in e.states().iter().enumerate() {
            prop_assert_eq!(e.index_of(s), Some(i));
            let steps = g.steps(s);
            let choices = rows.choice_range(i);
            prop_assert_eq!(choices.len(), steps.len(), "state {}", s);
            for (c, step) in choices.zip(&steps) {
                prop_assert_eq!(rows.cost(c), cost(s, &step.action));
                let got: Vec<(u32, f64)> = rows
                    .trans_range(c)
                    .map(|t| (rows.targets[t], rows.prob(t)))
                    .collect();
                let want: Vec<(u32, f64)> = step
                    .target
                    .iter()
                    .map(|(t, p)| (e.index_of(t).unwrap() as u32, p.value()))
                    .collect();
                prop_assert_eq!(got, want, "state {}", s);
            }
        }
        // BFS discovery order: every successor of state i has an id at
        // most one past the largest id seen so far.
        let mut seen = e.mdp.initial_states().len();
        for i in 0..e.num_states() {
            for c in rows.choice_range(i) {
                for t in rows.trans_range(c) {
                    let t = rows.targets[t] as usize;
                    prop_assert!(t <= seen, "state {} jumps to {}", i, t);
                    seen = seen.max(t + 1);
                }
            }
        }
    }

    #[test]
    fn explore_hits_the_state_limit_exactly_beyond_it(n in 2u64..60, below in 0usize..8) {
        let g = ScrambleGraph { n, fanout: 3 };
        let cost = |_: &u64, _: &u64| 1u32;
        let full = Explore::new(&g).cost(cost).run().unwrap();
        let size = full.num_states();
        // Limits on both sides of the reachable space's size, and at it.
        for limit in [size.saturating_sub(below), size, size + 1] {
            match Explore::new(&g).cost(cost).limit(limit).run() {
                Ok(e) => {
                    prop_assert!(size <= limit);
                    prop_assert_eq!(e.states(), full.states());
                }
                Err(MdpError::StateLimitExceeded { limit: l }) => {
                    prop_assert!(size > limit);
                    prop_assert_eq!(l, limit);
                }
                Err(e) => prop_assert!(false, "unexpected error {:?}", e),
            }
        }
    }
}
