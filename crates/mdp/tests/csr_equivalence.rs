//! Property tests pinning down the CSR engine's equivalence contracts:
//!
//! * every CSR analysis is **bit-for-bit** identical to its nested-model
//!   Jacobi oracle in [`pa_mdp::reference`];
//! * worker count never changes a single bit of any result;
//! * the CSR fixpoints agree with the original Gauss–Seidel engine up to
//!   iteration tolerance (the two methods converge to the same fixpoint
//!   along different trajectories, so only tolerance equality is owed);
//! * every objective answers bit for bit the same on any block structure
//!   and worker count, through [`Query::source`] over a model cut into
//!   blocks, as through [`Query::csr`] over the whole in-core model;
//! * a parallel [`Explore`] run reproduces the serial one exactly —
//!   same states in the same order, same choices, same limit errors.

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

/// One Jacobi query; a horizon also extracts the policy.
fn solve(
    query: Query<'_>,
    objective: QueryObjective,
    target: &[bool],
    horizon: Option<u32>,
    options: IterOptions,
    workers: usize,
) -> Result<Analysis, MdpError> {
    let query = query
        .objective(objective)
        .target(target)
        .options(options)
        .workers(workers)
        .solver(Solver::Jacobi);
    match horizon {
        Some(budget) => query.horizon(budget).with_policy(),
        None => query,
    }
    .run()
}

/// Every objective over `m` cut into 1, 2 and 5 blocks and swept by 1 and
/// 3 workers answers bit for bit as the serial in-core query: values,
/// bounded policies, and divergence errors.
fn assert_blocks_match_in_core(m: &ExplicitMdp, budget: u32, options: IterOptions) {
    let csr = CsrMdp::from_explicit(m);
    let target = last_state_target(m);
    let queries = [
        (QueryObjective::MinProb, Some(budget)),
        (QueryObjective::MaxProb, Some(budget)),
        (QueryObjective::MinProb, None),
        (QueryObjective::MaxProb, None),
        (QueryObjective::MinCost, None),
        (QueryObjective::MaxCost, None),
    ];
    for (objective, horizon) in queries {
        let in_core = solve(Query::csr(&csr), objective, &target, horizon, options, 1);
        for k in [1, 2, 5] {
            let blocked = Blocked::split(&csr, k);
            for workers in [1, 3] {
                let got = solve(
                    Query::source(&blocked),
                    objective,
                    &target,
                    horizon,
                    options,
                    workers,
                );
                let tag =
                    format!("{objective:?} horizon {horizon:?}, {k} blocks, {workers} workers");
                match (&in_core, got) {
                    (Ok(a), Ok(b)) => {
                        assert_bitwise(&a.values, &b.values);
                        assert_eq!(
                            a.policy.as_ref().map(|p| &p.decision),
                            b.policy.as_ref().map(|p| &p.decision),
                            "{tag}: policy"
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, &b, "{tag}: error"),
                    (a, b) => panic!("{tag}: {:?} vs {:?}", a.is_ok(), b.is_ok()),
                }
            }
        }
    }
}

#[test]
fn large_blocks_split_across_workers_match_in_core_bitwise() {
    // Blocks of at least 4096 states (the parallel cutoff) split across
    // workers: one block, and two blocks of over 4096 states each. The
    // sweep cap keeps the debug-build run short; equality is owed at any
    // cap.
    let options = IterOptions {
        epsilon: 1e-12,
        max_sweeps: 300,
    };
    for seed in [1u64, 2, 3] {
        assert_blocks_match_in_core(&scrambled_mdp(8300, seed), 3, options);
    }
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
    fn worker_count_is_invisible_in_results(m in random_mdp(), budget in 0u32..6) {
        let target = last_state_target(&m);
        let csr = CsrMdp::from_explicit(&m);
        let jacobi = |objective: QueryObjective, horizon: Option<u32>, workers: usize| {
            let q = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .workers(workers)
                .solver(Solver::Jacobi);
            match horizon {
                Some(budget) => q.horizon(budget),
                None => q,
            }
            .run()
            .unwrap()
            .values
        };
        for objective in [QueryObjective::MinProb, QueryObjective::MaxProb] {
            assert_bitwise(&jacobi(objective, None, 1), &jacobi(objective, None, 3));
            assert_bitwise(
                &jacobi(objective, Some(budget), 1),
                &jacobi(objective, Some(budget), 4),
            );
        }
        assert_bitwise(
            &jacobi(QueryObjective::MaxCost, None, 1),
            &jacobi(QueryObjective::MaxCost, None, 3),
        );
    }

    #[test]
    fn block_structure_and_workers_are_invisible_in_results(m in random_mdp(), budget in 0u32..8) {
        assert_blocks_match_in_core(&m, budget, IterOptions::default());
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
    fn par_explore_reproduces_serial_exploration(n in 2u64..80, fanout in 1u64..4) {
        let g = ScrambleGraph { n, fanout };
        let cost = |s: &u64, a: &u64| ((s ^ a) % 2) as u32;
        let serial = Explore::new(&g).cost(cost).limit(10_000).run().unwrap();
        for workers in [1usize, 2, 5] {
            let par = Explore::new(&g)
                .cost(cost)
                .limit(10_000)
                .workers(workers)
                .run()
                .unwrap();
            prop_assert_eq!(par.states(), serial.states(), "workers={}", workers);
            prop_assert_eq!(&par.mdp, &serial.mdp, "workers={}", workers);
        }
    }

    #[test]
    fn par_explore_hits_the_same_state_limit(n in 8u64..60, limit in 1usize..8) {
        let g = ScrambleGraph { n, fanout: 3 };
        let cost = |_: &u64, _: &u64| 1u32;
        let serial = Explore::new(&g).cost(cost).limit(limit).run();
        let par = Explore::new(&g).cost(cost).limit(limit).workers(3).run();
        match (serial, par) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.states(), b.states()),
            (
                Err(MdpError::StateLimitExceeded { limit: a }),
                Err(MdpError::StateLimitExceeded { limit: b }),
            ) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "limit mismatch: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}
