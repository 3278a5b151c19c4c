//! Equivalence contracts of the SCC-ordered solver and the `Query` API:
//!
//! * on models whose relevant graph is **acyclic** (a DAG for unbounded
//!   queries; a zero-cost-acyclic "DAG of rounds" for horizon queries —
//!   cost-1 edges may still form cycles), `Solver::SccOrdered` is
//!   **bit-for-bit** identical to `Solver::Jacobi`: every component is
//!   trivial, so each state is computed once from exact successor values —
//!   the same floating-point expression, in the same transition order, the
//!   converged Jacobi sweep evaluates;
//! * on models with nontrivial SCCs (e.g. the ring-rotation family, where
//!   probabilistic steps fall back into earlier states), the two solvers
//!   agree within iteration tolerance (≤ 1e-10 here);
//! * Jacobi-pinned `Query` runs match the nested-model oracles bitwise
//!   (the contract the removed pre-`Query` wrappers used to pin);
//! * on a layered round model the SCC-ordered solve performs strictly
//!   fewer state updates than the global Jacobi schedule;
//! * a bounded probability query that picks no solver runs SCC-ordered
//!   exactly when the zero-cost subgraph is acyclic (bitwise equal to
//!   Jacobi), Jacobi otherwise, and reports the solver that ran, whether
//!   the single-block source is in core or not; over a multi-block source
//!   ([`Query::source`]) it takes the one-pass-per-level reverse solve,
//!   reported as SCC-ordered and equally bitwise equal.

mod common;

use common::Blocked;
use pa_mdp::{
    reference, Choice, CsrMdp, ExplicitMdp, IterOptions, Objective, Query, QueryObjective, Solver,
};
use proptest::prelude::*;

fn lcg(seed: u64) -> impl FnMut() -> usize {
    let mut x = seed;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    }
}

/// A random **DAG** model: every edge goes strictly forward, costs are
/// 0/1, distributions are deterministic or fair two-point.
fn random_dag() -> impl Strategy<Value = ExplicitMdp> {
    (3usize..10, any::<u64>()).prop_map(|(n, seed)| {
        let mut next = lcg(seed);
        let mut choices = Vec::with_capacity(n);
        for s in 0..n - 1 {
            let mut cs = Vec::new();
            for _ in 0..=next() % 2 {
                let cost = (next() % 2) as u32;
                let a = s + 1 + next() % (n - s - 1);
                let b = s + 1 + next() % (n - s - 1);
                cs.push(if a == b {
                    Choice::to(cost, a)
                } else {
                    Choice::dist(cost, vec![(a, 0.5), (b, 0.5)])
                });
            }
            choices.push(cs);
        }
        choices.push(Vec::new());
        ExplicitMdp::new(choices, vec![0]).expect("valid model")
    })
}

/// A random **DAG of rounds**: the zero-cost subgraph only moves forward,
/// but cost-1 choices may jump anywhere — including backwards, forming
/// cycles through round boundaries (the ring-rotation shape).
fn random_round_dag() -> impl Strategy<Value = ExplicitMdp> {
    (3usize..10, any::<u64>()).prop_map(|(n, seed)| {
        let mut next = lcg(seed);
        let mut choices = Vec::with_capacity(n);
        for s in 0..n - 1 {
            let mut cs = Vec::new();
            for _ in 0..=next() % 2 {
                let cost = (next() % 2) as u32;
                let (a, b) = if cost == 0 {
                    // Zero-cost edges stay strictly forward.
                    (s + 1 + next() % (n - s - 1), s + 1 + next() % (n - s - 1))
                } else {
                    // Round boundaries may rotate back.
                    (next() % n, next() % n)
                };
                cs.push(if a == b {
                    Choice::to(cost, a)
                } else {
                    Choice::dist(cost, vec![(a, 0.5), (b, 0.5)])
                });
            }
            choices.push(cs);
        }
        choices.push(Vec::new());
        ExplicitMdp::new(choices, vec![0]).expect("valid model")
    })
}

/// A fully random model: cycles anywhere, zero-cost loops included.
fn random_cyclic() -> impl Strategy<Value = ExplicitMdp> {
    (2usize..9, any::<u64>()).prop_map(|(n, seed)| {
        let mut next = lcg(seed);
        let mut choices = Vec::with_capacity(n);
        for _ in 0..n {
            let mut cs = Vec::new();
            for _ in 0..next() % 3 {
                let cost = (next() % 2) as u32;
                let a = next() % n;
                let b = next() % n;
                cs.push(if a == b {
                    Choice::to(cost, a)
                } else {
                    Choice::dist(cost, vec![(a, 0.5), (b, 0.5)])
                });
            }
            choices.push(cs);
        }
        ExplicitMdp::new(choices, vec![0]).expect("valid model")
    })
}

fn target_last(m: &ExplicitMdp) -> Vec<bool> {
    (0..m.num_states())
        .map(|s| s == m.num_states() - 1)
        .collect()
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: state {i}: {x} vs {y} differ in bits"
        );
    }
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.is_infinite() || y.is_infinite() {
            assert_eq!(x, y, "{what}: state {i}");
        } else {
            assert!((x - y).abs() <= tol, "{what}: state {i}: {x} vs {y}");
        }
    }
}

proptest! {
    /// Unbounded reachability on DAGs: SCC-ordered == Jacobi, bitwise,
    /// and both match the nested-model oracle.
    #[test]
    fn scc_unbounded_reach_is_bitwise_on_dags(m in random_dag()) {
        let target = target_last(&m);
        let csr = CsrMdp::from(&m);
        let opts = IterOptions::default();
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let jacobi = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .options(opts)
                .solver(Solver::Jacobi)
                .run()
                .unwrap();
            let scc = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .options(opts)
                .solver(Solver::SccOrdered)
                .run()
                .unwrap();
            assert_bitwise(&jacobi.values, &scc.values, "reach");
            let oracle = reference::reach_prob_jacobi(&m, &target, objective, opts).unwrap();
            assert_bitwise(&oracle, &scc.values, "reach vs oracle");
        }
    }

    /// Horizon queries on DAG-of-rounds models (zero-cost subgraph
    /// acyclic, cost-1 cycles allowed): bitwise across solvers, and the
    /// extracted policies pick identical choices.
    #[test]
    fn scc_horizon_is_bitwise_on_round_dags(m in random_round_dag(), budget in 0u32..6) {
        let target = target_last(&m);
        let csr = CsrMdp::from(&m);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let jacobi = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .horizon(budget)
                .with_policy()
                .solver(Solver::Jacobi)
                .run()
                .unwrap();
            let scc = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .horizon(budget)
                .with_policy()
                .solver(Solver::SccOrdered)
                .run()
                .unwrap();
            assert_bitwise(&jacobi.values, &scc.values, "horizon");
            let pj = jacobi.policy.unwrap();
            let ps = scc.policy.unwrap();
            prop_assert_eq!(pj.decision, ps.decision);
        }
    }

    /// A bounded query that picks no solver, on a zero-cost-acyclic model:
    /// routed to the SCC-ordered solver, bitwise equal to a Jacobi-pinned
    /// run, policies included.
    #[test]
    fn unpinned_horizon_runs_scc_bitwise_on_round_dags(m in random_round_dag(), budget in 0u32..6) {
        let target = target_last(&m);
        let csr = CsrMdp::from(&m);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let jacobi = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .horizon(budget)
                .with_policy()
                .solver(Solver::Jacobi)
                .run()
                .unwrap();
            let auto = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .horizon(budget)
                .with_policy()
                .run()
                .unwrap();
            prop_assert_eq!(jacobi.solver, Solver::Jacobi);
            prop_assert_eq!(auto.solver, Solver::SccOrdered);
            assert_bitwise(&jacobi.values, &auto.values, "unpinned horizon");
            prop_assert_eq!(jacobi.policy.unwrap().decision, auto.policy.unwrap().decision);
        }
    }

    /// Models with nontrivial SCCs: solvers agree within 1e-10 on
    /// reachability and on expected cost (infinities must coincide).
    #[test]
    fn scc_agrees_within_tolerance_on_cyclic_models(m in random_cyclic()) {
        let target = target_last(&m);
        let csr = CsrMdp::from(&m);
        let opts = IterOptions::default();
        for objective in [QueryObjective::MinProb, QueryObjective::MaxProb] {
            let jacobi = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .options(opts)
                .solver(Solver::Jacobi)
                .run()
                .unwrap();
            let scc = Query::csr(&csr)
                .objective(objective)
                .target(&target)
                .options(opts)
                .solver(Solver::SccOrdered)
                .run()
                .unwrap();
            assert_close(&jacobi.values, &scc.values, 1e-10, "cyclic reach");
        }
        let jacobi = Query::csr(&csr)
            .objective(QueryObjective::MaxCost)
            .target(&target)
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        let scc = Query::csr(&csr)
            .objective(QueryObjective::MaxCost)
            .target(&target)
            .solver(Solver::SccOrdered)
            .run()
            .unwrap();
        assert_close(&jacobi.values, &scc.values, 1e-7, "cyclic expected cost");
    }

    /// The SCC-ordered solver follows the block count, not the model's
    /// type: over a single-block source that is not a `CsrMdp`, pinned and
    /// unpinned queries of every objective answer as the in-core model
    /// does, bit for bit, with the same work counters.
    #[test]
    fn single_block_sources_route_and_answer_like_in_core(m in random_cyclic(), budget in 0u32..5) {
        let target = target_last(&m);
        let csr = CsrMdp::from(&m);
        let one = Blocked::split(&csr, 1);
        let queries = [
            (QueryObjective::MinProb, Some(budget)),
            (QueryObjective::MaxProb, Some(budget)),
            (QueryObjective::MinProb, None),
            (QueryObjective::MaxProb, None),
            (QueryObjective::MinCost, None),
            (QueryObjective::MaxCost, None),
        ];
        for (objective, horizon) in queries {
            for solver in [None, Some(Solver::SccOrdered)] {
                let run = |q: Query<'_>| {
                    let q = q.objective(objective).target(&target);
                    let q = match horizon {
                        Some(b) => q.horizon(b),
                        None => q,
                    };
                    match solver {
                        Some(solver) => q.solver(solver),
                        None => q,
                    }
                    .run()
                };
                let tag = format!("{objective:?} {horizon:?} {solver:?}");
                match (run(Query::csr(&csr)), run(Query::source(&one))) {
                    (Ok(a), Ok(b)) => {
                        assert_bitwise(&a.values, &b.values, &tag);
                        prop_assert_eq!(a.solver, b.solver);
                        prop_assert_eq!(a.stats, b.stats);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false, "{}: {:?} vs {:?}", tag, a.is_ok(), b.is_ok()),
                }
            }
        }
    }

    /// The condensation's solve-order invariant on arbitrary models: every
    /// cross-component edge points to an already-solved component, and the
    /// component arrays partition the state space.
    #[test]
    fn condensation_is_reverse_topological(m in random_cyclic()) {
        let csr = CsrMdp::from_explicit(&m);
        let scc = csr.scc();
        let mut seen = vec![false; csr.num_states()];
        for c in 0..scc.num_components() {
            for &s in scc.component(c) {
                prop_assert!(!seen[s as usize]);
                seen[s as usize] = true;
                prop_assert_eq!(scc.component_of(s as usize), c);
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
        let rows = csr.rows();
        for s in rows.states() {
            for c in rows.choice_range(s) {
                for i in rows.trans_range(c) {
                    let (t, p) = (rows.targets[i] as usize, rows.probs[i]);
                    if p > 0.0 && scc.component_of(t) != scc.component_of(s) {
                        prop_assert!(scc.component_of(t) < scc.component_of(s));
                    }
                }
            }
        }
    }

    /// A Jacobi-pinned `Query` reproduces the nested-model oracles bitwise
    /// on arbitrary cyclic models — the exact contract the removed
    /// pre-`Query` wrappers used to pin, now stated directly against the
    /// builder. Policy extraction must not perturb the values.
    #[test]
    fn jacobi_query_matches_oracles_bitwise(m in random_cyclic(), budget in 0u32..5) {
        let target = target_last(&m);
        let csr = CsrMdp::from(&m);
        let opts = IterOptions::default();

        let bounded = Query::csr(&csr)
            .objective(QueryObjective::MinProb)
            .target(&target)
            .horizon(budget)
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        let oracle =
            reference::cost_bounded_reach_jacobi(&m, &target, budget, Objective::MinProb).unwrap();
        assert_bitwise(&bounded.values, &oracle, "bounded reach vs oracle");

        let unbounded = Query::csr(&csr)
            .objective(QueryObjective::MaxProb)
            .target(&target)
            .options(opts)
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        let oracle = reference::reach_prob_jacobi(&m, &target, Objective::MaxProb, opts).unwrap();
        assert_bitwise(&unbounded.values, &oracle, "unbounded reach vs oracle");

        let cost = Query::csr(&csr)
            .objective(QueryObjective::MaxCost)
            .target(&target)
            .options(opts)
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        let oracle = reference::max_expected_cost_jacobi(&m, &target, opts).unwrap();
        assert_bitwise(&cost.values, &oracle, "max expected cost vs oracle");

        let with_policy = Query::csr(&csr)
            .objective(QueryObjective::MaxProb)
            .target(&target)
            .horizon(budget)
            .with_policy()
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        let plain = Query::csr(&csr)
            .objective(QueryObjective::MaxProb)
            .target(&target)
            .horizon(budget)
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        assert_bitwise(&with_policy.values, &plain.values, "policy extraction");
        prop_assert!(with_policy.policy.is_some());
    }
}

/// A layered round model in the shape of the Lehmann–Rabin round MDPs:
/// `levels` rounds, each with `width` intra-round states chained by
/// zero-cost steps, a probabilistic cost-1 round boundary that advances or
/// repeats the round, and a final target state.
fn layered_rounds(levels: usize, width: usize) -> ExplicitMdp {
    let id = |l: usize, w: usize| l * width + w;
    let n = levels * width + 1;
    let mut choices = vec![Vec::new(); n];
    for l in 0..levels {
        for w in 0..width - 1 {
            choices[id(l, w)].push(Choice::to(0, id(l, w + 1)));
        }
        let next = if l + 1 == levels { n - 1 } else { id(l + 1, 0) };
        // Round boundary: advance with 1/2, repeat the round otherwise.
        choices[id(l, width - 1)].push(Choice::dist(1, vec![(next, 0.5), (id(l, 0), 0.5)]));
    }
    ExplicitMdp::new(choices, vec![0]).expect("valid layered model")
}

#[test]
fn scc_saves_state_updates_on_layered_round_models() {
    let m = layered_rounds(12, 6);
    let target = target_last(&m);
    let csr = CsrMdp::from(&m);
    let jacobi = Query::csr(&csr)
        .objective(QueryObjective::MaxProb)
        .target(&target)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();
    let scc = Query::csr(&csr)
        .objective(QueryObjective::MaxProb)
        .target(&target)
        .solver(Solver::SccOrdered)
        .run()
        .unwrap();
    assert_close(&jacobi.values, &scc.values, 1e-10, "layered reach");
    assert!(scc.stats.components > 0, "condensation recorded");
    assert!(
        scc.stats.state_updates < jacobi.stats.state_updates,
        "SCC ordering must perform strictly fewer updates: {} vs {}",
        scc.stats.state_updates,
        jacobi.stats.state_updates
    );
}

#[test]
fn scc_horizon_reuses_one_condensation_across_levels() {
    let m = layered_rounds(6, 4);
    let target = target_last(&m);
    let csr = CsrMdp::from(&m);
    let a = Query::csr(&csr)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .horizon(20)
        .solver(Solver::SccOrdered)
        .run()
        .unwrap();
    let b = Query::csr(&csr)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .horizon(20)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();
    // Zero-cost subgraph of a round model is acyclic: bitwise agreement.
    assert_bitwise(&b.values, &a.values, "layered horizon");
    assert_eq!(
        a.stats.nontrivial_components, 0,
        "round models are zero-cost acyclic"
    );
    assert!(a.stats.state_updates < b.stats.state_updates);
}

/// A zero-cost cycle `0 ⇄ 1` with a cost-1 exit to the target `2`.
fn zero_cost_cycle() -> ExplicitMdp {
    ExplicitMdp::new(
        vec![
            vec![Choice::to(0, 1)],
            vec![Choice::to(0, 0), Choice::dist(1, vec![(2, 0.5), (0, 0.5)])],
            vec![],
        ],
        vec![0],
    )
    .expect("valid cyclic model")
}

#[test]
fn unpinned_horizon_falls_back_to_jacobi_on_a_zero_cost_cycle() {
    let m = zero_cost_cycle();
    let target = target_last(&m);
    let csr = CsrMdp::from(&m);
    let auto = Query::csr(&csr)
        .objective(QueryObjective::MaxProb)
        .target(&target)
        .horizon(4)
        .run()
        .unwrap();
    let jacobi = Query::csr(&csr)
        .objective(QueryObjective::MaxProb)
        .target(&target)
        .horizon(4)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();
    assert_eq!(auto.solver, Solver::Jacobi);
    assert_eq!(auto.stats.components, 0, "no condensation was used");
    assert_bitwise(&jacobi.values, &auto.values, "cyclic horizon");
    assert!(auto.values[0] > 0.0);
}

#[test]
fn unpinned_unbounded_queries_run_jacobi_and_stored_bounded_ones_one_pass_per_level() {
    let m = layered_rounds(4, 3);
    let target = target_last(&m);
    let csr = CsrMdp::from(&m);
    let unbounded = Query::csr(&csr)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .run()
        .unwrap();
    assert_eq!(unbounded.solver, Solver::Jacobi);

    // Over a multi-block source, the round model's forward zero-cost
    // edges send the bounded query to the reverse level pass: one sweep
    // per level, SCC-ordered reported, values bitwise equal to the in-core
    // Jacobi kernels.
    let blocked = Blocked::split(&csr, 2);
    let source = Query::source(&blocked)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .horizon(5)
        .run()
        .expect("multi-block sources accept unpinned bounded queries");
    assert_eq!(source.solver, Solver::SccOrdered);
    assert_eq!(source.stats.sweeps, 6);
    let jacobi = Query::csr(&csr)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .horizon(5)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();
    assert_bitwise(&jacobi.values, &source.values, "stored horizon");

    // A single-block source routes like the in-core model: the zero-cost
    // condensation, no sweeps at all on an acyclic one.
    let one = Blocked::split(&csr, 1);
    let in_core = Query::csr(&csr)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .horizon(5)
        .run()
        .unwrap();
    let single = Query::source(&one)
        .objective(QueryObjective::MinProb)
        .target(&target)
        .horizon(5)
        .run()
        .unwrap();
    assert_eq!(single.solver, Solver::SccOrdered);
    assert_eq!(single.stats, in_core.stats);
    assert_eq!(single.stats.sweeps, 0);
    assert_bitwise(&jacobi.values, &single.values, "single-block horizon");
}
