//! Differential tests of the cone restriction ([`Query::cone`]).
//!
//! Random layered MDPs with dyadic probabilities, whose zero-cost edges
//! all go to later layers, get a random start subset and a random target
//! set whose states keep their outgoing choices. On every state of the
//! cone — reachable from the starts without passing a target — a cone
//! solve must equal the whole-model solve bitwise, values and policy,
//! pinned to Jacobi, pinned to SCC and routed automatically. Outside the
//! cone it reports `NaN` and `None`. The cone solve must also be the solve
//! of the arrow model built independently: the cone's states in search
//! order with every target absorbing, giving the same values, solver and
//! work counters. A multi-block source ignores the cone, and the settings
//! a cone cannot serve fail at `"validate"`.

mod common;

use common::Blocked;
use pa_mdp::{
    Analysis, Choice, CsrMdp, ExplicitMdp, MdpError, Objective, Query, QueryObjective, Solver,
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

/// A random layered model, target mask and start list: `layers × width`
/// states; each state, targets included, has up to three choices of one
/// to three transitions weighted 1/2, 1/4, …, the last transition taking
/// the rest. A zero-cost choice moves to a later layer, so the last layer
/// has cost-1 choices only. About one state in five is a target, and
/// each state starts with probability `1/starts_every` (at least one
/// does), in a shuffled order.
fn random_layered() -> impl Strategy<Value = (Vec<Vec<Choice>>, Vec<bool>, Vec<usize>)> {
    (2usize..6, 4usize..40, 1usize..12, any::<u64>()).prop_map(
        |(layers, width, starts_every, seed)| {
            let mut next = lcg(seed);
            let n = layers * width;
            let rows = (0..n)
                .map(|s| {
                    let later = (s / width + 1) * width;
                    (0..next() % 4)
                        .map(|_| {
                            let cost = if later == n { 1 } else { (next() % 2) as u32 };
                            let k = 1 + next() % 3;
                            let transitions = (0..k)
                                .map(|i| {
                                    let t = if cost == 0 {
                                        later + next() % (n - later)
                                    } else {
                                        next() % n
                                    };
                                    (t, 0.5f64.powi((i + 1).min(k - 1) as i32))
                                })
                                .collect();
                            Choice { cost, transitions }
                        })
                        .collect()
                })
                .collect();
            let target = (0..n).map(|_| next().is_multiple_of(5)).collect();
            let mut starts: Vec<usize> = (0..n)
                .filter(|_| next().is_multiple_of(starts_every))
                .collect();
            if starts.is_empty() {
                starts.push(next() % n);
            }
            for i in (1..starts.len()).rev() {
                starts.swap(i, next() % (i + 1));
            }
            (rows, target, starts)
        },
    )
}

/// The cone of `starts` in search order: a breadth-first search that
/// does not expand targets, written apart from the library's.
fn cone_order(rows: &[Vec<Choice>], target: &[bool], starts: &[usize]) -> Vec<usize> {
    let mut seen = vec![false; rows.len()];
    let mut order = Vec::new();
    for &s in starts {
        if !seen[s] {
            seen[s] = true;
            order.push(s);
        }
    }
    let mut head = 0;
    while head < order.len() {
        let s = order[head];
        head += 1;
        if target[s] {
            continue;
        }
        for choice in &rows[s] {
            for &(t, _) in &choice.transitions {
                if !seen[t] {
                    seen[t] = true;
                    order.push(t);
                }
            }
        }
    }
    order
}

/// The arrow model of the cone `order`: its states renumbered in search
/// order, each target absorbing, and the target mask in that numbering.
fn arrow_model(rows: &[Vec<Choice>], target: &[bool], order: &[usize]) -> (CsrMdp, Vec<bool>) {
    let mut id = vec![usize::MAX; rows.len()];
    for (new, &old) in order.iter().enumerate() {
        id[old] = new;
    }
    let choices = order
        .iter()
        .map(|&s| {
            if target[s] {
                return Vec::new();
            }
            rows[s]
                .iter()
                .map(|c| Choice {
                    cost: c.cost,
                    transitions: c.transitions.iter().map(|&(t, p)| (id[t], p)).collect(),
                })
                .collect()
        })
        .collect();
    let mdp = ExplicitMdp::new(choices, vec![0]).unwrap();
    let mask = order.iter().map(|&s| target[s]).collect();
    (CsrMdp::from(&mdp), mask)
}

/// A bounded query with policy extraction, optionally pinned.
fn bounded<'m>(
    q: Query<'m>,
    objective: Objective,
    target: &[bool],
    budget: u32,
    pinned: Option<Solver>,
) -> Query<'m> {
    let q = q
        .objective(objective)
        .target(target)
        .horizon(budget)
        .with_policy();
    match pinned {
        Some(solver) => q.solver(solver),
        None => q,
    }
}

fn decision(a: &Analysis, level: usize, s: usize) -> Option<u32> {
    a.policy.as_ref().unwrap().decision[level][s]
}

proptest! {
    #[test]
    fn cone_solves_equal_the_whole_model_and_the_arrow_model_bitwise(
        (rows, target, starts) in random_layered(),
        budget in 0u32..6,
    ) {
        let csr = CsrMdp::from(&ExplicitMdp::new(rows.clone(), vec![0]).unwrap());
        let order = cone_order(&rows, &target, &starts);
        let mut in_cone = vec![false; rows.len()];
        for &s in &order {
            in_cone[s] = true;
        }
        let (arrow, arrow_target) = arrow_model(&rows, &target, &order);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            for pinned in [Some(Solver::Jacobi), Some(Solver::SccOrdered), None] {
                let tag = format!("{objective:?} {pinned:?} budget {budget}");
                let whole = bounded(Query::csr(&csr), objective, &target, budget, pinned)
                    .run()
                    .unwrap();
                let cone = bounded(Query::csr(&csr), objective, &target, budget, pinned)
                    .cone(&starts)
                    .run()
                    .unwrap();
                let own = bounded(Query::csr(&arrow), objective, &arrow_target, budget, pinned)
                    .run()
                    .unwrap();
                if let Some(solver) = pinned {
                    prop_assert_eq!(cone.solver, solver, "{}", tag);
                }
                prop_assert_eq!(cone.solver, own.solver, "{}", tag);
                prop_assert_eq!(cone.stats, own.stats, "{}", tag);
                if pinned == Some(Solver::Jacobi) {
                    prop_assert!(cone.stats.sweeps <= whole.stats.sweeps, "{}", tag);
                }
                for (s, &inside) in in_cone.iter().enumerate() {
                    if inside {
                        prop_assert_eq!(
                            cone.values[s].to_bits(),
                            whole.values[s].to_bits(),
                            "{}: state {}",
                            tag,
                            s
                        );
                    } else {
                        prop_assert!(cone.values[s].is_nan(), "{}: state {} outside", tag, s);
                    }
                }
                for (new, &s) in order.iter().enumerate() {
                    prop_assert_eq!(own.values[new].to_bits(), cone.values[s].to_bits(), "{}", tag);
                }
                for level in 0..=budget as usize {
                    for (s, &inside) in in_cone.iter().enumerate() {
                        let want = if inside { decision(&whole, level, s) } else { None };
                        prop_assert_eq!(decision(&cone, level, s), want, "{}: state {}", tag, s);
                    }
                    for (new, &s) in order.iter().enumerate() {
                        prop_assert_eq!(decision(&own, level, new), decision(&cone, level, s));
                    }
                }
                prop_assert_eq!(cone.worst_over(&starts), whole.worst_over(&starts), "{}", tag);
            }
        }
    }

    #[test]
    fn multi_block_sources_ignore_the_cone(
        (rows, target, starts) in random_layered(),
        budget in 0u32..5,
        blocks in 2usize..6,
    ) {
        let csr = CsrMdp::from(&ExplicitMdp::new(rows, vec![0]).unwrap());
        let blocked = Blocked::split(&csr, blocks);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            for pinned in [Some(Solver::Jacobi), None] {
                let plain = bounded(Query::source(&blocked), objective, &target, budget, pinned)
                    .run()
                    .unwrap();
                let cone = bounded(Query::source(&blocked), objective, &target, budget, pinned)
                    .cone(&starts)
                    .run()
                    .unwrap();
                let bits = |a: &Analysis| a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&cone), bits(&plain));
                prop_assert_eq!(&cone.policy.unwrap().decision, &plain.policy.unwrap().decision);
                prop_assert_eq!(cone.stats, plain.stats);
                prop_assert_eq!(cone.solver, plain.solver);
            }
        }
    }
}

/// 0 —0→ 1 —1→ {2, 3} half each, 2 the target with a row back to 0, and
/// 4, reachable only from the target, feeding 2.
fn small() -> CsrMdp {
    CsrMdp::from(
        &ExplicitMdp::new(
            vec![
                vec![Choice::to(0, 1)],
                vec![Choice::dist(1, vec![(2, 0.5), (3, 0.5)])],
                vec![Choice::to(1, 0), Choice::to(0, 4)],
                vec![],
                vec![Choice::to(1, 2)],
            ],
            vec![0],
        )
        .unwrap(),
    )
}

#[test]
fn a_cone_stops_at_targets_and_counts_only_its_states() {
    let m = small();
    let target = [false, false, true, false, false];
    let a = Query::csr(&m)
        .target(&target)
        .horizon(2)
        .solver(Solver::Jacobi)
        .cone(&[0])
        .run()
        .unwrap();
    assert_eq!(a.values[..4], [0.5, 0.5, 1.0, 0.0]);
    assert!(a.values[4].is_nan(), "4 lies beyond the target");
    // Per level: one Jacobi sweep per zero-cost step plus the settling
    // sweep. Of the four cone states only 0 and 1 are computed (2 is the
    // target, 3 terminal): both in a level's first sweep, then only a
    // state a successor of which changed in the sweep before. Level 0
    // settles at once (2 updates); levels 1 and 2 move 1 in sweep 1 (2
    // updates), then 0 in sweep 2 (its predecessor 0: 1), then settle (0
    // has no predecessor in the cone: 0).
    assert_eq!((a.stats.sweeps, a.stats.state_updates), (7, 8));
    assert_eq!(a.worst_over(&[1, 0]).unwrap(), Some((1, 0.5)));
    assert_eq!(a.worst_over(&[0, 4]), Err(MdpError::Unsolved { state: 4 }));
    let empty = Query::csr(&m)
        .target(&target)
        .horizon(2)
        .cone(&[])
        .run()
        .unwrap();
    assert!(empty.values.iter().all(|v| v.is_nan()));
    assert_eq!(empty.stats.state_updates, 0);
}

#[test]
fn a_cone_over_every_state_solves_in_place() {
    let m = small();
    let target = [false, false, true, false, false];
    let whole = Query::csr(&m).target(&target).horizon(3).run().unwrap();
    let cone = Query::csr(&m)
        .target(&target)
        .horizon(3)
        .cone(&[4, 0])
        .run()
        .unwrap();
    assert_eq!(cone.values, whole.values);
    assert_eq!(cone.stats, whole.stats);
    assert_eq!(cone.solver, whole.solver);
}

#[test]
fn settings_a_cone_cannot_serve_fail_at_validate() {
    let m = small();
    let target = [false, false, true, false, false];
    let unbounded = Query::csr(&m).target(&target).cone(&[0]).run().unwrap_err();
    let cost = Query::csr(&m)
        .objective(QueryObjective::MaxCost)
        .target(&target)
        .cone(&[0])
        .run()
        .unwrap_err();
    for err in [unbounded, cost] {
        assert!(
            matches!(
                err,
                MdpError::Query {
                    stage: "validate",
                    ..
                }
            ),
            "{err}"
        );
        assert!(matches!(err.into_root(), MdpError::InvalidQuery { .. }));
    }
    let out_of_range = Query::csr(&m)
        .target(&target)
        .horizon(1)
        .cone(&[0, 5])
        .run()
        .unwrap_err();
    assert!(matches!(
        out_of_range,
        MdpError::Query {
            stage: "validate",
            ..
        }
    ));
    assert_eq!(
        out_of_range.into_root(),
        MdpError::BadStateIndex {
            index: 5,
            num_states: 5
        }
    );
}
