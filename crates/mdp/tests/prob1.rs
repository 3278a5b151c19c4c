//! Property tests of the qualitative almost-sure reachability sets
//! (`prob1`) behind every expected-cost [`Query`].
//!
//! A single-block source grows each inner least fixpoint as a worklist
//! along predecessor lists; a multi-block source rescans its blocks. Both
//! must give the set of the textbook nested fixpoint
//! `νZ. μY. { s | s ∈ T ∨ Q a: succ(a) ⊆ Z ∧ succ(a) ∩ Y ≠ ∅ }`, computed
//! here naively over the rows. The set is read off an expected-cost
//! query: the target and the states in the set get a finite value, every
//! other state `∞`. `MaxCost` reads `prob1` under `MinProb` (`Q = ∀`);
//! `MinCost` reads it under `MaxProb` (`Q = ∃`) on a copy of the model
//! with every cost 1, since `prob1` ignores costs and a minimizing query
//! refuses zero-cost cycles.
//!
//! The random models mix terminal sinks, self-loops, zero-probability
//! transitions (into the target too, where they must not count as
//! progress) and repeated successors.

mod common;

use common::Blocked;
use pa_mdp::{
    Analysis, Choice, CsrMdp, CsrRows, ExplicitMdp, IterOptions, Objective, Query, QueryObjective,
    Solver,
};
use proptest::prelude::*;

/// Strategy: a random MDP over 2 to 16 states and a random target mask
/// (about one state in four, possibly none).
fn model_and_target() -> impl Strategy<Value = (ExplicitMdp, Vec<bool>)> {
    (2usize..17, any::<u64>()).prop_map(|(n, seed)| {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let choices: Vec<Vec<Choice>> = (0..n)
            .map(|s| {
                // 0 to 3 choices: about one state in four is a sink.
                (0..next() % 4)
                    .map(|_| {
                        let cost = (next() % 2) as u32;
                        let (a, b, c) = (next() % n, next() % n, next() % n);
                        let transitions = match next() % 6 {
                            0 => vec![(a, 1.0)],
                            1 => vec![(s, 0.5), (a, 0.5)],
                            2 => vec![(a, 0.0), (b, 1.0)],
                            3 => vec![(a, 0.25), (b, 0.0), (c, 0.75)],
                            4 => vec![(s, 1.0)],
                            _ => vec![(a, 0.5), (a, 0.25), (s, 0.25)],
                        };
                        Choice { cost, transitions }
                    })
                    .collect()
            })
            .collect();
        let target = (0..n).map(|_| next() % 4 == 0).collect();
        (
            ExplicitMdp::new(choices, vec![0]).expect("valid random model"),
            target,
        )
    })
}

/// The nested fixpoint, recomputed from scratch in every round: the
/// reference both engines must meet.
fn nested_fixpoint(rows: &CsrRows<'_>, target: &[bool], objective: Objective) -> Vec<bool> {
    let n = target.len();
    let choice_ok = |c: usize, z: &[bool], y: &[bool]| {
        let positive: Vec<usize> = rows
            .trans_range(c)
            .filter(|&i| rows.prob(i) > 0.0)
            .map(|i| rows.targets[i] as usize)
            .collect();
        positive.iter().all(|&t| z[t]) && positive.iter().any(|&t| y[t])
    };
    let mut z = vec![true; n];
    loop {
        let mut y = target.to_vec();
        loop {
            let next: Vec<bool> = (0..n)
                .map(|s| {
                    y[s] || z[s]
                        && !rows.is_terminal(s)
                        && match objective {
                            Objective::MinProb => {
                                rows.choice_range(s).all(|c| choice_ok(c, &z, &y))
                            }
                            Objective::MaxProb => {
                                rows.choice_range(s).any(|c| choice_ok(c, &z, &y))
                            }
                        }
                })
                .collect();
            if next == y {
                break;
            }
            y = next;
        }
        if y == z {
            return y;
        }
        z = y;
    }
}

/// The expected-cost query whose live set is `prob1` under `objective`.
fn expected(query: Query<'_>, target: &[bool], objective: Objective) -> Analysis {
    let direction = match objective {
        Objective::MinProb => QueryObjective::MaxCost,
        Objective::MaxProb => QueryObjective::MinCost,
    };
    query
        .objective(direction)
        .target(target)
        .solver(Solver::Jacobi)
        .options(IterOptions {
            epsilon: 1e-9,
            max_sweeps: 200,
        })
        .run()
        .expect("an expected-cost query on a valid model")
}

fn finite(analysis: &Analysis) -> Vec<bool> {
    analysis.values.iter().map(|v| v.is_finite()).collect()
}

fn bits(analysis: &Analysis) -> Vec<u64> {
    analysis.values.iter().map(|v| v.to_bits()).collect()
}

/// `m` with every cost 1: the same graph without zero-cost cycles.
fn unit_costs(m: &ExplicitMdp) -> ExplicitMdp {
    let rows = (0..m.num_states())
        .map(|s| {
            m.choices(s)
                .iter()
                .map(|c| Choice {
                    cost: 1,
                    transitions: c.transitions.clone(),
                })
                .collect()
        })
        .collect();
    ExplicitMdp::new(rows, vec![0]).expect("same rows, other costs")
}

/// Both objectives: the single-block worklist, the multi-block rescans
/// (2, 3 and 5 blocks) and the naive nested fixpoint give one set, and
/// the expected costs built on it agree bitwise across block structures.
fn assert_prob1_agrees(m: &ExplicitMdp, target: &[bool]) {
    for objective in [Objective::MinProb, Objective::MaxProb] {
        let model = match objective {
            Objective::MinProb => m.clone(),
            Objective::MaxProb => unit_costs(m),
        };
        let csr = CsrMdp::from(&model);
        let reference = nested_fixpoint(&csr.rows(), target, objective);
        let single = expected(Query::csr(&csr), target, objective);
        assert_eq!(&finite(&single), &reference, "{:?} single block", objective);
        for k in [2, 3, 5] {
            let blocked = Blocked::split(&csr, k);
            let split = expected(Query::source(&blocked), target, objective);
            assert_eq!(&finite(&split), &reference, "{:?} {} blocks", objective, k);
            assert_eq!(bits(&split), bits(&single), "{:?} {} blocks", objective, k);
            assert_eq!(split.stats.sweeps, single.stats.sweeps);
        }
    }
}

proptest! {
    #[test]
    fn worklist_equals_the_nested_fixpoint((m, target) in model_and_target()) {
        assert_prob1_agrees(&m, &target);
    }
}

/// A self-loop whose only way into the target is a zero-probability
/// transition makes no progress, under either quantifier, though it never
/// leaves `Z`; the stochastic self-loop beside it does progress.
#[test]
fn zero_probability_edges_into_the_target_are_no_progress() {
    let m = ExplicitMdp::new(
        vec![
            vec![Choice::dist(0, vec![(2, 0.0), (0, 1.0)])],
            vec![Choice::to(1, 1)],
            vec![],
            vec![Choice::dist(1, vec![(3, 0.5), (2, 0.5)])],
        ],
        vec![0],
    )
    .unwrap();
    let target = [false, false, true, false];
    let csr = CsrMdp::from(&m);
    for objective in [Objective::MinProb, Objective::MaxProb] {
        assert_eq!(
            nested_fixpoint(&csr.rows(), &target, objective),
            [false, false, true, true]
        );
    }
    assert_prob1_agrees(&m, &target);
}
