//! Differential property test of the one-pass-per-level bounded solve.
//!
//! Random layered MDPs with dyadic probabilities, whose zero-cost edges
//! all go to higher state ids (cost-1 edges go anywhere), are spilled at a
//! random block size and queried through `Query::source` at an unbounded
//! and a one-byte cache budget. For budgets 0..=6 and both probability
//! objectives, the stored answer and policy, and every budget level the
//! stored query reports through `Query::on_level`, must be bitwise equal
//! to the in-core Jacobi and SCC-ordered solvers. One injected backward zero-cost
//! edge must send a multi-block stored query back to Jacobi, still bitwise
//! equal; a spill that fits in one block routes like the in-core model.

mod common;

use proptest::prelude::*;

use common::write_store;
use pa_mdp::{Analysis, Choice, CsrMdp, CsrSource, ExplicitMdp, Objective, Query, Solver};
use pa_store::StoredCsr;

fn lcg(seed: u64) -> impl FnMut() -> usize {
    let mut x = seed;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    }
}

/// A random layered model and target mask: `layers × width` states; each
/// state has up to three choices of one to three transitions weighted
/// 1/2, 1/4, …, the last transition taking the rest. A zero-cost choice
/// moves to a later layer, so the last layer has cost-1 choices only.
/// About one state in five is a target.
fn random_layered() -> impl Strategy<Value = (Vec<Vec<Choice>>, Vec<bool>)> {
    (2usize..6, 16usize..160, any::<u64>()).prop_map(|(layers, width, seed)| {
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
        (rows, target)
    })
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pa-store-level-pass-{}-{tag}", std::process::id()))
}

fn assert_same(tag: &str, want: &Analysis, got: &Analysis) {
    for (s, (a, b)) in want.values.iter().zip(&got.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag}: state {s}: {a} vs {b}");
    }
    assert_eq!(
        want.policy.as_ref().map(|p| &p.decision),
        got.policy.as_ref().map(|p| &p.decision),
        "{tag}: policy"
    );
}

/// A bounded query with policy extraction.
fn bounded<'m>(q: Query<'m>, objective: Objective, target: &[bool], budget: u32) -> Query<'m> {
    q.objective(objective)
        .target(target)
        .horizon(budget)
        .with_policy()
}

/// Queries `rows` in core and spilled at `block_bytes`; the stored query
/// must report `expect` as its solver (or, when the spill is one block,
/// the in-core query's) and match in-core Jacobi bitwise, level by level
/// (and in-core SCC-ordered, when `expect` is the SCC-ordered route).
fn check(rows: &[Vec<Choice>], target: &[bool], block_bytes: usize, expect: Solver) {
    let csr = CsrMdp::from_explicit(&ExplicitMdp::new(rows.to_vec(), vec![0]).unwrap());
    let dir = tmpdir(&format!("{expect:?}"));
    let path = write_store(&dir, rows, block_bytes).path().to_path_buf();
    let stores = [u64::MAX, 1].map(|budget| StoredCsr::open(&path, budget).unwrap());
    for objective in [Objective::MinProb, Objective::MaxProb] {
        for budget in 0..=6 {
            let tag = format!("{objective:?} budget {budget}");
            let mut jacobi_levels = Vec::new();
            let jacobi = bounded(Query::csr(&csr), objective, target, budget)
                .solver(Solver::Jacobi)
                .on_level(|_, v| jacobi_levels.push(v.to_vec()))
                .run()
                .unwrap();
            assert_eq!(jacobi_levels.len(), budget as usize + 1, "{tag}: levels");
            assert_eq!(
                jacobi_levels[budget as usize], jacobi.values,
                "{tag}: last level"
            );
            if expect == Solver::SccOrdered {
                let scc = bounded(Query::csr(&csr), objective, target, budget)
                    .solver(Solver::SccOrdered)
                    .run()
                    .unwrap();
                assert_same(&format!("{tag}, in-core scc"), &jacobi, &scc);
            }
            let in_core = bounded(Query::csr(&csr), objective, target, budget)
                .run()
                .unwrap();
            for store in &stores {
                let mut levels = Vec::new();
                let got = bounded(Query::source(store), objective, target, budget)
                    .on_level(|k, v| levels.push((k, v.to_vec())))
                    .run()
                    .unwrap();
                let tag = format!("{tag}, cache budget {}", store.cache().budget());
                assert_eq!(levels.len(), jacobi_levels.len(), "{tag}: levels");
                for (k, ((level, got), want)) in levels.iter().zip(&jacobi_levels).enumerate() {
                    assert_eq!(*level as usize, k, "{tag}: level order");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "{tag}: level {k}");
                }
                let expect = if store.num_blocks() == 1 {
                    in_core.solver
                } else {
                    expect
                };
                assert_eq!(got.solver, expect, "{tag}: solver");
                assert_same(&tag, &jacobi, &got);
            }
        }
    }
    drop(stores);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #[test]
    fn stored_level_pass_matches_in_core_solvers(
        (rows, target) in random_layered(),
        block_bytes in 4096usize..12288,
        pick in any::<u64>(),
    ) {
        check(&rows, &target, block_bytes, Solver::SccOrdered);

        // A zero-cost edge from a non-target state to a non-target state
        // with an id no higher (possibly itself).
        let open: Vec<usize> = (0..rows.len()).filter(|&s| !target[s]).collect();
        prop_assume!(!open.is_empty());
        let from = (pick % open.len() as u64) as usize;
        let to = ((pick >> 32) % (from as u64 + 1)) as usize;
        let mut backward = rows.clone();
        backward[open[from]].push(Choice::to(0, open[to]));
        check(&backward, &target, block_bytes, Solver::Jacobi);
    }
}
