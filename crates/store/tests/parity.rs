//! The tentpole correctness gate: every analysis on a stored backend must
//! be **bitwise identical** to the in-core pipeline — for any cache
//! budget, down to a single resident block.
//!
//! Models are the real paper models at `n = 3` (the release-mode bench
//! `store` block re-pins the same contract at `n = 4`): all five arrow
//! checks on the round model, the expected-time bracket, a fault-plan
//! query on the faulty round model, and the rotation-quotient model with
//! packed keys.

use pa_faults::{
    faulty_round_cost, FaultEvent, FaultKind, FaultPlan, FaultyRoundMdp, FaultyStateCodec,
};
use pa_lehmann_rabin::{
    paper, reachable_configs, reachable_configs_quotient, region_pred, round_cost, set_pred,
    time_to_budget, Config, RoundConfig, RoundMdp, RoundState,
};
use pa_mdp::{
    csr_digest, BoxedSpace, CsrSource, Explore, MdpError, PackedSpace, Query, QueryObjective,
    RingRotation, Solver,
};
use pa_store::{SpillTo, StoredModel};

const N: usize = 3;
const LIMIT: usize = 2_000_000;

/// Cache budgets the whole suite quantifies over: effectively unbounded,
/// and 1 byte — which forces every block out as soon as it is unpinned,
/// so only the block being swept is ever resident.
const BUDGETS: [u64; 2] = [u64::MAX, 1];

/// Tiny blocks so even the n=3 models split into many of them.
const BLOCK_BYTES: usize = 4096;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pa-store-parity-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn round_model(from: &str, to_expr: &pa_core::SetExpr) -> RoundMdp {
    let from = region_pred(from).unwrap();
    let to = set_pred(to_expr).unwrap();
    let starts: Vec<Config> = reachable_configs(N, LIMIT)
        .unwrap()
        .into_iter()
        .filter(from)
        .collect();
    assert!(!starts.is_empty());
    RoundMdp::new(RoundConfig::new(N).unwrap())
        .with_starts(starts)
        .with_absorb(move |c| to(c))
}

fn assert_bitwise(tag: &str, in_core: &[f64], stored: &[f64]) {
    assert_eq!(in_core.len(), stored.len(), "{tag}: length");
    for (i, (a, b)) in in_core.iter().zip(stored).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{tag}: state {i} diverges ({a} vs {b})"
        );
    }
}

#[test]
fn all_five_arrows_are_bitwise_identical_for_any_budget() {
    for (arrow, name) in paper::all_arrows() {
        let atoms: Vec<&str> = arrow.from().atoms().collect();
        assert_eq!(atoms.len(), 1, "paper arrows start from a single region");
        let model = round_model(atoms[0], arrow.to());
        let to = set_pred(arrow.to()).unwrap();
        let budget = time_to_budget(arrow.time());

        let explored = Explore::new(&model)
            .cost(round_cost)
            .limit(LIMIT)
            .run()
            .unwrap();
        let target = explored.target_where(|rs| to(&rs.config));
        let in_core = explored
            .query()
            .objective(QueryObjective::MinProb)
            .target(target.clone())
            .horizon(budget)
            .solver(Solver::Jacobi)
            .run()
            .unwrap();
        let csr = pa_mdp::CsrMdp::from_explicit(&explored.mdp);
        let in_core_digest = csr_digest(&csr).unwrap();

        for cache_budget in BUDGETS {
            let dir = tmpdir(&format!("arrow-{name}-{cache_budget}"));
            let stored = Explore::new(&model)
                .cost(round_cost)
                .limit(LIMIT)
                .spill_to(&dir, cache_budget)
                .block_bytes(BLOCK_BYTES)
                .run()
                .unwrap();
            assert!(
                CsrSource::num_blocks(stored.store()) > 1,
                "{name}: model must split into multiple blocks for the test to bite"
            );
            assert_eq!(
                csr_digest(stored.store()).unwrap(),
                in_core_digest,
                "{name}: stored content digest"
            );
            let target2 = stored.target_where(|rs| to(&rs.config));
            assert_eq!(target, target2, "{name}: target mask");
            let analysis = stored
                .query()
                .objective(QueryObjective::MinProb)
                .target(target2)
                .horizon(budget)
                .run()
                .unwrap();
            assert_bitwise(name, &in_core.values, &analysis.values);
            if cache_budget == 1 {
                let stats = stored.store().cache().local_stats();
                assert!(stats.evictions > 0, "{name}: a 1-byte budget must evict");
                assert!(
                    stats.faults > stats.evictions,
                    "{name}: every eviction implies a refault later or earlier"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn expected_time_bracket_is_bitwise_identical() {
    let arrow = paper::arrow_g_to_p();
    let model = round_model("G", arrow.to());
    let to = set_pred(arrow.to()).unwrap();

    let explored = Explore::new(&model)
        .cost(round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let target = explored.target_where(|rs| to(&rs.config));
    let mut in_core = Vec::new();
    for objective in [QueryObjective::MaxCost, QueryObjective::MinCost] {
        in_core.push(
            explored
                .query()
                .objective(objective)
                .target(target.clone())
                .solver(Solver::Jacobi)
                .run()
                .unwrap()
                .values,
        );
    }

    for cache_budget in BUDGETS {
        let dir = tmpdir(&format!("bracket-{cache_budget}"));
        let stored = Explore::new(&model)
            .cost(round_cost)
            .limit(LIMIT)
            .spill_to(&dir, cache_budget)
            .block_bytes(BLOCK_BYTES)
            .run()
            .unwrap();
        let target2 = stored.target_where(|rs| to(&rs.config));
        for (i, objective) in [QueryObjective::MaxCost, QueryObjective::MinCost]
            .into_iter()
            .enumerate()
        {
            let analysis = stored
                .query()
                .objective(objective)
                .target(target2.clone())
                .run()
                .unwrap();
            assert_bitwise(
                &format!("bracket {objective:?}"),
                &in_core[i],
                &analysis.values,
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn fault_plan_query_is_bitwise_identical() {
    let configs = reachable_configs(N, LIMIT).unwrap();
    let cfg = RoundConfig::new(N).unwrap();
    let plan = FaultPlan::new(vec![FaultEvent {
        round: 2,
        process: 0,
        kind: FaultKind::CrashStop,
    }])
    .unwrap();
    let model = FaultyRoundMdp::new(cfg, plan)
        .unwrap()
        .with_starts(configs.clone());
    let in_p = region_pred("P").unwrap();

    let explored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let target = explored.target_where(|s| in_p(&s.inner.config));
    let in_core = explored
        .query()
        .objective(QueryObjective::MinProb)
        .target(target.clone())
        .horizon(8)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();

    for cache_budget in BUDGETS {
        let dir = tmpdir(&format!("faults-{cache_budget}"));
        let stored = Explore::new(&model)
            .cost(faulty_round_cost)
            .limit(LIMIT)
            .spill_to(&dir, cache_budget)
            .block_bytes(BLOCK_BYTES)
            .run()
            .unwrap();
        let target2 = stored.target_where(|s| in_p(&s.inner.config));
        assert_eq!(target, target2);
        let analysis = stored
            .query()
            .objective(QueryObjective::MinProb)
            .target(target2)
            .horizon(8)
            .run()
            .unwrap();
        // The crash-stop round has zero-cost transitions back to lower
        // state ids: the stored query falls back to Jacobi.
        assert_eq!(analysis.solver, Solver::Jacobi);
        assert_bitwise("fault plan", &in_core.values, &analysis.values);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn quotient_model_with_packed_keys_round_trips_and_matches() {
    let configs = reachable_configs_quotient(N, LIMIT).unwrap();
    let cfg = RoundConfig::new(N).unwrap();
    let model = FaultyRoundMdp::new(cfg, FaultPlan::none())
        .unwrap()
        .with_starts(configs.clone());
    let codec = FaultyStateCodec::new(N, model.round_cap()).unwrap();
    let in_p = region_pred("P").unwrap();

    let explored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .symmetry(RingRotation::new(N))
        .run_in(PackedSpace::new(codec))
        .unwrap();
    let target = explored.target_where(|s| in_p(&s.inner.config));
    let in_core = explored
        .query()
        .objective(QueryObjective::MinProb)
        .target(target.clone())
        .horizon(6)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();

    for cache_budget in BUDGETS {
        let dir = tmpdir(&format!("quotient-{cache_budget}"));
        let codec = FaultyStateCodec::new(N, model.round_cap()).unwrap();
        let stored = Explore::new(&model)
            .cost(faulty_round_cost)
            .limit(LIMIT)
            .symmetry(RingRotation::new(N))
            .spill_to(&dir, cache_budget)
            .block_bytes(BLOCK_BYTES)
            .run_in(PackedSpace::new(codec))
            .unwrap();
        // The packed key words round-trip through the keys blocks.
        let on_disk = stored.store().file().read_keys().unwrap();
        let in_memory: Vec<u64> = stored
            .space()
            .words()
            .iter()
            .flat_map(|w| w.iter().copied())
            .collect();
        assert_eq!(on_disk, in_memory, "spilled keys are the interned words");
        let target2 = stored.target_where(|s| in_p(&s.inner.config));
        assert_eq!(target, target2);
        let analysis = stored
            .query()
            .objective(QueryObjective::MinProb)
            .target(target2)
            .horizon(6)
            .run()
            .unwrap();
        assert_bitwise("quotient", &in_core.values, &analysis.values);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Spills `model` (round-model costs, 4 KiB blocks) at an unbounded cache
/// budget into a fresh directory under `tag`.
fn spill_round(
    model: &RoundMdp,
    tag: &str,
) -> (
    std::path::PathBuf,
    StoredModel<RoundState, BoxedSpace<RoundState>>,
) {
    let dir = tmpdir(tag);
    let stored = Explore::new(model)
        .cost(round_cost)
        .limit(LIMIT)
        .spill_to(&dir, u64::MAX)
        .block_bytes(BLOCK_BYTES)
        .run()
        .unwrap();
    (dir, stored)
}

/// On `P —1→ C`, every zero-cost transition goes to a higher state id, so
/// a query pinned to the SCC-ordered solver runs the reverse level pass
/// over the stored rows, bitwise equal to both in-core solvers.
#[test]
fn pinned_scc_on_a_forward_only_stored_model_matches_in_core() {
    let arrow = paper::arrow_p_to_c();
    let model = round_model("P", arrow.to());
    let to = set_pred(arrow.to()).unwrap();
    let budget = 4;
    let explored = Explore::new(&model)
        .cost(round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let target = explored.target_where(|rs| to(&rs.config));
    let in_core = |solver| {
        explored
            .query()
            .objective(QueryObjective::MinProb)
            .target(target.clone())
            .horizon(budget)
            .solver(solver)
            .run()
            .unwrap()
    };
    let jacobi = in_core(Solver::Jacobi);
    let scc = in_core(Solver::SccOrdered);
    assert_bitwise("in-core scc", &jacobi.values, &scc.values);

    let (dir, stored) = spill_round(&model, "scc-forward");
    let analysis = stored
        .query()
        .objective(QueryObjective::MinProb)
        .target(stored.target_where(|rs| to(&rs.config)))
        .horizon(budget)
        .solver(Solver::SccOrdered)
        .run()
        .unwrap();
    assert_eq!(analysis.solver, Solver::SccOrdered);
    assert_eq!(analysis.stats.nontrivial_components, 0);
    assert_bitwise("stored scc", &jacobi.values, &analysis.values);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full-space `G —5→ P` model has zero-cost transitions back to lower
/// state ids, so no single reverse pass solves a level: a query pinned to
/// the SCC-ordered solver fails at the solve stage, while an unpinned one
/// falls back to Jacobi.
#[test]
fn pinned_scc_on_a_stored_model_with_backward_edges_fails_at_solve() {
    let arrow = paper::arrow_g_to_p();
    let model = round_model("G", arrow.to());
    let to = set_pred(arrow.to()).unwrap();
    let budget = time_to_budget(arrow.time());
    let (dir, stored) = spill_round(&model, "scc-backward");
    let target = stored.target_where(|rs| to(&rs.config));
    let query = || {
        stored
            .query()
            .objective(QueryObjective::MinProb)
            .target(target.clone())
            .horizon(budget)
    };
    let err = query().solver(Solver::SccOrdered).run().unwrap_err();
    match err {
        MdpError::Query { stage, source } => {
            assert_eq!(stage, "solve");
            assert!(matches!(*source, MdpError::InvalidQuery { .. }));
        }
        other => panic!("expected a solve-stage Query error, got {other:?}"),
    }
    assert_eq!(query().run().unwrap().solver, Solver::Jacobi);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spill that fits in one block is a single-block source, which runs
/// the general SCC-ordered solver on the stored rows: pinned unbounded and
/// expected-cost queries answer bitwise as the in-core model does, with
/// the same work counters. Cut into many blocks, the same model still
/// refuses them at the validate stage.
#[test]
fn pinned_scc_on_a_one_block_spill_matches_in_core() {
    let arrow = paper::arrow_g_to_p();
    let model = round_model("G", arrow.to());
    let to = set_pred(arrow.to()).unwrap();
    let explored = Explore::new(&model)
        .cost(round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let target = explored.target_where(|rs| to(&rs.config));
    let one_dir = tmpdir("scc-one-block");
    let one = Explore::new(&model)
        .cost(round_cost)
        .limit(LIMIT)
        .spill_to(&one_dir, 1)
        .block_bytes(1 << 26)
        .run()
        .unwrap();
    assert_eq!(CsrSource::num_blocks(one.store()), 1);
    let (many_dir, many) = spill_round(&model, "scc-many-blocks");
    assert!(CsrSource::num_blocks(many.store()) > 1);
    for objective in [QueryObjective::MaxProb, QueryObjective::MaxCost] {
        let run = |q: Query<'_>| {
            q.objective(objective)
                .target(target.clone())
                .solver(Solver::SccOrdered)
                .run()
        };
        let in_core = run(explored.query()).unwrap();
        let stored = run(one.query()).unwrap();
        assert_eq!(stored.solver, Solver::SccOrdered);
        assert_eq!(stored.stats, in_core.stats, "{objective:?}: work counters");
        assert_bitwise(
            &format!("one-block {objective:?}"),
            &in_core.values,
            &stored.values,
        );
        match run(many.query()) {
            Err(MdpError::Query { stage, .. }) => assert_eq!(stage, "validate", "{objective:?}"),
            other => panic!("{objective:?}: expected a validate-stage error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&one_dir).unwrap();
    std::fs::remove_dir_all(&many_dir).unwrap();
}

/// The paging contract of the reverse level pass: at a one-byte cache
/// budget, a forward-only bounded query pages every CSR block exactly once
/// per budget level, never hits, and sweeps once per level.
#[test]
fn one_byte_budget_pages_every_block_once_per_level() {
    let arrow = paper::arrow_p_to_c();
    let model = round_model("P", arrow.to());
    let to = set_pred(arrow.to()).unwrap();
    let (dir, stored) = spill_round(&model, "paging");
    let target = stored.target_where(|rs| to(&rs.config));
    let path = stored.store().file().path().to_path_buf();
    for budget in [0u32, 3] {
        let tight = pa_store::StoredCsr::open(&path, 1).unwrap();
        let blocks = CsrSource::num_blocks(&tight) as u64;
        assert!(blocks > 1, "the model must split into several blocks");
        let analysis = Query::source(&tight)
            .objective(QueryObjective::MinProb)
            .target(target.clone())
            .horizon(budget)
            .run()
            .unwrap();
        let levels = u64::from(budget) + 1;
        let stats = tight.cache().local_stats();
        assert_eq!(analysis.solver, Solver::SccOrdered);
        assert_eq!(stats.faults, blocks * levels, "budget {budget}: faults");
        assert_eq!(stats.hits, 0, "budget {budget}: hits");
        assert_eq!(analysis.stats.sweeps, levels, "budget {budget}: sweeps");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopened_store_answers_identically_without_the_original_space() {
    // A store file outlives the process that wrote it: reopen via
    // StoredCsr::open and query with an index-mask target.
    let arrow = paper::arrow_f_to_gp();
    let model = round_model("F", arrow.to());
    let to = set_pred(arrow.to()).unwrap();
    let budget = time_to_budget(arrow.time());
    let dir = tmpdir("reopen");
    let stored = Explore::new(&model)
        .cost(round_cost)
        .limit(LIMIT)
        .spill_to(&dir, u64::MAX)
        .block_bytes(BLOCK_BYTES)
        .run()
        .unwrap();
    let target = stored.target_where(|rs| to(&rs.config));
    let first = stored
        .query()
        .objective(QueryObjective::MinProb)
        .target(target.clone())
        .horizon(budget)
        .run()
        .unwrap();
    let path = stored.store().file().path().to_path_buf();
    drop(stored);

    let reopened = pa_store::StoredCsr::open(&path, 1).unwrap();
    let again = Query::source(&reopened)
        .objective(QueryObjective::MinProb)
        .target(target)
        .horizon(budget)
        .run()
        .unwrap();
    assert_bitwise("reopen", &first.values, &again.values);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spilled file truncated after it was opened fails the query with a
/// named error: the page-in's positioned read comes up short, which is
/// `StoreError::Truncated`.
#[test]
fn truncated_spill_fails_the_query_instead_of_faulting() {
    let arrow = paper::arrow_g_to_p();
    let to = set_pred(arrow.to()).unwrap();
    let model = round_model("G", arrow.to());
    for cache_budget in BUDGETS {
        let dir = tmpdir(&format!("truncated-{cache_budget}"));
        let stored = Explore::new(&model)
            .cost(round_cost)
            .limit(LIMIT)
            .spill_to(&dir, cache_budget)
            .block_bytes(BLOCK_BYTES)
            .run()
            .unwrap();
        assert!(CsrSource::num_blocks(stored.store()) > 1);
        let target = stored.target_where(|rs| to(&rs.config));
        let path = stored.store().file().path().to_path_buf();
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let result = Query::source(stored.store())
            .objective(QueryObjective::MinProb)
            .target(target)
            .horizon(time_to_budget(arrow.time()))
            .run();
        let err = result.expect_err("a query over a truncated file must fail");
        assert!(
            err.into_root().to_string().contains("truncated"),
            "budget {cache_budget}: the error names the truncation"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
