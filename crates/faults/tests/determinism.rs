//! Regression tests for the two structural guarantees the fault subsystem
//! rests on:
//!
//! 1. **Seed determinism** — compiling the same [`FaultModel`] seed twice
//!    yields the same plan, bitwise-identical explored models, and
//!    bitwise-identical survival maps.
//! 2. **Zero-fault identity** — wrapping in [`FaultPlan::none`] changes
//!    nothing: step enumeration, explored [`pa_mdp::ExplicitMdp`], checker
//!    verdicts, and `Query` values are all bitwise equal to the
//!    fault-free pipeline's.

use pa_core::Automaton;
use pa_faults::{
    check_arrow_under, faulty_round_cost, region_pred_under, survival_map, FaultModel, FaultPlan,
    FaultyRoundMdp,
};
use pa_lehmann_rabin::{
    check_arrow_with_limit, paper, reachable_configs, region_pred, round_cost, RoundConfig,
    RoundMdp,
};
use pa_mdp::{Explore, Objective};
use serde::Serialize;

const LIMIT: usize = 5_000_000;

fn model() -> FaultModel {
    FaultModel {
        seed: 2026,
        horizon: 6,
        crash_rate: 0.15,
        restart_downtime: Some(2),
        drop_rate: 0.1,
    }
}

/// Same seed, same ring: the compiled plan, the explored model, and the
/// analysis must be reproducible bit for bit.
#[test]
fn same_seed_twice_is_bitwise_identical() {
    let plan_a = model().compile(3).unwrap();
    let plan_b = model().compile(3).unwrap();
    assert_eq!(plan_a, plan_b);

    let cfg = RoundConfig::new(3).unwrap();
    let ma = FaultyRoundMdp::new(cfg, plan_a.clone()).unwrap();
    let mb = FaultyRoundMdp::new(cfg, plan_b).unwrap();
    let ea = Explore::new(&ma)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let eb = Explore::new(&mb)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    assert_eq!(ea.states(), eb.states());
    assert_eq!(ea.mdp, eb.mdp);
}

/// The full survival map is deterministic: two independent runs render to
/// the identical JSON document.
#[test]
fn survival_map_is_bitwise_reproducible() {
    let a = survival_map(3, LIMIT).unwrap();
    let b = survival_map(3, LIMIT).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

/// `FaultPlan::none()` is a strict identity on the explored model: same
/// state count, same initial states, same choices, choice for choice.
#[test]
fn zero_fault_wrapping_explores_the_identical_mdp() {
    let cfg = RoundConfig::new(3).unwrap();
    let plain = RoundMdp::new(cfg);
    let wrapped = FaultyRoundMdp::new(cfg, FaultPlan::none()).unwrap();

    let ep = Explore::new(&plain)
        .cost(round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let ew = Explore::new(&wrapped)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    assert_eq!(ep.mdp, ew.mdp);
    for s in 0..ep.mdp.num_states() {
        assert_eq!(ep.states()[s], ew.states()[s].inner, "state {s}");
    }
}

/// Zero-fault `Query` values are bitwise equal between the plain and the
/// wrapped pipeline, not just within tolerance.
#[test]
fn zero_fault_query_values_are_bitwise_unchanged() {
    let cfg = RoundConfig::new(3).unwrap();
    let plain = RoundMdp::new(cfg);
    let ep = Explore::new(&plain)
        .cost(round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let wrapped = FaultyRoundMdp::new(cfg, FaultPlan::none()).unwrap();
    let ew = Explore::new(&wrapped)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let tp = ep.target_where(|rs| pa_lehmann_rabin::regions::in_c(&rs.config));
    let tw = ew.target_where(|s| pa_lehmann_rabin::regions::in_c(&s.inner.config));
    assert_eq!(tp, tw);
    let vp = ep
        .query()
        .objective(Objective::MinProb)
        .target(tp)
        .horizon(12)
        .run()
        .unwrap()
        .values;
    let vw = ew
        .query()
        .objective(Objective::MinProb)
        .target(tw)
        .horizon(12)
        .run()
        .unwrap()
        .values;
    assert_eq!(vp.len(), vw.len());
    for (i, (a, b)) in vp.iter().zip(&vw).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "state {i}");
    }
}

/// The one region resolver the checker reads (`region_pred_under`)
/// agrees with the fault-free one under the empty crash mask on every
/// reachable configuration, and checker verdicts under the empty plan
/// (packed fault-wrapped states, `FaultyStateCodec`) equal the
/// fault-free `check_arrow` results (packed round states,
/// `RoundStateCodec`) bitwise, for all six paper claims.
#[test]
fn zero_fault_checker_verdicts_are_bitwise_unchanged() {
    for n in [3, 4] {
        let configs = reachable_configs(n, LIMIT).unwrap();
        for atom in ["T", "C", "RT", "F", "G", "P"] {
            let plain = region_pred(atom).unwrap();
            let under = region_pred_under(atom).unwrap();
            for c in &configs {
                assert_eq!(plain(c), under(c, 0), "{atom} at n = {n}: {c}");
            }
        }
    }
    let cfg = RoundConfig::new(3).unwrap();
    let mdp = RoundMdp::new(cfg);
    let mut claims = paper::all_arrows();
    claims.push((paper::arrow_t_to_c(), "Section 6.2"));
    for (arrow, why) in claims {
        let plain = check_arrow_with_limit(&mdp, &arrow, LIMIT).unwrap();
        let wrapped = check_arrow_under(cfg, &arrow, &FaultPlan::none(), LIMIT).unwrap();
        assert_eq!(
            plain.measured.lo().value().to_bits(),
            wrapped.measured.lo().value().to_bits(),
            "{arrow} ({why})"
        );
        assert_eq!(plain.states_checked, wrapped.states_checked, "{arrow}");
        assert_eq!(plain.holds(), wrapped.holds(), "{arrow}");
    }
}

/// The wrapped automaton enumerates the identical step structure state by
/// state under the empty plan (the stronger, local form of the identity).
#[test]
fn zero_fault_step_enumeration_matches_locally() {
    let cfg = RoundConfig::new(3).unwrap();
    let plain = RoundMdp::new(cfg);
    let wrapped = FaultyRoundMdp::new(cfg, FaultPlan::none()).unwrap();
    let ew = Explore::new(&wrapped)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    for ws in ew.states().iter().take(500) {
        let ps = plain.steps(&ws.inner);
        let wsteps = wrapped.steps(ws);
        assert_eq!(ps.len(), wsteps.len());
        for (p, w) in ps.iter().zip(&wsteps) {
            assert_eq!(p.action, w.action);
        }
    }
}
