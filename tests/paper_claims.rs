//! End-to-end reproduction of the paper's headline claims at n = 3
//! (and n = 2 where cheap), spanning pa-core, pa-mdp and pa-lehmann-rabin.

use timebounds::core::{ArrowCheck, SetExpr};
use timebounds::lehmann_rabin::{
    check_arrow, explore_checker, max_expected_time, paper, reachable_configs, verify_lemma_6_1,
    Quotient, RoundConfig, RoundMdp, RoundStateCodec, DEFAULT_STATE_LIMIT,
};
use timebounds::mdp::{PackedSpace, Solver};
use timebounds::prob::Prob;

fn mdp(n: usize) -> RoundMdp {
    RoundMdp::new(RoundConfig::new(n).expect("valid ring"))
}

#[test]
fn all_five_axiom_arrows_hold_for_n2_and_n3() {
    for n in [2, 3] {
        let m = mdp(n);
        for (arrow, justification) in paper::all_arrows() {
            let report = check_arrow(&m, &arrow).expect("checkable");
            assert!(report.holds(), "n={n}: {justification} failed: {report}");
        }
    }
}

#[test]
fn deterministic_arrows_reach_probability_one() {
    let m = mdp(3);
    for arrow in [
        paper::arrow_p_to_c(),
        paper::arrow_t_to_rtc(),
        paper::arrow_rt_to_fgp(),
    ] {
        let report = check_arrow(&m, &arrow).expect("checkable");
        assert_eq!(report.measured.lo(), Prob::ONE, "{arrow} should be certain");
    }
}

#[test]
fn composed_claim_t_13_eighth_c_holds() {
    let composed = paper::arrow_t_to_c();
    assert_eq!(composed.time(), 13.0);
    assert_eq!(composed.prob(), Prob::new(0.125).unwrap());
    let report = check_arrow(&mdp(3), &composed).expect("checkable");
    assert!(report.holds(), "{report}");
    // The direct worst case is much better than the composed bound —
    // Theorem 3.4 is sound but conservative.
    assert!(report.measured.lo().value() > 0.5);
}

/// E6's composed claim `T —13→ C` at n = 3, answered on one explored
/// model under pinned Jacobi, pinned SCC-ordered and the automatic route:
/// the same worst start, the same value bits, and a holding verdict.
#[test]
fn composed_claim_is_solver_independent() {
    let composed = paper::arrow_t_to_c();
    let configs = reachable_configs(3, DEFAULT_STATE_LIMIT).expect("enumerable");
    let space = PackedSpace::new(RoundStateCodec::new(3).expect("valid ring"));
    let (_, checker, _) = explore_checker(
        mdp(3),
        &configs,
        Some((composed.from(), composed.to())),
        DEFAULT_STATE_LIMIT,
        Quotient::Full,
        space,
    )
    .expect("explorable")
    .expect("T is reachable");
    let checks = [
        checker.arrow(&composed, |q| q.solver(Solver::Jacobi)),
        checker.arrow(&composed, |q| q.solver(Solver::SccOrdered)),
        checker.arrow(&composed, |q| q),
    ]
    .map(|check| check.expect("checkable"));
    let bits = |c: &ArrowCheck| c.measured.lo().value().to_bits();
    for check in &checks {
        assert!(check.holds(), "{check}");
        assert_eq!(bits(check), bits(&checks[0]), "{check}");
        assert_eq!(check.worst_state, checks[0].worst_state);
    }
}

#[test]
fn derivation_axioms_match_checked_arrows() {
    // Every axiom used by the Section 6.2 derivation is itself verified:
    // the composed conclusion is therefore grounded end to end.
    let derivation = paper::composed_derivation();
    let m = mdp(3);
    for (arrow, justification) in derivation.axioms() {
        let report = check_arrow(&m, arrow).expect("checkable");
        assert!(report.holds(), "axiom {justification} failed: {report}");
    }
    let conclusion = derivation.conclusion().expect("valid derivation");
    assert_eq!(conclusion.to_string(), "T —13→_0.125 C");
}

#[test]
fn expected_time_bounds_hold_and_order() {
    let m = mdp(3);
    let rt_p = max_expected_time(&m, &SetExpr::named("RT"), &SetExpr::named("P"), 20_000_000)
        .expect("computable");
    let t_c = max_expected_time(&m, &SetExpr::named("T"), &SetExpr::named("C"), 20_000_000)
        .expect("computable");
    assert!(rt_p <= paper::expected_time_rt_to_p(), "E[RT→P] = {rt_p}");
    assert!(t_c <= paper::expected_time_t_to_c(), "E[T→C] = {t_c}");
    assert!(rt_p <= t_c, "RT→P is a sub-journey of T→C");
    assert!(t_c > 1.0, "a meal takes at least flip+wait+second+crit");
}

#[test]
fn lemma_6_1_holds_exhaustively_up_to_n4() {
    for n in [2, 3, 4] {
        let result = verify_lemma_6_1(n, 20_000_000).expect("explorable");
        assert!(result.holds(), "Lemma 6.1 failed for n = {n}: {result:?}");
    }
}

#[test]
fn burst_ablation_is_monotone_and_stays_above_the_bound() {
    let mut last = f64::INFINITY;
    for burst in [1u8, 2] {
        let cfg = RoundConfig::new(3).unwrap().with_burst(burst).unwrap();
        let report = check_arrow(&RoundMdp::new(cfg), &paper::arrow_t_to_c()).unwrap();
        let p = report.measured.lo().value();
        assert!(p >= 0.125, "burst {burst}: {p}");
        assert!(p <= last + 1e-12, "more adversary power cannot help");
        last = p;
    }
}

#[test]
fn g_to_p_worst_case_is_exactly_one_half_at_n3() {
    // Sharper than the paper's 1/4: at n = 3 with burst 1 the worst good
    // state still wins with probability 1/2 — recorded as a reproduction
    // observation (the paper notes its bounds are improvable).
    let report = check_arrow(&mdp(3), &paper::arrow_g_to_p()).unwrap();
    assert!((report.measured.lo().value() - 0.5).abs() < 1e-9);
}

#[test]
fn all_appendix_lemmas_hold_for_n3() {
    use timebounds::lehmann_rabin::lemmas::{appendix_lemmas, check_lemma};
    for spec in appendix_lemmas() {
        let check = check_lemma(3, &spec, 20_000_000).expect("checkable");
        assert!(check.instances > 0, "{}: vacuous hypothesis", check.name);
        assert!(check.holds(), "{check}");
    }
}

#[test]
fn progress_time_is_sandwiched() {
    use timebounds::lehmann_rabin::lemmas::progress_time_lower_bound;
    let m = mdp(3);
    let lower = progress_time_lower_bound(
        &m,
        &SetExpr::named("T"),
        &SetExpr::named("C"),
        20,
        20_000_000,
    )
    .expect("computable")
    .expect("T is nonempty");
    // Some adversary stalls progress for `lower` units; the paper
    // guarantees progress (w.p. ≥ 1/8) by 13. Lower < upper.
    assert!(lower < 13, "lower bound {lower}");
    assert!(lower >= 3, "a meal takes at least 4 time units");
    // The exact value at n = 3, pinned.
    assert_eq!(lower, 6);
}
