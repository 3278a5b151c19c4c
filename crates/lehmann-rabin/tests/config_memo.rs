//! The reachable-configuration memo on [`RoundMdp`]: a model that has
//! already enumerated its configurations answers every claim exactly as
//! a fresh model does, and a state limit below the memoised count fails
//! as a fresh enumeration fails. The enumeration counts are checked in
//! `config_memo_runs.rs`, a binary of its own because the telemetry
//! registry is process-global.

use pa_core::{Arrow, ArrowCheck, SetExpr};
use pa_lehmann_rabin::{
    check_arrow_quotient, check_arrow_with_limit, max_expected_time, max_expected_time_quotient,
    paper, reachable_configs_in, LrError, Quotient, RoundConfig, RoundMdp,
};
use pa_mdp::MdpError;

const LIMIT: usize = 5_000_000;

/// The six claims: the five axioms in chain order, then the composed
/// `T —13→_{1/8} C`.
fn claims() -> Vec<Arrow> {
    let mut arrows: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    arrows.push(paper::arrow_t_to_c());
    arrows
}

fn model(n: usize) -> RoundMdp {
    RoundMdp::new(RoundConfig::new(n).unwrap())
}

/// `quotient`'s arrow check (the full space or the dihedral quotient).
fn check(
    mdp: &RoundMdp,
    arrow: &Arrow,
    limit: usize,
    quotient: Quotient,
) -> Result<ArrowCheck, LrError> {
    match quotient {
        Quotient::Full => check_arrow_with_limit(mdp, arrow, limit),
        _ => check_arrow_quotient(mdp, arrow, limit),
    }
}

/// Everything a check reports, with the value as bits.
fn answer(check: &ArrowCheck) -> (u64, u64, Option<String>, usize) {
    (
        check.measured.lo().value().to_bits(),
        check.measured.hi().value().to_bits(),
        check.worst_state.clone(),
        check.states_checked,
    )
}

#[test]
fn a_memoised_model_answers_every_claim_as_a_fresh_one() {
    for n in [3, 4] {
        for quotient in [Quotient::Full, Quotient::Dihedral] {
            let shared = model(n);
            for arrow in claims() {
                let memo = check(&shared, &arrow, LIMIT, quotient).unwrap();
                let fresh = check(&model(n), &arrow, LIMIT, quotient).unwrap();
                assert_eq!(answer(&memo), answer(&fresh), "n={n} {quotient:?} {arrow}");
                assert!(memo.holds(), "n={n} {quotient:?} {arrow}");
            }
        }
    }
}

#[test]
fn expected_times_on_a_memoised_model_match_a_fresh_one() {
    let (t, c) = (SetExpr::named("T"), SetExpr::named("C"));
    let shared = model(3);
    check_arrow_quotient(&shared, &paper::arrow_t_to_c(), LIMIT).unwrap();
    check_arrow_with_limit(&shared, &paper::arrow_t_to_c(), LIMIT).unwrap();
    for (memo, fresh) in [
        (
            max_expected_time(&shared, &t, &c, LIMIT).unwrap(),
            max_expected_time(&model(3), &t, &c, LIMIT).unwrap(),
        ),
        (
            max_expected_time_quotient(&shared, &t, &c, LIMIT).unwrap(),
            max_expected_time_quotient(&model(3), &t, &c, LIMIT).unwrap(),
        ),
    ] {
        assert_eq!(memo.to_bits(), fresh.to_bits());
    }
}

#[test]
fn a_limit_below_the_memoised_count_fails_as_a_fresh_enumeration() {
    let arrow = paper::arrow_p_to_c();
    for quotient in [Quotient::Full, Quotient::Dihedral] {
        let count = reachable_configs_in(3, LIMIT, quotient).unwrap().len();
        let shared = model(3);
        check(&shared, &arrow, LIMIT, quotient).unwrap();
        let limit = count - 1;
        let hit = check(&shared, &arrow, limit, quotient).unwrap_err();
        let fresh = check(&model(3), &arrow, limit, quotient).unwrap_err();
        assert_eq!(hit, fresh, "{quotient:?}");
        assert_eq!(hit, LrError::Mdp(MdpError::StateLimitExceeded { limit }));
        // At the count itself the enumeration fits on either model, so
        // both go on to explore the claim model and agree on its fate.
        let at_count = |mdp: &RoundMdp| check(mdp, &arrow, count, quotient).map(|c| answer(&c));
        assert_eq!(at_count(&shared), at_count(&model(3)), "{quotient:?}");
    }
}

#[test]
fn a_failed_enumeration_is_not_memoised() {
    let arrow = paper::arrow_f_to_gp();
    let mdp = model(3);
    assert!(matches!(
        check_arrow_quotient(&mdp, &arrow, 10),
        Err(LrError::Mdp(MdpError::StateLimitExceeded { limit: 10 }))
    ));
    let retried = check_arrow_quotient(&mdp, &arrow, LIMIT).unwrap();
    let fresh = check_arrow_quotient(&model(3), &arrow, LIMIT).unwrap();
    assert_eq!(answer(&retried), answer(&fresh));
}

#[test]
fn starts_and_absorption_keep_the_memo() {
    // The enumeration ignores the model's starts, absorption and user
    // model, so derived models reuse the configurations and still answer
    // as a fresh model does.
    let arrow = paper::arrow_g_to_p();
    let mdp = model(3);
    check_arrow_quotient(&mdp, &arrow, LIMIT).unwrap();
    let derived = mdp.clone().with_starts(Vec::new()).with_absorb(|_| false);
    let memo = check_arrow_quotient(&derived, &arrow, LIMIT).unwrap();
    let fresh = check_arrow_quotient(&model(3), &arrow, LIMIT).unwrap();
    assert_eq!(answer(&memo), answer(&fresh));
}
