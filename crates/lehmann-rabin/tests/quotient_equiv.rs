//! Quotient-vs-full lifting checks: every paper claim and the
//! expected-time bracket, pinned equal between the full-space engine, the
//! rotation-quotient engine and the dihedral-quotient engine on `n = 3..5`.
//!
//! The rotation quotient runs through [`explore_checker`] with
//! [`Quotient::Rotation`]; the dihedral quotient is what the public entry
//! points ([`check_arrow_quotient`] and the `_quotient` expected times)
//! explore.
//!
//! Bounded-horizon arrow checks are pinned **bitwise** (the quotient's
//! backward induction performs the same per-orbit f64 operations, and the
//! mirror only swaps the two outcomes of a fair flip, whose sum is
//! commutative); the unbounded expected-time solves are pinned to `1e-7`
//! (value iteration stops on a tolerance, and the engines sweep different
//! state orders).

use pa_core::{Arrow, ArrowCheck, SetExpr};
use pa_lehmann_rabin::{
    check_arrow_quotient, check_arrow_with_limit, explore_checker, max_expected_time,
    max_expected_time_quotient, min_expected_time, min_expected_time_quotient, paper,
    reachable_configs_quotient, ArrowChecker, Quotient, RoundConfig, RoundMdp, RoundState,
    RoundStateCodec,
};
use pa_mdp::{PackedSpace, QueryObjective};

const LIMIT: usize = 30_000_000;

type RotationChecker = ArrowChecker<RoundState>;

/// The rotation-quotient arrow model of `from → to`: rotation orbit
/// representatives as starts, `to` absorbing.
fn rotation_checker(mdp: &RoundMdp, from: &SetExpr, to: &SetExpr) -> Option<RotationChecker> {
    let n = mdp.config().n;
    let reps = reachable_configs_quotient(n, LIMIT).unwrap();
    let space = PackedSpace::new(RoundStateCodec::new(n).unwrap());
    explore_checker(
        mdp.clone(),
        &reps,
        Some((from, to)),
        LIMIT,
        Quotient::Rotation,
        space,
    )
    .unwrap()
    .map(|(_, checker, _)| checker)
}

fn rotation_arrow(mdp: &RoundMdp, arrow: &Arrow) -> ArrowCheck {
    rotation_checker(mdp, arrow.from(), arrow.to()).map_or_else(
        || ArrowCheck::vacuous(arrow),
        |checker| checker.arrow(arrow, |q| q).unwrap(),
    )
}

/// Checks `arrow` on all three engines: the same value bits and verdict,
/// and no more starts on the dihedral quotient than on the rotation
/// quotient, nor on that than on the full space.
fn assert_three_way(mdp: &RoundMdp, arrow: &Arrow) {
    let n = mdp.config().n;
    let full = check_arrow_with_limit(mdp, arrow, LIMIT).unwrap();
    let rotation = rotation_arrow(mdp, arrow);
    let dihedral = check_arrow_quotient(mdp, arrow, LIMIT).unwrap();
    let bits = |c: &ArrowCheck| c.measured.lo().value().to_bits();
    assert_eq!(
        (bits(&full), bits(&rotation)),
        (bits(&dihedral), bits(&dihedral)),
        "n={n} {arrow}: full {} vs rotation {} vs dihedral {}",
        full.measured.lo(),
        rotation.measured.lo(),
        dihedral.measured.lo()
    );
    assert_eq!(full.holds(), dihedral.holds(), "n={n} {arrow}");
    assert_eq!(rotation.holds(), dihedral.holds(), "n={n} {arrow}");
    assert!(
        dihedral.states_checked <= rotation.states_checked
            && rotation.states_checked <= full.states_checked,
        "n={n} {arrow}: quotients quantify over orbits ({} ≤ {} ≤ {})",
        dihedral.states_checked,
        rotation.states_checked,
        full.states_checked
    );
}

#[test]
fn arrow_checks_agree_bitwise_on_n3_to_n5() {
    for n in 3..=5usize {
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        for (arrow, _why) in paper::all_arrows() {
            assert_three_way(&mdp, &arrow);
        }
    }
}

#[test]
fn composed_arrow_agrees_bitwise_on_n3_to_n4() {
    let arrow = paper::arrow_t_to_c();
    for n in 3..=4usize {
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        assert_three_way(&mdp, &arrow);
    }
}

#[test]
fn composed_arrow_agrees_bitwise_on_n5() {
    // The largest claim model: 788,722 rotation orbits, 395,418 dihedral
    // orbits, and about five times as many full-space states.
    let mdp = RoundMdp::new(RoundConfig::new(5).unwrap());
    assert_three_way(&mdp, &paper::arrow_t_to_c());
}

#[test]
fn expected_time_bracket_agrees_within_1e7_on_n3_to_n4() {
    let t = SetExpr::named("T");
    let c = SetExpr::named("C");
    for n in 3..=4usize {
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        let rotation = rotation_checker(&mdp, &t, &c).unwrap();
        let rotation_time = |objective| rotation.expected_time(&t, &c, objective, |q| q).unwrap();
        let full_hi = max_expected_time(&mdp, &t, &c, LIMIT).unwrap();
        let rot_hi = rotation_time(QueryObjective::MaxCost);
        let quot_hi = max_expected_time_quotient(&mdp, &t, &c, LIMIT).unwrap();
        for (name, value) in [("rotation", rot_hi), ("dihedral", quot_hi)] {
            assert!(
                (full_hi - value).abs() < 1e-7,
                "n={n} max: full {full_hi} vs {name} {value}"
            );
        }
        let full_lo = min_expected_time(&mdp, &t, &c, LIMIT).unwrap();
        let rot_lo = rotation_time(QueryObjective::MinCost);
        let quot_lo = min_expected_time_quotient(&mdp, &t, &c, LIMIT).unwrap();
        for (name, value) in [("rotation", rot_lo), ("dihedral", quot_lo)] {
            assert!(
                (full_lo - value).abs() < 1e-7,
                "n={n} min: full {full_lo} vs {name} {value}"
            );
        }
        assert!(quot_lo <= quot_hi + 1e-9, "bracket stays ordered");
    }
}
