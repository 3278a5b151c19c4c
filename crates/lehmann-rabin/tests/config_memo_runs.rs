//! Exploration counts of the reachable-configuration memo on
//! [`RoundMdp`], read from the `mdp.explore.runs` telemetry counter: a
//! pass over the six claims on one model enumerates the configurations
//! once and explores each claim model once, 7 runs where it took 12
//! before the memo. Telemetry is process-global, so this file is its own
//! binary and its tests run one at a time.

use std::sync::Mutex;

use pa_core::Arrow;
use pa_lehmann_rabin::{
    check_arrow_quotient, check_arrow_with_limit, paper, RoundConfig, RoundMdp,
};

const LIMIT: usize = 5_000_000;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn claims() -> Vec<Arrow> {
    let mut arrows: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    arrows.push(paper::arrow_t_to_c());
    arrows
}

fn model(n: usize) -> RoundMdp {
    RoundMdp::new(RoundConfig::new(n).unwrap())
}

/// The explorations `f` runs.
fn explore_runs(f: impl FnOnce()) -> u64 {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();
    f();
    let runs = pa_telemetry::snapshot().counter("mdp.explore.runs");
    pa_telemetry::set_enabled(false);
    runs.unwrap_or(0)
}

fn check_all(mdp: &RoundMdp) {
    for arrow in claims() {
        check_arrow_quotient(mdp, &arrow, LIMIT).unwrap();
    }
}

#[test]
fn six_claims_on_one_model_enumerate_the_configurations_once() {
    for n in [3, 4] {
        let mdp = model(n);
        // One enumeration and six claim models.
        assert_eq!(explore_runs(|| check_all(&mdp)), 7, "n={n}");
        // A second pass on the same model explores only the claim models.
        assert_eq!(explore_runs(|| check_all(&mdp)), 6, "n={n}");
    }
}

/// The benchmark's reference pass: six claims at `n = 5` on the dihedral
/// quotient (about 0.4 s release).
#[test]
#[ignore = "n = 5; run with --include-ignored in release"]
fn six_claims_at_n5_explore_seven_times() {
    assert_eq!(explore_runs(|| check_all(&model(5))), 7);
}

#[test]
fn each_quotient_has_its_own_slot() {
    let mdp = model(3);
    let arrow = paper::arrow_p_to_c();
    let full = || check_arrow_with_limit(&mdp, &arrow, LIMIT).unwrap();
    let dihedral = || check_arrow_quotient(&mdp, &arrow, LIMIT).unwrap();
    assert_eq!(explore_runs(|| drop(full())), 2);
    assert_eq!(explore_runs(|| drop(dihedral())), 2);
    assert_eq!(explore_runs(|| drop((full(), dihedral()))), 2);
}

#[test]
fn a_clone_taken_before_the_first_check_enumerates_on_its_own() {
    let arrow = paper::arrow_p_to_c();
    let check = |mdp: &RoundMdp| drop(check_arrow_quotient(mdp, &arrow, LIMIT).unwrap());
    let mdp = model(3);
    let early = mdp.clone();
    assert_eq!(explore_runs(|| check(&mdp)), 2);
    assert_eq!(
        explore_runs(|| check(&early)),
        2,
        "an empty slot is not shared"
    );
    let late = mdp.clone().with_starts(Vec::new());
    assert_eq!(explore_runs(|| check(&late)), 1, "a filled slot is shared");
    assert_eq!(explore_runs(|| check(&mdp)), 1);
}
