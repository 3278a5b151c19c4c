//! The partial-order reduction of the arrow checks ([`Reduced`]) against
//! its definitions and against the unreduced round model.
//!
//! * The fork footprint ([`LrProtocol::footprint`]) equals the forks each
//!   process's steps read or write, and the static visibility table
//!   ([`Visibility`]) marks every pc transition that changes an atom on
//!   some reachable configuration (`n = 3..5`, fault-free).
//! * The six paper claims checked on the reduced model give the unreduced
//!   model's answer bits, worst start and start count, on the full space
//!   and the dihedral quotient (`n = 3, 4`; the dihedral quotient at
//!   `n = 5`, and at `n = 6` in an ignored test). A reduced model is a
//!   sub-MDP of the unreduced one, so a wrong rule could only make a
//!   minimum larger: these differentials are its gate.
//! * Every reduced state meets the ample-set conditions, checked state by
//!   state on the full-space claim models at `n = 3, 4`: one kept Dirac
//!   step, the only step of its process, with `EndRound` disabled, that
//!   leaves the target's truth unchanged and commutes with every other
//!   enabled step.
//! * At burst 2 and 3 the reduction keeps every step, so the explored
//!   model is the unreduced one bit for bit.

use pa_core::{Arrow, ArrowCheck, Automaton};
use pa_lehmann_rabin::regions::Visibility;
use pa_lehmann_rabin::{
    check_arrow_quotient, check_arrow_with_limit, explore_checker, paper, reachable_configs,
    reachable_configs_in, region_pred, round_cost, set_pred, ArrowChecker, Config, LrProtocol, Pc,
    Quotient, Reduced, RoundAction, RoundAutomaton, RoundConfig, RoundMdp, RoundState,
    RoundStateCodec, UserModel,
};
use pa_mdp::{csr_digest, Explore, PackedSpace};

const LIMIT: usize = 30_000_000;
const ATOMS: [&str; 6] = ["T", "C", "RT", "F", "G", "P"];

/// The six claims: the five axioms in chain order, then the composed
/// `T —13→_{1/8} C`.
fn claims() -> Vec<Arrow> {
    let mut arrows: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    arrows.push(paper::arrow_t_to_c());
    arrows
}

/// Each enabled step of process `i` in `config`, with its outcomes.
fn steps(protocol: &LrProtocol, config: &Config, i: usize) -> Vec<Vec<(Config, f64)>> {
    let mut steps = Vec::new();
    protocol.for_each_step_of_process(config, i, |_, outcomes| steps.push(outcomes.to_vec()));
    steps
}

/// The forks process `i`'s steps in `config` write (some outcome changes
/// the fork) or read (setting the fork the other way changes some outcome
/// elsewhere than in that fork).
fn forks_accessed(protocol: &LrProtocol, config: &Config, i: usize) -> u16 {
    let base = steps(protocol, config, i);
    let mut forks = 0u16;
    for r in 0..config.n() {
        let written = base
            .iter()
            .flatten()
            .any(|(next, _)| next.res_taken(r) != config.res_taken(r));
        let blind = |steps: Vec<Vec<(Config, f64)>>| -> Vec<Vec<(Config, f64)>> {
            steps
                .into_iter()
                .map(|s| {
                    s.into_iter()
                        .map(|(c, p)| (c.with_res(r, false), p))
                        .collect()
                })
                .collect()
        };
        let toggled = config.with_res(r, !config.res_taken(r));
        let read = blind(steps(protocol, &toggled, i)) != blind(base.clone());
        if written || read {
            forks |= 1 << r;
        }
    }
    forks
}

#[test]
fn footprints_are_the_forks_each_step_reads_or_writes() {
    for n in 3..=5 {
        let protocol = LrProtocol::new(n, UserModel::full()).unwrap();
        let configs = reachable_configs(n, LIMIT).unwrap();
        for config in &configs {
            for i in 0..n {
                assert_eq!(
                    LrProtocol::footprint(config, i),
                    forks_accessed(&protocol, config, i),
                    "n={n} process {i} in {config}"
                );
            }
        }
    }
}

#[test]
fn the_visibility_table_marks_every_transition_that_changes_an_atom() {
    let tables: Vec<(&str, Visibility)> = ATOMS
        .iter()
        .map(|&atom| {
            (
                atom,
                Visibility::of(&pa_core::SetExpr::named(atom)).unwrap(),
            )
        })
        .collect();
    for n in 3..=5 {
        let protocol = LrProtocol::new(n, UserModel::full()).unwrap();
        for config in &reachable_configs(n, LIMIT).unwrap() {
            for i in 0..n {
                for (next, _) in steps(&protocol, config, i).into_iter().flatten() {
                    let (before, after) = (config.proc(i).pc, next.proc(i).pc);
                    for &(atom, table) in &tables {
                        let pred = region_pred(atom).unwrap();
                        if pred(config) != pred(&next) {
                            assert!(
                                table.may_change(before, after),
                                "n={n} {atom}: process {i} {before:?}→{after:?} in {config} \
                                 changes the atom but is marked invisible"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn the_visibility_table_keeps_the_commuting_steps_invisible() {
    // The steps the reduction keeps most: a busy wait, taking the first
    // fork, and returning to the remainder region. `P → C` is visible for
    // every atom, so a `P` process is never kept alone.
    let all = Visibility::of(&pa_core::SetExpr::union_of(ATOMS)).unwrap();
    for (before, after) in [(Pc::W, Pc::W), (Pc::W, Pc::S), (Pc::Er, Pc::R)] {
        assert!(!all.may_change(before, after), "{before:?}→{after:?}");
    }
    for &atom in &ATOMS {
        let table = Visibility::of(&pa_core::SetExpr::named(atom)).unwrap();
        assert!(table.may_change(Pc::P, Pc::C), "{atom}: P→C");
    }
    let c = Visibility::of(&pa_core::SetExpr::named("C")).unwrap();
    for (before, after) in [
        (Pc::S, Pc::P),
        (Pc::S, Pc::D),
        (Pc::D, Pc::F),
        (Pc::Es, Pc::Er),
    ] {
        assert!(!c.may_change(before, after), "C: {before:?}→{after:?}");
    }
    assert!(Visibility::of(&pa_core::SetExpr::named("NOSUCH")).is_err());
}

type Steps = Vec<(RoundAction, Vec<(RoundState, f64)>)>;

/// The steps `automaton` enables in `state`, in visiting order.
fn visit<A>(automaton: &A, state: &RoundState) -> Steps
where
    A: Automaton<State = RoundState, Action = RoundAction>,
{
    let mut steps = Vec::new();
    automaton.for_each_step(state, |action, outcomes| {
        steps.push((*action, outcomes.to_vec()))
    });
    steps
}

/// The ample-set conditions, state by state on the reduced full-space
/// claim models at `n = 3, 4`: wherever the reduced model keeps fewer
/// steps than the round model, it keeps one Dirac step `a`, the only step
/// of its process; `EndRound` is not enabled; `a` leaves the target's
/// truth unchanged; and `a` commutes with every other enabled step (`b`
/// stays enabled after `a`, `a` after each outcome of `b`, and both orders
/// give the same distribution).
#[test]
fn every_kept_step_meets_the_ample_set_conditions() {
    for n in 3..=4 {
        let plain = RoundMdp::new(RoundConfig::new(n).unwrap());
        let configs = reachable_configs(n, LIMIT).unwrap();
        for arrow in claims() {
            let from = set_pred(arrow.from()).unwrap();
            let (to, absorb) = (set_pred(arrow.to()).unwrap(), set_pred(arrow.to()).unwrap());
            let starts = configs.iter().filter(|c| from(c)).copied().collect();
            let reduced = Reduced::new(plain.clone(), arrow.to())
                .unwrap()
                .starting_from(starts)
                .absorbing(move |c, _| absorb(c));
            let explored = Explore::new(&reduced)
                .cost(round_cost)
                .limit(LIMIT)
                .run()
                .unwrap();
            let mut reduced_states = 0;
            for id in 0..explored.num_states() {
                let state = &explored.state(id);
                let (kept, all) = (visit(&reduced, state), visit(reduced.inner(), state));
                if kept.len() == all.len() {
                    assert_eq!(kept, all, "n={n} {arrow}: {state}");
                    continue;
                }
                reduced_states += 1;
                let what = format!("n={n} {arrow}: {state}");
                let [(a, outcome)] = kept.as_slice() else {
                    panic!("{what}: kept {} steps", kept.len())
                };
                let [(next, _)] = outcome.as_slice() else {
                    panic!("{what}: kept a step with {} outcomes", outcome.len())
                };
                let RoundAction::Schedule(step) = a else {
                    panic!("{what}: kept {a:?}")
                };
                let process = |b: &RoundAction| match b {
                    RoundAction::Schedule(step) => Some(step.process()),
                    RoundAction::EndRound => None,
                };
                let mine = all
                    .iter()
                    .filter(|(b, _)| process(b) == Some(step.process()));
                assert_eq!(mine.count(), 1, "{what}: the process has other steps");
                assert!(
                    all.iter().all(|(b, _)| process(b).is_some()),
                    "{what}: EndRound is enabled"
                );
                assert!(!to(&next.config), "{what}: {a:?} enters the target");
                for (b, dist) in all.iter().filter(|(b, _)| b != a) {
                    let after = |s: &RoundState, x: &RoundAction| {
                        visit(&plain, s)
                            .into_iter()
                            .find(|(y, _)| y == x)
                            .unwrap_or_else(|| panic!("{what}: {x:?} disabled by the other"))
                            .1
                    };
                    let a_then_b = after(next, b);
                    let b_then_a: Vec<_> = dist
                        .iter()
                        .map(|(t, p)| (after(t, a)[0].0.clone(), *p))
                        .collect();
                    assert_eq!(a_then_b, b_then_a, "{what}: {a:?} and {b:?} do not commute");
                }
            }
            assert!(reduced_states > 0, "n={n} {arrow}: nothing reduced");
        }
    }
}

type Checker = ArrowChecker<RoundState>;

/// The arrow model of `arrow` under `quotient` explored from `automaton`;
/// `None` when its source is empty.
fn arrow_model<A>(automaton: A, arrow: &Arrow, quotient: Quotient) -> Option<Checker>
where
    A: RoundAutomaton<State = RoundState>,
{
    let n = automaton.ring_size();
    let configs = reachable_configs_in(n, LIMIT, quotient).unwrap();
    let space = PackedSpace::new(RoundStateCodec::new(n).unwrap());
    let arrow_sets = Some((arrow.from(), arrow.to()));
    explore_checker(automaton, &configs, arrow_sets, LIMIT, quotient, space)
        .unwrap()
        .map(|(_, checker, _)| checker)
}

/// The answer to `arrow` on the model explored from `automaton`, and the
/// model's state count.
fn checked<A>(automaton: A, arrow: &Arrow, quotient: Quotient) -> (ArrowCheck, usize)
where
    A: RoundAutomaton<State = RoundState>,
{
    match arrow_model(automaton, arrow, quotient) {
        Some(checker) => (
            checker.arrow(arrow, |q| q).unwrap(),
            checker.rows().num_states(),
        ),
        None => (ArrowCheck::vacuous(arrow), 0),
    }
}

/// Checks the six claims reduced and unreduced on a ring of `n` under
/// `quotient`: equal answer bits, worst start and start count, and never
/// more states reduced. Returns the summed state counts.
fn assert_reduced_matches(n: usize, quotient: Quotient) -> (usize, usize) {
    let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
    let (mut plain_states, mut reduced_states) = (0, 0);
    for arrow in claims() {
        let reduced = Reduced::new(mdp.clone(), arrow.to()).unwrap();
        let (plain, plain_n) = checked(mdp.clone(), &arrow, quotient);
        let (check, reduced_n) = checked(reduced, &arrow, quotient);
        let bits = |c: &ArrowCheck| c.measured.lo().value().to_bits();
        let what = format!("n={n} {quotient:?} {arrow}");
        assert_eq!(bits(&check), bits(&plain), "{what}: answer");
        assert_eq!(check.worst_state, plain.worst_state, "{what}: worst start");
        assert_eq!(check.states_checked, plain.states_checked, "{what}: starts");
        assert!(reduced_n <= plain_n, "{what}: {reduced_n} > {plain_n}");
        // The public entry points run reduced.
        let public = match quotient {
            Quotient::Dihedral => check_arrow_quotient(&mdp, &arrow, LIMIT).unwrap(),
            _ => check_arrow_with_limit(&mdp, &arrow, LIMIT).unwrap(),
        };
        if quotient != Quotient::Rotation {
            assert_eq!(bits(&public), bits(&plain), "{what}: public entry point");
            assert_eq!(public.states_checked, plain.states_checked, "{what}");
        }
        plain_states += plain_n;
        reduced_states += reduced_n;
    }
    println!(
        "n={n} {quotient:?} six claims: {plain_states} unreduced, {reduced_states} reduced (x{:.2})",
        plain_states as f64 / reduced_states as f64
    );
    assert!(
        reduced_states < plain_states,
        "n={n} {quotient:?}: no reduction"
    );
    (plain_states, reduced_states)
}

#[test]
fn reduced_claims_match_unreduced_on_n3_and_n4() {
    for n in 3..=4 {
        for quotient in [Quotient::Full, Quotient::Dihedral] {
            assert_reduced_matches(n, quotient);
        }
    }
}

#[test]
fn reduced_claims_match_unreduced_on_the_n5_dihedral_quotient() {
    let (plain, reduced) = assert_reduced_matches(5, Quotient::Dihedral);
    assert_eq!((plain, reduced), (840_276, 315_340));
}

#[test]
#[ignore = "n = 6 dihedral differential, about 40 s in release"]
fn reduced_claims_match_unreduced_on_the_n6_dihedral_quotient() {
    assert_reduced_matches(6, Quotient::Dihedral);
}

#[test]
fn bursts_above_one_explore_the_unreduced_model() {
    let digest = |checker: Option<Checker>| {
        let checker = checker.expect("every claim has starts at n = 3");
        csr_digest(checker.rows()).unwrap()
    };
    for burst in [2, 3] {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap().with_burst(burst).unwrap());
        for arrow in claims() {
            for quotient in [Quotient::Full, Quotient::Dihedral] {
                let reduced = Reduced::new(mdp.clone(), arrow.to()).unwrap();
                assert_eq!(
                    digest(arrow_model(reduced, &arrow, quotient)),
                    digest(arrow_model(mdp.clone(), &arrow, quotient)),
                    "burst {burst} {quotient:?} {arrow}"
                );
            }
        }
    }
}
