//! The fused region byte (`regions::regions_under`) against the six
//! fault-aware predicates it replaces, bit by bit: on every state of the
//! shared fault models and of the dihedral claim models, through the
//! bytes an `ArrowChecker` keeps, and on random configurations under
//! random crash masks.

use pa_core::Arrow;
use pa_faults::{default_grid, FaultyRoundMdp};
use pa_lehmann_rabin::regions::{regions_under, ATOMS};
use pa_lehmann_rabin::{
    explore_checker, paper, reachable_configs, reachable_configs_in, CheckedState, Config, Pc,
    ProcState, Quotient, Reduced, RoundConfig, RoundMdp, RoundStateCodec, Side,
};
use pa_mdp::{BoxedSpace, PackedSpace, StateSpace};
use proptest::prelude::*;

const LIMIT: usize = 5_000_000;

/// Each bit of `byte` equals its atom's fault-aware predicate.
fn assert_byte(byte: u8, c: &Config, crashed: u32, what: &str) {
    for (k, atom) in ATOMS.iter().enumerate() {
        assert_eq!(
            byte >> k & 1 == 1,
            (atom.under)(c, crashed),
            "{what}: atom {} of {c} under crash mask {crashed:#b}",
            atom.name
        );
    }
}

/// Every state's byte in `regions` (a checker's) against the predicates,
/// judged under the state's own crash mask.
fn assert_model<S: CheckedState>(regions: &[u8], space: &impl StateSpace<S>, n: usize, what: &str) {
    assert_eq!(regions.len(), space.len(), "{what}: one byte per state");
    space.for_each_state(|i, s| {
        assert_byte(regions[i], s.config(), s.crash_mask(n), what);
    });
}

/// The shared models of a ring of `n` (every reachable configuration a
/// start, nothing absorbing, boxed states) under the four default plans.
fn assert_shared_models(n: usize) {
    let configs = reachable_configs(n, LIMIT).unwrap();
    for (name, plan) in default_grid() {
        let model = FaultyRoundMdp::new(RoundConfig::new(n).unwrap(), plan).unwrap();
        let (_, checker, space) = explore_checker(
            model,
            &configs,
            None,
            LIMIT,
            Quotient::Full,
            BoxedSpace::default(),
        )
        .unwrap()
        .expect("a shared model starts from every configuration");
        assert_model(checker.regions(), &space, n, &format!("n={n} {name}"));
    }
}

#[test]
fn shared_model_bytes_match_the_predicates_at_n3() {
    assert_shared_models(3);
}

#[test]
#[ignore = "four n = 4 shared models, about 1 s in release"]
fn shared_model_bytes_match_the_predicates_at_n4() {
    assert_shared_models(4);
}

/// The six claims' arrow models as `check_arrow_quotient` explores them:
/// dihedral quotient, reduced for the target, packed states.
#[test]
#[ignore = "six n = 5 dihedral claim models, about 1 s in release"]
fn dihedral_claim_model_bytes_match_the_predicates_at_n5() {
    let n = 5;
    let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
    let configs = reachable_configs_in(n, LIMIT, Quotient::Dihedral).unwrap();
    let mut claims: Vec<Arrow> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    claims.push(paper::arrow_t_to_c());
    for arrow in claims {
        let reduced = Reduced::new(mdp.clone(), arrow.to()).unwrap();
        let space = PackedSpace::new(RoundStateCodec::new(n).unwrap());
        let scope = Some((arrow.from(), arrow.to()));
        let (_, checker, space) =
            explore_checker(reduced, &configs, scope, LIMIT, Quotient::Dihedral, space)
                .unwrap()
                .expect("every claim has starts at n = 5");
        assert_model(checker.regions(), &space, n, &format!("n={n} {arrow}"));
    }
}

fn proc_state() -> impl Strategy<Value = ProcState> {
    let side = prop_oneof![Just(Side::Left), Just(Side::Right)];
    (prop::sample::select(Pc::ALL.to_vec()), side).prop_map(|(pc, s)| ProcState::new(pc, s))
}

proptest! {
    /// Arbitrary program counters and sides (reachable or not) on rings
    /// of 3 to 8, under an arbitrary crash mask of the ring.
    #[test]
    fn random_configurations_under_random_crash_masks(
        n in 3usize..9,
        procs in prop::collection::vec(proc_state(), 8),
        crashed in any::<u32>(),
    ) {
        let c = Config::from_parts(procs.into_iter().take(n).collect(), []).unwrap();
        let crashed = crashed & ((1 << n) - 1);
        assert_byte(regions_under(&c, crashed), &c, crashed, "random");
        // The mask 0 gives the plain atoms.
        let plain = regions_under(&c, 0);
        for (k, atom) in ATOMS.iter().enumerate() {
            prop_assert_eq!(plain >> k & 1 == 1, (atom.plain)(&c), "{} of {}", atom.name, c);
        }
    }
}
