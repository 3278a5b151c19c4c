//! Exploration output pinned bit for bit: the `csr_digest` of every model
//! the claim checks explore — the full round model, the absorbing
//! rotation-quotient model of each of the six paper claims, the
//! fault-wrapped round model under each plan of the default fault grid,
//! and the free-interleaving protocol — recorded before exploration wrote
//! CSR rows directly (when it still built a nested model and flattened
//! it). The dihedral-quotient claim models are pinned beside their
//! rotation quotients, and the dihedral models reduced for each claim's
//! target, which `check_arrow_quotient` explores, beside those. The rotation
//! quotients of the fault-free fault-wrapped model and of the protocol were
//! recorded before canonicalization read the least rotation off the
//! process-lane word. Both engine paths must reproduce them: `run_in`, and
//! `run_streamed` into a collecting sink.

use pa_core::Automaton;
use pa_faults::{default_grid, faulty_round_cost, FaultPlan, FaultyRoundMdp, FaultyStateCodec};
use pa_lehmann_rabin::{
    paper, reachable_configs_in, reachable_configs_quotient, round_cost, set_pred, LrProtocol,
    Quotient, Reduced, RoundAutomaton, RoundConfig, RoundMdp, RoundStateCodec, UserModel,
};
use pa_mdp::{
    csr_digest, BoxedSpace, CsrBuilder, Explore, PackedSpace, RingDihedral, RingRotation,
    StateSpace,
};

const LIMIT: usize = 30_000_000;

/// Asserts that every engine path explores a model with digest `want`.
/// `explore` builds a fresh, fully configured builder; `space` a fresh
/// state store.
fn assert_pinned<'a, M, F, SP>(
    name: &str,
    want: u64,
    explore: impl Fn() -> Explore<'a, M, F>,
    space: impl Fn() -> SP,
) where
    M: Automaton + 'a,
    F: Fn(&M::State, &M::Action) -> u32,
    SP: StateSpace<M::State>,
{
    let in_core = explore().run_in(space()).unwrap();
    assert_eq!(csr_digest(&in_core.mdp).unwrap(), want, "{name}: run_in");
    let mut sink = CsrBuilder::new();
    let (streamed_space, summary) = explore().run_streamed(space(), &mut sink).unwrap();
    assert_eq!(streamed_space.len(), in_core.num_states());
    let csr = sink.finish(summary.initial);
    assert_eq!(csr_digest(&csr).unwrap(), want, "{name}: run_streamed");
}

/// The full round model has one digest, and the same state at every id,
/// in the boxed and the packed store (the arrow checks explore packed).
#[test]
fn round_model_full_space_is_pinned() {
    for (n, want) in [(3, 0x4c62_8a01_53e9_cd8d), (4, 0x8b76_234b_051d_6ad5)] {
        let m = RoundMdp::new(RoundConfig::new(n).unwrap());
        let explore = || Explore::new(&m).cost(round_cost).limit(LIMIT);
        let packed = || PackedSpace::new(RoundStateCodec::new(n).unwrap());
        assert_pinned(&format!("round n={n}"), want, explore, BoxedSpace::default);
        assert_pinned(&format!("round n={n}, packed"), want, explore, packed);
        let boxed = explore().run().unwrap();
        let packed = explore().run_in(packed()).unwrap();
        assert!(
            (0..boxed.num_states()).all(|i| boxed.state(i) == packed.state(i)),
            "round n={n}: boxed and packed states differ"
        );
    }
}

#[test]
fn claim_quotient_models_are_pinned() {
    // The five axioms in chain order, then the composed T —13→_{1/8} C.
    let pins: [(usize, [u64; 6]); 2] = [
        (
            3,
            [
                0x31b2_3b3c_a1bc_ff68,
                0xaca8_b5f8_8444_cfa0,
                0x29a0_0a1b_0002_c606,
                0x2140_b873_ff5f_6076,
                0x8cd2_4646_d314_40bf,
                0x6bf9_e0fe_2e56_bd16,
            ],
        ),
        (
            4,
            [
                0x046d_0c98_0e64_4e40,
                0xb8a7_5a1f_65ad_ee91,
                0xcb06_ea9e_cbc2_ee24,
                0x7ddb_1db0_30c3_d79a,
                0x5b5a_2d3a_3ed9_d45e,
                0xed00_82c1_bfa0_1f94,
            ],
        ),
    ];
    let mut arrows: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    arrows.push(paper::arrow_t_to_c());
    for (n, wants) in pins {
        let reachable = reachable_configs_quotient(n, LIMIT).unwrap();
        for (arrow, want) in arrows.iter().zip(wants) {
            let from = set_pred(arrow.from()).unwrap();
            let to = set_pred(arrow.to()).unwrap();
            let starts = reachable.iter().filter(|c| from(c)).copied().collect();
            let m = RoundMdp::new(RoundConfig::new(n).unwrap())
                .with_starts(starts)
                .with_absorb(move |c| to(c));
            assert_pinned(
                &format!("n={n} {arrow}"),
                want,
                || {
                    Explore::new(&m)
                        .cost(round_cost)
                        .limit(LIMIT)
                        .symmetry(RingRotation::new(n))
                },
                || PackedSpace::new(RoundStateCodec::new(n).unwrap()),
            );
        }
    }
}

#[test]
fn claim_dihedral_models_are_pinned() {
    // The six claim models as `check_arrow_quotient` explores them:
    // dihedral orbit representatives as starts, canonicalized under
    // rotation and reflection. Recorded when the dihedral quotient was
    // added; the rotation pins above are the same claims' rotation
    // quotients.
    let pins: [(usize, [u64; 6]); 2] = [
        (
            3,
            [
                0x641f_3645_0df2_08ba,
                0x9a76_cc35_28ee_6322,
                0x979c_6215_8da8_df65,
                0xa043_3ed7_0c55_7876,
                0x7191_0eb0_4678_44d2,
                0x0b4b_ad6c_4693_016d,
            ],
        ),
        (
            4,
            [
                0xe6a1_11c0_327c_abd2,
                0xb2d5_5c65_7a56_044b,
                0x2659_a1a0_8cd7_0e85,
                0xdfcf_8a57_72e7_7be3,
                0xb522_04a5_b605_99f8,
                0x00b5_f081_ba2e_5461,
            ],
        ),
    ];
    let mut arrows: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    arrows.push(paper::arrow_t_to_c());
    for (n, wants) in pins {
        let reachable = reachable_configs_in(n, LIMIT, Quotient::Dihedral).unwrap();
        for (arrow, want) in arrows.iter().zip(wants) {
            let from = set_pred(arrow.from()).unwrap();
            let to = set_pred(arrow.to()).unwrap();
            let starts = reachable.iter().filter(|c| from(c)).copied().collect();
            let m = RoundMdp::new(RoundConfig::new(n).unwrap())
                .with_starts(starts)
                .with_absorb(move |c| to(c));
            assert_pinned(
                &format!("dihedral n={n} {arrow}"),
                want,
                || {
                    Explore::new(&m)
                        .cost(round_cost)
                        .limit(LIMIT)
                        .symmetry(RingDihedral::new(n))
                },
                || PackedSpace::new(RoundStateCodec::new(n).unwrap()),
            );
        }
    }
}

#[test]
fn claim_reduced_dihedral_models_are_pinned() {
    // The six claim models as `check_arrow_quotient` explores them since
    // the partial-order reduction: the dihedral models above with the
    // intra-round interleavings reduced for each claim's target
    // ([`Reduced`]). Recorded when the reduction was added.
    let pins: [(usize, [u64; 6]); 2] = [
        (
            3,
            [
                0x8c75_139c_284c_b612,
                0x423e_4081_2c71_0e4d,
                0x02ca_591c_f69b_2560,
                0xac31_fa5c_d89f_153b,
                0xc153_f097_275b_2d6d,
                0x6b3d_aff3_f1e9_b9ca,
            ],
        ),
        (
            4,
            [
                0x57b4_7620_ab40_3a72,
                0xf8d0_2eec_c23d_4374,
                0x6ed0_6827_c86c_ae26,
                0xf4c1_4f35_3262_6f76,
                0x650b_9eb8_52b1_5436,
                0x0ace_7e68_b704_b79c,
            ],
        ),
    ];
    let mut arrows: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    arrows.push(paper::arrow_t_to_c());
    for (n, wants) in pins {
        let reachable = reachable_configs_in(n, LIMIT, Quotient::Dihedral).unwrap();
        for (arrow, want) in arrows.iter().zip(wants) {
            let from = set_pred(arrow.from()).unwrap();
            let to = set_pred(arrow.to()).unwrap();
            let starts = reachable.iter().filter(|c| from(c)).copied().collect();
            let m = Reduced::new(RoundMdp::new(RoundConfig::new(n).unwrap()), arrow.to())
                .unwrap()
                .starting_from(starts)
                .absorbing(move |c, _| to(c));
            assert_pinned(
                &format!("reduced dihedral n={n} {arrow}"),
                want,
                || {
                    Explore::new(&m)
                        .cost(round_cost)
                        .limit(LIMIT)
                        .symmetry(RingDihedral::new(n))
                },
                || PackedSpace::new(RoundStateCodec::new(n).unwrap()),
            );
        }
    }
}

/// Each default-grid plan's model has one digest in the boxed and the
/// packed store (the fault checks explore packed).
#[test]
fn faulty_round_models_are_pinned() {
    let pins = [
        ("none", 0x4c62_8a01_53e9_cd8d),
        ("crash-stop r2 p0", 0x2386_07f6_e6fa_0a1d),
        ("crash-restart r2 p0 d2", 0xd133_2fe9_619b_288a),
        ("drop r2 p0", 0x0dfb_6a7a_b169_3ab3),
    ];
    let grid = default_grid();
    assert_eq!(grid.len(), pins.len());
    for ((name, plan), (pinned_name, want)) in grid.into_iter().zip(pins) {
        assert_eq!(name, pinned_name);
        let m = FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), plan).unwrap();
        let explore = || Explore::new(&m).cost(faulty_round_cost).limit(LIMIT);
        let cap = m.round_cap();
        let packed = || PackedSpace::new(FaultyStateCodec::new(3, cap).unwrap());
        assert_pinned(
            &format!("faulty n=3 {name}"),
            want,
            explore,
            BoxedSpace::default,
        );
        assert_pinned(&format!("faulty n=3 {name}, packed"), want, explore, packed);
    }
}

#[test]
fn protocol_model_is_pinned() {
    let p = LrProtocol::new(4, UserModel::full()).unwrap();
    assert_pinned(
        "protocol n=4",
        0x0b30_4b41_599e_b248,
        || Explore::new(&p).limit(LIMIT),
        BoxedSpace::default,
    );
}

#[test]
fn faulty_round_quotient_is_pinned() {
    for (n, want) in [(3, 0xbb91_1c0e_8965_c5c7), (4, 0x84ef_d6e9_03b1_ca80)] {
        let m = FaultyRoundMdp::new(RoundConfig::new(n).unwrap(), FaultPlan::none()).unwrap();
        let cap = m.round_cap();
        assert_pinned(
            &format!("faulty quotient n={n} none"),
            want,
            || {
                Explore::new(&m)
                    .cost(faulty_round_cost)
                    .limit(LIMIT)
                    .symmetry(RingRotation::new(n))
            },
            || PackedSpace::new(FaultyStateCodec::new(n, cap).unwrap()),
        );
    }
}

#[test]
fn protocol_quotient_is_pinned() {
    // n = 6 (382,708 orbits) takes several seconds per engine path in
    // the debug test profile, so only n = 4 is pinned.
    let p = LrProtocol::new(4, UserModel::full()).unwrap();
    assert_pinned(
        "protocol quotient n=4",
        0x472c_27a2_065f_8852,
        || Explore::new(&p).limit(LIMIT).symmetry(RingRotation::new(4)),
        BoxedSpace::default,
    );
}
