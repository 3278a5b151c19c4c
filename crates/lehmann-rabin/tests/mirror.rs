//! The mirror image is a symmetry of the Lehmann–Rabin models: the laws
//! behind dihedral quotient exploration ([`pa_mdp::RingDihedral`]), checked
//! on reachable configurations, round states and fault-wrapped states
//! under the empty plan.
//!
//! * the steps of the mirror are the mirrored steps, as a multiset of
//!   cost-labelled distributions;
//! * reflecting twice is the identity, and reflecting after rotation `k`
//!   is rotation `n − k` after reflecting;
//! * the dihedral canon is the least of the `2n` images, idempotent and
//!   invariant on the orbit;
//! * every region predicate is mirror-invariant, under any crash mask
//!   mirrored with the processes.
//!
//! A mirror that forgets to flip sides, or that maps `Res_j` to
//! `Res_{n−1−j}` instead of `Res_{n−2−j}`, fails these tests.

use std::fmt::Debug;

use pa_core::Automaton;
use pa_faults::{faulty_round_cost, FaultPlan, FaultyRoundMdp};
use pa_lehmann_rabin::{
    reachable_configs, region_pred_under, round_cost, sims::all_trying, Config, LrProtocol,
    RoundConfig, RoundMdp, UserModel,
};
use pa_mdp::{reflect_lanes, MirrorRingState, RingDihedral, Symmetry};
use pa_prob::rng::SplitMix64;
use rand::RngExt;

const ATOMS: [&str; 6] = ["T", "C", "RT", "F", "G", "P"];

/// One choice as a comparable value: its cost and its outcomes, sorted.
type Choice<S> = (u32, Vec<(S, u64)>);

/// The choices of `s` with every target mapped through `image`, as a
/// sorted multiset.
fn choices<M: Automaton>(
    model: &M,
    s: &M::State,
    cost: &impl Fn(&M::State, &M::Action) -> u32,
    image: impl Fn(&M::State) -> M::State,
) -> Vec<Choice<M::State>>
where
    M::State: Ord,
{
    let mut out = Vec::new();
    model.for_each_step(s, |action, outcomes| {
        let mut dist: Vec<_> = outcomes
            .iter()
            .map(|(t, p)| (image(t), p.to_bits()))
            .collect();
        dist.sort();
        out.push((cost(s, action), dist));
    });
    out.sort();
    out
}

/// All `2n` images of `s`: its rotations, then its mirror's rotations.
fn images<S: MirrorRingState>(s: &S, n: usize) -> Vec<S> {
    let mirror = s.reflected();
    (0..n)
        .map(|k| s.rotated(k))
        .chain((0..n).map(|k| mirror.rotated(k)))
        .collect()
}

/// The group laws and the canon laws on one state.
fn check_state<S: MirrorRingState + Debug + Send + Sync>(s: &S, n: usize) {
    let mirror = s.reflected();
    assert_eq!(&mirror.reflected(), s, "reflecting twice: {s:?}");
    for k in 0..n {
        assert_eq!(
            s.rotated(k).reflected(),
            mirror.rotated((n - k) % n),
            "reflect ∘ rotate({k}) on {s:?}"
        );
    }
    let sym = RingDihedral::new(n);
    let all = images(s, n);
    let canon = sym.canon(s);
    assert_eq!(Some(&canon), all.iter().min(), "least image of {s:?}");
    assert_eq!(sym.canon(&canon), canon, "idempotent on {s:?}");
    for (i, image) in all.iter().enumerate() {
        assert_eq!(sym.canon(image), canon, "image {i} of {s:?}");
    }
}

/// Walks `model` at random for `len` steps, checking the state laws on
/// every visited state and successor, and step equivariance on every
/// visited state.
fn walk<M>(model: &M, n: usize, seed: u64, len: usize, cost: impl Fn(&M::State, &M::Action) -> u32)
where
    M: Automaton,
    M::State: MirrorRingState + Debug + Send + Sync,
{
    let mut rng = SplitMix64::new(seed);
    let mut state = model.start_states().remove(0);
    for _ in 0..len {
        check_state(&state, n);
        let mirrored = choices(model, &state, &cost, |t| t.reflected());
        let of_mirror = choices(model, &state.reflected(), &cost, |t| t.clone());
        assert_eq!(
            mirrored, of_mirror,
            "n = {n}, seed {seed}: steps of the mirror of {state:?}"
        );
        let steps = model.steps(&state);
        for step in &steps {
            step.target.support().for_each(|t| check_state(t, n));
        }
        if steps.is_empty() {
            return;
        }
        let step = &steps[rng.random_range(0..steps.len())];
        state = step.target.sample(&mut rng).clone();
    }
}

/// The protocol automaton started from one configuration.
struct FromStart {
    protocol: LrProtocol,
    start: Config,
}

impl Automaton for FromStart {
    type State = Config;
    type Action = pa_lehmann_rabin::LrAction;

    fn start_states(&self) -> Vec<Config> {
        vec![self.start]
    }

    fn steps(&self, state: &Config) -> Vec<pa_core::Step<Config, Self::Action>> {
        self.protocol.steps(state)
    }
}

#[test]
fn mirrored_steps_are_the_steps_of_the_mirror_along_random_walks() {
    // Protocol, round model (bursts up to 15 fill the budget nibbles) and
    // the fault-wrapped round model under the empty plan, from the
    // all-trying and the all-idle start, at every ring size up to 16.
    for n in 2..=16 {
        for seed in 0..3u64 {
            let mut rng = SplitMix64::new(seed * 131 + n as u64);
            let start = if seed % 2 == 0 {
                all_trying(n).unwrap()
            } else {
                Config::initial(n).unwrap()
            };
            let protocol = FromStart {
                protocol: LrProtocol::new(n, UserModel::full()).unwrap(),
                start,
            };
            walk(&protocol, n, seed, 40, |_, _| 1);

            let burst = rng.random_range(1..16usize) as u8;
            let cfg = RoundConfig::new(n).unwrap().with_burst(burst).unwrap();
            let round = RoundMdp::new(cfg).with_starts(vec![start]);
            walk(&round, n, seed, 40, round_cost);

            let faulty = FaultyRoundMdp::new(cfg, FaultPlan::none())
                .unwrap()
                .with_starts(vec![start]);
            walk(&faulty, n, seed, 40, faulty_round_cost);
        }
    }
}

#[test]
fn every_reachable_configuration_steps_like_its_mirror() {
    for n in 3..=4 {
        let protocol = LrProtocol::new(n, UserModel::full()).unwrap();
        for c in reachable_configs(n, 1_000_000).unwrap() {
            check_state(&c, n);
            let cost = |_: &Config, _: &pa_lehmann_rabin::LrAction| 1;
            assert_eq!(
                choices(&protocol, &c, &cost, |t| t.reflected()),
                choices(&protocol, &c.reflected(), &cost, |t| *t),
                "n = {n}: {c}"
            );
        }
    }
}

#[test]
fn every_region_is_mirror_invariant_on_reachable_configurations() {
    // Each atom agrees on a configuration and its mirror, fault-free and
    // under every crash mask moved with its processes.
    for n in 3..=5 {
        let configs = reachable_configs(n, 1_000_000).unwrap();
        for atom in ATOMS {
            let pred = region_pred_under(atom).unwrap();
            let mut members = 0;
            for c in &configs {
                let mirror = c.reflected();
                for crashed in 0..1u32 << n {
                    let mirrored = reflect_lanes(u128::from(crashed), 1, n) as u32;
                    assert_eq!(
                        pred(c, crashed),
                        pred(&mirror, mirrored),
                        "n = {n}, {atom}, crashed {crashed:b}: {c} vs {mirror}"
                    );
                }
                members += usize::from(pred(c, 0));
            }
            assert!(members > 0, "n = {n}: no reachable configuration in {atom}");
        }
    }
}

#[test]
fn the_mirror_flips_live_sides_and_maps_res_j_to_res_n_minus_2_minus_j() {
    use pa_lehmann_rabin::{Pc, ProcState, Side};
    // Process 0 in S→ holds Res_0 (between processes 0 and 1). In the
    // mirror it is process 3 in S←, holding the same resource, which is
    // now Res_2 (between processes 2 and 3); the dead side of process 2's
    // F stays Left.
    let s = |pc, side| ProcState::new(pc, side);
    let c = Config::from_parts(
        vec![
            s(Pc::S, Side::Right),
            s(Pc::R, Side::Left),
            s(Pc::F, Side::Left),
            s(Pc::R, Side::Left),
        ],
        [0],
    )
    .unwrap();
    let m = c.reflected();
    assert_eq!(m.to_string(), "⟨R F R S←⟩");
    assert_eq!(m.proc(3), s(Pc::S, Side::Left));
    assert_eq!(m.proc(1), s(Pc::F, Side::Left));
    assert!((0..4).all(|j| m.res_taken(j) == (j == 2)));
    assert!(pa_lehmann_rabin::lemma_6_1_invariant(&m));
    // Res_{n-1} (between processes n-1 and 0) is its own mirror.
    let wrap = Config::initial(4).unwrap().with_res(3, true);
    assert_eq!(wrap.reflected(), wrap);
}
