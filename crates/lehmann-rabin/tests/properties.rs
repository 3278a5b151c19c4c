//! Property-based tests for the Lehmann–Rabin protocol semantics.

use pa_core::{Automaton, Step};
use pa_lehmann_rabin::{
    lemma_6_1_invariant, regions, Config, LrAction, LrProtocol, Pc, ProcState, RoundConfig,
    RoundMdp, Side, UserModel,
};
use pa_mdp::{Explore, Objective, Query};
use pa_prob::rng::SplitMix64;
use proptest::prelude::*;
use rand::RngExt;

fn side() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Left), Just(Side::Right)]
}

fn pc() -> impl Strategy<Value = Pc> {
    prop::sample::select(Pc::ALL.to_vec())
}

fn proc_state() -> impl Strategy<Value = ProcState> {
    (pc(), side()).prop_map(|(pc, s)| ProcState::new(pc, s))
}

/// A random *reachable-looking* configuration: local states are arbitrary
/// but resources are set to the Lemma 6.1-derived values, and exclusivity
/// is enforced by assumption filtering.
fn consistent_config() -> impl Strategy<Value = Config> {
    (2usize..6, prop::collection::vec(proc_state(), 6))
        .prop_map(|(n, procs)| {
            let procs: Vec<ProcState> = procs.into_iter().take(n).collect();
            let probe = Config::from_parts(procs.clone(), []).expect("valid size");
            let taken: Vec<usize> = (0..n).filter(|&i| probe.derived_res_taken(i)).collect();
            Config::from_parts(procs, taken).expect("valid size")
        })
        .prop_filter("exclusive resources", |c| {
            (0..c.n()).all(|i| c.resource_exclusive(i))
        })
}

/// The protocol automaton re-rooted at an arbitrary configuration, so
/// analyses can start from any (not just the canonical initial) state.
struct FromStart {
    protocol: LrProtocol,
    start: Config,
}

impl Automaton for FromStart {
    type State = Config;
    type Action = LrAction;

    fn start_states(&self) -> Vec<Config> {
        vec![self.start]
    }

    fn steps(&self, state: &Config) -> Vec<Step<Config, LrAction>> {
        self.protocol.steps(state)
    }
}

/// Rotates the ring by `r`: new process `i` is old process `i + r`, new
/// `Res_j` is old `Res_{j+r}` (which keeps "right resource of process `i`
/// is `Res_i`" intact).
fn rotate(c: &Config, r: usize) -> Config {
    let n = c.n();
    Config::from_parts(
        (0..n).map(|i| c.proc(i + r)).collect(),
        (0..n).filter(|&j| c.res_taken(j + r)),
    )
    .unwrap()
}

/// Like [`consistent_config`], but capped at `n ≤ 4` so that exhaustive
/// exploration from the configuration stays cheap inside a property.
fn small_consistent_config() -> impl Strategy<Value = Config> {
    (2usize..5, prop::collection::vec(proc_state(), 4))
        .prop_map(|(n, procs)| {
            let procs: Vec<ProcState> = procs.into_iter().take(n).collect();
            let probe = Config::from_parts(procs.clone(), []).expect("valid size");
            let taken: Vec<usize> = (0..n).filter(|&i| probe.derived_res_taken(i)).collect();
            Config::from_parts(procs, taken).expect("valid size")
        })
        .prop_filter("exclusive resources", |c| {
            (0..c.n()).all(|i| c.resource_exclusive(i))
        })
}

proptest! {
    #[test]
    fn consistent_configs_satisfy_lemma_6_1(c in consistent_config()) {
        prop_assert!(lemma_6_1_invariant(&c));
    }

    #[test]
    fn transitions_preserve_lemma_6_1(c in consistent_config(), picks in prop::collection::vec((0usize..6, 0usize..2, any::<u64>()), 1..30)) {
        let protocol = LrProtocol::new(c.n(), UserModel::full()).unwrap();
        let mut config = c;
        for (i, variant, seed) in picks {
            let i = i % config.n();
            let steps = protocol.steps_of_process(&config, i);
            if steps.is_empty() {
                continue;
            }
            let step = &steps[variant % steps.len()];
            let mut rng = SplitMix64::new(seed);
            config = *step.target.sample(&mut rng);
            prop_assert!(lemma_6_1_invariant(&config), "after {:?} at {config}", step.action);
        }
    }

    #[test]
    fn region_containments_hold(c in consistent_config()) {
        // G ⊆ RT ⊆ T and F ⊆ RT.
        if regions::in_g(&c) {
            prop_assert!(regions::in_rt(&c));
        }
        if regions::in_f(&c) {
            prop_assert!(regions::in_rt(&c));
        }
        if regions::in_rt(&c) {
            prop_assert!(regions::in_t(&c));
            prop_assert!(!regions::in_c(&c), "RT excludes critical states");
        }
    }

    #[test]
    fn good_processes_are_committed(c in consistent_config()) {
        for i in regions::good_processes(&c) {
            prop_assert!(regions::is_committed(&c, i));
        }
    }

    #[test]
    fn ready_mask_matches_pc_readiness(c in consistent_config()) {
        let mask = c.ready_mask();
        for i in 0..c.n() {
            prop_assert_eq!(mask & (1 << i) != 0, c.proc(i).pc.is_ready());
        }
    }

    #[test]
    fn canonicalization_is_idempotent(c in consistent_config()) {
        let again = Config::from_parts(
            c.procs().to_vec(),
            (0..c.n()).filter(|&i| c.res_taken(i)),
        ).unwrap();
        prop_assert_eq!(again, c);
    }

    #[test]
    fn round_steps_discharge_obligations_monotonically(
        c in consistent_config(),
        picks in prop::collection::vec((0usize..16, any::<u64>()), 1..20),
    ) {
        let mdp = RoundMdp::new(RoundConfig::new(c.n()).unwrap());
        let mut state = mdp.fresh(c);
        for (pick, seed) in picks {
            let steps = mdp.steps(&state);
            prop_assert!(!steps.is_empty(), "round model never deadlocks");
            let step = &steps[pick % steps.len()];
            let before_obliged = state.obliged.count_ones();
            let mut rng = SplitMix64::new(seed);
            let next = step.target.sample(&mut rng).clone();
            match step.action {
                pa_lehmann_rabin::RoundAction::Schedule(a) => {
                    let i = a.process();
                    prop_assert!(next.budget_of(i) < state.budget_of(i));
                    prop_assert!(next.obliged.count_ones() <= before_obliged);
                }
                pa_lehmann_rabin::RoundAction::EndRound => {
                    prop_assert_eq!(state.obliged, 0, "EndRound only when discharged");
                    prop_assert_eq!(next.obliged, next.config.ready_mask());
                }
            }
            state = next;
        }
    }

    #[test]
    fn ring_rotation_preserves_invariant_and_regions(c in consistent_config(), r in 0usize..6) {
        // The ring is anonymous: relabelling process i as i - r (and
        // resource j as j - r) maps reachable configurations to reachable
        // configurations and preserves every region. Rotate so that new
        // process i is old process (i + r) and new Res_j is old Res_{j+r},
        // which keeps "right resource of process i is Res_i" intact.
        let n = c.n();
        let r = r % n;
        let procs: Vec<ProcState> = (0..n).map(|i| c.proc(i + r)).collect();
        let rot = Config::from_parts(
            procs,
            (0..n).filter(|&j| c.res_taken(j + r)),
        ).unwrap();

        prop_assert_eq!(lemma_6_1_invariant(&rot), lemma_6_1_invariant(&c));
        prop_assert_eq!(regions::in_t(&rot), regions::in_t(&c));
        prop_assert_eq!(regions::in_rt(&rot), regions::in_rt(&c));
        prop_assert_eq!(regions::in_g(&rot), regions::in_g(&c));
        prop_assert_eq!(regions::in_f(&rot), regions::in_f(&c));
        prop_assert_eq!(regions::in_c(&rot), regions::in_c(&c));
        for i in 0..n {
            prop_assert_eq!(
                regions::is_committed(&rot, i),
                regions::is_committed(&c, i + r),
                "process {} vs {}", i, (i + r) % n
            );
            prop_assert_eq!(
                rot.ready_mask() & (1 << i) != 0,
                c.ready_mask() & (1 << ((i + r) % n)) != 0
            );
        }
        // Good processes rotate as a set.
        let mut good_rot: Vec<usize> = regions::good_processes(&rot);
        let mut good_src: Vec<usize> =
            regions::good_processes(&c).into_iter().map(|i| (i + n - r) % n).collect();
        good_rot.sort_unstable();
        good_src.sort_unstable();
        prop_assert_eq!(good_rot, good_src);
    }

    #[test]
    fn rotation_canon_is_idempotent_and_orbit_invariant(c in consistent_config(), k in 0usize..6) {
        // The two laws the `pa_mdp::Symmetry` contract demands, on real
        // protocol configurations: canon(canon(s)) == canon(s) and
        // canon(rotate(s, k)) == canon(s) for every rotation amount.
        use pa_mdp::{RingRotation, Symmetry};
        let n = c.n();
        let sym = RingRotation::new(n);
        let canon = sym.canon(&c);
        prop_assert_eq!(sym.canon(&canon), canon.clone(), "idempotent on {}", c);
        prop_assert_eq!(sym.canon(&rotate(&c, k % n)), canon, "orbit-invariant on {}", c);
    }

    #[test]
    fn round_state_canon_is_idempotent_and_orbit_invariant(c in consistent_config(), k in 0usize..6) {
        // Same laws one layer up, on round states (config + obligations +
        // budgets), which is what quotient exploration actually
        // canonicalizes.
        use pa_mdp::{RingRotation, Symmetry};
        let n = c.n();
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        let s = mdp.fresh(c);
        let sym = RingRotation::new(n);
        let canon = sym.canon(&s);
        prop_assert_eq!(sym.canon(&canon), canon.clone(), "idempotent");
        prop_assert_eq!(sym.canon(&s.rotated(k % n)), canon, "orbit-invariant");
    }

    #[test]
    fn round_state_codec_round_trips_along_random_walks(
        c in consistent_config(),
        picks in prop::collection::vec((0usize..16, any::<u64>()), 1..20),
    ) {
        // The bit-packed codec must be lossless on every state the round
        // model can actually reach, not just on fresh starts: walk a
        // random trajectory and round-trip each state on the way.
        use pa_lehmann_rabin::RoundStateCodec;
        use pa_mdp::StateCodec;
        let n = c.n();
        let codec = RoundStateCodec::new(n).unwrap();
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        let mut state = mdp.fresh(c);
        for (pick, seed) in picks {
            prop_assert_eq!(&codec.unpack(&codec.pack(&state)), &state);
            let steps = mdp.steps(&state);
            prop_assert!(!steps.is_empty());
            let step = &steps[pick % steps.len()];
            let mut rng = SplitMix64::new(seed);
            state = step.target.sample(&mut rng).clone();
        }
    }

    #[test]
    fn value_iteration_from_rotated_start_agrees(
        c in small_consistent_config(),
        r in 1usize..4,
        budget in 0u32..5,
    ) {
        // The ring is anonymous, so the probability of reaching the
        // critical region within any time budget is invariant under
        // rotating the start configuration. The two explorations visit
        // isomorphic (but differently ordered) state spaces, so values
        // agree up to value-iteration tolerance, not bitwise.
        let n = c.n();
        let r = r % n;
        let protocol = LrProtocol::new(n, UserModel::full()).unwrap();
        let rot = rotate(&c, r);
        let ea = Explore::new(&FromStart { protocol, start: c })
            .cost(|_, _| 1)
            .limit(500_000)
            .run()
            .unwrap();
        let eb = Explore::new(&FromStart { protocol, start: rot })
            .cost(|_, _| 1)
            .limit(500_000)
            .run()
            .unwrap();
        prop_assert_eq!(ea.mdp.num_states(), eb.mdp.num_states(), "isomorphic spaces");
        let ta = ea.target_where(regions::in_c);
        let tb = eb.target_where(regions::in_c);
        for objective in [Objective::MinProb, Objective::MaxProb] {
            let va = Query::csr(&ea.mdp)
                .objective(objective)
                .target(&ta)
                .horizon(budget)
                .run()
                .unwrap()
                .values;
            let vb = Query::csr(&eb.mdp)
                .objective(objective)
                .target(&tb)
                .horizon(budget)
                .run()
                .unwrap()
                .values;
            let sa = ea.mdp.initial_states()[0];
            let sb = eb.mdp.initial_states()[0];
            prop_assert!(
                (va[sa] - vb[sb]).abs() <= 1e-12,
                "{:?}: {} vs {}", objective, va[sa], vb[sb]
            );
        }
    }

    #[test]
    fn simulation_rounds_preserve_regions_invariants(n in 2usize..6, seed in any::<u64>()) {
        use pa_lehmann_rabin::sims::{all_trying, LrSim, UniformRandom};
        let sim = LrSim::new(n, UniformRandom).unwrap().with_start(all_trying(n).unwrap());
        let mut rng = SplitMix64::new(seed);
        let mut state = sim.initial();
        for _ in 0..40 {
            state = sim.step_round(state, &mut rng);
            prop_assert!(lemma_6_1_invariant(&state.config));
            // At most floor(n/2) philosophers hold both resources.
            let both = state.config.procs().iter().filter(|p| p.pc.holds_both()).count();
            prop_assert!(both <= n / 2);
        }
        let _ = rng.random_bool(0.5);
    }
}

/// The first least rotation by comparing every rotated state: the
/// selection rule of `pa_mdp::RingState::least_rotation`'s default.
fn naive_least_rotation<S: pa_mdp::RingState>(s: &S, n: usize) -> usize {
    let mut best = s.clone();
    let mut best_k = 0;
    for k in 1..n {
        let r = s.rotated(k);
        if r < best {
            best = r;
            best_k = k;
        }
    }
    best_k
}

/// Asserts that `least_rotation` agrees with the naive rule on `s`, and
/// returns the rotation both pick.
fn checked_least_rotation<S: pa_mdp::RingState + std::fmt::Debug>(s: &S, n: usize) -> usize {
    let k = naive_least_rotation(s, n);
    assert_eq!(pa_mdp::RingState::least_rotation(s, n), k, "n = {n}: {s:?}");
    k
}

/// A ring of `n` processes repeating `period` distinct local states in
/// increasing order, so the lane word is least at every multiple of the
/// period, `k = 0` included.
fn periodic_procs(n: usize, period: usize) -> Vec<ProcState> {
    let palette = [
        ProcState::new(Pc::F, Side::Left),
        ProcState::new(Pc::W, Side::Right),
        ProcState::new(Pc::S, Side::Left),
        ProcState::new(Pc::C, Side::Left),
    ];
    (0..n).map(|i| palette[i % period]).collect()
}

#[test]
fn tied_lane_words_fall_back_to_the_full_key() {
    // Rotation-periodic process patterns tie on the lane word at every
    // multiple of the period, so the resource, obligation, budget or
    // status word must decide. A lone bit or nibble at `j`, the start of
    // the last period, reaches position 0 only under rotation `j`, which
    // therefore wins each tie-break.
    use pa_faults::FaultyRoundState;
    use pa_lehmann_rabin::RoundState;
    for n in [4, 6, 8, 16] {
        for period in [1, 2, 4].into_iter().filter(|&p| p < n && n % p == 0) {
            let procs = periodic_procs(n, period);
            let j = n - period;
            let plain = Config::from_parts(procs.clone(), []).unwrap();
            assert_eq!(
                plain.unique_least_rotation(),
                None,
                "n = {n}, period {period}"
            );
            assert_eq!(checked_least_rotation(&plain, n), 0);
            let by_res = Config::from_parts(procs, [j]).unwrap();
            assert_eq!(checked_least_rotation(&by_res, n), j);
            let round = |obliged, budget| RoundState {
                config: plain,
                obliged,
                budget,
            };
            assert_eq!(checked_least_rotation(&round(1 << j, 0), n), j);
            assert_eq!(checked_least_rotation(&round(0, 0x3 << (4 * j)), n), j);
            let faulty = FaultyRoundState {
                inner: round(0, 0),
                status: 0x5 << (4 * j),
                round: 1,
            };
            assert_eq!(checked_least_rotation(&faulty, n), j);
        }
    }
}

#[test]
fn a_fully_uniform_state_is_its_own_least_rotation() {
    use pa_faults::FaultyRoundState;
    use pa_lehmann_rabin::RoundState;
    for n in [4, 6, 8, 16] {
        let all =
            |width: u32, value: u64| (0..n).fold(0u64, |acc, i| acc | value << (width * i as u32));
        let config = Config::from_parts(periodic_procs(n, 1), 0..n).unwrap();
        let state = FaultyRoundState {
            inner: RoundState {
                config,
                obliged: all(1, 1) as u32,
                budget: all(4, 0x7),
            },
            status: all(4, 0x2),
            round: 3,
        };
        assert_eq!(checked_least_rotation(&config, n), 0);
        assert_eq!(checked_least_rotation(&state.inner, n), 0);
        assert_eq!(checked_least_rotation(&state, n), 0);
    }
}

#[test]
fn a_unique_least_lane_word_beats_smaller_secondary_words() {
    // One process `m` with the least local state makes rotation `m` the
    // unique least lane word. The secondary words all have their bit or
    // nibble at `m - 1`: rotation `m` moves it to the top position
    // (largest), rotation `m - 1` to position 0 (smallest), yet `m` wins.
    use pa_faults::FaultyRoundState;
    use pa_lehmann_rabin::RoundState;
    for n in [4, 6, 8, 16] {
        let m = n / 2;
        let mut procs = vec![ProcState::new(Pc::S, Side::Left); n];
        procs[m] = ProcState::new(Pc::F, Side::Left);
        let config = Config::from_parts(procs, [m - 1]).unwrap();
        let state = FaultyRoundState {
            inner: RoundState {
                config,
                obliged: 1 << (m - 1),
                budget: 0xF << (4 * (m - 1)),
            },
            status: 0xE << (4 * (m - 1)),
            round: 1,
        };
        assert_eq!(config.unique_least_rotation(), Some(m));
        let (won, beaten) = (state.rotated(m), state.rotated(m - 1));
        assert!(beaten.inner.config.res_taken(0) && won.inner.config.res_taken(n - 1));
        assert!(beaten.inner.obliged < won.inner.obliged);
        assert!(beaten.inner.budget < won.inner.budget);
        assert!(beaten.status < won.status);
        assert_eq!(checked_least_rotation(&config, n), m);
        assert_eq!(checked_least_rotation(&state.inner, n), m);
        assert_eq!(checked_least_rotation(&state, n), m);
    }
}

/// Checks the word-level `least_rotation` of `s` and of every successor
/// of every step against the naive rule, then follows a random step.
fn walk_checking_least_rotation<M>(model: &M, n: usize, seed: u64, len: usize)
where
    M: Automaton,
    M::State: pa_mdp::RingState + std::fmt::Debug + Send + Sync,
{
    use pa_mdp::{RingRotation, RingState, Symmetry};
    let sym = RingRotation::new(n);
    let check = |s: &M::State| {
        let k = naive_least_rotation(s, n);
        assert_eq!(s.least_rotation(n), k, "n = {n}, seed {seed}: {s:?}");
        let canon = if k == 0 { s.clone() } else { s.rotated(k) };
        assert!(
            sym.canon(s) == canon,
            "n = {n}, seed {seed}: canon of {s:?}"
        );
    };
    let mut rng = SplitMix64::new(seed);
    let mut state = model.start_states().remove(0);
    for _ in 0..len {
        check(&state);
        let steps = model.steps(&state);
        for step in &steps {
            step.target.support().for_each(check);
        }
        if steps.is_empty() {
            return;
        }
        let step = &steps[rng.random_range(0..steps.len())];
        state = step.target.sample(&mut rng).clone();
    }
}

#[test]
fn word_level_least_rotation_matches_the_naive_rule_up_to_n16() {
    // Along random trajectories of the protocol, the round model and the
    // fault-wrapped round model, for every ring size: the integer-key
    // override must pick the same rotation as comparing all rotated
    // states. Bursts up to 15 fill the budget nibbles, so at n = 16 the
    // budget and status words use all 64 bits.
    use pa_faults::{FaultEvent, FaultKind, FaultPlan, FaultyRoundMdp};
    for n in 2..=16 {
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(seed * 101 + n as u64);
            let start = if seed % 2 == 0 {
                pa_lehmann_rabin::sims::all_trying(n).unwrap()
            } else {
                Config::initial(n).unwrap()
            };
            let protocol = FromStart {
                protocol: LrProtocol::new(n, UserModel::full()).unwrap(),
                start,
            };
            walk_checking_least_rotation(&protocol, n, seed, 60);

            let burst = rng.random_range(1..16usize) as u8;
            let cfg = RoundConfig::new(n).unwrap().with_burst(burst).unwrap();
            let round = RoundMdp::new(cfg).with_starts(vec![start]);
            walk_checking_least_rotation(&round, n, seed, 60);

            let mut events = Vec::new();
            for process in 0..n {
                if rng.random_bool(0.5) {
                    let kind = match rng.random_range(0..3usize) {
                        0 => FaultKind::CrashStop,
                        1 => FaultKind::CrashRestart {
                            downtime: rng.random_range(1..15u32),
                        },
                        _ => FaultKind::DropObligation,
                    };
                    let round = rng.random_range(1..4u32);
                    events.push(FaultEvent {
                        round,
                        process,
                        kind,
                    });
                }
            }
            let faulty = FaultyRoundMdp::new(cfg, FaultPlan::new(events).unwrap())
                .unwrap()
                .with_starts(vec![start]);
            walk_checking_least_rotation(&faulty, n, seed, 60);
        }
    }
}
