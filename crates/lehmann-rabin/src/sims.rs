//! Concrete round schedulers, and the round simulator [`LrSim`] whose
//! trajectories `pa-mc`'s batch driver samples.
//!
//! Each scheduler resolves the adversary's two kinds of nondeterminism in
//! the round model: the *order* in which ready processes take their step
//! within a round, and the *exit-drop side* choice of Figure 1's line 7.
//! All schedulers here use the `burst = 1` semantics (each ready process
//! takes exactly one step per round) plus an eager user: idle processes
//! rejoin the competition at every round start, the saturated workload the
//! paper's progress claims are about.

use pa_mc::Trajectory;
use pa_prob::rng::SplitMix64;
use rand::RngExt;

use crate::{Config, LrProtocol, Pc, Side, UserModel};

/// A deterministic-or-randomized policy ordering the ready processes
/// within each round.
pub trait RoundScheduler: Send + Sync {
    /// Returns the scheduling order (a permutation of `ready`).
    fn order(
        &self,
        config: &Config,
        round: u32,
        ready: &[usize],
        rng: &mut SplitMix64,
    ) -> Vec<usize>;

    /// Resolves the exit-drop nondeterminism: which side to keep when a
    /// process leaves `E_F`. Defaults to keeping the right resource.
    fn exit_keep(&self, _config: &Config, _process: usize) -> Side {
        Side::Right
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Rotating round-robin: the starting process shifts by one each round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundScheduler for RoundRobin {
    fn order(
        &self,
        config: &Config,
        round: u32,
        ready: &[usize],
        _rng: &mut SplitMix64,
    ) -> Vec<usize> {
        let n = config.n();
        let offset = round as usize % n;
        let mut order: Vec<usize> = ready.to_vec();
        order.sort_by_key(|&i| (i + n - offset) % n);
        order
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Uniformly random order each round (an oblivious randomized scheduler).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRandom;

impl RoundScheduler for UniformRandom {
    fn order(
        &self,
        _config: &Config,
        _round: u32,
        ready: &[usize],
        rng: &mut SplitMix64,
    ) -> Vec<usize> {
        let mut order = ready.to_vec();
        // Fisher–Yates with the trial's deterministic stream.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        order
    }

    fn name(&self) -> &'static str {
        "uniform-random"
    }
}

/// An adaptive anti-progress heuristic: schedules resource *grabs* (wait
/// steps) before second-resource *tests*, so that a committed process finds
/// its second resource taken as often as the ordering can arrange. This is
/// the state-inspecting adversary style of Example 4.1, specialized to
/// delaying progress.
#[derive(Debug, Clone, Copy, Default)]
pub struct AntiProgress;

impl RoundScheduler for AntiProgress {
    fn order(
        &self,
        config: &Config,
        _round: u32,
        ready: &[usize],
        _rng: &mut SplitMix64,
    ) -> Vec<usize> {
        let mut order = ready.to_vec();
        let rank = |i: usize| match config.proc(i).pc {
            Pc::W => 0u8, // grab first resources early, creating contention
            Pc::D => 1,   // free + reflip quickly to re-enter the race
            Pc::F => 2,
            Pc::Ef | Pc::Es | Pc::Er => 3,
            Pc::S => 4, // test second resources as late as possible
            _ => 5,
        };
        order.sort_by_key(|&i| (rank(i), i));
        order
    }

    fn name(&self) -> &'static str {
        "anti-progress"
    }
}

/// The simulated state: the configuration plus the round counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// The protocol configuration after the last completed round.
    pub config: Config,
    /// Rounds completed so far.
    pub round: u32,
}

/// The Lehmann–Rabin protocol under a concrete scheduler, simulated one
/// round (one time unit) at a time. One round corresponds to one unit of
/// the paper's time: every ready process takes one step per round.
///
/// [`LrSim::trajectory`] runs one trial for [`pa_mc::run_trajectories`].
///
/// # Examples
///
/// ```
/// use pa_lehmann_rabin::regions;
/// use pa_lehmann_rabin::sims::{all_trying, LrSim, RoundRobin};
/// use pa_mc::{run_trajectories, McConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sim = LrSim::new(3, RoundRobin)?.with_start(all_trying(3)?);
/// let est = run_trajectories(&McConfig::new(2_000, 7, 13), |rng| {
///     sim.trajectory(regions::in_c, 13, rng)
/// })?;
/// // The paper guarantees ≥ 1/8 against the *worst* adversary; a concrete
/// // benign scheduler does much better.
/// assert!(est.point() > 0.125);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LrSim<S> {
    protocol: LrProtocol,
    scheduler: S,
    start: Config,
}

impl<S: RoundScheduler> LrSim<S> {
    /// Creates the system on a ring of `n` with the all-idle start.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LrError::BadRingSize`] for unsupported `n`.
    pub fn new(n: usize, scheduler: S) -> Result<LrSim<S>, crate::LrError> {
        Ok(LrSim {
            protocol: LrProtocol::new(n, UserModel::saturating())?,
            scheduler,
            start: Config::initial(n)?,
        })
    }

    /// Replaces the start configuration.
    pub fn with_start(mut self, start: Config) -> LrSim<S> {
        self.start = start;
        self
    }

    /// The scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Executes one step of process `i`, sampling probabilistic outcomes
    /// and resolving exit nondeterminism through the scheduler.
    fn step_process(&self, config: &Config, i: usize, rng: &mut SplitMix64) -> Config {
        let steps = self.protocol.steps_of_process(config, i);
        if steps.is_empty() {
            return *config;
        }
        let step = if steps.len() == 1 {
            &steps[0]
        } else {
            // Exit-drop variant pair: index 0 keeps Right, 1 keeps Left.
            match self.scheduler.exit_keep(config, i) {
                Side::Right => &steps[0],
                Side::Left => &steps[1],
            }
        };
        *step.target.sample(rng)
    }

    /// The state before the first round: the start configuration.
    pub fn initial(&self) -> SimState {
        SimState {
            config: self.start,
            round: 0,
        }
    }

    /// Advances the state by one round. Idle processes first issue `try`
    /// (the eager user), then every ready process takes one step in the
    /// scheduler's order.
    pub fn step_round(&self, state: SimState, rng: &mut SplitMix64) -> SimState {
        let mut config = state.config;
        // Eager user: idle processes issue try at the round start.
        for i in 0..config.n() {
            if config.proc(i).pc == Pc::R {
                config = self.step_process(&config, i, rng);
            }
        }
        let ready: Vec<usize> = (0..config.n())
            .filter(|&i| config.proc(i).pc.is_ready())
            .collect();
        let order = self.scheduler.order(&config, state.round, &ready, rng);
        debug_assert_eq!(order.len(), ready.len());
        for i in order {
            config = self.step_process(&config, i, rng);
        }
        SimState {
            config,
            round: state.round + 1,
        }
    }

    /// Runs one trial from the start until `target` holds or `cap` rounds
    /// elapse. The hit time is the number of rounds to the first
    /// configuration in `target` (0 when the start is already in it), and
    /// a trial censored at the cap is a miss. `steps` counts the rounds
    /// simulated.
    pub fn trajectory(
        &self,
        target: impl Fn(&Config) -> bool,
        cap: u32,
        rng: &mut SplitMix64,
    ) -> Trajectory {
        let mut state = self.initial();
        let mut hit_at = target(&state.config).then_some(0);
        while hit_at.is_none() && state.round < cap {
            state = self.step_round(state, rng);
            hit_at = target(&state.config).then_some(state.round);
        }
        Trajectory {
            hit_at,
            early: false,
            steps: u64::from(state.round),
        }
    }

    /// Records `rounds` rounds from the start: entry `k` is the state
    /// after `k` rounds, so the trace holds `rounds + 1` states.
    pub fn trace(&self, rounds: u32, rng: &mut SplitMix64) -> Vec<SimState> {
        let mut state = self.initial();
        let mut states = Vec::with_capacity(rounds as usize + 1);
        states.push(state.clone());
        for _ in 0..rounds {
            state = self.step_round(state, rng);
            states.push(state.clone());
        }
        states
    }
}

/// The all-trying start configuration: every process in `F`, every
/// resource free — the saturated workload.
///
/// # Errors
///
/// Returns [`crate::LrError::BadRingSize`] for unsupported `n`.
pub fn all_trying(n: usize) -> Result<Config, crate::LrError> {
    let mut c = Config::initial(n)?;
    for i in 0..n {
        c = c.with_proc(i, crate::ProcState::new(Pc::F, Side::Left));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lemma_6_1_invariant, regions};
    use pa_mc::{run_trajectories, McConfig};

    #[test]
    fn round_robin_rotates_the_starting_process() {
        let c = all_trying(3).unwrap();
        let ready = vec![0, 1, 2];
        let mut rng = SplitMix64::new(0);
        let r0 = RoundRobin.order(&c, 0, &ready, &mut rng);
        let r1 = RoundRobin.order(&c, 1, &ready, &mut rng);
        assert_eq!(r0, vec![0, 1, 2]);
        assert_eq!(r1, vec![1, 2, 0]);
    }

    #[test]
    fn uniform_random_is_a_permutation() {
        let c = all_trying(3).unwrap();
        let ready = vec![0, 1, 2];
        let mut rng = SplitMix64::new(5);
        let mut r = UniformRandom.order(&c, 0, &ready, &mut rng);
        r.sort_unstable();
        assert_eq!(r, ready);
    }

    #[test]
    fn anti_progress_puts_waiters_before_testers() {
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, crate::ProcState::new(Pc::S, Side::Right))
            .with_res(0, true)
            .with_proc(1, crate::ProcState::new(Pc::W, Side::Left));
        let mut rng = SplitMix64::new(0);
        let order = AntiProgress.order(&c, 0, &[0, 1], &mut rng);
        assert_eq!(order, vec![1, 0], "W before S");
    }

    #[test]
    fn simulation_preserves_lemma_6_1() {
        let sim = LrSim::new(4, UniformRandom)
            .unwrap()
            .with_start(all_trying(4).unwrap());
        let mut rng = SplitMix64::new(11);
        let trace = sim.trace(200, &mut rng);
        assert_eq!(trace.len(), 201);
        for s in &trace {
            assert!(lemma_6_1_invariant(&s.config), "violated at {}", s.config);
        }
    }

    #[test]
    fn progress_happens_under_every_scheduler() {
        // Some process reaches C quickly under each concrete scheduler.
        fn check<S: RoundScheduler>(s: S) {
            let name = s.name();
            let sim = LrSim::new(3, s).unwrap().with_start(all_trying(3).unwrap());
            let est = run_trajectories(&McConfig::new(200, 3, 200), |rng| {
                sim.trajectory(regions::in_c, 200, rng)
            })
            .unwrap();
            let (stats, censored) = est.time_stats();
            assert_eq!(censored, 0, "{name}: some trial starved");
            assert!(stats.mean() < 20.0, "{name}: mean {}", stats.mean());
        }
        check(RoundRobin);
        check(UniformRandom);
        check(AntiProgress);
    }

    #[test]
    fn paper_bound_holds_statistically_under_adversarial_heuristic() {
        let sim = LrSim::new(3, AntiProgress)
            .unwrap()
            .with_start(all_trying(3).unwrap());
        let est = run_trajectories(&McConfig::new(4_000, 17, 13), |rng| {
            sim.trajectory(regions::in_c, 13, rng)
        })
        .unwrap();
        let ci = est.interval(pa_prob::stats::Z_99);
        assert!(
            ci.lo().value() >= 0.125,
            "P[T →13 C] CI {ci} fell below the paper's 1/8 bound"
        );
    }

    #[test]
    fn eager_user_rejoins_idle_processes() {
        let sim = LrSim::new(3, RoundRobin).unwrap();
        let mut rng = SplitMix64::new(2);
        let s0 = sim.initial();
        assert_eq!(s0.config.proc(0).pc, Pc::R);
        let s1 = sim.step_round(s0, &mut rng);
        // After one round with the eager user, nobody is still idle.
        for i in 0..3 {
            assert_ne!(s1.config.proc(i).pc, Pc::R);
        }
        assert_eq!(s1.round, 1);
    }

    #[test]
    fn trajectory_hits_at_the_first_round_in_the_target() {
        let sim = LrSim::new(3, UniformRandom)
            .unwrap()
            .with_start(all_trying(3).unwrap());
        let trace = sim.trace(40, &mut SplitMix64::new(9));
        let first = trace.iter().position(|s| regions::in_c(&s.config)).unwrap() as u32;
        let hit = sim.trajectory(regions::in_c, 40, &mut SplitMix64::new(9));
        assert_eq!(hit.hit_at, Some(first));
        assert_eq!(hit.steps, u64::from(first));
        // The start state is checked before any round runs.
        let at_start = sim.trajectory(|c| c.n() == 3, 40, &mut SplitMix64::new(9));
        assert_eq!((at_start.hit_at, at_start.steps), (Some(0), 0));
        // A trial censored at the cap is a miss after `cap` rounds.
        let censored = sim.trajectory(|_| false, 7, &mut SplitMix64::new(9));
        assert_eq!((censored.hit_at, censored.steps), (None, 7));
    }

    #[test]
    fn rounds_count_up() {
        let sim = LrSim::new(2, RoundRobin).unwrap();
        let mut rng = SplitMix64::new(2);
        let mut s = sim.initial();
        for expect in 1..=5 {
            s = sim.step_round(s, &mut rng);
            assert_eq!(s.round, expect);
        }
    }
}
