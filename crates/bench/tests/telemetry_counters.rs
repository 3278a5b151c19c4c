//! Every instrumented crate records into the global telemetry registry.
//!
//! The registry is process-wide, so this check has a test binary of its
//! own: nothing else runs while the registry is enabled.

use pa_faults::{faulty_round_cost, FaultEvent, FaultKind, FaultPlan, FaultyRoundMdp};
use pa_lehmann_rabin::{regions, round_cost, sims, RoundConfig, RoundMdp};
use pa_mdp::{Explore, IterOptions, QueryObjective, Solver};
use pa_sim::MonteCarlo;

/// A fixed workload — exploration, Jacobi and SCC-ordered solves, a
/// `pa-sim` Monte-Carlo batch, a faulted exploration with all three
/// fault kinds, and a sampled-tier estimate — must leave every counter
/// listed at the end above zero.
#[test]
fn every_instrumented_layer_records_its_counters() {
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();

    let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
    let explored = Explore::new(&mdp)
        .cost(round_cost)
        .limit(1_000_000)
        .run()
        .unwrap();
    let target = explored.target_where(|s| regions::in_c(&s.config));
    let options = IterOptions {
        epsilon: 1e-9,
        max_sweeps: 10_000,
    };
    for solver in [Solver::Jacobi, Solver::SccOrdered] {
        pa_mdp::Query::csr(&explored.mdp)
            .objective(QueryObjective::MinProb)
            .target(&target)
            .solver(solver)
            .options(options)
            .run()
            .unwrap();
    }

    let sim = sims::LrSim::new(3, sims::RoundRobin)
        .unwrap()
        .with_start(sims::all_trying(3).unwrap());
    MonteCarlo::new(2_000, 42, 60)
        .hitting_prob_within(&sim, |s| regions::in_c(&s.config), 13)
        .unwrap();

    // A crash-restart, an obligation drop, then a total crash-stop, so
    // dead states exist for the crash-tag audit.
    let mut events = vec![
        FaultEvent {
            round: 2,
            process: 0,
            kind: FaultKind::CrashRestart { downtime: 1 },
        },
        FaultEvent {
            round: 3,
            process: 1,
            kind: FaultKind::DropObligation,
        },
    ];
    events.extend((0..3).map(|process| FaultEvent {
        round: 5,
        process,
        kind: FaultKind::CrashStop,
    }));
    let faulty = FaultyRoundMdp::new(
        RoundConfig::new(3).unwrap(),
        FaultPlan::new(events).unwrap(),
    )
    .unwrap();
    let faulted = Explore::new(&faulty)
        .cost(faulty_round_cost)
        .limit(1_000_000)
        .run()
        .unwrap();
    faulty.crash_tags(&faulted);

    pa_faults::estimate_reach_uniform(
        3,
        &FaultPlan::none(),
        &pa_core::SetExpr::named("C"),
        13,
        &pa_mc::McConfig::new(500, 42, 0),
    )
    .unwrap();

    let snapshot = pa_telemetry::snapshot();
    pa_telemetry::set_enabled(false);
    for counter in [
        "mdp.vi.runs",
        "mdp.vi.sweeps",
        "mdp.explore.states",
        "mdp.scc.runs",
        "mdp.scc.components",
        "mdp.tag.tagged_choices",
        "lr.round.expansions",
        "prob.rng.streams",
        "sim.mc.trials",
        "sim.mc.rng_draws",
        "faults.crashes_injected",
        "faults.restarts",
        "faults.obligations_dropped",
        "faults.envelope_violations",
        "mc.trajectories",
        "mc.steps",
        "mc.rng_draws",
    ] {
        let value = snapshot.counter(counter).unwrap_or(0);
        assert!(value > 0, "counter {counter} = {value}");
    }
    assert_eq!(snapshot.counter("sim.mc.trials"), Some(2_000));
}
