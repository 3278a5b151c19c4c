//! Integration tests for the `pa-telemetry` instrumentation of the MDP
//! engine: the reported metrics must be *exact*, not merely plausible.
//!
//! The probe model is a forced geometric chain: one non-target state with a
//! single choice that reaches the target with probability 1/2 and self-loops
//! otherwise. Jacobi value iteration from below then improves by exactly
//! `0.5^k` in sweep `k` — a dyadic rational, exact in `f64` — so the whole
//! residual trajectory is predictable to the last bit.

use std::sync::Mutex;

use pa_mdp::{Choice, CsrMdp, ExplicitMdp, IterOptions, Objective, Query, QueryObjective, Solver};

/// Telemetry state is process-global; run the tests of this file one at a
/// time (the file itself is its own process, so no other test binary can
/// interfere).
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Unbounded `MaxProb` Jacobi value iteration on the in-core engine.
fn reach_prob(csr: &CsrMdp, target: &[bool], opts: IterOptions) -> Vec<f64> {
    Query::csr(csr)
        .objective(Objective::MaxProb)
        .target(target)
        .options(opts)
        .solver(Solver::Jacobi)
        .run()
        .unwrap()
        .values
}

fn geometric_chain() -> ExplicitMdp {
    let coin = Choice {
        cost: 1,
        transitions: vec![(1, 0.5), (0, 0.5)],
    };
    ExplicitMdp::new(vec![vec![coin], Vec::new()], vec![0]).expect("valid model")
}

#[test]
fn vi_reports_exact_sweep_count_and_monotone_residuals() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();

    let csr = CsrMdp::from_explicit(&geometric_chain());
    let target = vec![false, true];
    let opts = IterOptions {
        epsilon: 0.0,
        max_sweeps: 10,
    };
    let values = reach_prob(&csr, &target, opts);
    // After 10 sweeps from below: 1 - 2^-10.
    assert_eq!(values[0], 1.0 - 0.5f64.powi(10));

    let snap = pa_telemetry::snapshot();
    pa_telemetry::set_enabled(false);

    assert_eq!(snap.counter("mdp.vi.runs"), Some(1));
    assert_eq!(snap.counter("mdp.vi.sweeps"), Some(10));
    // The target is fixed; the looping state moves in every sweep.
    assert_eq!(snap.counter("mdp.vi.recomputed"), Some(10));
    let residuals = &snap
        .series("mdp.vi.residual")
        .expect("residuals recorded")
        .values;
    assert_eq!(residuals.len(), 10);
    for (k, &delta) in residuals.iter().enumerate() {
        assert_eq!(delta, 0.5f64.powi(k as i32 + 1), "sweep {}", k + 1);
    }
    assert!(
        residuals.windows(2).all(|w| w[1] <= w[0]),
        "residual trajectory must be monotone non-increasing: {residuals:?}"
    );

    // The span instrumentation saw one solve and one timing per sweep.
    let run_timer = snap.timer("mdp.vi.reach_prob_seconds").unwrap();
    assert_eq!(run_timer.count, 1);
    let sweep_timer = snap.timer("mdp.vi.sweep_seconds").unwrap();
    assert_eq!(sweep_timer.count, 10);
    assert!(sweep_timer.total_seconds >= 0.0);
}

#[test]
fn convergence_stops_the_sweep_counter_early() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();

    let csr = CsrMdp::from_explicit(&geometric_chain());
    let target = vec![false, true];
    // epsilon 0.3 is crossed by the second sweep (residual 0.25).
    let opts = IterOptions {
        epsilon: 0.3,
        max_sweeps: 100,
    };
    reach_prob(&csr, &target, opts);

    let snap = pa_telemetry::snapshot();
    pa_telemetry::set_enabled(false);
    assert_eq!(snap.counter("mdp.vi.sweeps"), Some(2));
    assert_eq!(snap.series("mdp.vi.residual").unwrap().values, [0.5, 0.25]);
}

#[test]
fn disabled_registry_records_nothing() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // Zero everything out, then run the workload with telemetry off.
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();
    pa_telemetry::set_enabled(false);

    let csr = CsrMdp::from_explicit(&geometric_chain());
    let target = vec![false, true];
    let opts = IterOptions {
        epsilon: 0.0,
        max_sweeps: 10,
    };
    reach_prob(&csr, &target, opts);

    pa_telemetry::set_enabled(true);
    let snap = pa_telemetry::snapshot();
    pa_telemetry::set_enabled(false);
    // A metric no earlier test registered is absent from the snapshot;
    // absent reads as zero, so the result is independent of test order.
    assert_eq!(snap.counter("mdp.vi.runs").unwrap_or(0), 0);
    assert_eq!(snap.counter("mdp.vi.sweeps").unwrap_or(0), 0);
    assert_eq!(
        snap.series("mdp.vi.residual").map_or(0, |s| s.values.len()),
        0,
        "no residuals while disabled"
    );
    assert_eq!(snap.timer("mdp.vi.sweep_seconds").map_or(0, |t| t.count), 0);
}

#[test]
fn sweeps_recompute_only_moving_states_and_expected_cost_is_timed() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();

    // The geometric chain beside a state 2 one certain step from the
    // target: 2 settles in sweep 1 and no state reads it, so from sweep 2
    // on only 0 (its own successor) is recomputed.
    let csr = CsrMdp::from_explicit(
        &ExplicitMdp::new(
            vec![
                vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])],
                Vec::new(),
                vec![Choice::to(1, 1)],
            ],
            vec![0, 2],
        )
        .expect("valid model"),
    );
    let target = vec![false, true, false];
    let opts = IterOptions {
        epsilon: 0.0,
        max_sweeps: 10,
    };
    let reach = Query::csr(&csr)
        .objective(Objective::MaxProb)
        .target(&target)
        .options(opts)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();
    // Sweep 1 recomputes 0 and 2, sweeps 2 to 10 only 0.
    assert_eq!((reach.stats.sweeps, reach.stats.state_updates), (10, 11));
    let snap = pa_telemetry::snapshot();
    assert_eq!(snap.counter("mdp.vi.recomputed"), Some(11));

    pa_telemetry::reset();
    let cost = Query::csr(&csr)
        .objective(QueryObjective::MaxCost)
        .target(&target)
        .options(opts)
        .solver(Solver::Jacobi)
        .run()
        .unwrap();
    let snap = pa_telemetry::snapshot();
    pa_telemetry::set_enabled(false);
    // Expected flips from 0: 1 + 1/2 + ... after 10 sweeps.
    assert_eq!(cost.values, [2.0 - 0.5f64.powi(9), 0.0, 1.0]);
    assert_eq!((cost.stats.sweeps, cost.stats.state_updates), (10, 11));
    assert_eq!(snap.counter("mdp.vi.ec_sweeps"), Some(10));
    assert_eq!(snap.counter("mdp.vi.recomputed"), Some(11));
    assert_eq!(snap.timer("mdp.vi.expected_cost_seconds").unwrap().count, 1);
    assert_eq!(
        snap.timer("mdp.vi.reach_prob_seconds")
            .map_or(0, |t| t.count),
        0
    );
}

#[test]
fn a_cone_query_records_its_size_and_time() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();

    // 0 —1→ 1 (target) —1→ 2: the cone of 0 stops at the target.
    let csr = CsrMdp::from_explicit(
        &ExplicitMdp::new(
            vec![vec![Choice::to(1, 1)], vec![Choice::to(1, 2)], vec![]],
            vec![0],
        )
        .expect("valid model"),
    );
    for starts in [&[0][..], &[0, 2]] {
        Query::csr(&csr)
            .target(vec![false, true, false])
            .horizon(2)
            .cone(starts)
            .run()
            .unwrap();
    }

    let snap = pa_telemetry::snapshot();
    pa_telemetry::set_enabled(false);
    // Two states, then all three (solved in place).
    assert_eq!(snap.counter("mdp.query.cone_states"), Some(5));
    assert_eq!(snap.timer("mdp.query.cone_seconds").unwrap().count, 2);
}
