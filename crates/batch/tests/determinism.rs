//! The batch driver's headline contracts: worker-count invariance of the
//! canonical report, deterministic cache hit counts, bitwise agreement
//! with the unshared per-analysis pipelines, and the interruption
//! statuses.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pa_batch::{
    estimated_ring_states, run_batch, select_kind, BatchError, BatchOptions, JobKind, JobSpec,
    JobStatus, JobValue, McSettings, ModelCache,
};
use pa_core::SetExpr;
use pa_faults::{
    check_arrow_under, default_grid, FaultKind, FaultPlan, FaultyRoundMdp, DEFAULT_STATE_LIMIT,
};
use pa_lehmann_rabin::{
    explore_checker, max_expected_time, paper, reachable_configs, Quotient, RoundConfig, RoundMdp,
};
use pa_mdp::{BoxedSpace, Query, QueryObjective, Solver};

/// Serializes tests that toggle the process-global telemetry flag.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// A representative mixed job set on n = 3: every kind, two fault plans,
/// both solvers represented.
fn mixed_specs() -> Vec<JobSpec> {
    let crash = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
    let mut specs = Vec::new();
    for index in 0..paper::all_arrows().len() {
        specs.push(JobSpec::new(3, JobKind::Arrow { index }));
        specs.push(
            JobSpec::new(3, JobKind::Arrow { index }).with_plan("crash-stop r2 p0", crash.clone()),
        );
    }
    specs.push(JobSpec::new(3, JobKind::ComposedArrow));
    specs.push(JobSpec::new(3, JobKind::ComposedArrow).with_solver(Solver::SccOrdered));
    specs.push(JobSpec::new(
        3,
        JobKind::ExpectedTime {
            from: SetExpr::named("RT"),
            to: SetExpr::named("P"),
            bound: paper::expected_time_rt_to_p(),
        },
    ));
    // T -> C exercises the qualitative-properness path: the shared model's
    // extra start states once pushed its numerically iterated Pmin below
    // the old properness cutoff, spuriously diverging this very job.
    specs.push(JobSpec::new(
        3,
        JobKind::ExpectedTime {
            from: SetExpr::named("T"),
            to: SetExpr::named("C"),
            bound: paper::expected_time_t_to_c(),
        },
    ));
    specs.push(JobSpec::new(3, JobKind::Invariant));
    specs.push(JobSpec::new(3, JobKind::Lemma { index: 0 }));
    // Both tiers of the uniform-adversary reach estimand; neither touches
    // the model cache (they build their own fault-wrapped models).
    specs.push(JobSpec::new(
        3,
        JobKind::Reach {
            target: SetExpr::named("C"),
            within: 13,
            claimed: 0.125,
        },
    ));
    specs.push(JobSpec::new(
        3,
        JobKind::Sampled {
            target: SetExpr::named("C"),
            within: 13,
            claimed: 0.125,
            mc: McSettings {
                trajectories: 2_000,
                seed: 42,
            },
        },
    ));
    specs.push(
        JobSpec::new(
            3,
            JobKind::Sampled {
                target: SetExpr::named("C"),
                within: 13,
                claimed: 0.125,
                mc: McSettings {
                    trajectories: 2_000,
                    seed: 42,
                },
            },
        )
        .with_plan("crash-stop r2 p0", crash.clone()),
    );
    specs
}

#[test]
fn canonical_report_is_bitwise_identical_for_every_worker_count() {
    let _lock = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_enabled = pa_telemetry::enabled();
    pa_telemetry::set_enabled(true);
    let specs = mixed_specs();
    let baseline = run_batch(&specs, &BatchOptions::with_workers(1)).unwrap();
    assert_eq!(baseline.tally().failed, 0, "{}", baseline.canonical_json());
    for workers in [2, 8] {
        let run = run_batch(&specs, &BatchOptions::with_workers(workers)).unwrap();
        assert_eq!(
            baseline.canonical_json(),
            run.canonical_json(),
            "canonical JSON diverged at workers={workers}"
        );
        assert_eq!(baseline.digest(), run.digest());
        assert_eq!(
            baseline.cache, run.cache,
            "cache stats at workers={workers}"
        );
    }
    pa_telemetry::set_enabled(was_enabled);
}

#[test]
fn cache_counts_are_deterministic_per_job_set() {
    let specs = mixed_specs();
    let report = run_batch(&specs, &BatchOptions::with_workers(4)).unwrap();
    // Model keys demanded: (3, none) and (3, crash-stop) — the invariant
    // and lemma jobs run on their own automata and never touch the cache.
    assert_eq!(report.cache.model_misses, 2);
    assert_eq!(report.cache.distinct_models, 2);
    // Accesses: 5 + 5 arrows, 2 composed, 2 expected-time = 14.
    assert_eq!(report.cache.model_hits + report.cache.model_misses, 14);
    assert_eq!(report.cache.config_misses, 1, "one ring size explored once");
    assert!(report.cache.hit_rate() > 0.0);
    let again = run_batch(&specs, &BatchOptions::with_workers(2)).unwrap();
    assert_eq!(report.cache, again.cache);
}

#[test]
fn batch_arrow_values_match_the_unshared_pipeline_bitwise() {
    let cfg = RoundConfig::new(3).unwrap();
    let grid = default_grid();
    let specs: Vec<JobSpec> = (0..paper::all_arrows().len())
        .flat_map(|index| {
            grid.iter().map(move |(name, plan)| {
                JobSpec::new(3, JobKind::Arrow { index }).with_plan(name.clone(), plan.clone())
            })
        })
        .collect();
    let report = run_batch(&specs, &BatchOptions::with_workers(4)).unwrap();
    let arrows = paper::all_arrows();
    for job in &report.jobs {
        let JobStatus::Done(JobValue::Prob {
            measured,
            worst_state,
            states_checked,
            ..
        }) = &job.status
        else {
            panic!(
                "{}: expected a probability value, got {:?}",
                job.key, job.status
            );
        };
        // Recover which (arrow, plan) this job was from its key.
        let index: usize = job.key["arrow:".len()..job.key.find('|').unwrap()]
            .parse()
            .unwrap();
        let plan = &grid
            .iter()
            .find(|(name, _)| *name == job.plan_name)
            .unwrap()
            .1;
        let reference = check_arrow_under(cfg, &arrows[index].0, plan, 1_000_000).unwrap();
        assert_eq!(
            measured.to_bits(),
            reference.measured.lo().value().to_bits(),
            "{}: shared-model value differs from check_arrow_under",
            job.key
        );
        assert_eq!(worst_state, &reference.worst_state, "{}", job.key);
        assert_eq!(*states_checked, reference.states_checked, "{}", job.key);
    }
}

/// Pins a query to Jacobi, as every batch job does.
fn jacobi(q: Query<'_>) -> Query<'_> {
    q.solver(Solver::Jacobi)
}

/// For every paper arrow under every default plan on a ring of `n`: the
/// cone a batch arrow job solves on the shared model has exactly the
/// states of the arrow's own model (`explore_checker` with the target
/// absorbing), and the two Jacobi solves do the same work.
fn assert_cones_are_the_arrow_models(n: usize) {
    const LIMIT: usize = 2_000_000;
    let cfg = RoundConfig::new(n).unwrap();
    let configs = reachable_configs(n, LIMIT).unwrap();
    let cache = ModelCache::new();
    for (name, plan) in default_grid() {
        let shared = cache.model(n, &plan, LIMIT).unwrap();
        for (arrow, _why) in paper::all_arrows() {
            let tag = format!("n={n} {arrow} under {name}");
            let cone = shared.solve_arrow(&arrow, jacobi).unwrap();
            let own = explore_checker(
                FaultyRoundMdp::new(cfg, plan.clone()).unwrap(),
                &configs,
                Some((arrow.from(), arrow.to())),
                LIMIT,
                Quotient::Full,
                BoxedSpace::default(),
            )
            .unwrap();
            let (Some(cone), Some((_, own, _))) = (cone, own) else {
                panic!("{tag}: a vacuous arrow on one model only");
            };
            let cone_states = cone.analysis.values.iter().filter(|v| !v.is_nan()).count();
            assert_eq!(cone_states, own.regions().len(), "{tag}: cone size");
            let own = own.solve_arrow(&arrow, jacobi).unwrap().unwrap();
            assert_eq!(cone.analysis.stats, own.analysis.stats, "{tag}: solve work");
            assert_eq!(cone.check.measured, own.check.measured, "{tag}");
        }
    }
}

#[test]
fn batch_arrow_cones_are_the_arrow_models() {
    assert_cones_are_the_arrow_models(3);
}

#[test]
#[ignore = "n = 4 takes a release build; CI runs it with --include-ignored"]
fn batch_arrow_cones_are_the_arrow_models_at_n4() {
    assert_cones_are_the_arrow_models(4);
}

#[test]
fn batch_expected_time_matches_the_unshared_pipeline() {
    let from = SetExpr::named("RT");
    let to = SetExpr::named("P");
    let spec = JobSpec::new(
        3,
        JobKind::ExpectedTime {
            from: from.clone(),
            to: to.clone(),
            bound: paper::expected_time_rt_to_p(),
        },
    );
    let report = run_batch(&[spec], &BatchOptions::default()).unwrap();
    let JobStatus::Done(JobValue::Time {
        expected: Some(expected),
        within,
        ..
    }) = &report.jobs[0].status
    else {
        panic!(
            "expected a finite time value, got {:?}",
            report.jobs[0].status
        );
    };
    let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
    let reference = max_expected_time(&mdp, &from, &to, 1_000_000).unwrap();
    // Expected-cost values are iterative fixpoints: the shared model
    // carries extra (non-from) start states, so sweep counts differ and
    // bitwise equality does not hold — unlike the horizon-bounded arrow
    // probabilities above. Pin agreement to well under the solver epsilon
    // gap instead.
    let gap = (expected - reference).abs() / reference.max(1.0);
    assert!(
        gap <= 1e-7,
        "shared fault-free model diverged from max_expected_time: \
         {expected} vs {reference} (relative gap {gap:e})"
    );
    assert!(within);
}

/// The batch's two expected times on the shared fault-free model of a
/// ring of `n` at the batch epsilon `1e-9`, as `f64` bits, each with the
/// Jacobi sweeps it took: `(RT → P bits, sweeps, T → C bits, sweeps)`.
fn assert_batch_expected_times(n: usize, pins: (u64, u64, u64, u64)) {
    let _lock = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_enabled = pa_telemetry::enabled();
    pa_telemetry::set_enabled(true);
    let checker = ModelCache::new()
        .model(n, &FaultPlan::none(), DEFAULT_STATE_LIMIT)
        .unwrap();
    let solve = |from: &str, to: &str| {
        let scope = pa_telemetry::TelemetryScope::new("expected time");
        let _guard = scope.enter();
        let expected = checker
            .expected_time(
                &SetExpr::named(from),
                &SetExpr::named(to),
                QueryObjective::MaxCost,
                |q| jacobi(q).epsilon(1e-9),
            )
            .unwrap();
        let sweeps = scope.snapshot().counter("mdp.vi.ec_sweeps").unwrap_or(0);
        (expected.to_bits(), sweeps)
    };
    let (rt_p, rt_p_sweeps) = solve("RT", "P");
    let (t_c, t_c_sweeps) = solve("T", "C");
    pa_telemetry::set_enabled(was_enabled);
    assert_eq!(
        (rt_p, rt_p_sweeps, t_c, t_c_sweeps),
        pins,
        "n={n}: RT -> P {} and T -> C {}",
        f64::from_bits(rt_p),
        f64::from_bits(t_c)
    );
}

#[test]
fn batch_expected_times_and_sweeps_are_pinned() {
    assert_batch_expected_times(3, (0x401d_5555_5510_0000, 251, 0x4021_5555_5538_0000, 255));
}

#[test]
#[ignore = "n = 4 takes a release build; CI runs it with --include-ignored"]
fn batch_expected_times_and_sweeps_are_pinned_at_n4() {
    assert_batch_expected_times(4, (0x401a_4924_9249_2460, 324, 0x4020_4924_9244_0000, 230));
}

#[test]
fn duplicate_keys_and_empty_batches_are_rejected() {
    let spec = JobSpec::new(3, JobKind::Invariant);
    let err = run_batch(&[spec.clone(), spec], &BatchOptions::default()).unwrap_err();
    assert!(matches!(err, BatchError::DuplicateKey(_)));
    assert_eq!(
        run_batch(&[], &BatchOptions::default()).unwrap_err(),
        BatchError::NoJobs
    );
}

#[test]
fn pre_set_cancel_flag_drains_the_batch() {
    let cancel = Arc::new(AtomicBool::new(true));
    let options = BatchOptions {
        workers: 2,
        timeout: None,
        cancel: Some(cancel),
    };
    let report = run_batch(&mixed_specs(), &options).unwrap();
    let tally = report.tally();
    assert_eq!(tally.cancelled, report.jobs.len());
    assert_eq!(tally.done + tally.failed + tally.timed_out, 0);
}

#[test]
fn slow_custom_job_times_out_at_its_checkpoint() {
    let slow = JobSpec::new(
        3,
        JobKind::Custom {
            name: "sleeper".to_string(),
            run: Arc::new(|ctx| {
                std::thread::sleep(Duration::from_millis(30));
                ctx.checkpoint()?;
                Ok(JobValue::Tallies {
                    holds: 1,
                    violated: 0,
                    info: 0,
                })
            }),
        },
    );
    let options = BatchOptions {
        workers: 1,
        timeout: Some(Duration::from_millis(5)),
        cancel: None,
    };
    let report = run_batch(&[slow], &options).unwrap();
    assert_eq!(report.jobs[0].status, JobStatus::TimedOut);
}

#[test]
fn failing_custom_job_is_contained() {
    let specs = vec![
        JobSpec::new(
            3,
            JobKind::Custom {
                name: "boom".to_string(),
                run: Arc::new(|_| Err("synthetic failure".to_string())),
            },
        ),
        JobSpec::new(3, JobKind::Invariant),
    ];
    let report = run_batch(&specs, &BatchOptions::with_workers(2)).unwrap();
    let tally = report.tally();
    assert_eq!(tally.failed, 1);
    assert_eq!(tally.done, 1);
    let failed = report
        .jobs
        .iter()
        .find(|j| j.key.starts_with("custom:boom"))
        .unwrap();
    assert_eq!(
        failed.status,
        JobStatus::Failed("synthetic failure".to_string())
    );
}

#[test]
fn sampled_interval_contains_the_exact_tier_value() {
    let mc = McSettings {
        trajectories: 4_000,
        seed: 7,
    };
    // A budget of exactly the n = 3 exact tier's states keeps it exact;
    // one state less degrades the same claim to the sampled tier.
    let tier = estimated_ring_states(3);
    let exact_kind = select_kind(3, tier, SetExpr::named("C"), 13, 0.125, mc);
    assert!(matches!(exact_kind, JobKind::Reach { .. }));
    let sampled_kind = select_kind(3, tier - 1, SetExpr::named("C"), 13, 0.125, mc);
    assert!(matches!(sampled_kind, JobKind::Sampled { .. }));

    let specs = vec![JobSpec::new(3, exact_kind), JobSpec::new(3, sampled_kind)];
    let report = run_batch(&specs, &BatchOptions::with_workers(2)).unwrap();
    assert_eq!(report.tally().done, 2);
    let exact = report
        .jobs
        .iter()
        .find_map(|j| match &j.status {
            JobStatus::Done(JobValue::Prob { measured, .. }) => Some(*measured),
            _ => None,
        })
        .expect("exact tier ran");
    let (lo, hi, refuted) = report
        .jobs
        .iter()
        .find_map(|j| match &j.status {
            JobStatus::Done(JobValue::Estimate {
                lo, hi, refuted, ..
            }) => Some((*lo, *hi, *refuted)),
            _ => None,
        })
        .expect("sampled tier ran");
    assert!(
        lo <= exact && exact <= hi,
        "sampled interval [{lo}, {hi}] must contain exact {exact}"
    );
    assert!(!refuted, "the paper's T -> C claim must survive sampling");
}

/// A plan that strikes past round 4095 (past the 12 round bits of word 1
/// of a packed state) is answered on the packed shared model, and its
/// answers are those of a boxed exploration of the same model: the arrow
/// value, worst start and expected time, bit for bit.
#[test]
#[ignore = "1.7 M states: takes a release build; CI runs it with --include-ignored"]
fn late_plan_jobs_match_a_boxed_exploration() {
    const N: usize = 2;
    let plan = FaultPlan::single(4200, 0, FaultKind::CrashRestart { downtime: 2 }).unwrap();
    let name = "crash-restart r4200 p0 d2";
    let (arrow, _why) = paper::all_arrows().remove(0);
    let (from, to) = (SetExpr::named("RT"), SetExpr::named("P"));
    let specs = vec![
        JobSpec::new(N, JobKind::Arrow { index: 0 }).with_plan(name, plan.clone()),
        JobSpec::new(
            N,
            JobKind::ExpectedTime {
                from: from.clone(),
                to: to.clone(),
                bound: paper::expected_time_rt_to_p(),
            },
        )
        .with_plan(name, plan.clone()),
    ];
    let report = run_batch(&specs, &BatchOptions::with_workers(1)).unwrap();
    assert_eq!(report.tally().done, 2, "{}", report.canonical_json());

    let model = FaultyRoundMdp::new(RoundConfig::new(N).unwrap(), plan).unwrap();
    assert_eq!(model.round_cap(), 4201);
    let configs = reachable_configs(N, DEFAULT_STATE_LIMIT).unwrap();
    let (_, boxed, _) = explore_checker(
        model,
        &configs,
        None,
        DEFAULT_STATE_LIMIT,
        Quotient::Full,
        BoxedSpace::default(),
    )
    .unwrap()
    .unwrap();
    assert!(
        boxed.regions().len() > 1_000_000,
        "the plan's rounds are explored"
    );
    let check = boxed.arrow(&arrow, |q| jacobi(q).epsilon(1e-9)).unwrap();
    let expected = boxed
        .expected_time(&from, &to, QueryObjective::MaxCost, |q| {
            jacobi(q).epsilon(1e-9)
        })
        .unwrap();
    for job in &report.jobs {
        match &job.status {
            JobStatus::Done(JobValue::Prob {
                measured,
                worst_state,
                ..
            }) => {
                assert_eq!(measured.to_bits(), check.measured.lo().value().to_bits());
                assert_eq!(worst_state, &check.worst_state);
            }
            JobStatus::Done(JobValue::Time {
                expected: Some(time),
                ..
            }) => assert_eq!(time.to_bits(), expected.to_bits()),
            other => panic!("{}: unexpected status {other:?}", job.key),
        }
    }
}
