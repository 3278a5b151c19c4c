//! Exact pins on the deterministic facts the engines must keep
//! reproducing: state-space shapes, solver work, orbit counts, survival
//! tallies, batch tallies and digests, and the service's admission
//! accounting. Every value here is a function of the model alone, so any
//! drift is a semantic change, never noise.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use pa_batch::{run_batch, BatchOptions, JobSpec};
use pa_bench::batch_suite::model_specs;
use pa_bench::json::Json;
use pa_faults::{
    faulty_round_cost, survival_map, FaultEvent, FaultKind, FaultPlan, FaultyRoundMdp, Survival,
    TAG_CRASH,
};
use pa_lehmann_rabin::{
    check_arrow_quotient, max_expected_time_quotient, paper, regions, LrProtocol, RoundConfig,
    RoundMdp, UserModel,
};
use pa_mdp::{Explore, IterOptions, QueryObjective, RingDihedral, RingRotation, Solver};
use pa_serve::{CustomRegistry, ServeConfig, Server};

const LIMIT: usize = 5_000_000;

/// The canonical-report digest of `model_specs(&[3])`.
const BATCH_N3_DIGEST: &str = "102994e6e3208eed";

fn saturating(n: usize) -> LrProtocol {
    LrProtocol::new(n, UserModel::saturating()).expect("valid ring size")
}

/// The saturating-user protocol's shape, and the work both solvers do on
/// the converged unbounded `MaxProb` query to the critical region. Jacobi
/// re-evaluates only the states whose own value or some successor's
/// changed in the sweep before, while the SCC-ordered solver sweeps each
/// of its nontrivial components whole until it converges; here that
/// makes Jacobi the cheaper one, so both counts are pinned exactly.
#[test]
fn saturating_protocol_shape_and_solver_work_are_pinned() {
    // n, states, choices, transitions, components, nontrivial,
    // Jacobi updates, SCC updates.
    let pins = [
        (3, 536, 1_512, 1_749, 188, 103, 1_234, 1_591),
        (4, 4_252, 15_952, 18_456, 1_334, 837, 8_822, 10_771),
    ];
    for (n, states, choices, transitions, components, nontrivial, jacobi, scc) in pins {
        let explored = Explore::new(&saturating(n))
            .cost(|_, _| 1)
            .limit(LIMIT)
            .run()
            .unwrap();
        let csr = &explored.mdp;
        assert_eq!(
            (csr.num_states(), csr.num_choices(), csr.num_transitions()),
            (states, choices, transitions),
            "n={n} shape"
        );
        let target = explored.target_where(regions::in_c);
        let solve = |solver| {
            pa_mdp::Query::csr(csr)
                .objective(QueryObjective::MaxProb)
                .target(&target)
                .solver(solver)
                .options(IterOptions::default())
                .run()
                .unwrap()
        };
        let (ja, sc) = (solve(Solver::Jacobi), solve(Solver::SccOrdered));
        assert_eq!(
            (sc.stats.components, sc.stats.nontrivial_components),
            (components, nontrivial),
            "n={n} condensation"
        );
        assert_eq!(
            (ja.stats.state_updates, sc.stats.state_updates),
            (jacobi, scc),
            "n={n} Jacobi vs SCC state updates"
        );
        let start = csr.initial_states()[0];
        assert!((ja.value(start) - sc.value(start)).abs() < 1e-9);
    }
}

/// Rotation-quotient orbit counts of the protocol against its full
/// space, dihedral orbit counts beside them, and the `n = 4` quotient
/// frontier: every paper arrow holds on
/// orbit representatives and the worst-case expected `T → C` time stays
/// within the paper's bound.
#[test]
fn protocol_orbits_and_the_n4_quotient_frontier_are_pinned() {
    for (n, full, orbits) in [(3, 536, 184), (4, 4_252, 1_084), (5, 33_848, 6_776)] {
        let protocol = saturating(n);
        let explored = Explore::new(&protocol).limit(LIMIT).run().unwrap();
        let quotient = Explore::new(&protocol)
            .limit(LIMIT)
            .symmetry(RingRotation::new(n))
            .run()
            .unwrap();
        assert_eq!(
            (explored.mdp.num_states(), quotient.mdp.num_states()),
            (full, orbits),
            "n={n} full states vs orbits"
        );
    }
    // Dihedral orbits (rotations and the mirror image) beside them.
    for (n, dihedral) in [(3, 101), (4, 572), (5, 3_454)] {
        let quotient = Explore::new(&saturating(n))
            .limit(LIMIT)
            .symmetry(RingDihedral::new(n))
            .run()
            .unwrap();
        assert_eq!(quotient.mdp.num_states(), dihedral, "n={n} dihedral orbits");
    }

    let mdp = RoundMdp::new(RoundConfig::new(4).unwrap());
    let arrows = paper::all_arrows();
    assert_eq!(arrows.len(), 5);
    for (arrow, _why) in arrows {
        let check = check_arrow_quotient(&mdp, &arrow, LIMIT).unwrap();
        assert!(check.holds(), "{check}");
    }
    let t = pa_core::SetExpr::named("T");
    let c = pa_core::SetExpr::named("C");
    let worst = max_expected_time_quotient(&mdp, &t, &c, LIMIT).unwrap();
    assert!(
        worst <= paper::expected_time_t_to_c(),
        "E[T -> C] = {worst}"
    );
    assert_eq!(paper::expected_time_t_to_c(), 63.0);
}

/// The `n = 3` survival map's tallies, and the total-crash audit: every
/// crash-tagged choice is a deterministic self-loop.
#[test]
fn n3_survival_tallies_and_crash_absorption_are_pinned() {
    let map = survival_map(3, LIMIT).unwrap();
    let mut tally = [0u32; 3];
    for cell in map.rows.iter().flat_map(|r| &r.cells) {
        tally[match cell.survival {
            Survival::Holds => 0,
            Survival::Degraded => 1,
            Survival::Fails => 2,
        }] += 1;
    }
    assert_eq!(tally, [16, 0, 4], "holds / degraded / fails");

    // Crash every process at round 2: the dead states must be exactly
    // deterministic `EndRound` self-loops.
    let total_crash = FaultPlan::new(
        (0..3)
            .map(|process| FaultEvent {
                round: 2,
                process,
                kind: FaultKind::CrashStop,
            })
            .collect(),
    )
    .unwrap();
    let wrapped = FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), total_crash).unwrap();
    let explored = Explore::new(&wrapped)
        .cost(faulty_round_cost)
        .limit(LIMIT)
        .run()
        .unwrap();
    let tags = wrapped.crash_tags(&explored);
    assert_eq!(tags.count(TAG_CRASH), 8);
    assert!(pa_mdp::tagged_absorbing_violations(&explored.mdp, &tags, TAG_CRASH).is_empty());
}

/// The `n = 3` model-backed suite: job and cache tallies, and one digest
/// at one and at four workers.
#[test]
fn n3_batch_tallies_cache_counts_and_digest_are_pinned() {
    let specs = model_specs(&[3]);
    assert_eq!(specs.len(), 35);
    for workers in [1, 4] {
        let report = run_batch(&specs, &BatchOptions::with_workers(workers)).unwrap();
        let tally = report.tally();
        assert_eq!(
            (tally.done, tally.failed, tally.violated),
            (35, 0, 4),
            "{workers} workers: done / failed / violated"
        );
        assert_eq!(
            (
                report.cache.model_hits,
                report.cache.model_misses,
                report.cache.distinct_models
            ),
            (19, 4, 4),
            "{workers} workers: model hits / misses / distinct models"
        );
        assert_eq!(report.digest(), BATCH_N3_DIGEST, "{workers} workers");
    }
}

/// Submits `specs` over a fresh unix socket `batches` times on one
/// connection, drains the daemon, and returns the reported digests.
fn socket_digests(
    server: &Arc<Server>,
    tag: &str,
    specs: &[JobSpec],
    workers: usize,
    batches: usize,
) -> Vec<String> {
    let path =
        std::env::temp_dir().join(format!("pa-bench-pins-{}-{tag}.sock", std::process::id()));
    let daemon = {
        let server = Arc::clone(server);
        let path = path.clone();
        std::thread::spawn(move || server.serve_unix(&path))
    };
    let stream = (0..500)
        .find_map(|_| {
            UnixStream::connect(&path).ok().or_else(|| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                None
            })
        })
        .expect("daemon accepts connections");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut exchange = |line: &str| {
        writeln!(&stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(response.trim_end()).unwrap()
    };
    let mut digests = Vec::new();
    for _ in 0..batches {
        for spec in specs {
            let ack = exchange(&pa_serve::spec_to_wire(spec).unwrap());
            assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
        }
        let done = exchange(&format!("{{\"op\":\"run\",\"workers\":{workers}}}"));
        let digest = done.get("digest").and_then(Json::as_str);
        digests.push(
            digest
                .unwrap_or_else(|| panic!("run failed: {done:?}"))
                .to_string(),
        );
    }
    exchange("{\"op\":\"drain\"}");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    digests
}

/// The `n = 3` suite over real unix sockets at unbounded/1 worker,
/// unbounded/4 workers and a 1-byte budget/4 workers, two batches each:
/// every socket batch digests like the direct run, the tiny budget
/// evicts and rebuilds, and a depth-2 admission probe (three
/// submissions, three malformed lines, one run) tallies exactly.
#[test]
fn socket_batches_match_the_direct_digest_with_exact_admission_tallies() {
    let specs = model_specs(&[3]);
    let (mut evictions, mut rebuilds, mut accepted, mut batches) = (0, 0, 0, 0);
    for (i, (budget, workers)) in [(None, 1), (None, 4), (Some(1), 4)].into_iter().enumerate() {
        let config = ServeConfig {
            cache_budget: budget,
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::new(config, CustomRegistry::new()).unwrap());
        let digests = socket_digests(&server, &format!("m{i}"), &specs, workers, 2);
        assert_eq!(
            digests, [BATCH_N3_DIGEST; 2],
            "budget {budget:?}, {workers} workers"
        );
        evictions += server.cache().evictions();
        rebuilds += server.cache().rebuilds();
        accepted += server.jobs_accepted();
        batches += server.batches_run();
    }
    assert!(
        evictions > 0 && rebuilds > 0,
        "{evictions} evictions, {rebuilds} rebuilds"
    );

    let probe = Server::new(
        ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        },
        CustomRegistry::new(),
    )
    .unwrap();
    let mut input = String::new();
    for spec in specs.iter().take(3) {
        input.push_str(&pa_serve::spec_to_wire(spec).unwrap());
        input.push('\n');
    }
    input.push_str("not json\n{\"op\":\"frobnicate\"}\n{\"op\":\"job\",\"n\":3}\n");
    input.push_str("{\"op\":\"run\",\"workers\":1}\n");
    probe
        .handle_stream(std::io::Cursor::new(input.into_bytes()), Vec::new())
        .unwrap();
    accepted += probe.jobs_accepted();
    batches += probe.batches_run();
    assert_eq!(accepted, 212, "jobs accepted");
    assert_eq!(probe.jobs_rejected(), 1, "backpressure rejections");
    assert_eq!(probe.lines_rejected(), 3, "lines rejected");
    assert_eq!(batches, 7, "batches run");
}
