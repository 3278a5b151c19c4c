//! Quotient-vs-full state counts of the saturating protocol: the measured
//! table behind `pa-batch`'s tier selection and the bench `symmetry`
//! block, with the dihedral quotient beside the rotation quotient.

use pa_lehmann_rabin::{LrProtocol, UserModel};
use pa_mdp::{Explore, RingDihedral, RingRotation};

const LIMIT: usize = 50_000_000;

fn full_states(n: usize) -> usize {
    let protocol = LrProtocol::new(n, UserModel::saturating()).unwrap();
    let explored = Explore::new(&protocol).limit(LIMIT).run().unwrap();
    explored.mdp.num_states()
}

fn quotient_states(n: usize) -> usize {
    let protocol = LrProtocol::new(n, UserModel::saturating()).unwrap();
    let explored = Explore::new(&protocol)
        .limit(LIMIT)
        .symmetry(RingRotation::new(n))
        .run()
        .unwrap();
    explored.mdp.num_states()
}

fn dihedral_states(n: usize) -> usize {
    let protocol = LrProtocol::new(n, UserModel::saturating()).unwrap();
    let explored = Explore::new(&protocol)
        .limit(LIMIT)
        .symmetry(RingDihedral::new(n))
        .run()
        .unwrap();
    explored.mdp.num_states()
}

/// One-off measurement helper: prints the full/quotient table, with the
/// dihedral quotient beside the rotation quotient.
#[test]
#[ignore = "measurement helper, run with --ignored --nocapture"]
fn print_quotient_counts() {
    for n in 3..=7 {
        let full = full_states(n);
        let quot = quotient_states(n);
        let dihedral = dihedral_states(n);
        println!(
            "n={n}: full={full} quotient={quot} reduction={:.3} dihedral={dihedral} reduction={:.3}",
            full as f64 / quot as f64,
            full as f64 / dihedral as f64
        );
    }
}

/// One-off measurement helper: the states each of the six claim models
/// explores on the rotation and on the dihedral quotient, and their
/// totals (run with `--ignored --nocapture`, range via `QC_RANGE=lo:hi`).
#[test]
#[ignore = "measurement helper, run with --ignored --nocapture"]
fn print_claim_model_states() {
    use pa_lehmann_rabin::{
        explore_checker, paper, reachable_configs_in, Quotient, RoundConfig, RoundMdp,
        RoundStateCodec,
    };
    use pa_mdp::PackedSpace;
    let range = std::env::var("QC_RANGE").unwrap_or_else(|_| "3:5".to_string());
    let (lo, hi) = range.split_once(':').unwrap();
    let mut claims: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
    claims.push(paper::arrow_t_to_c());
    for n in lo.parse().unwrap()..=hi.parse::<usize>().unwrap() {
        let mut totals = [0usize; 2];
        for arrow in &claims {
            let mut counts = [0usize; 2];
            for (slot, quotient) in [Quotient::Rotation, Quotient::Dihedral]
                .into_iter()
                .enumerate()
            {
                let configs = reachable_configs_in(n, LIMIT, quotient).unwrap();
                let space = PackedSpace::new(RoundStateCodec::new(n).unwrap());
                let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
                let scope = Some((arrow.from(), arrow.to()));
                let (_, checker) = explore_checker(mdp, &configs, scope, LIMIT, quotient, space)
                    .unwrap()
                    .unwrap();
                counts[slot] = checker.model().num_states();
                totals[slot] += counts[slot];
            }
            println!(
                "n={n} {arrow}: rotation={} dihedral={}",
                counts[0], counts[1]
            );
        }
        println!(
            "n={n} six claims: rotation={} dihedral={} reduction={:.3}",
            totals[0],
            totals[1],
            totals[0] as f64 / totals[1] as f64
        );
    }
}

/// One-off measurement helper: times the quotient arrow checker as `n`
/// grows (run with `--ignored --nocapture`).
#[test]
#[ignore = "measurement helper, run with --ignored --nocapture"]
fn time_quotient_arrows() {
    use pa_lehmann_rabin::{check_arrow_quotient, paper, RoundConfig, RoundMdp};
    use std::io::Write;
    let range = std::env::var("QC_RANGE").unwrap_or_else(|_| "4:5".to_string());
    let (lo, hi) = range.split_once(':').unwrap();
    for n in lo.parse().unwrap()..=hi.parse::<usize>().unwrap() {
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        for (arrow, _why) in paper::all_arrows() {
            let t0 = std::time::Instant::now();
            let check = check_arrow_quotient(&mdp, &arrow, 200_000_000).unwrap();
            println!(
                "n={n} {arrow}: {:.2}s starts={} holds={}",
                t0.elapsed().as_secs_f64(),
                check.states_checked,
                check.holds()
            );
            std::io::stdout().flush().unwrap();
        }
    }
}

/// One-off measurement helper: quotient-only protocol exploration at large
/// `n` with wall time and interner memory (run with `--ignored
/// --nocapture`, range via `QC_RANGE=lo:hi`).
#[test]
#[ignore = "measurement helper, run with --ignored --nocapture"]
fn time_protocol_quotient() {
    use std::io::Write;
    let range = std::env::var("QC_RANGE").unwrap_or_else(|_| "7:8".to_string());
    let (lo, hi) = range.split_once(':').unwrap();
    for n in lo.parse().unwrap()..=hi.parse::<usize>().unwrap() {
        let protocol = LrProtocol::new(n, UserModel::saturating()).unwrap();
        let t0 = std::time::Instant::now();
        let explored = Explore::new(&protocol)
            .limit(LIMIT)
            .symmetry(RingRotation::new(n))
            .run()
            .unwrap();
        println!(
            "n={n}: quotient={} ({:.2}s, space {} MB, {} choices, {} transitions)",
            explored.mdp.num_states(),
            t0.elapsed().as_secs_f64(),
            explored.mem_bytes() / (1 << 20),
            explored.mdp.num_choices(),
            explored.mdp.num_transitions(),
        );
        std::io::stdout().flush().unwrap();
    }
}

/// One-off measurement helper: times the quotient expected-time bracket
/// as `n` grows (run with `--ignored --nocapture`, range via
/// `QC_RANGE=lo:hi`).
#[test]
#[ignore = "measurement helper, run with --ignored --nocapture"]
fn time_quotient_expected_time() {
    use pa_core::SetExpr;
    use pa_lehmann_rabin::{
        max_expected_time_quotient, min_expected_time_quotient, RoundConfig, RoundMdp,
    };
    use std::io::Write;
    let range = std::env::var("QC_RANGE").unwrap_or_else(|_| "5:5".to_string());
    let (lo, hi) = range.split_once(':').unwrap();
    let (t, c) = (SetExpr::named("T"), SetExpr::named("C"));
    for n in lo.parse().unwrap()..=hi.parse::<usize>().unwrap() {
        let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
        let t0 = std::time::Instant::now();
        let hi_v = max_expected_time_quotient(&mdp, &t, &c, 200_000_000).unwrap();
        let t_max = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let lo_v = min_expected_time_quotient(&mdp, &t, &c, 200_000_000).unwrap();
        println!(
            "n={n} E[T->C]: max={hi_v:.4} ({t_max:.2}s) min={lo_v:.4} ({:.2}s)",
            t0.elapsed().as_secs_f64()
        );
        std::io::stdout().flush().unwrap();
    }
}
