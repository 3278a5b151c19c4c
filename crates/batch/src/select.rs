//! Budget-driven exact-vs-sampled tier selection.
//!
//! [`select_kind`] sizes the exact tier by the states that tier explores,
//! not by the protocol model's. Both tables below count them:
//!
//! * **full** — [`JobKind::Reach`] runs [`pa_faults::exact_reach_uniform`],
//!   which explores the `UniformChain` wrapping of the faulty round model
//!   from the all-trying start. The table holds the largest chain over
//!   [`pa_faults::default_grid`]'s plans (the `drop` plan at both sizes).
//! * **quotient** — the exact tiers that run on a quotient
//!   (`pa_faults::survival_map_hybrid`'s zero-fault column and
//!   `pa_lehmann_rabin::check_arrow_quotient`) explore one arrow model per
//!   paper claim from the orbit representatives. The table holds the
//!   largest of the six claims' models on the rotation quotient,
//!   `T —13→ C` at every size. Only the empty plan has a quotient. The
//!   dihedral quotient of `check_arrow_quotient` explores about half as
//!   many (1,515, 23,947 and 395,418 states), so for it the estimate is
//!   ≈ 2× conservative, which errs on the degrade-early side like every
//!   other margin here.
//!
//! | n | full (chain) states | quotient (arrow model) states |
//! |---|---------------------|-------------------------------|
//! | 3 | 20 486 | 2 937 |
//! | 4 | 465 792 | 47 108 |
//! | 5 | 10 946 112 (extrapolated) | 788 722 |
//!
//! The `n = 3` and `n = 4` rows are pinned by this module's tests. The
//! chain at `n = 5` is extrapolated: counted once under the empty plan it
//! held 10,415,118 states in 3.15 GB, too large to re-count in a test. The protocol model the tables used to hold (536,
//! 4,252 and 33,848 states at `n = 3..=5`) is 38–308× smaller than
//! what the exact tier explores, so it admitted the chain at `n = 5`
//! under a 1 M-state budget.
//!
//! When the estimate fits the caller's state budget the exact
//! [`JobKind::Reach`] tier runs; otherwise the job degrades to
//! [`JobKind::Sampled`], whose memory is constant in `n`.

use pa_core::SetExpr;

use crate::spec::{JobKind, McSettings};

/// Measured state counts of the exact [`JobKind::Reach`] tier: the
/// largest `UniformChain` over the default fault grid.
const MEASURED: [(usize, u64); 2] = [(3, 20_486), (4, 465_792)];

/// Measured state counts of the largest paper-claim arrow model on the
/// rotation quotient.
const MEASURED_QUOTIENT: [(usize, u64); 3] = [(3, 2_937), (4, 47_108), (5, 788_722)];

/// Per-process growth factor of the chain beyond the measured range. The
/// measured ratio is 22.74 (22.98 and 22.42 over `n = 3..=5` under the
/// empty plan); rounding up to 23.5 over-estimates the `n = 5` count by
/// 5% (degrading to sampling early is safe; exhausting memory is not).
const GROWTH: f64 = 23.5;

/// Per-process growth factor of the quotient's arrow models. The measured
/// ratios are 16.04 and 16.74 and still rising, so 18 leaves room for the
/// next few, erring, as with [`GROWTH`], on the degrade-early side.
const QUOTIENT_GROWTH: f64 = 18.0;

fn estimate(n: usize, measured: &[(usize, u64)], growth: f64) -> u64 {
    if n < 3 {
        return 0;
    }
    if let Some(&(_, states)) = measured.iter().find(|&&(m, _)| m == n) {
        return states;
    }
    let (last_n, last_states) = measured[measured.len() - 1];
    let extra = (n - last_n) as i32;
    let estimate = last_states as f64 * growth.powi(extra);
    if estimate >= u64::MAX as f64 {
        u64::MAX
    } else {
        estimate as u64
    }
}

/// Estimated state count of the exact [`JobKind::Reach`] tier on the ring
/// of `n` processes (the tables of `select.rs`).
///
/// Exact (measured) for `n = 3..=4`, extrapolated geometrically beyond;
/// rings below the protocol minimum report 0 (they cannot be built, so
/// any budget "fits").
#[must_use]
pub fn estimated_ring_states(n: usize) -> u64 {
    estimate(n, &MEASURED, GROWTH)
}

/// Estimated state count of the largest paper-claim arrow model on the
/// rotation quotient of the ring of `n` processes — what an exact tier
/// explores when a [`pa_mdp::RingRotation`] symmetry is active.
///
/// Exact (measured) for `n = 3..=5`, extrapolated geometrically beyond.
#[must_use]
pub fn estimated_quotient_states(n: usize) -> u64 {
    estimate(n, &MEASURED_QUOTIENT, QUOTIENT_GROWTH)
}

/// Chooses the analysis tier for a reachability claim on the ring of `n`
/// processes: exact ([`JobKind::Reach`]) when the estimated state count
/// fits `state_budget`, sampled ([`JobKind::Sampled`]) otherwise.
///
/// `symmetry` says whether the caller's exact tier runs on a quotient
/// (e.g. the exact column of `pa_faults::survival_map_hybrid` on the
/// rotation quotient, or `pa_lehmann_rabin::check_arrow_quotient` on the
/// dihedral quotient, for which the estimate is ≈ 2× conservative): the
/// budget is then judged against [`estimated_quotient_states`] instead of
/// the full space. Pass
/// `false` for exact analyses that explore the full space — including any
/// run under a non-empty fault plan, which has no sound quotient.
#[must_use]
pub fn select_kind(
    n: usize,
    state_budget: u64,
    target: SetExpr,
    within: u32,
    claimed: f64,
    mc: McSettings,
    symmetry: bool,
) -> JobKind {
    let estimated = if symmetry {
        estimated_quotient_states(n)
    } else {
        estimated_ring_states(n)
    };
    if estimated <= state_budget {
        JobKind::Reach {
            target,
            within,
            claimed,
        }
    } else {
        JobKind::Sampled {
            target,
            within,
            claimed,
            mc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_faults::{default_grid, uniform_chain_states};
    use pa_lehmann_rabin::{
        explore_checker, paper, reachable_configs_in, Quotient, RoundConfig, RoundMdp,
        RoundStateCodec,
    };
    use pa_mdp::PackedSpace;

    const LIMIT: usize = 2_000_000;

    fn mc() -> McSettings {
        McSettings {
            trajectories: 1_000,
            seed: 1,
        }
    }

    #[test]
    fn measured_tables_are_what_the_exact_tiers_explore() {
        let mut claims: Vec<_> = paper::all_arrows().into_iter().map(|(a, _)| a).collect();
        claims.push(paper::arrow_t_to_c());
        for n in [3, 4] {
            let chain = default_grid()
                .iter()
                .map(|(_, plan)| uniform_chain_states(n, plan, LIMIT).unwrap())
                .max();
            assert_eq!(chain, Some(estimated_ring_states(n) as usize), "n={n}");
            let configs = reachable_configs_in(n, LIMIT, Quotient::Rotation).unwrap();
            let largest = claims
                .iter()
                .map(|claim| {
                    let mdp = RoundMdp::new(RoundConfig::new(n).unwrap());
                    let space = PackedSpace::new(RoundStateCodec::new(n).unwrap());
                    let scope = Some((claim.from(), claim.to()));
                    explore_checker(mdp, &configs, scope, LIMIT, Quotient::Rotation, space)
                        .unwrap()
                        .map_or(0, |(_, checker)| checker.model().num_states())
                })
                .max();
            assert_eq!(
                largest,
                Some(estimated_quotient_states(n) as usize),
                "n={n}"
            );
        }
    }

    #[test]
    fn measured_counts_are_returned_verbatim() {
        assert_eq!(estimated_ring_states(3), 20_486);
        assert_eq!(estimated_ring_states(4), 465_792);
        assert_eq!(estimated_quotient_states(3), 2_937);
        assert_eq!(estimated_quotient_states(5), 788_722);
    }

    #[test]
    fn extrapolation_grows_geometrically() {
        // Above the one n = 5 count of the chain (the empty plan).
        let n5 = estimated_ring_states(5);
        assert!(n5 > 10_415_118 && n5 < 11_000_000, "n=5 estimate {n5}");
        let n6 = estimated_ring_states(6);
        assert!(n6 > 23 * n5 && n6 < 24 * n5);
        let q6 = estimated_quotient_states(6);
        assert!(q6 > 17 * 788_722 && q6 < 19 * 788_722, "n=6 quotient {q6}");
        // The quotient's arrow models stay below the chain.
        assert!(q6 < n6);
    }

    #[test]
    fn selection_degrades_to_sampling_over_budget() {
        // A 1 M-state budget holds the n = 4 chain but not the n = 5 one.
        let kind = |n| select_kind(n, 1_000_000, SetExpr::named("C"), 13, 0.125, mc(), false);
        assert!(matches!(kind(3), JobKind::Reach { .. }));
        assert!(matches!(kind(4), JobKind::Reach { .. }));
        assert!(matches!(kind(5), JobKind::Sampled { .. }));
    }

    #[test]
    fn symmetry_keeps_the_exact_tier_one_process_longer() {
        // A 4M-state budget: the n = 5 chain (~10.9M) is out of reach, but
        // the largest n = 5 quotient arrow model (788,722) fits.
        let budget = 4_000_000;
        let full = select_kind(5, budget, SetExpr::named("C"), 13, 0.125, mc(), false);
        assert!(matches!(full, JobKind::Sampled { .. }));
        let quotient = select_kind(5, budget, SetExpr::named("C"), 13, 0.125, mc(), true);
        assert!(matches!(quotient, JobKind::Reach { .. }));
    }
}
