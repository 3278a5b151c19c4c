//! Budget-driven exact-vs-sampled tier selection.
//!
//! [`select_kind`] sizes the exact tier by the states that tier explores,
//! not by the protocol model's. [`JobKind::Reach`] runs
//! [`pa_faults::exact_reach_uniform`], which explores the `UniformChain`
//! wrapping of the faulty round model from the all-trying start. The
//! chain records a choice index in its states, so it has no quotient, and
//! the table below holds the largest chain over
//! [`pa_faults::default_grid`]'s plans (the `drop` plan at both sizes).
//!
//! | n | chain states |
//! |---|--------------|
//! | 3 | 20 486 |
//! | 4 | 465 792 |
//! | 5 | 10 946 112 (extrapolated) |
//!
//! The `n = 3` and `n = 4` rows are pinned by this module's tests. The
//! chain at `n = 5` is extrapolated: counted once under the empty plan it
//! held 10,415,118 states in 3.15 GB, too large to re-count in a test.
//! The protocol model the table used to hold (536, 4,252 and 33,848
//! states at `n = 3..=5`) is 38–308× smaller than what the exact tier
//! explores, so it admitted the chain at `n = 5` under a 1 M-state
//! budget.
//!
//! When the estimate fits the caller's state budget the exact
//! [`JobKind::Reach`] tier runs; otherwise the job degrades to
//! [`JobKind::Sampled`], whose memory is constant in `n`.

use pa_core::SetExpr;

use crate::spec::{JobKind, McSettings};

/// Measured state counts of the exact [`JobKind::Reach`] tier: the
/// largest `UniformChain` over the default fault grid.
const MEASURED: [(usize, u64); 2] = [(3, 20_486), (4, 465_792)];

/// Per-process growth factor of the chain beyond the measured range. The
/// measured ratio is 22.74 (22.98 and 22.42 over `n = 3..=5` under the
/// empty plan); rounding up to 23.5 over-estimates the `n = 5` count by
/// 5% (degrading to sampling early is safe; exhausting memory is not).
const GROWTH: f64 = 23.5;

/// Estimated state count of the exact [`JobKind::Reach`] tier on the ring
/// of `n` processes (the table of `select.rs`).
///
/// Exact (measured) for `n = 3..=4`, extrapolated geometrically beyond;
/// rings below the protocol minimum report 0 (they cannot be built, so
/// any budget "fits").
#[must_use]
pub fn estimated_ring_states(n: usize) -> u64 {
    if n < 3 {
        return 0;
    }
    if let Some(&(_, states)) = MEASURED.iter().find(|&&(m, _)| m == n) {
        return states;
    }
    let (last_n, last_states) = MEASURED[MEASURED.len() - 1];
    let extra = (n - last_n) as i32;
    let estimate = last_states as f64 * GROWTH.powi(extra);
    if estimate >= u64::MAX as f64 {
        u64::MAX
    } else {
        estimate as u64
    }
}

/// Chooses the analysis tier for a reachability claim on the ring of `n`
/// processes: exact ([`JobKind::Reach`]) when the estimated state count
/// fits `state_budget`, sampled ([`JobKind::Sampled`]) otherwise.
///
/// The estimate counts the full chain, which every caller's exact tier
/// explores: `Reach` has no quotient.
#[must_use]
pub fn select_kind(
    n: usize,
    state_budget: u64,
    target: SetExpr,
    within: u32,
    claimed: f64,
    mc: McSettings,
) -> JobKind {
    let estimated = estimated_ring_states(n);
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

    const LIMIT: usize = 2_000_000;

    fn mc() -> McSettings {
        McSettings {
            trajectories: 1_000,
            seed: 1,
        }
    }

    #[test]
    fn measured_tables_are_what_the_exact_tiers_explore() {
        for n in [3, 4] {
            let chain = default_grid()
                .iter()
                .map(|(_, plan)| uniform_chain_states(n, plan, LIMIT).unwrap())
                .max();
            assert_eq!(chain, Some(estimated_ring_states(n) as usize), "n={n}");
        }
    }

    #[test]
    fn measured_counts_are_returned_verbatim() {
        assert_eq!(estimated_ring_states(3), 20_486);
        assert_eq!(estimated_ring_states(4), 465_792);
    }

    #[test]
    fn extrapolation_grows_geometrically() {
        // Above the one n = 5 count of the chain (the empty plan).
        let n5 = estimated_ring_states(5);
        assert!(n5 > 10_415_118 && n5 < 11_000_000, "n=5 estimate {n5}");
        let n6 = estimated_ring_states(6);
        assert!(n6 > 23 * n5 && n6 < 24 * n5);
    }

    #[test]
    fn selection_degrades_to_sampling_over_budget() {
        // A 1 M-state budget holds the n = 4 chain but not the n = 5 one.
        let kind = |n| select_kind(n, 1_000_000, SetExpr::named("C"), 13, 0.125, mc());
        assert!(matches!(kind(3), JobKind::Reach { .. }));
        assert!(matches!(kind(4), JobKind::Reach { .. }));
        assert!(matches!(kind(5), JobKind::Sampled { .. }));
    }
}
