//! Budget-driven exact-vs-sampled tier selection.
//!
//! The exact engine explores the (fault-wrapped) round model, so its
//! memory footprint is governed by the ring's reachable state count. Both
//! the full space and its rotation quotient are measured up to `n = 7`
//! (`EXPERIMENTS.md` records the table; `n = 3..=5` are pinned by
//! `pa-bench`'s `pinned_invariants` test):
//!
//! | n | full states | quotient states |
//! |---|-------------|-----------------|
//! | 3 | 536 | 184 |
//! | 4 | 4 252 | 1 084 |
//! | 5 | 33 848 | 6 776 |
//! | 6 | 270 218 | 45 151 |
//! | 7 | 2 161 272 | 308 760 |
//!
//! The full space grows by roughly ×8 per process; the quotient is a
//! factor `≈ n` smaller (the reduction is exactly 7.000 at `n = 7`, where
//! every orbit has all `n` rotations distinct).
//!
//! [`select_kind`] keys on [`estimated_ring_states`] — or, when the
//! caller's exact tier runs on the rotation quotient, on
//! [`estimated_quotient_states`]: when the estimate fits the caller's
//! state budget the exact [`JobKind::Arrow`] / [`JobKind::Reach`] tier
//! runs; otherwise the job degrades to [`JobKind::Sampled`], whose memory
//! is constant in `n`.

use pa_core::SetExpr;

use crate::spec::{JobKind, McSettings};

/// Measured reachable-state counts for the saturating Lehmann–Rabin round
/// model, `n = 3..=7` (EXPERIMENTS.md's dated kernel table).
const MEASURED: [(usize, u64); 5] = [
    (3, 536),
    (4, 4_252),
    (5, 33_848),
    (6, 270_218),
    (7, 2_161_272),
];

/// Measured state counts of the rotation quotient of the same model (the
/// values the bench `symmetry` block pins). A factor `≈ n` below
/// [`MEASURED`]: 2.91, 3.92, 5.00, 5.99, 7.00.
const MEASURED_QUOTIENT: [(usize, u64); 5] =
    [(3, 184), (4, 1_084), (5, 6_776), (6, 45_151), (7, 308_760)];

/// Per-process growth factor used to extrapolate beyond the measured
/// range. The measured ratios are 7.93, 7.96, 7.98, 8.00 — we round up a
/// touch so the extrapolation over-estimates (degrading to sampling early
/// is safe; exhausting memory is not).
const GROWTH: f64 = 8.2;

/// Per-process growth factor of the quotient. The measured ratios are
/// 5.89, 6.25, 6.66, 6.84 and approach `GROWTH · n/(n+1)` (the reduction
/// factor converges to `n`), so 7.5 over-estimates every extrapolated
/// size — erring, as with [`GROWTH`], on the degrade-early side.
const QUOTIENT_GROWTH: f64 = 7.5;

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

/// Estimated reachable-state count of the ring of `n` processes.
///
/// Exact (measured) for `n = 3..=7`, extrapolated geometrically beyond;
/// rings below the protocol minimum report 0 (they cannot be built, so
/// any budget "fits").
#[must_use]
pub fn estimated_ring_states(n: usize) -> u64 {
    estimate(n, &MEASURED, GROWTH)
}

/// Estimated state count of the rotation quotient of the ring of `n`
/// processes — what the exact engine actually explores when a
/// [`pa_mdp::RingRotation`] symmetry is active.
///
/// Exact (measured) for `n = 3..=7`, extrapolated geometrically beyond.
/// At `n = 8` the quotient (≈ 2.3 M states) is the size the *full* space
/// had at `n = 7`, which is what moves the exact-tier frontier out by one
/// process per available memory octave.
#[must_use]
pub fn estimated_quotient_states(n: usize) -> u64 {
    estimate(n, &MEASURED_QUOTIENT, QUOTIENT_GROWTH)
}

/// Chooses the analysis tier for a reachability claim on the ring of `n`
/// processes: exact ([`JobKind::Reach`]) when the estimated state count
/// fits `state_budget`, sampled ([`JobKind::Sampled`]) otherwise.
///
/// `symmetry` says whether the caller's exact tier runs on the rotation
/// quotient (e.g. `pa_lehmann_rabin::check_arrow_quotient` or the exact
/// column of `pa_faults::survival_map_hybrid`): the budget is then judged
/// against [`estimated_quotient_states`] instead of the full space. Pass
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

    #[test]
    fn measured_counts_are_returned_verbatim() {
        assert_eq!(estimated_ring_states(3), 536);
        assert_eq!(estimated_ring_states(7), 2_161_272);
        assert_eq!(estimated_quotient_states(3), 184);
        assert_eq!(estimated_quotient_states(7), 308_760);
    }

    #[test]
    fn extrapolation_grows_geometrically() {
        let n8 = estimated_ring_states(8);
        let n9 = estimated_ring_states(9);
        assert!(n8 > 17_000_000, "n=8 estimate {n8} too small");
        assert!(n9 > 8 * n8 && n9 < 9 * n8);
        let q8 = estimated_quotient_states(8);
        let q9 = estimated_quotient_states(9);
        assert!(q8 > 2_000_000 && q8 < 3_000_000, "n=8 quotient {q8}");
        assert!(q9 > 7 * q8 && q9 < 8 * q8);
        // The quotient estimate stays an over-estimate of full/n.
        assert!(q8 > n8 / 8);
    }

    #[test]
    fn selection_degrades_to_sampling_over_budget() {
        let mc = McSettings {
            trajectories: 1_000,
            seed: 1,
        };
        let exact = select_kind(3, 1_000_000, SetExpr::named("C"), 13, 0.125, mc, false);
        assert!(matches!(exact, JobKind::Reach { .. }));
        let sampled = select_kind(8, 1_000_000, SetExpr::named("C"), 13, 0.125, mc, false);
        assert!(matches!(sampled, JobKind::Sampled { .. }));
    }

    #[test]
    fn symmetry_keeps_the_exact_tier_one_process_longer() {
        let mc = McSettings {
            trajectories: 1_000,
            seed: 1,
        };
        // A 4M-state budget: the full n=8 space (~17.7M) is out of reach,
        // but its quotient (~2.3M) fits — the whole point of the quotient.
        let budget = 4_000_000;
        let full = select_kind(8, budget, SetExpr::named("C"), 13, 0.125, mc, false);
        assert!(matches!(full, JobKind::Sampled { .. }));
        let quotient = select_kind(8, budget, SetExpr::named("C"), 13, 0.125, mc, true);
        assert!(matches!(quotient, JobKind::Reach { .. }));
    }
}
