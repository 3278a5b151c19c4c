//! Claim survival maps: re-evaluate every paper arrow `U —t→_p U'` under
//! a grid of fault configurations and classify each combination as
//! [`Survival::Holds`] (the claimed probability still holds),
//! [`Survival::Degraded`] (some weaker positive probability survives), or
//! [`Survival::Fails`] (an adversary can drive the probability to zero).
//!
//! The zero-fault column is computed through the *same* wrapped pipeline
//! with [`FaultPlan::none`], which is a strict identity — so it is bitwise
//! equal to the fault-free [`pa_lehmann_rabin::check_arrow`] results, a
//! property the regression tests pin down.

use pa_core::{Arrow, ArrowCheck};
use pa_lehmann_rabin::{
    explore_checker, paper, reachable_configs, reachable_configs_quotient, set_pred_under,
    time_to_budget, Config, Quotient, RoundConfig,
};
use pa_mdp::PackedSpace;
use serde::Serialize;

use crate::{FaultError, FaultKind, FaultPlan, FaultyRoundMdp, FaultyStateCodec};

/// Default cap on explored states for survival analyses, matching
/// [`pa_lehmann_rabin::DEFAULT_STATE_LIMIT`].
pub const DEFAULT_STATE_LIMIT: usize = pa_lehmann_rabin::DEFAULT_STATE_LIMIT;

/// How an arrow claim fares under a fault configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Survival {
    /// The claimed probability bound still holds.
    Holds,
    /// The claim fails at its stated probability, but a positive
    /// probability of success survives under every adversary.
    Degraded,
    /// Some adversary reduces the success probability to zero.
    Fails,
}

/// One cell of a survival map: an arrow under one fault configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SurvivalCell {
    /// Name of the fault configuration (a column of the map).
    pub fault: String,
    /// The classification.
    pub survival: Survival,
    /// The measured worst-case probability of the arrow's claim.
    pub measured: f64,
}

/// One row of a survival map: an arrow across all fault configurations.
#[derive(Debug, Clone, Serialize)]
pub struct SurvivalRow {
    /// The arrow, rendered (`U —t→_p U'`).
    pub arrow: String,
    /// The claimed probability, for reference.
    pub claimed: f64,
    /// Cells, in grid column order.
    pub cells: Vec<SurvivalCell>,
}

/// The claim survival map of a ring: the five paper arrows re-evaluated
/// under a grid of fault configurations.
#[derive(Debug, Clone, Serialize)]
pub struct SurvivalMap {
    /// Ring size.
    pub n: usize,
    /// Column names, in order (the first is always the zero-fault column).
    pub faults: Vec<String>,
    /// One row per paper arrow, in chain order.
    pub rows: Vec<SurvivalRow>,
}

impl SurvivalMap {
    /// Looks up a cell by arrow rendering and fault name.
    pub fn cell(&self, arrow: &str, fault: &str) -> Option<&SurvivalCell> {
        self.rows
            .iter()
            .find(|r| r.arrow == arrow)?
            .cells
            .iter()
            .find(|c| c.fault == fault)
    }
}

/// Classifies a measured worst-case probability against a claimed bound:
/// [`Survival::Holds`] exactly when [`pa_core::meets_claim`] does.
pub fn classify(measured: f64, claimed: f64) -> Survival {
    if pa_core::meets_claim(measured, claimed) {
        Survival::Holds
    } else if measured > 1e-12 {
        Survival::Degraded
    } else {
        Survival::Fails
    }
}

/// Exactly checks an arrow claim on the fault-wrapped round model: for
/// every reachable configuration in `U` (judged under the faults already
/// struck at round 1), the minimal probability over all round adversaries
/// of reaching `U'` — membership judged under the faults in force on
/// arrival — within time `t` must be at least `p`.
///
/// Mirrors [`pa_lehmann_rabin::check_arrow_with_limit`]; with
/// [`FaultPlan::none`] the result is bitwise identical to it. States are
/// bit-packed ([`FaultyStateCodec`]) during exploration.
///
/// # Errors
///
/// Region, plan-validation, exploration, and analysis errors.
pub fn check_arrow_under(
    cfg: RoundConfig,
    arrow: &Arrow,
    plan: &FaultPlan,
    limit: usize,
) -> Result<ArrowCheck, FaultError> {
    let reachable = reachable_configs(cfg.n, limit)?;
    check_arrow_in(cfg, arrow, plan, &reachable, limit, Quotient::Full)
}

/// [`check_arrow_under`] on the rotation-quotient model: starts are orbit
/// representatives (`states_checked` counts orbits) and successors
/// canonicalize during exploration. This is what holds the zero-fault
/// column of large-`n` survival maps inside memory.
///
/// # Errors
///
/// [`FaultError::SymmetryBroken`] unless `plan` is empty — scripted fault
/// events name specific processes, and rotation is only an automorphism of
/// the fault-free model. Otherwise as [`check_arrow_under`].
pub fn check_arrow_under_quotient(
    cfg: RoundConfig,
    arrow: &Arrow,
    plan: &FaultPlan,
    limit: usize,
) -> Result<ArrowCheck, FaultError> {
    if !plan.is_empty() {
        return Err(FaultError::SymmetryBroken);
    }
    let reps = reachable_configs_quotient(cfg.n, limit)?;
    check_arrow_in(cfg, arrow, plan, &reps, limit, Quotient::Rotation)
}

/// The exact fault check over already enumerated configurations, with
/// bit-packed states: `reachable` holds the orbit representatives under
/// [`Quotient::Rotation`] (and `plan` is then empty), every reachable
/// configuration under [`Quotient::Full`].
fn check_arrow_in(
    cfg: RoundConfig,
    arrow: &Arrow,
    plan: &FaultPlan,
    reachable: &[Config],
    limit: usize,
    quotient: Quotient,
) -> Result<ArrowCheck, FaultError> {
    let model = FaultyRoundMdp::new(cfg, plan.clone())?;
    let scope = Some((arrow.from(), arrow.to()));
    let space = PackedSpace::new(FaultyStateCodec::new(cfg.n, model.round_cap())?);
    // The store is dropped before the solve: the checker needs none.
    let checker = explore_checker(model, reachable, scope, limit, quotient, space)?
        .map(|(_, checker, _)| checker);
    match checker {
        Some(checker) => Ok(checker.arrow(arrow, |q| q)?),
        None => Ok(ArrowCheck::vacuous(arrow)),
    }
}

/// The crash mask already in force when the clock starts: round-1 events
/// strike before any process moves, so membership of the start states in
/// an arrow's source region is judged under it.
pub fn start_crash_mask(plan: &FaultPlan) -> u32 {
    plan.events_at(1)
        .iter()
        .filter(|e| !matches!(e.kind, FaultKind::DropObligation))
        .fold(0u32, |m, e| m | (1 << e.process))
}

/// The default fault grid: the zero-fault identity column plus one
/// representative of each fault kind, all striking process 0 at the start
/// of round 2 (late enough that round 1 behaves normally, early enough to
/// disturb every arrow's window).
pub fn default_grid() -> Vec<(String, FaultPlan)> {
    vec![
        ("none".to_string(), FaultPlan::none()),
        (
            "crash-stop r2 p0".to_string(),
            FaultPlan::single(2, 0, FaultKind::CrashStop).expect("valid scripted event"),
        ),
        (
            "crash-restart r2 p0 d2".to_string(),
            FaultPlan::single(2, 0, FaultKind::CrashRestart { downtime: 2 })
                .expect("valid scripted event"),
        ),
        (
            "drop r2 p0".to_string(),
            FaultPlan::single(2, 0, FaultKind::DropObligation).expect("valid scripted event"),
        ),
    ]
}

/// Builds the claim survival map of a ring of `n`: every paper arrow
/// under every configuration of [`default_grid`].
///
/// # Errors
///
/// Propagates [`check_arrow_under`] errors.
pub fn survival_map(n: usize, limit: usize) -> Result<SurvivalMap, FaultError> {
    survival_map_with_grid(n, limit, &default_grid())
}

/// [`survival_map`] over an explicit fault grid.
///
/// # Errors
///
/// Propagates [`check_arrow_under`] errors.
pub fn survival_map_with_grid(
    n: usize,
    limit: usize,
    grid: &[(String, FaultPlan)],
) -> Result<SurvivalMap, FaultError> {
    let cfg = RoundConfig::new(n)?;
    let reachable = reachable_configs(n, limit)?;
    let mut rows = Vec::new();
    for (arrow, _why) in paper::all_arrows() {
        let claimed = arrow.prob().value();
        let mut cells = Vec::new();
        for (name, plan) in grid {
            let check = check_arrow_in(cfg, &arrow, plan, &reachable, limit, Quotient::Full)?;
            let measured = check.measured.lo().value();
            cells.push(SurvivalCell {
                fault: name.clone(),
                survival: classify(measured, claimed),
                measured,
            });
        }
        rows.push(SurvivalRow {
            arrow: arrow.to_string(),
            claimed,
            cells,
        });
    }
    Ok(SurvivalMap {
        n,
        faults: grid.iter().map(|(name, _)| name.clone()).collect(),
        rows,
    })
}

/// One sampled cell of a [`HybridSurvivalMap`]: the uniform-adversary
/// success probability from the canonical (lexicographically least
/// reachable) source configuration, with its 99% Wilson interval. This is
/// an *estimate of a proxy* — the uniform adversary, not the worst case —
/// because scripted faults break rotation symmetry, putting the faulted
/// columns beyond the quotient-exact engine at large `n`.
#[derive(Debug, Clone, Serialize)]
pub struct SampledSurvivalCell {
    /// Name of the fault configuration.
    pub fault: String,
    /// Classification of the point estimate against the claimed bound.
    pub survival: Survival,
    /// The point estimate.
    pub estimate: f64,
    /// Lower end of the 99% Wilson interval.
    pub lo: f64,
    /// Upper end of the 99% Wilson interval.
    pub hi: f64,
    /// Trajectories sampled (0 for a vacuous cell).
    pub trials: u64,
}

/// One row of a hybrid survival map: the exact quotient zero-fault cell
/// plus sampled faulted cells.
#[derive(Debug, Clone, Serialize)]
pub struct HybridSurvivalRow {
    /// The arrow, rendered (`U —t→_p U'`).
    pub arrow: String,
    /// The claimed probability.
    pub claimed: f64,
    /// The zero-fault cell, exact on the rotation quotient.
    pub exact: SurvivalCell,
    /// Sampled cells for the faulted grid columns.
    pub sampled: Vec<SampledSurvivalCell>,
}

/// The survival map for rings beyond the full-space engine's reach: the
/// zero-fault column is exact on the rotation-quotient model
/// ([`check_arrow_under_quotient`]), and faulted columns are Monte-Carlo
/// sampled ([`crate::estimate_reach_uniform_from`]).
#[derive(Debug, Clone, Serialize)]
pub struct HybridSurvivalMap {
    /// Ring size.
    pub n: usize,
    /// Column names, in order (the first is the exact zero-fault column).
    pub faults: Vec<String>,
    /// One row per paper arrow, in chain order.
    pub rows: Vec<HybridSurvivalRow>,
}

/// Builds the hybrid survival map of a ring of `n` over [`default_grid`].
///
/// # Errors
///
/// Propagates [`check_arrow_under_quotient`] and sampling errors.
pub fn survival_map_hybrid(
    n: usize,
    limit: usize,
    mc: &pa_mc::McConfig,
) -> Result<HybridSurvivalMap, FaultError> {
    survival_map_hybrid_with_grid(n, limit, &default_grid(), mc)
}

/// [`survival_map_hybrid`] over an explicit fault grid whose first column
/// must be the zero-fault identity.
///
/// # Errors
///
/// As [`survival_map_hybrid`]; [`FaultError::EmptyGrid`] if the grid has
/// no columns, and [`FaultError::SymmetryBroken`] if its first column is
/// not fault-free.
pub fn survival_map_hybrid_with_grid(
    n: usize,
    limit: usize,
    grid: &[(String, FaultPlan)],
    mc: &pa_mc::McConfig,
) -> Result<HybridSurvivalMap, FaultError> {
    let cfg = RoundConfig::new(n)?;
    let (zero_name, zero_plan) = grid.first().ok_or(FaultError::EmptyGrid)?;
    if !zero_plan.is_empty() {
        return Err(FaultError::SymmetryBroken);
    }
    // One quotient sweep of the protocol serves the exact column and
    // every sampled one.
    let reps = reachable_configs_quotient(n, limit)?;
    let mut rows = Vec::new();
    for (arrow, _why) in paper::all_arrows() {
        let claimed = arrow.prob().value();
        let check = check_arrow_in(cfg, &arrow, zero_plan, &reps, limit, Quotient::Rotation)?;
        let measured = check.measured.lo().value();
        let exact = SurvivalCell {
            fault: zero_name.clone(),
            survival: classify(measured, claimed),
            measured,
        };
        let mut sampled = Vec::new();
        for (name, plan) in &grid[1..] {
            let from = set_pred_under(arrow.from())?;
            let mask0 = start_crash_mask(plan);
            let start = reps.iter().filter(|c| from(c, mask0)).min().cloned();
            let cell = match start {
                // Empty source region: the claim is vacuous.
                None => SampledSurvivalCell {
                    fault: name.clone(),
                    survival: Survival::Holds,
                    estimate: 1.0,
                    lo: 1.0,
                    hi: 1.0,
                    trials: 0,
                },
                Some(start) => {
                    let est = crate::estimate_reach_uniform_from(
                        n,
                        plan,
                        start,
                        arrow.to(),
                        time_to_budget(arrow.time()),
                        mc,
                    )?;
                    let interval = est.interval(pa_prob::stats::Z_99);
                    SampledSurvivalCell {
                        fault: name.clone(),
                        survival: classify(est.point(), claimed),
                        estimate: est.point(),
                        lo: interval.lo().value(),
                        hi: interval.hi().value(),
                        trials: est.trials(),
                    }
                }
            };
            sampled.push(cell);
        }
        rows.push(HybridSurvivalRow {
            arrow: arrow.to_string(),
            claimed,
            exact,
            sampled,
        });
    }
    Ok(HybridSurvivalMap {
        n,
        faults: grid.iter().map(|(name, _)| name.clone()).collect(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_brackets_the_three_outcomes() {
        assert_eq!(classify(0.5, 0.5), Survival::Holds);
        assert_eq!(classify(0.5 + 1e-15, 0.5), Survival::Holds);
        assert_eq!(classify(0.25, 0.5), Survival::Degraded);
        assert_eq!(classify(0.0, 0.5), Survival::Fails);
    }

    #[test]
    fn quotient_zero_fault_check_matches_full_space_bitwise() {
        let cfg = RoundConfig::new(3).unwrap();
        for (arrow, _why) in paper::all_arrows() {
            let full = check_arrow_under(cfg, &arrow, &FaultPlan::none(), 1_000_000).unwrap();
            let quot =
                check_arrow_under_quotient(cfg, &arrow, &FaultPlan::none(), 1_000_000).unwrap();
            assert_eq!(full.measured.lo(), quot.measured.lo(), "{arrow}");
            assert!(quot.states_checked <= full.states_checked);
            assert!(quot.states_checked > 0);
        }
    }

    #[test]
    fn quotient_rejects_nonempty_plans() {
        let cfg = RoundConfig::new(3).unwrap();
        let plan = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
        assert!(matches!(
            check_arrow_under_quotient(cfg, &paper::arrow_p_to_c(), &plan, 1_000_000),
            Err(FaultError::SymmetryBroken)
        ));
    }

    #[test]
    fn hybrid_map_exact_column_matches_the_exact_map_at_n3() {
        let exact_map = survival_map(3, 1_000_000).unwrap();
        let hybrid = survival_map_hybrid(3, 1_000_000, &pa_mc::McConfig::new(400, 9, 0)).unwrap();
        assert_eq!(hybrid.faults, exact_map.faults);
        for (row_h, row_e) in hybrid.rows.iter().zip(&exact_map.rows) {
            assert_eq!(row_h.arrow, row_e.arrow);
            // Quotient-exact zero-fault cell equals the full-space cell.
            assert_eq!(row_h.exact.measured, row_e.cells[0].measured);
            assert_eq!(row_h.exact.survival, Survival::Holds);
            assert_eq!(row_h.sampled.len(), exact_map.faults.len() - 1);
            for cell in &row_h.sampled {
                assert!(cell.lo <= cell.estimate && cell.estimate <= cell.hi);
            }
        }
    }

    #[test]
    fn hybrid_map_names_an_empty_grid_and_a_faulted_first_column() {
        let mc = pa_mc::McConfig::new(10, 1, 0);
        assert!(matches!(
            survival_map_hybrid_with_grid(3, 1_000_000, &[], &mc),
            Err(FaultError::EmptyGrid)
        ));
        let faulted = default_grid()[1..].to_vec();
        assert!(matches!(
            survival_map_hybrid_with_grid(3, 1_000_000, &faulted, &mc),
            Err(FaultError::SymmetryBroken)
        ));
    }

    #[test]
    fn default_grid_leads_with_the_identity_column() {
        let grid = default_grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].0, "none");
        assert!(grid[0].1.is_empty());
        let kinds: Vec<FaultKind> = grid[1..].iter().map(|(_, p)| p.events()[0].kind).collect();
        assert!(kinds.contains(&FaultKind::CrashStop));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::CrashRestart { .. })));
        assert!(kinds.contains(&FaultKind::DropObligation));
    }
}
