//! Reference engines over the nested [`ExplicitMdp`] representation, kept
//! as differential-testing oracles and benchmark baselines for the CSR
//! engine in [`crate::CsrMdp`].
//!
//! Two families live here:
//!
//! * `*_jacobi` — double-buffered Jacobi sweeps over the nested
//!   representation, performing the **same floating-point operations in
//!   the same order** as the CSR kernels. Property tests assert their
//!   results are bit-for-bit identical to the CSR engine (any block
//!   structure), which pins both the flattening and the block cutting.
//! * `*_gauss_seidel` — the original in-place Gauss–Seidel sweeps this
//!   crate shipped with before the CSR engine. Gauss–Seidel reads values
//!   updated earlier in the same sweep, so its iterates differ from
//!   Jacobi's; both converge to the same fixpoint, which property tests
//!   check within tolerance.

use crate::{source, CsrMdp, ExplicitMdp, IterOptions, MdpError, Objective};

/// Nested-representation Jacobi unbounded reachability: the bitwise oracle
/// for an unbounded Jacobi [`crate::Query`].
pub fn reach_prob_jacobi(
    mdp: &ExplicitMdp,
    target: &[bool],
    objective: Objective,
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    let n = mdp.num_states();
    let zero = source::prob0(&CsrMdp::from(mdp), target, objective)?;
    let mut cur = vec![0.0f64; n];
    for s in 0..n {
        if target[s] {
            cur[s] = 1.0;
        }
    }
    let mut prev = cur.clone();
    for _ in 0..options.max_sweeps {
        let mut delta = 0.0f64;
        for s in 0..n {
            let v = if target[s] || zero[s] || mdp.choices(s).is_empty() {
                prev[s]
            } else {
                let mut best = objective.start();
                for c in mdp.choices(s) {
                    let mut val = 0.0f64;
                    for &(t, p) in &c.transitions {
                        val += p * prev[t];
                    }
                    if objective.better(val, best) {
                        best = val;
                    }
                }
                best
            };
            let d = (v - prev[s]).abs();
            if d > delta {
                delta = d;
            }
            cur[s] = v;
        }
        std::mem::swap(&mut cur, &mut prev);
        if delta <= options.epsilon {
            break;
        }
    }
    Ok(prev)
}

/// Nested-representation Jacobi level solver shared by the bounded-
/// reachability oracle.
fn solve_level_jacobi(
    mdp: &ExplicitMdp,
    target: &[bool],
    level_prev: &[f64],
    objective: Objective,
) -> Vec<f64> {
    let n = mdp.num_states();
    let mut cur = vec![0.0f64; n];
    for s in 0..n {
        if target[s] {
            cur[s] = 1.0;
        }
    }
    let mut prev = cur.clone();
    let max_sweeps = 4 * n + 8;
    for _ in 0..max_sweeps {
        let mut delta = 0.0f64;
        for s in 0..n {
            let v = if target[s] || mdp.choices(s).is_empty() {
                prev[s]
            } else {
                let mut best = objective.start();
                for c in mdp.choices(s) {
                    let source: &[f64] = if c.cost == 1 { level_prev } else { &prev };
                    let mut val = 0.0f64;
                    for &(t, p) in &c.transitions {
                        val += p * source[t];
                    }
                    if objective.better(val, best) {
                        best = val;
                    }
                }
                best
            };
            let d = (v - prev[s]).abs();
            if d > delta {
                delta = d;
            }
            cur[s] = v;
        }
        std::mem::swap(&mut cur, &mut prev);
        if delta <= 1e-14 {
            break;
        }
    }
    prev
}

/// Nested-representation Jacobi cost-bounded reachability: the bitwise
/// oracle for horizon queries (`Query` with a Jacobi solver).
pub fn cost_bounded_reach_jacobi(
    mdp: &ExplicitMdp,
    target: &[bool],
    budget: u32,
    objective: Objective,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    for s in 0..mdp.num_states() {
        for c in mdp.choices(s) {
            if c.cost > 1 {
                return Err(MdpError::BadDistribution {
                    state: s,
                    reason: format!(
                        "cost-bounded reachability supports costs 0 and 1, found {}",
                        c.cost
                    ),
                });
            }
        }
    }
    let zeros = vec![0.0; mdp.num_states()];
    let mut cur = solve_level_jacobi(mdp, target, &zeros, objective);
    for _ in 1..=budget {
        cur = solve_level_jacobi(mdp, target, &cur, objective);
    }
    Ok(cur)
}

/// Nested-representation Jacobi expected cost: the bitwise oracle for
/// `MaxCost` and `MinCost` queries under a Jacobi solver.
/// `live` is the proper/feasible mask (see the CSR engine); pass the same
/// mask the engine computes.
fn expected_cost_jacobi(
    mdp: &ExplicitMdp,
    target: &[bool],
    live: &[bool],
    objective: Objective,
    options: IterOptions,
) -> Vec<f64> {
    let n = mdp.num_states();
    let mut cur = vec![0.0f64; n];
    let mut prev = cur.clone();
    for _ in 0..options.max_sweeps {
        let mut delta = 0.0f64;
        for s in 0..n {
            let v = if target[s] || !live[s] || mdp.choices(s).is_empty() {
                prev[s]
            } else {
                let mut best = objective.start();
                for c in mdp.choices(s) {
                    let mut val = c.cost as f64;
                    let mut ok = true;
                    for &(t, p) in &c.transitions {
                        if p == 0.0 {
                            continue;
                        }
                        if !target[t] && !live[t] {
                            ok = false;
                            break;
                        }
                        val += p * prev[t];
                    }
                    if ok && objective.better(val, best) {
                        best = val;
                    }
                }
                if best.is_finite() {
                    best
                } else {
                    prev[s]
                }
            };
            let d = (v - prev[s]).abs();
            if d > delta {
                delta = d;
            }
            cur[s] = v;
        }
        std::mem::swap(&mut cur, &mut prev);
        if delta <= options.epsilon {
            break;
        }
    }
    prev
}

/// Nested Jacobi worst-case expected cost (bitwise oracle for `MaxCost`
/// queries under a Jacobi solver).
pub fn max_expected_cost_jacobi(
    mdp: &ExplicitMdp,
    target: &[bool],
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    let proper = source::prob1(&CsrMdp::from(mdp), target, Objective::MinProb)?;
    let mut v = expected_cost_jacobi(mdp, target, &proper, Objective::MaxProb, options);
    for s in 0..mdp.num_states() {
        if !target[s] && !proper[s] {
            v[s] = f64::INFINITY;
        }
    }
    Ok(v)
}

/// Nested Jacobi best-case expected cost (bitwise oracle for `MinCost`
/// queries under a Jacobi solver).
pub fn min_expected_cost_jacobi(
    mdp: &ExplicitMdp,
    target: &[bool],
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    let csr = CsrMdp::from(mdp);
    if source::has_zero_cost_cycle(&csr, target)? {
        return Err(MdpError::DivergentExpectation { state: 0 });
    }
    let feasible = source::prob1(&csr, target, Objective::MaxProb)?;
    let mut v = expected_cost_jacobi(mdp, target, &feasible, Objective::MinProb, options);
    for s in 0..mdp.num_states() {
        if !target[s] && !feasible[s] {
            v[s] = f64::INFINITY;
        }
    }
    Ok(v)
}

/// The pre-CSR in-place Gauss–Seidel unbounded reachability, unchanged
/// from the original implementation. Converges to the same fixpoint as
/// an unbounded Jacobi [`crate::Query`] (tolerance-compared in property tests);
/// serves as the benchmark baseline.
pub fn reach_prob_gauss_seidel(
    mdp: &ExplicitMdp,
    target: &[bool],
    objective: Objective,
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    let n = mdp.num_states();
    let zero = source::prob0(&CsrMdp::from(mdp), target, objective)?;
    let mut v = vec![0.0f64; n];
    for s in 0..n {
        if target[s] {
            v[s] = 1.0;
        }
    }
    for _ in 0..options.max_sweeps {
        let mut delta = 0.0f64;
        for s in 0..n {
            if target[s] || zero[s] || mdp.choices(s).is_empty() {
                continue;
            }
            let mut best = match objective {
                Objective::MinProb => f64::INFINITY,
                Objective::MaxProb => f64::NEG_INFINITY,
            };
            for c in mdp.choices(s) {
                let val: f64 = c.transitions.iter().map(|&(t, p)| p * v[t]).sum();
                best = match objective {
                    Objective::MinProb => best.min(val),
                    Objective::MaxProb => best.max(val),
                };
            }
            let d = (best - v[s]).abs();
            if d > delta {
                delta = d;
            }
            v[s] = best;
        }
        if delta <= options.epsilon {
            break;
        }
    }
    Ok(v)
}

/// The pre-CSR Gauss–Seidel level solver, unchanged from the original
/// implementation.
fn solve_level_gauss_seidel(
    mdp: &ExplicitMdp,
    target: &[bool],
    prev: &[f64],
    objective: Objective,
) -> Vec<f64> {
    let n = mdp.num_states();
    let mut cur = vec![0.0f64; n];
    for s in 0..n {
        if target[s] {
            cur[s] = 1.0;
        }
    }
    let max_sweeps = 4 * n + 8;
    for _ in 0..max_sweeps {
        let mut delta = 0.0f64;
        for s in 0..n {
            if target[s] || mdp.choices(s).is_empty() {
                continue;
            }
            let mut best = objective.start();
            for c in mdp.choices(s) {
                let source: &[f64] = if c.cost == 1 { prev } else { &cur };
                let v: f64 = c.transitions.iter().map(|&(t, p)| p * source[t]).sum();
                if objective.better(v, best) {
                    best = v;
                }
            }
            let d = (best - cur[s]).abs();
            if d > delta {
                delta = d;
            }
            cur[s] = best;
        }
        if delta <= 1e-14 {
            break;
        }
    }
    cur
}

/// The pre-CSR Gauss–Seidel cost-bounded reachability, unchanged from the
/// original implementation (benchmark baseline; tolerance-compared oracle).
pub fn cost_bounded_reach_gauss_seidel(
    mdp: &ExplicitMdp,
    target: &[bool],
    budget: u32,
    objective: Objective,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    for s in 0..mdp.num_states() {
        for c in mdp.choices(s) {
            if c.cost > 1 {
                return Err(MdpError::BadDistribution {
                    state: s,
                    reason: format!(
                        "cost-bounded reachability supports costs 0 and 1, found {}",
                        c.cost
                    ),
                });
            }
        }
    }
    let zeros = vec![0.0; mdp.num_states()];
    let mut cur = solve_level_gauss_seidel(mdp, target, &zeros, objective);
    for _ in 1..=budget {
        cur = solve_level_gauss_seidel(mdp, target, &cur, objective);
    }
    Ok(cur)
}

/// The pre-CSR Gauss–Seidel worst-case expected cost, unchanged from the
/// original implementation.
pub fn max_expected_cost_gauss_seidel(
    mdp: &ExplicitMdp,
    target: &[bool],
    options: IterOptions,
) -> Result<Vec<f64>, MdpError> {
    mdp.check_target(target)?;
    let n = mdp.num_states();
    let proper = source::prob1(&CsrMdp::from(mdp), target, Objective::MinProb)?;

    let mut v = vec![0.0f64; n];
    for _ in 0..options.max_sweeps {
        let mut delta = 0.0f64;
        for s in 0..n {
            if target[s] || !proper[s] || mdp.choices(s).is_empty() {
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            for c in mdp.choices(s) {
                let mut val = c.cost as f64;
                let mut ok = true;
                for &(t, p) in &c.transitions {
                    if p == 0.0 {
                        continue;
                    }
                    if !target[t] && !proper[t] {
                        ok = false;
                        break;
                    }
                    val += p * v[t];
                }
                if ok && val > best {
                    best = val;
                }
            }
            if best.is_finite() {
                let d = (best - v[s]).abs();
                if d > delta {
                    delta = d;
                }
                v[s] = best;
            }
        }
        if delta <= options.epsilon {
            break;
        }
    }
    for s in 0..n {
        if !target[s] && !proper[s] {
            v[s] = f64::INFINITY;
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Choice;

    fn geometric() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn jacobi_and_gauss_seidel_agree_on_geometric() {
        let m = geometric();
        let target = [false, true];
        let opts = IterOptions::default();
        let j = reach_prob_jacobi(&m, &target, Objective::MinProb, opts).unwrap();
        let g = reach_prob_gauss_seidel(&m, &target, Objective::MinProb, opts).unwrap();
        assert!((j[0] - g[0]).abs() < 1e-9);
        assert!((j[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_oracles_match_closed_form() {
        let m = geometric();
        let target = [false, true];
        for budget in 0..6 {
            let j = cost_bounded_reach_jacobi(&m, &target, budget, Objective::MinProb).unwrap();
            let g =
                cost_bounded_reach_gauss_seidel(&m, &target, budget, Objective::MinProb).unwrap();
            let expect = 1.0 - 0.5f64.powi(budget as i32);
            assert!((j[0] - expect).abs() < 1e-12);
            assert!((g[0] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_cost_oracles_agree() {
        let m = geometric();
        let target = [false, true];
        let opts = IterOptions::default();
        let j = max_expected_cost_jacobi(&m, &target, opts).unwrap();
        let g = max_expected_cost_gauss_seidel(&m, &target, opts).unwrap();
        assert!((j[0] - 2.0).abs() < 1e-6);
        assert!((g[0] - 2.0).abs() < 1e-6);
    }
}
