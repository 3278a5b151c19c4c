use std::fmt;
use std::ops::{Add, Mul};

use crate::ProbError;

/// Tolerance used when validating probabilities and normalization sums.
///
/// Exact model-checking code in this workspace accumulates products of
/// floating-point probabilities; a tolerance of `1e-9` comfortably absorbs
/// that rounding while still rejecting genuinely malformed inputs.
pub(crate) const EPSILON: f64 = 1e-9;

/// A validated probability: a finite `f64` in `[0, 1]`.
///
/// `Prob` is the workspace-wide currency for probability *claims* (the `p` in
/// the paper's `U —t→_p U'` statements) and for distribution weights. Interior
/// numeric kernels (value iteration, backward induction) work on raw `f64`
/// for speed and convert at the API boundary.
///
/// # Examples
///
/// ```
/// use pa_prob::Prob;
///
/// # fn main() -> Result<(), pa_prob::ProbError> {
/// let half = Prob::new(0.5)?;
/// let quarter = half * half;
/// assert_eq!(quarter.value(), 0.25);
/// assert!(Prob::new(1.2).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Prob(f64);

impl Prob {
    /// The impossible event.
    pub const ZERO: Prob = Prob(0.0);
    /// The certain event.
    pub const ONE: Prob = Prob(1.0);
    /// A fair coin.
    pub const HALF: Prob = Prob(0.5);

    /// Creates a probability from a raw value.
    ///
    /// Values within [`EPSILON`](crate::Prob::clamped) of the unit interval
    /// are clamped onto it so that tiny floating-point excursions coming out
    /// of numeric kernels do not poison downstream claims.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::OutOfRange`] if `value` is not finite or lies
    /// outside `[-1e-9, 1 + 1e-9]`.
    pub fn new(value: f64) -> Result<Prob, ProbError> {
        if !value.is_finite() || !(-EPSILON..=1.0 + EPSILON).contains(&value) {
            return Err(ProbError::OutOfRange { value });
        }
        Ok(Prob(value.clamp(0.0, 1.0)))
    }

    /// Creates a probability, clamping any finite value onto `[0, 1]`.
    ///
    /// Use this at the exit of iterative numeric algorithms whose results are
    /// mathematically guaranteed to be probabilities but may drift by more
    /// than the strict tolerance of [`Prob::new`].
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN; a NaN probability always indicates a bug in
    /// the caller, never legitimate drift.
    pub fn clamped(value: f64) -> Prob {
        assert!(!value.is_nan(), "NaN is not a probability");
        Prob(value.clamp(0.0, 1.0))
    }

    /// Creates the probability `num / den` of a fair discrete choice.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::OutOfRange`] if `den` is zero or `num > den`.
    pub fn ratio(num: u64, den: u64) -> Result<Prob, ProbError> {
        if den == 0 || num > den {
            return Err(ProbError::OutOfRange {
                value: num as f64 / den as f64,
            });
        }
        Ok(Prob(num as f64 / den as f64))
    }

    /// Returns the raw `f64` value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the complement `1 - p`.
    pub fn complement(self) -> Prob {
        Prob(1.0 - self.0)
    }

    /// Returns `true` if this probability is within tolerance of one.
    pub fn is_one(self) -> bool {
        (self.0 - 1.0).abs() <= EPSILON
    }

    /// Returns `true` if this probability is within tolerance of zero.
    pub fn is_zero(self) -> bool {
        self.0 <= EPSILON
    }

    /// Returns `true` if `self` is at least `other - 1e-9`.
    pub fn at_least(self, other: Prob) -> bool {
        self.0 + EPSILON >= other.0
    }

    /// Returns the smaller of two probabilities.
    pub fn min(self, other: Prob) -> Prob {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two probabilities.
    pub fn max(self, other: Prob) -> Prob {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Mul for Prob {
    type Output = Prob;

    /// Multiplies two probabilities — the probability of the intersection of
    /// independent events, and the composition rule for arrow statements
    /// (Theorem 3.4 of the paper).
    fn mul(self, rhs: Prob) -> Prob {
        Prob((self.0 * rhs.0).clamp(0.0, 1.0))
    }
}

impl Add for Prob {
    type Output = Prob;

    /// Adds two probabilities, saturating at one.
    ///
    /// Saturation is appropriate for unions of disjoint events whose measured
    /// weights carry floating-point noise.
    fn add(self, rhs: Prob) -> Prob {
        Prob((self.0 + rhs.0).clamp(0.0, 1.0))
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Prob> for f64 {
    fn from(p: Prob) -> f64 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_unit_interval() {
        for v in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(Prob::new(v).unwrap().value(), v);
        }
    }

    #[test]
    fn new_rejects_out_of_range_and_non_finite() {
        assert!(Prob::new(-0.1).is_err());
        assert!(Prob::new(1.1).is_err());
        assert!(Prob::new(f64::NAN).is_err());
        assert!(Prob::new(f64::INFINITY).is_err());
    }

    #[test]
    fn new_clamps_tolerable_drift() {
        assert_eq!(Prob::new(1.0 + 1e-12).unwrap().value(), 1.0);
        assert_eq!(Prob::new(-1e-12).unwrap().value(), 0.0);
    }

    #[test]
    fn ratio_builds_exact_fractions() {
        assert_eq!(Prob::ratio(1, 8).unwrap().value(), 0.125);
        assert!(Prob::ratio(3, 2).is_err());
        assert!(Prob::ratio(1, 0).is_err());
    }

    #[test]
    fn multiplication_composes() {
        let p = Prob::HALF * Prob::HALF * Prob::HALF;
        assert_eq!(p.value(), 0.125);
    }

    #[test]
    fn addition_saturates() {
        let p = Prob::new(0.75).unwrap() + Prob::new(0.75).unwrap();
        assert_eq!(p.value(), 1.0);
    }

    #[test]
    fn complement_and_predicates() {
        assert!(Prob::ONE.is_one());
        assert!(Prob::ZERO.is_zero());
        assert_eq!(Prob::HALF.complement(), Prob::HALF);
        assert!(Prob::HALF.at_least(Prob::HALF));
        assert!(!Prob::ZERO.at_least(Prob::HALF));
    }

    #[test]
    fn min_max_order_correctly() {
        assert_eq!(Prob::HALF.min(Prob::ONE), Prob::HALF);
        assert_eq!(Prob::HALF.max(Prob::ONE), Prob::ONE);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_rejects_nan() {
        let _ = Prob::clamped(f64::NAN);
    }
}
