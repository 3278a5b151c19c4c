use std::fmt;

use rand::{Rng, RngExt};

use crate::prob::EPSILON;
use crate::{Prob, ProbError};

/// A finite probability distribution over values of type `T`.
///
/// This is the probability space `(Ω, F, P)` labelling each step of a
/// probabilistic automaton in Definition 2.1 of the paper, specialized (as
/// the paper does) to finite `Ω` with `F = 2^Ω`.
///
/// Invariants enforced at construction:
/// * the support is non-empty,
/// * every weight is a valid probability,
/// * the weights sum to one (within `1e-9`).
///
/// Entries with zero weight are dropped and duplicate support values are
/// merged, so `support()` enumerates distinct outcomes with positive
/// probability.
///
/// # Examples
///
/// ```
/// use pa_prob::{FiniteDist, Prob};
///
/// # fn main() -> Result<(), pa_prob::ProbError> {
/// let die = FiniteDist::uniform(1..=6)?;
/// assert_eq!(die.support().count(), 6);
/// assert!((die.prob_of(&3).value() - 1.0 / 6.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FiniteDist<T> {
    entries: Vec<(T, f64)>,
}

impl<T: PartialEq> FiniteDist<T> {
    /// Creates a distribution from `(value, weight)` pairs.
    ///
    /// Duplicate values are merged and zero-weight entries dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::EmptySupport`] if no entry has positive weight,
    /// [`ProbError::OutOfRange`] if any weight is invalid, and
    /// [`ProbError::NotNormalized`] if the weights do not sum to one.
    pub fn new(pairs: impl IntoIterator<Item = (T, f64)>) -> Result<FiniteDist<T>, ProbError> {
        let mut entries: Vec<(T, f64)> = Vec::new();
        let mut sum = 0.0;
        for (value, w) in pairs {
            if !w.is_finite() || !(-EPSILON..=1.0 + EPSILON).contains(&w) {
                return Err(ProbError::OutOfRange { value: w });
            }
            sum += w;
            if w <= EPSILON {
                continue;
            }
            match entries.iter_mut().find(|(v, _)| *v == value) {
                Some((_, existing)) => *existing += w,
                None => entries.push((value, w)),
            }
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ProbError::NotNormalized { sum });
        }
        if entries.is_empty() {
            return Err(ProbError::EmptySupport);
        }
        Ok(FiniteDist { entries })
    }

    /// Creates the point distribution concentrated on `value` (a Dirac
    /// delta). Deterministic automaton steps use this constructor.
    pub fn point(value: T) -> FiniteDist<T> {
        FiniteDist {
            entries: vec![(value, 1.0)],
        }
    }

    /// Creates the two-point distribution assigning `p` to `hit` and `1-p`
    /// to `miss`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::EmptySupport`] if `hit == miss` would collapse
    /// the support to nothing — it cannot, so the only error path is a
    /// degenerate `p` handled by merging; this function is infallible in
    /// practice but kept fallible for uniformity with the other builders.
    pub fn bernoulli(hit: T, miss: T, p: Prob) -> Result<FiniteDist<T>, ProbError> {
        FiniteDist::new([(hit, p.value()), (miss, p.complement().value())])
    }

    /// Creates the uniform distribution over the given values.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::EmptySupport`] if the iterator is empty.
    pub fn uniform(values: impl IntoIterator<Item = T>) -> Result<FiniteDist<T>, ProbError> {
        let values: Vec<T> = values.into_iter().collect();
        if values.is_empty() {
            return Err(ProbError::EmptySupport);
        }
        let w = 1.0 / values.len() as f64;
        FiniteDist::new(values.into_iter().map(|v| (v, w)))
    }

    /// Returns the probability assigned to `value` (zero when outside the
    /// support).
    pub fn prob_of(&self, value: &T) -> Prob {
        self.entries
            .iter()
            .find(|(v, _)| v == value)
            .map(|(_, w)| Prob::clamped(*w))
            .unwrap_or(Prob::ZERO)
    }

    /// Returns the total probability of all support values satisfying
    /// `pred`. This is `P[U ∩ Ω]` as used in Proposition 4.2 of the paper.
    pub fn prob_where(&self, mut pred: impl FnMut(&T) -> bool) -> Prob {
        let sum: f64 = self
            .entries
            .iter()
            .filter(|(v, _)| pred(v))
            .map(|(_, w)| w)
            .sum();
        Prob::clamped(sum)
    }
}

impl<T> FiniteDist<T> {
    /// Iterates over the distinct support values.
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(v, _)| v)
    }

    /// Iterates over `(value, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&T, Prob)> {
        self.entries.iter().map(|(v, w)| (v, Prob::clamped(*w)))
    }

    /// Number of distinct outcomes with positive probability.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the support contains exactly one value, i.e. the
    /// step is deterministic.
    pub fn is_point(&self) -> bool {
        self.entries.len() == 1
    }

    /// Always `false`: the support of a valid distribution is non-empty.
    /// Provided to satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if the weights sum to one within tolerance.
    ///
    /// Holds for every successfully constructed distribution; exposed for
    /// property tests and debugging assertions.
    pub fn is_normalized(&self) -> bool {
        let sum: f64 = self.entries.iter().map(|(_, w)| w).sum();
        (sum - 1.0).abs() <= 1e-6
    }

    /// Samples an outcome according to the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        FiniteDist::sample_pairs(&self.entries, rng)
    }

    /// Samples one of `(value, weight)` pairs that form a distribution —
    /// the outcomes of a step, borrowed, with no `FiniteDist` built — by
    /// the arithmetic of [`FiniteDist::sample`]: one uniform `f64` draw,
    /// walked down the weights in order. On a distribution's own entries
    /// it draws and returns exactly what `sample` does.
    ///
    /// # Panics
    ///
    /// If `pairs` is empty.
    pub fn sample_pairs<'a, R: Rng + ?Sized>(pairs: &'a [(T, f64)], rng: &mut R) -> &'a T {
        let mut x: f64 = rng.random::<f64>();
        for (v, w) in pairs {
            if x < *w {
                return v;
            }
            x -= w;
        }
        // Floating-point underflow: fall back to the last entry.
        &pairs.last().expect("support is non-empty").0
    }

    /// Maps the support through `f`, merging outcomes that collide.
    pub fn map<U: PartialEq>(&self, mut f: impl FnMut(&T) -> U) -> FiniteDist<U> {
        let mut entries: Vec<(U, f64)> = Vec::new();
        for (v, w) in &self.entries {
            let u = f(v);
            match entries.iter_mut().find(|(x, _)| *x == u) {
                Some((_, existing)) => *existing += w,
                None => entries.push((u, *w)),
            }
        }
        FiniteDist { entries }
    }

    /// Computes the expectation of `f` over the distribution.
    pub fn expect(&self, mut f: impl FnMut(&T) -> f64) -> f64 {
        self.entries.iter().map(|(v, w)| f(v) * w).sum()
    }

    /// Forms the product distribution over pairs, modelling two independent
    /// random choices (the situation analysed in Section 4 of the paper —
    /// *before* an adversary introduces scheduling dependence).
    pub fn product<'a, U: PartialEq + Clone>(
        &'a self,
        other: &'a FiniteDist<U>,
    ) -> FiniteDist<(T, U)>
    where
        T: Clone + PartialEq,
    {
        let mut entries = Vec::with_capacity(self.len() * other.len());
        for (a, wa) in &self.entries {
            for (b, wb) in &other.entries {
                entries.push(((a.clone(), b.clone()), wa * wb));
            }
        }
        FiniteDist { entries }
    }
}

impl<T: fmt::Display> fmt::Display for FiniteDist<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, w)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}: {w}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn point_is_deterministic() {
        let d = FiniteDist::point(42);
        assert!(d.is_point());
        assert_eq!(d.prob_of(&42), Prob::ONE);
        assert_eq!(d.prob_of(&7), Prob::ZERO);
    }

    #[test]
    fn bernoulli_has_two_outcomes() {
        let d = FiniteDist::bernoulli('h', 't', Prob::HALF).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.prob_of(&'h'), Prob::HALF);
    }

    #[test]
    fn bernoulli_with_certain_p_collapses() {
        let d = FiniteDist::bernoulli('h', 't', Prob::ONE).unwrap();
        assert!(d.is_point());
        assert_eq!(d.prob_of(&'h'), Prob::ONE);
    }

    #[test]
    fn uniform_rejects_empty() {
        let empty: Vec<u8> = vec![];
        assert_eq!(FiniteDist::uniform(empty), Err(ProbError::EmptySupport));
    }

    #[test]
    fn new_rejects_unnormalized() {
        assert!(matches!(
            FiniteDist::new([(1, 0.3), (2, 0.3)]),
            Err(ProbError::NotNormalized { .. })
        ));
    }

    #[test]
    fn new_rejects_negative_weight() {
        assert!(matches!(
            FiniteDist::new([(1, -0.5), (2, 1.5)]),
            Err(ProbError::OutOfRange { .. })
        ));
    }

    #[test]
    fn new_merges_duplicates() {
        let d = FiniteDist::new([(1, 0.25), (1, 0.25), (2, 0.5)]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.prob_of(&1), Prob::HALF);
    }

    #[test]
    fn prob_where_sums_matching_outcomes() {
        let die = FiniteDist::uniform(1..=6).unwrap();
        let even = die.prob_where(|v| v % 2 == 0);
        assert!((even.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn map_merges_collisions() {
        let die = FiniteDist::uniform(1..=6).unwrap();
        let parity = die.map(|v| v % 2);
        assert_eq!(parity.len(), 2);
        assert!((parity.prob_of(&0).value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_fair_die() {
        let die = FiniteDist::uniform(1..=6).unwrap();
        assert!((die.expect(|v| *v as f64) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn product_is_independent() {
        let c = FiniteDist::bernoulli(0u8, 1u8, Prob::HALF).unwrap();
        let p = c.product(&c);
        assert_eq!(p.len(), 4);
        assert_eq!(p.prob_of(&(0, 1)).value(), 0.25);
    }

    #[test]
    fn sampling_respects_weights() {
        let d = FiniteDist::new([(0u8, 0.9), (1u8, 0.1)]).unwrap();
        let mut rng = SplitMix64::new(7);
        let ones = (0..20_000).filter(|_| *d.sample(&mut rng) == 1).count();
        let freq = ones as f64 / 20_000.0;
        assert!((freq - 0.1).abs() < 0.02, "freq = {freq}");
    }
}
