use pa_prob::stats::{BernoulliEstimator, OnlineStats};
use pa_prob::{Prob, ProbInterval};

/// The integer-exact accumulator of one sampled batch.
///
/// Everything a batch measures is stored as unsigned counts: a first-hit
/// time histogram (`hits[t]` = trajectories that first reached the target
/// at accumulated cost exactly `t`), the miss/early-stop tallies, and the
/// step/draw totals. Merging accumulators is integer addition, which is
/// associative and commutative — this is what makes the estimate bitwise
/// identical for every worker count. Floating-point summaries (Wilson
/// intervals, conditional hitting-time statistics) are derived *after*
/// the merge, deterministically, from the counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McEstimate {
    max_time: u32,
    trials: u64,
    hits: Vec<u64>,
    misses: u64,
    early_stops: u64,
    steps: u64,
    rng_draws: u64,
}

impl McEstimate {
    /// An empty accumulator for trajectories with cost budget `max_time`.
    pub fn empty(max_time: u32) -> McEstimate {
        McEstimate {
            max_time,
            trials: 0,
            hits: vec![0; max_time as usize + 1],
            misses: 0,
            early_stops: 0,
            steps: 0,
            rng_draws: 0,
        }
    }

    /// Records one finished trajectory. `hit_at` is the accumulated cost
    /// at the first target visit, `None` for a miss; a hit past
    /// `max_time` is outside the budget and also counts as a miss.
    /// `early` marks a trajectory cut off by the step cap.
    pub fn record(&mut self, hit_at: Option<u32>, early: bool, steps: u64, rng_draws: u64) {
        self.trials += 1;
        match hit_at {
            Some(t) if t <= self.max_time => self.hits[t as usize] += 1,
            _ => self.misses += 1,
        }
        if early {
            self.early_stops += 1;
        }
        self.steps += steps;
        self.rng_draws += rng_draws;
    }

    /// Adds another accumulator (integer-exact, order-independent).
    pub fn absorb(&mut self, other: &McEstimate) {
        debug_assert_eq!(self.max_time, other.max_time);
        self.trials += other.trials;
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
        self.misses += other.misses;
        self.early_stops += other.early_stops;
        self.steps += other.steps;
        self.rng_draws += other.rng_draws;
    }

    /// Cost budget the trajectories ran against.
    pub fn max_time(&self) -> u32 {
        self.max_time
    }

    /// Trajectories recorded.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Trajectories that reached the target within the budget.
    pub fn hit_count(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// The first-hit histogram: entry `t` counts the trajectories that
    /// first reached the target at accumulated cost exactly `t`.
    pub fn histogram(&self) -> &[u64] {
        &self.hits
    }

    /// Trajectories that reached the target at accumulated cost `≤ t`.
    pub fn hits_within(&self, t: u32) -> u64 {
        self.hits.iter().take(t as usize + 1).sum()
    }

    /// Trajectories that missed (budget exhausted, dead end, or step cap).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Trajectories cut off by the per-trajectory step cap.
    pub fn early_stops(&self) -> u64 {
        self.early_stops
    }

    /// Total steps taken across all trajectories.
    pub fn total_steps(&self) -> u64 {
        self.steps
    }

    /// Total RNG words drawn across all trajectories.
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    /// The hit/trial counts as a `pa-prob` estimator.
    pub fn estimator(&self) -> BernoulliEstimator {
        BernoulliEstimator::from_counts(self.hit_count(), self.trials)
    }

    /// Point estimate of the hitting probability (0 when no trials ran).
    pub fn point(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hit_count() as f64 / self.trials as f64
        }
    }

    /// Wilson interval at the given z, widened to include the boundary
    /// when every trial agreed. The plain Wilson bracket never reaches 0
    /// or 1 for finite counts, but deterministic arrows (`p = 1` claims,
    /// E1/E2-style) have *exactly* boundary values — without the widening
    /// a containment check against the exact engine could never pass on
    /// them at any sample size.
    pub fn interval(&self, z: f64) -> ProbInterval {
        let wilson = self.estimator().wilson_interval(z);
        let lo = if self.hit_count() == 0 {
            Prob::ZERO
        } else {
            wilson.lo()
        };
        let hi = if self.hit_count() == self.trials {
            Prob::ONE
        } else {
            wilson.hi()
        };
        ProbInterval::new(lo, hi).expect("widening keeps endpoints ordered")
    }

    /// Conditional hitting-time statistics over the trajectories that hit,
    /// rebuilt deterministically from the histogram (times pushed in
    /// increasing order), plus the censored-trajectory count.
    pub fn time_stats(&self) -> (OnlineStats, u64) {
        let mut stats = OnlineStats::new();
        for (t, &count) in self.hits.iter().enumerate() {
            for _ in 0..count {
                stats.push(t as f64);
            }
        }
        (stats, self.misses)
    }

    /// Normal-approximation (CLT) interval for the conditional mean
    /// hitting time.
    pub fn mean_time_ci(&self, z: f64) -> (f64, f64) {
        self.time_stats().0.mean_ci(z)
    }

    /// Canonical rendering of the integer state, the unit the sampled
    /// batch digest hashes over. Two runs agree on this string iff they
    /// produced bitwise-identical estimates.
    pub fn digest_fragment(&self) -> String {
        let hist: Vec<String> = self.hits.iter().map(u64::to_string).collect();
        format!(
            "t={};h=[{}];m={};e={};s={};d={}",
            self.trials,
            hist.join(","),
            self.misses,
            self.early_stops,
            self.steps,
            self.rng_draws
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_prob::stats::Z_99;

    #[test]
    fn absorb_is_order_independent() {
        let mut a = McEstimate::empty(5);
        a.record(Some(2), false, 10, 4);
        a.record(None, false, 20, 8);
        let mut b = McEstimate::empty(5);
        b.record(Some(5), false, 30, 12);
        b.record(Some(0), true, 40, 16);

        let mut ab = McEstimate::empty(5);
        ab.absorb(&a);
        ab.absorb(&b);
        let mut ba = McEstimate::empty(5);
        ba.absorb(&b);
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.trials(), 4);
        assert_eq!(ab.hit_count(), 3);
        assert_eq!(ab.misses(), 1);
        assert_eq!(ab.early_stops(), 1);
        assert_eq!(ab.digest_fragment(), ba.digest_fragment());
    }

    #[test]
    fn a_hit_past_the_budget_is_a_miss() {
        let mut e = McEstimate::empty(3);
        e.record(Some(3), false, 1, 1);
        e.record(Some(4), false, 1, 1);
        e.record(Some(u32::MAX), false, 1, 1);
        assert_eq!(e.trials(), 3);
        assert_eq!(e.hit_count(), 1);
        assert_eq!(e.misses(), 2);
        assert_eq!(e.histogram(), &[0, 0, 0, 1]);
    }

    #[test]
    fn hits_within_accumulates_the_histogram() {
        let mut e = McEstimate::empty(4);
        for t in [0, 1, 1, 3] {
            e.record(Some(t), false, 1, 1);
        }
        e.record(None, false, 1, 1);
        let within: Vec<u64> = (0..=5).map(|t| e.hits_within(t)).collect();
        assert_eq!(within, [1, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn boundary_intervals_reach_zero_and_one() {
        let mut all_hit = McEstimate::empty(3);
        for _ in 0..100 {
            all_hit.record(Some(1), false, 1, 1);
        }
        let ci = all_hit.interval(Z_99);
        assert_eq!(ci.hi(), Prob::ONE);
        assert!(ci.lo().value() > 0.9);

        let mut none_hit = McEstimate::empty(3);
        for _ in 0..100 {
            none_hit.record(None, false, 1, 1);
        }
        let ci = none_hit.interval(Z_99);
        assert_eq!(ci.lo(), Prob::ZERO);
        assert!(ci.hi().value() < 0.1);
    }

    #[test]
    fn time_stats_rebuild_from_histogram() {
        let mut e = McEstimate::empty(10);
        e.record(Some(2), false, 1, 1);
        e.record(Some(4), false, 1, 1);
        e.record(None, false, 1, 1);
        let (stats, censored) = e.time_stats();
        assert_eq!(stats.count(), 2);
        assert_eq!(stats.mean(), 3.0);
        assert_eq!(censored, 1);
        let (lo, hi) = e.mean_time_ci(Z_99);
        assert!(lo <= 3.0 && 3.0 <= hi);
    }
}
