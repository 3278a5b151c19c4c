//! Bit-packed encoding of [`FaultyRoundState`] for
//! [`pa_mdp::PackedSpace`].
//!
//! Extends [`RoundStateCodec`]'s three-word layout with one more word and
//! the spare bits of word 1:
//!
//! | word | bits | content |
//! |------|------|---------|
//! | 0–2 | — | the wrapped [`pa_lehmann_rabin::RoundState`], as in [`RoundStateCodec`] |
//! | 1 | `52 .. 64` | the 1-based round counter (saturated at the plan cap) |
//! | 3 | `0 .. 64` | per-process fault-status nibbles |
//!
//! The round counter saturates at `plan.max_round() + 1`, so the 12-bit
//! field is ample for any realistic plan; the cap is validated once at
//! codec construction ([`FaultError::RoundCapUnencodable`]) rather than
//! per pack.

use pa_lehmann_rabin::RoundStateCodec;
use pa_mdp::StateCodec;

use crate::{FaultError, FaultyRoundState};

/// Upper bound on the packable round cap (12 bits).
pub const MAX_PACKED_ROUND: u32 = 0xFFF;

/// Fixed-width codec for [`FaultyRoundState`]: four `u64` words per state.
#[derive(Debug, Clone, Copy)]
pub struct FaultyStateCodec {
    inner: RoundStateCodec,
}

impl FaultyStateCodec {
    /// A codec for rings of `n` whose round counters saturate at
    /// `round_cap` (use [`crate::FaultyRoundMdp::round_cap`]).
    ///
    /// # Errors
    ///
    /// [`FaultError::RoundCapUnencodable`] if `round_cap` exceeds
    /// [`MAX_PACKED_ROUND`]; ring-size errors from the inner codec.
    pub fn new(n: usize, round_cap: u32) -> Result<FaultyStateCodec, FaultError> {
        if round_cap > MAX_PACKED_ROUND {
            return Err(FaultError::RoundCapUnencodable { cap: round_cap });
        }
        Ok(FaultyStateCodec {
            inner: RoundStateCodec::new(n)?,
        })
    }

    /// A codec for analyses bounded by a time `horizon`: round counters
    /// stay within `horizon + 1` on any path a bounded query can
    /// distinguish, so the horizon itself must fit the packed round field.
    ///
    /// This is the constructor for horizon-driven pipelines (the
    /// out-of-core bench and example paths) that have no
    /// [`FaultPlan`](crate::FaultPlan) to derive a cap from: it turns a
    /// horizon too deep for the 12-bit
    /// field into the same typed error as an oversized plan cap — instead
    /// of the silent low-bit truncation an unchecked `pack` would commit.
    ///
    /// # Errors
    ///
    /// [`FaultError::RoundCapUnencodable`] if `horizon + 1` exceeds
    /// [`MAX_PACKED_ROUND`]; ring-size errors from the inner codec.
    pub fn for_horizon(n: usize, horizon: u32) -> Result<FaultyStateCodec, FaultError> {
        FaultyStateCodec::new(n, horizon.saturating_add(1))
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.inner.n()
    }
}

impl StateCodec for FaultyStateCodec {
    type State = FaultyRoundState;
    type Word = [u64; 4];

    fn pack(&self, s: &FaultyRoundState) -> [u64; 4] {
        debug_assert!(s.round <= MAX_PACKED_ROUND);
        let [w0, w1, w2] = self.inner.pack(&s.inner);
        [w0, w1 | (u64::from(s.round) << 52), w2, s.status]
    }

    fn unpack(&self, w: &[u64; 4]) -> FaultyRoundState {
        FaultyRoundState {
            inner: self.inner.unpack(&[w[0], w[1] & ((1 << 52) - 1), w[2]]),
            status: w[3],
            round: (w[1] >> 52) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan, FaultyRoundMdp, STOPPED};
    use pa_core::Automaton;
    use pa_lehmann_rabin::RoundConfig;

    #[test]
    fn round_caps_are_validated_once() {
        assert!(FaultyStateCodec::new(3, MAX_PACKED_ROUND).is_ok());
        assert!(matches!(
            FaultyStateCodec::new(3, MAX_PACKED_ROUND + 1),
            Err(FaultError::RoundCapUnencodable { .. })
        ));
        assert!(FaultyStateCodec::new(1, 1).is_err());
    }

    #[test]
    fn horizon_constructor_guards_the_packed_round_field() {
        assert!(FaultyStateCodec::for_horizon(3, MAX_PACKED_ROUND - 1).is_ok());
        assert!(matches!(
            FaultyStateCodec::for_horizon(3, MAX_PACKED_ROUND),
            Err(FaultError::RoundCapUnencodable {
                cap
            }) if cap == MAX_PACKED_ROUND + 1
        ));
        // Saturating arithmetic: an absurd horizon is a typed error, not
        // a wrap back into range.
        assert!(matches!(
            FaultyStateCodec::for_horizon(3, u32::MAX),
            Err(FaultError::RoundCapUnencodable { .. })
        ));
    }

    #[test]
    fn late_plan_caps_do_not_overflow_and_are_rejected_typed() {
        // A plan scripted at round u32::MAX must not wrap the model cap to
        // 0 (collapsing every round counter); the cap saturates and the
        // codec rejects it with the typed error instead of truncating.
        let plan = FaultPlan::single(u32::MAX, 0, FaultKind::CrashStop).unwrap();
        let m = FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), plan).unwrap();
        assert_eq!(m.round_cap(), u32::MAX);
        assert!(matches!(
            FaultyStateCodec::new(3, m.round_cap()),
            Err(FaultError::RoundCapUnencodable { cap }) if cap == u32::MAX
        ));
    }

    #[test]
    fn faulty_states_round_trip_through_the_codec() {
        let plan = FaultPlan::single(2, 1, FaultKind::CrashRestart { downtime: 3 }).unwrap();
        let m = FaultyRoundMdp::new(RoundConfig::new(4).unwrap(), plan).unwrap();
        let codec = FaultyStateCodec::new(4, m.round_cap()).unwrap();
        // Walk a few levels of the real model and round-trip every state.
        let mut frontier = m.start_states();
        for _ in 0..4 {
            let mut next = Vec::new();
            for s in &frontier {
                assert_eq!(codec.unpack(&codec.pack(s)), *s);
                for step in m.steps(s) {
                    next.extend(step.target.support().cloned());
                }
            }
            frontier = next;
            frontier.dedup();
        }
    }

    #[test]
    fn status_and_round_use_their_own_lanes() {
        let m = FaultyRoundMdp::new(
            RoundConfig::new(3).unwrap(),
            FaultPlan::single(1, 2, FaultKind::CrashStop).unwrap(),
        )
        .unwrap();
        let codec = FaultyStateCodec::new(3, m.round_cap()).unwrap();
        let s = &m.start_states()[0];
        assert_eq!(s.status_of(2), STOPPED);
        let w = codec.pack(s);
        assert_eq!(w[3], u64::from(STOPPED) << 8);
        assert_eq!(w[1] >> 52, 1, "round 1 in the high lane");
        assert_eq!(codec.unpack(&w), *s);
    }
}
