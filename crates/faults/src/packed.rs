//! Bit-packed encoding of [`FaultyRoundState`] for
//! [`pa_mdp::PackedSpace`].
//!
//! Extends [`RoundStateCodec`]'s three-word layout with one more word and
//! the spare bits of word 1:
//!
//! | word | bits | content |
//! |------|------|---------|
//! | 0–2 | — | the wrapped [`pa_lehmann_rabin::RoundState`], as in [`RoundStateCodec`] |
//! | 1 | `52 .. 64` | the low 12 bits of the 1-based round counter |
//! | 3 | `0 .. 4n` | per-process fault-status nibbles |
//! | 3 | `4n .. 64` | the round counter's bits from 12 up |
//!
//! The round counter saturates at `plan.max_round() + 1`, so it needs
//! the bits of the plan's cap: `76 − 4n` are free for it
//! ([`max_packed_round`]), which holds every `u32` cap for `n ≤ 11` —
//! every ring a full fault model can be explored at. A state whose round
//! is below 4096 leaves word 3's high bits zero, so its words are those
//! of the earlier 12-bit layout bit for bit (stored key blocks read the
//! same). The cap is validated once at codec construction
//! ([`FaultError::RoundCapUnencodable`]) rather than per pack.

use pa_lehmann_rabin::RoundStateCodec;
use pa_mdp::StateCodec;

use crate::{FaultError, FaultyRoundState};

/// Round bits kept in word 1 (`52 .. 64`).
const LOW_ROUND_BITS: usize = 12;

/// The largest round cap [`FaultyStateCodec`] packs for a ring of `n`:
/// 12 bits in word 1 and the `64 − 4n` bits of word 3 above the status
/// nibbles — `u32::MAX` for `n ≤ 11`, `2^28 − 1` at `n = 12`, down to
/// 4095 at `n = 16`.
pub const fn max_packed_round(n: usize) -> u32 {
    let bits = LOW_ROUND_BITS + 64usize.saturating_sub(4 * n);
    if bits >= 32 {
        u32::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Fixed-width codec for [`FaultyRoundState`]: four `u64` words per state.
#[derive(Debug, Clone, Copy)]
pub struct FaultyStateCodec {
    inner: RoundStateCodec,
    /// `4n`: where the round's high bits start in word 3 (64 at `n = 16`,
    /// where none fit, hence the checked shifts).
    status_bits: u32,
    /// The low `4n` bits of word 3.
    status_mask: u64,
}

impl FaultyStateCodec {
    /// A codec for rings of `n` whose round counters saturate at
    /// `round_cap` (use [`crate::FaultyRoundMdp::round_cap`]).
    ///
    /// # Errors
    ///
    /// Ring-size errors from the inner codec;
    /// [`FaultError::RoundCapUnencodable`] if `round_cap` exceeds
    /// [`max_packed_round`] of `n` (only possible for `n ≥ 12`).
    pub fn new(n: usize, round_cap: u32) -> Result<FaultyStateCodec, FaultError> {
        let inner = RoundStateCodec::new(n)?;
        if round_cap > max_packed_round(n) {
            return Err(FaultError::RoundCapUnencodable { cap: round_cap, n });
        }
        let status_bits = 4 * n as u32;
        Ok(FaultyStateCodec {
            inner,
            status_bits,
            status_mask: u64::MAX >> (64 - status_bits),
        })
    }

    /// A codec for analyses bounded by a time `horizon`: round counters
    /// stay within `horizon + 1` on any path a bounded query can
    /// distinguish, so the horizon itself must fit the packed round field.
    ///
    /// This is the constructor for horizon-driven pipelines (the
    /// out-of-core bench and example paths) that have no
    /// [`FaultPlan`](crate::FaultPlan) to derive a cap from: it turns a
    /// horizon too deep for the ring's round field into the same typed
    /// error as an oversized plan cap — instead of the silent high-bit
    /// truncation an unchecked `pack` would commit.
    ///
    /// # Errors
    ///
    /// As [`FaultyStateCodec::new`] with the cap `horizon + 1`
    /// (saturating).
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
        debug_assert!(s.round <= max_packed_round(self.n()));
        debug_assert_eq!(s.status & !self.status_mask, 0);
        let [w0, w1, w2] = self.inner.pack(&s.inner);
        let high = u64::from(s.round >> LOW_ROUND_BITS)
            .checked_shl(self.status_bits)
            .unwrap_or(0);
        [w0, w1 | (u64::from(s.round) << 52), w2, s.status | high]
    }

    fn unpack(&self, w: &[u64; 4]) -> FaultyRoundState {
        let high = w[3].checked_shr(self.status_bits).unwrap_or(0);
        FaultyRoundState {
            inner: self.inner.unpack(&[w[0], w[1] & ((1 << 52) - 1), w[2]]),
            status: w[3] & self.status_mask,
            round: (high << LOW_ROUND_BITS | w[1] >> 52) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan, FaultyRoundMdp, STOPPED};
    use pa_core::Automaton;
    use pa_lehmann_rabin::{Config, Pc, ProcState, RoundConfig, RoundState, Side};

    #[test]
    fn round_caps_are_validated_once() {
        assert!(FaultyStateCodec::new(3, u32::MAX).is_ok());
        assert!(FaultyStateCodec::new(16, max_packed_round(16)).is_ok());
        assert!(matches!(
            FaultyStateCodec::new(16, max_packed_round(16) + 1),
            Err(FaultError::RoundCapUnencodable { cap: 4096, n: 16 })
        ));
        assert!(FaultyStateCodec::new(1, 1).is_err());
        assert!(FaultyStateCodec::new(17, 1).is_err());
    }

    #[test]
    fn the_round_field_takes_76_minus_4n_bits() {
        for n in 2..=11 {
            assert_eq!(max_packed_round(n), u32::MAX, "n = {n}");
        }
        assert_eq!(max_packed_round(12), (1 << 28) - 1);
        assert_eq!(max_packed_round(15), (1 << 16) - 1);
        assert_eq!(max_packed_round(16), 0xFFF);
    }

    /// A state of ring `n` at `round` with every status nibble non-zero,
    /// so a round bit leaking into the status lanes (or back) changes the
    /// decode.
    fn state_at(n: usize, round: u32) -> FaultyRoundState {
        let config = Config::initial(n)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::S, Side::Right))
            .with_proc(n - 1, ProcState::new(Pc::C, Side::Left))
            .with_res(0, true);
        let status = (0..n).fold(0u64, |w, i| w | ((i as u64 % 15) + 1) << (4 * i));
        FaultyRoundState {
            inner: RoundState {
                config,
                obliged: (1 << n) - 1,
                budget: status,
            },
            status,
            round,
        }
    }

    #[test]
    fn every_u32_cap_round_trips_up_to_n11() {
        for n in 2..=11 {
            for cap in [4095, 4096, 65_536, u32::MAX] {
                let codec = FaultyStateCodec::new(n, cap).unwrap();
                for round in [1, 4095, 4096, cap / 2, cap - 1, cap] {
                    let s = state_at(n, round);
                    assert_eq!(codec.unpack(&codec.pack(&s)), s, "n = {n}, round {round}");
                }
            }
        }
    }

    #[test]
    fn caps_past_the_bound_are_typed_errors_from_n12() {
        for n in 12..=16 {
            let bound = max_packed_round(n);
            let codec = FaultyStateCodec::new(n, bound).unwrap();
            // At n = 16 no round bit goes to word 3: the shift by 4n = 64
            // must be a no-op, not a panic or a wrap onto the status.
            for round in [1, 4095, bound] {
                let s = state_at(n, round);
                assert_eq!(codec.unpack(&codec.pack(&s)), s, "n = {n}, round {round}");
            }
            assert!(
                matches!(
                    FaultyStateCodec::new(n, bound + 1),
                    Err(FaultError::RoundCapUnencodable { cap, n: m }) if cap == bound + 1 && m == n
                ),
                "n = {n}"
            );
        }
    }

    /// The words of a state below round 4096 are those of the 12-bit
    /// layout (the round only in word 1's top bits), bit for bit: key
    /// blocks written by either layout read the same.
    #[test]
    fn rounds_below_4096_pack_to_the_twelve_bit_words() {
        let config = Config::initial(5)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::S, Side::Right))
            .with_proc(1, ProcState::new(Pc::F, Side::Left))
            .with_proc(3, ProcState::new(Pc::C, Side::Left))
            .with_proc(4, ProcState::new(Pc::W, Side::Right))
            .with_res(0, true)
            .with_res(4, true);
        let s = FaultyRoundState {
            inner: RoundState {
                config,
                obliged: 0b10110,
                budget: 0x1203,
            },
            status: 0x3_00F0,
            round: 4095,
        };
        let codec = FaultyStateCodec::new(5, u32::MAX).unwrap();
        let words = [
            0x0000_0000_0056_0047,
            0xfff0_0160_0110_0000,
            0x0000_0000_0000_1203,
            0x0000_0000_0003_00f0,
        ];
        assert_eq!(codec.pack(&s), words);
        assert_eq!(codec.unpack(&words), s);
        // One round later the carry lands above the five status nibbles.
        let later = FaultyRoundState { round: 4096, ..s };
        let [_, w1, _, w3] = codec.pack(&later);
        assert_eq!(w1 >> 52, 0);
        assert_eq!(w3, 0x3_00F0 | 1 << 20);
    }

    #[test]
    fn horizon_constructor_guards_the_packed_round_field() {
        assert!(FaultyStateCodec::for_horizon(3, u32::MAX - 1).is_ok());
        let bound = max_packed_round(16);
        assert!(FaultyStateCodec::for_horizon(16, bound - 1).is_ok());
        assert!(matches!(
            FaultyStateCodec::for_horizon(16, bound),
            Err(FaultError::RoundCapUnencodable {
                cap, ..
            }) if cap == bound + 1
        ));
        // Saturating arithmetic: an absurd horizon is a typed error, not
        // a wrap back into range.
        assert!(matches!(
            FaultyStateCodec::for_horizon(12, u32::MAX),
            Err(FaultError::RoundCapUnencodable { .. })
        ));
    }

    #[test]
    fn late_plan_caps_do_not_overflow_and_are_rejected_typed() {
        // A plan scripted at round u32::MAX must not wrap the model cap to
        // 0 (collapsing every round counter); the cap saturates. At
        // n = 3 the codec holds it; from n = 12 it is too wide and the
        // codec rejects it with the typed error instead of truncating.
        let plan = FaultPlan::single(u32::MAX, 0, FaultKind::CrashStop).unwrap();
        let m = FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), plan.clone()).unwrap();
        assert_eq!(m.round_cap(), u32::MAX);
        assert!(FaultyStateCodec::new(3, m.round_cap()).is_ok());
        for n in 12..=16 {
            let m = FaultyRoundMdp::new(RoundConfig::new(n).unwrap(), plan.clone()).unwrap();
            assert_eq!(m.round_cap(), u32::MAX);
            assert!(matches!(
                FaultyStateCodec::new(n, m.round_cap()),
                Err(FaultError::RoundCapUnencodable { cap, .. }) if cap == u32::MAX
            ));
        }
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
