//! Bit-packed encodings of the ring's state types for
//! [`pa_mdp::PackedSpace`].
//!
//! A boxed [`RoundState`] is a 48-byte struct (the inline process slots of
//! [`Config`] plus masks and budgets), held once in the state store's
//! `Vec` (the interner keeps only a tag and an id per state).
//! [`RoundStateCodec`] packs the same information into three `u64` words
//! (24 bytes), half the store, which is what keeps the quotient round
//! models of `n = 8..9` inside the bench box's memory.
//!
//! Layout (`n ≤ 16` processes, the crate-wide ring bound):
//!
//! | word | bits | content |
//! |------|------|---------|
//! | 0 | `5·i .. 5·i+5`, `i < 12` | process `i` as `pc · 2 + side` |
//! | 1 | `0 .. 20` | processes `12 .. 16`, same 5-bit encoding |
//! | 1 | `20 .. 36` | resource bitmask (`Res_j` taken) |
//! | 1 | `36 .. 52` | obligation bitmask |
//! | 2 | `0 .. 64` | per-process budget nibbles |
//!
//! The round-trip `unpack(pack(s)) == s` is pinned by property tests; it
//! holds because stored states are already side-canonicalized
//! ([`crate::ProcState::new`]) and use only the low `n` bits/nibbles of
//! their masks.

use pa_mdp::StateCodec;

use crate::{Config, LrError, Pc, ProcState, RoundState, Side, MAX_RING};

/// Packs one process state into 5 bits (`pc` in the paper's numbering,
/// doubled, plus the side bit). The integer order of the lanes is the
/// `Ord` of [`ProcState`].
pub(crate) fn pack_proc(p: ProcState) -> u64 {
    (p.pc as u64) << 1 | u64::from(p.side == Side::Right)
}

/// Decodes [`pack_proc`] (re-canonicalizing dead sides, a no-op on stored
/// states).
fn unpack_proc(bits: u64) -> ProcState {
    let pc = Pc::ALL[(bits >> 1) as usize];
    let side = if bits & 1 == 1 {
        Side::Right
    } else {
        Side::Left
    };
    ProcState::new(pc, side)
}

/// Packs a [`Config`] into the low words of the layout above (words 0 and
/// the low 36 bits of word 1).
fn pack_config(c: &Config) -> (u64, u64) {
    let n = c.n();
    let mut w0 = 0u64;
    let mut w1 = 0u64;
    for i in 0..n {
        let bits = pack_proc(c.proc(i));
        if i < 12 {
            w0 |= bits << (5 * i);
        } else {
            w1 |= bits << (5 * (i - 12));
        }
    }
    for j in 0..n {
        if c.res_taken(j) {
            w1 |= 1 << (20 + j);
        }
    }
    (w0, w1)
}

/// Decodes [`pack_config`] for a ring of `n` (validated by the codec's
/// constructor) straight into the configuration's inline slots.
fn unpack_config(n: usize, w0: u64, w1: u64) -> Config {
    let mut procs = [ProcState::idle(); MAX_RING];
    for (i, slot) in procs.iter_mut().enumerate().take(n) {
        let bits = if i < 12 {
            w0 >> (5 * i)
        } else {
            w1 >> (5 * (i - 12))
        };
        *slot = unpack_proc(bits & 0x1F);
    }
    let res = ((w1 >> 20) & ((1 << n) - 1)) as u16;
    Config::from_slots(n, procs, res)
}

/// Fixed-width codec for [`RoundState`]: three `u64` words per state.
#[derive(Debug, Clone, Copy)]
pub struct RoundStateCodec {
    n: usize,
}

impl RoundStateCodec {
    /// A codec for rings of `n` processes.
    ///
    /// # Errors
    ///
    /// Returns [`LrError::BadRingSize`] outside the crate's `2..=16`
    /// bound (the bound the bit layout is sized for).
    pub fn new(n: usize) -> Result<RoundStateCodec, LrError> {
        Config::initial(n)?;
        Ok(RoundStateCodec { n })
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl StateCodec for RoundStateCodec {
    type State = RoundState;
    type Word = [u64; 3];

    fn pack(&self, s: &RoundState) -> [u64; 3] {
        debug_assert_eq!(s.config.n(), self.n);
        let (w0, mut w1) = pack_config(&s.config);
        w1 |= u64::from(s.obliged) << 36;
        [w0, w1, s.budget]
    }

    fn unpack(&self, w: &[u64; 3]) -> RoundState {
        RoundState {
            config: unpack_config(self.n, w[0], w[1]),
            obliged: ((w[1] >> 36) & 0xFFFF) as u32,
            budget: w[2],
        }
    }
}

/// Fixed-width codec for plain [`Config`] states (the protocol-level
/// automaton): two `u64` words per state.
#[derive(Debug, Clone, Copy)]
pub struct ConfigCodec {
    n: usize,
}

impl ConfigCodec {
    /// A codec for rings of `n` processes.
    ///
    /// # Errors
    ///
    /// Returns [`LrError::BadRingSize`] outside `2..=16`.
    pub fn new(n: usize) -> Result<ConfigCodec, LrError> {
        Config::initial(n)?;
        Ok(ConfigCodec { n })
    }
}

impl StateCodec for ConfigCodec {
    type State = Config;
    type Word = [u64; 2];

    fn pack(&self, c: &Config) -> [u64; 2] {
        debug_assert_eq!(c.n(), self.n);
        let (w0, w1) = pack_config(c);
        [w0, w1]
    }

    fn unpack(&self, w: &[u64; 2]) -> Config {
        unpack_config(self.n, w[0], w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_bits_round_trip() {
        for pc in Pc::ALL {
            for side in [Side::Left, Side::Right] {
                let p = ProcState::new(pc, side);
                assert_eq!(unpack_proc(pack_proc(p)), p);
            }
        }
    }

    #[test]
    fn config_codec_round_trips_structured_configs() {
        let codec = ConfigCodec::new(5).unwrap();
        let c = Config::initial(5)
            .unwrap()
            .with_proc(0, ProcState::new(Pc::S, Side::Right))
            .with_proc(2, ProcState::new(Pc::C, Side::Left))
            .with_proc(4, ProcState::new(Pc::W, Side::Left))
            .with_res(0, true)
            .with_res(1, true)
            .with_res(3, true);
        assert_eq!(codec.unpack(&codec.pack(&c)), c);
    }

    #[test]
    fn round_codec_round_trips_budgets_and_obligations() {
        let codec = RoundStateCodec::new(4).unwrap();
        let config = Config::initial(4)
            .unwrap()
            .with_proc(1, ProcState::new(Pc::F, Side::Left));
        let s = RoundState {
            config,
            obliged: 0b0010,
            budget: 0x2122,
        };
        assert_eq!(codec.unpack(&codec.pack(&s)), s);
    }

    #[test]
    fn sixteen_process_rings_use_the_high_word_lanes() {
        let codec = ConfigCodec::new(16).unwrap();
        let mut c = Config::initial(16).unwrap();
        for i in 12..16 {
            c = c.with_proc(i, ProcState::new(Pc::D, Side::Right));
        }
        c = c.with_res(15, true);
        assert_eq!(codec.unpack(&codec.pack(&c)), c);
    }

    #[test]
    fn codecs_validate_ring_sizes() {
        assert!(RoundStateCodec::new(1).is_err());
        assert!(ConfigCodec::new(17).is_err());
        assert!(RoundStateCodec::new(16).is_ok());
    }
}
