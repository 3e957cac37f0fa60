//! Per-replica random streams: xoshiro256++ seeded through SplitMix64
//! from an FNV-1a mix of `(ensemble seed, replica index)`, and the
//! thermal increments drawn from them.
//!
//! The generator is spelled out here rather than borrowed from `rand`,
//! so a replica's stream is fixed by this crate alone: it yields
//! exactly the numbers `rand::rngs::StdRng::seed_from_u64` yields for
//! the same mixed seed (property-tested), whichever `rand` is linked.
//!
//! Two forms share one state-update function ([`xoshiro_next`]):
//!
//! * [`ReplicaStream`] ([`replica_rng`]) — one replica, for the scalar
//!   reference path ([`crate::run_replica`]);
//! * [`LaneStreams`] — the streams of one lane block's [`LANES`]
//!   replicas in structure-of-arrays form (`[[u64; LANES]; 4]`),
//!   advanced together so the integer update vectorises. Each lane is
//!   seeded from its own `(seed, replica index)`, so one block may hold
//!   replicas of several ensembles.
//!
//! # Thermal increments
//!
//! Each thermal-field component is `ξ·σ` with `ξ` a four-point variable
//! that matches the standard normal's first five moments exactly
//! (0, 1, 0, 3, 0): `±a` with probability 1/8 per sign and `±b` with
//! 3/8 per sign, `a = √(1+√6)`, `b = √(1−√(2/3))`. WER is a weak
//! (distributional) quantity, and this is the simplified weak
//! increment of Kloeden & Platen (1992, §14.2) in a dyadic form that
//! three random bits draw exactly: the lowest bit is the sign, and the
//! next two select `a` when both are set. One word of a replica's
//! stream serves [`STEPS_PER_WORD`] steps of 9 bits, so a lane-step
//! costs a seventh of a word where a Gaussian costs a word per
//! component. [`increments`] holds that layout; the scalar path and
//! the lane kernel both read through it, so their bits agree.

use crate::ensemble::LANES;
use mramsim_numerics::hash::Fnv1a;
use rand::Rng;

/// The large magnitude of the four-point increment, `√(1+√6)`.
const XI_A: f64 = 1.857_280_200_396_046_2;

/// The small magnitude of the four-point increment, `√(1−√(2/3))`.
const XI_B: f64 = 0.428_372_990_596_132_2;

/// Heun steps one word of a replica's stream serves: 9 bits each, 63
/// of the word's 64.
const STEPS_PER_WORD: usize = 7;

/// The four-point increment that the low 3 bits of `bits` draw: the
/// lowest bit is the sign, and the next two, when both set, select
/// [`XI_A`] (probability 1/4), otherwise [`XI_B`].
#[inline(always)]
fn xi(bits: u64) -> f64 {
    let magnitude = if bits & 6 == 6 { XI_A } else { XI_B };
    f64::from_bits(magnitude.to_bits() | (bits & 1) << 63)
}

/// The standard increments `[ξx, ξy, ξz]` of Heun step `k` from
/// `word`, the word the replica drew at the last step with
/// `k % STEPS_PER_WORD == 0`: component `c` reads bits
/// `9·(k mod 7) + 3c .. +3`.
#[inline(always)]
fn increments(word: u64, k: usize) -> [f64; 3] {
    let bits = word >> (9 * (k % STEPS_PER_WORD));
    [xi(bits), xi(bits >> 3), xi(bits >> 6)]
}

/// The seed of replica `index`'s stream under ensemble seed `seed`: an
/// FNV-1a mix of position only, so streams do not depend on how
/// replicas are blocked into lanes or dealt to workers.
fn replica_seed(seed: u64, index: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.field(&seed.to_le_bytes());
    h.update(&index.to_le_bytes());
    h.finish()
}

/// The deterministic random stream of replica `index` under ensemble
/// seed `seed`.
#[must_use]
pub fn replica_rng(seed: u64, index: u64) -> ReplicaStream {
    ReplicaStream {
        s: seeded_state(seed, index),
    }
}

/// SplitMix64: expands one 64-bit seed into the xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256++ state of one replica stream.
fn seeded_state(seed: u64, index: u64) -> [u64; 4] {
    let mut sm = replica_seed(seed, index);
    [(); 4].map(|()| splitmix64(&mut sm))
}

/// One xoshiro256++ step: returns the output word and advances the
/// state held in the four words.
#[inline(always)]
fn xoshiro_next(s0: &mut u64, s1: &mut u64, s2: &mut u64, s3: &mut u64) -> u64 {
    let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
    let t = *s1 << 17;
    *s2 ^= *s0;
    *s3 ^= *s1;
    *s1 ^= *s2;
    *s0 ^= *s3;
    *s2 ^= t;
    *s3 = s3.rotate_left(45);
    result
}

/// The random stream of one replica (see [`replica_rng`]).
#[derive(Debug, Clone)]
pub struct ReplicaStream {
    s: [u64; 4],
}

impl ReplicaStream {
    /// Step `k`'s thermal field at per-component scale `sigma`, drawing
    /// the next word into `word` when the step starts one.
    #[inline]
    pub(crate) fn thermal(&mut self, k: usize, word: &mut u64, sigma: f64) -> [f64; 3] {
        if k.is_multiple_of(STEPS_PER_WORD) {
            *word = self.next_u64();
        }
        increments(*word, k).map(|xi| xi * sigma)
    }
}

impl Rng for ReplicaStream {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        xoshiro_next(s0, s1, s2, s3)
    }
}

/// The streams of one block's [`LANES`] replicas, one word of state
/// per lane in each of four arrays.
#[derive(Debug)]
pub(crate) struct LaneStreams {
    s: [[u64; LANES]; 4],
}

impl LaneStreams {
    /// Lane `l` on the stream of replica `index` under ensemble seed
    /// `seed`, where `(seed, index) = stream(l)`.
    #[must_use]
    pub(crate) fn from_fn(mut stream: impl FnMut(usize) -> (u64, u64)) -> Self {
        let mut s = [[0u64; LANES]; 4];
        for l in 0..LANES {
            let (seed, index) = stream(l);
            for (word, value) in s.iter_mut().zip(seeded_state(seed, index)) {
                word[l] = value;
            }
        }
        Self { s }
    }

    /// The next word of every lane.
    #[inline]
    pub(crate) fn next_words(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0u64; LANES];
        for l in 0..LANES {
            out[l] = xoshiro_next(&mut s0[l], &mut s1[l], &mut s2[l], &mut s3[l]);
        }
        out
    }

    /// Lane `lane` alone, as a generator.
    pub(crate) fn lane(&mut self, lane: usize) -> Lane<'_> {
        Lane {
            streams: self,
            lane,
        }
    }

    /// Step `k`'s thermal field, one array per component, lane `l` at
    /// scale `sigma[l]`: every lane draws its next word into `words`
    /// when the step starts one. Lane `l` gets exactly what
    /// [`ReplicaStream::thermal`] gives its scalar stream.
    #[inline(always)]
    pub(crate) fn thermal(
        &mut self,
        k: usize,
        words: &mut [u64; LANES],
        sigma: &[f64; LANES],
    ) -> [[f64; LANES]; 3] {
        if k.is_multiple_of(STEPS_PER_WORD) {
            *words = self.next_words();
        }
        let mut h = [[0.0f64; LANES]; 3];
        for l in 0..LANES {
            let [x, y, z] = increments(words[l], k);
            h[0][l] = x * sigma[l];
            h[1][l] = y * sigma[l];
            h[2][l] = z * sigma[l];
        }
        h
    }
}

/// One lane of a [`LaneStreams`] block, borrowed as a generator.
#[derive(Debug)]
pub(crate) struct Lane<'a> {
    streams: &'a mut LaneStreams,
    lane: usize,
}

impl Rng for Lane<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.streams.s;
        let l = self.lane;
        xoshiro_next(&mut s0[l], &mut s1[l], &mut s2[l], &mut s3[l])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_stream_is_std_rng_of_the_fnv_mix() {
        for (seed, index) in [(0, 0), (7, 3), (2020, 4095), (u64::MAX, 1 << 40)] {
            let mut ours = replica_rng(seed, index);
            let mut std = StdRng::seed_from_u64(replica_seed(seed, index));
            for k in 0..10_000 {
                assert_eq!(
                    ours.next_u64(),
                    std.next_u64(),
                    "seed {seed} index {index} draw {k}"
                );
            }
        }
    }

    /// Lane `l`'s stream in the mixed blocks below: the first lanes of
    /// the block in one ensemble, the rest in another.
    fn mixed(seed: u64, first: u64, l: usize) -> (u64, u64) {
        if l < 5 {
            (seed, first + l as u64)
        } else {
            (seed ^ 0xA5A5, l as u64)
        }
    }

    #[test]
    fn lane_streams_reproduce_the_scalar_streams() {
        for (seed, first) in [(5, 0), (99, 16), (123_456, 4080)] {
            let mut lanes = LaneStreams::from_fn(|l| mixed(seed, first, l));
            let mut scalar: Vec<ReplicaStream> = (0..LANES)
                .map(|l| {
                    let (seed, index) = mixed(seed, first, l);
                    replica_rng(seed, index)
                })
                .collect();
            for k in 0..10_000 {
                let words = lanes.next_words();
                for (l, stream) in scalar.iter_mut().enumerate() {
                    assert_eq!(words[l], stream.next_u64(), "lane {l} draw {k}");
                }
                // Interleave single-lane draws, as the slow path does.
                if k % 97 == 0 {
                    let l = k % LANES;
                    assert_eq!(lanes.lane(l).next_u64(), scalar[l].next_u64());
                }
            }
        }
    }

    #[test]
    fn lane_increments_match_scalar_draws() {
        let mut lanes = LaneStreams::from_fn(|l| mixed(11, 32, l));
        let mut scalar: Vec<ReplicaStream> = (0..LANES)
            .map(|l| {
                let (seed, index) = mixed(11, 32, l);
                replica_rng(seed, index)
            })
            .collect();
        let scale: [f64; LANES] = core::array::from_fn(|l| 3.7e4 * (1.0 + l as f64 / 8.0));
        let mut words = [0u64; LANES];
        let mut scalar_words = [0u64; LANES];
        for k in 0..20_000 {
            let h = lanes.thermal(k, &mut words, &scale);
            for (l, stream) in scalar.iter_mut().enumerate() {
                let want = stream.thermal(k, &mut scalar_words[l], scale[l]);
                for c in 0..3 {
                    assert_eq!(h[c][l].to_bits(), want[c].to_bits(), "lane {l} step {k}");
                }
            }
        }
    }

    /// The four values over the eight equally likely 3-bit patterns.
    fn support() -> [f64; 8] {
        core::array::from_fn(|bits| xi(bits as u64))
    }

    #[test]
    fn increments_match_the_first_five_normal_moments() {
        for (n, want) in [(1, 0.0), (2, 1.0), (3, 0.0), (4, 3.0), (5, 0.0)] {
            let moment = support().iter().map(|x| x.powi(n)).sum::<f64>() / 8.0;
            assert!(
                (moment - want).abs() <= 1e-14,
                "E xi^{n} = {moment}, want {want}"
            );
        }
        assert_eq!(XI_A, (1.0 + 6f64.sqrt()).sqrt());
        assert_eq!(XI_B, (1.0 - (2.0f64 / 3.0).sqrt()).sqrt());
    }

    #[test]
    fn increments_take_each_value_at_its_probability() {
        // 2^20 draws through the layout: components of consecutive
        // steps, one stream word per seven steps.
        let mut stream = replica_rng(2024, 0);
        let mut word = 0;
        let n = 1usize << 20;
        let values = [-XI_A, -XI_B, XI_B, XI_A];
        let mut counts = [0u64; 4];
        let draws = (0..).flat_map(|k| stream.thermal(k, &mut word, 1.0));
        for x in draws.take(n) {
            let value = values.iter().position(|&v| v == x);
            counts[value.expect("a support value")] += 1;
        }
        let n = n as f64;
        for (count, p) in counts.into_iter().zip([0.125, 0.375, 0.375, 0.125]) {
            let sigma = (n * p * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - n * p).abs() <= 5.0 * sigma,
                "count {count} vs expected {} ± {sigma}",
                n * p
            );
        }
    }
}
