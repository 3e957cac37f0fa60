//! Per-replica random streams: xoshiro256++ seeded through SplitMix64
//! from an FNV-1a mix of `(ensemble seed, replica index)`.
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
//!   replicas of several ensembles. [`LaneStreams::normals`] runs the
//!   ziggurat fast path across all lanes and finishes only the misses
//!   on each lane's own stream, so every lane consumes its words in
//!   exactly the order the scalar path does.

use crate::ensemble::LANES;
use mramsim_numerics::dist::Ziggurat;
use mramsim_numerics::hash::Fnv1a;
use rand::Rng;

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

    /// One standard-normal variate per lane, lane `l` scaled by
    /// `scale[l]`: one word from every lane at once, the ziggurat fast
    /// path on each, and [`Ziggurat::slow`] on a rejected lane's own
    /// stream. Lane `l` gets exactly the value
    /// `zig.sample(&mut scalar_stream_l) * scale[l]` would give. Always
    /// inlined: the lane pass of [`crate::ensemble::run_lanes`] draws
    /// three of these per step, and an out-of-line call there costs
    /// several percent of a campaign.
    #[inline(always)]
    pub(crate) fn normals(&mut self, zig: &Ziggurat, scale: &[f64; LANES]) -> [f64; LANES] {
        let words = self.next_words();
        let mut z = [0.0f64; LANES];
        for l in 0..LANES {
            z[l] = match zig.fast(words[l]) {
                (candidate, true) => candidate,
                _ => zig.slow(words[l], &mut self.lane(l)),
            };
        }
        core::array::from_fn(|l| z[l] * scale[l])
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
    fn lane_normals_match_scalar_ziggurat_draws() {
        let zig = Ziggurat::get();
        let mut lanes = LaneStreams::from_fn(|l| mixed(11, 32, l));
        let mut scalar: Vec<ReplicaStream> = (0..LANES)
            .map(|l| {
                let (seed, index) = mixed(11, 32, l);
                replica_rng(seed, index)
            })
            .collect();
        let scale: [f64; LANES] = core::array::from_fn(|l| 3.7e4 * (1.0 + l as f64 / 8.0));
        for _ in 0..20_000 {
            let z = lanes.normals(zig, &scale);
            for (l, stream) in scalar.iter_mut().enumerate() {
                assert_eq!(z[l].to_bits(), (zig.sample(stream) * scale[l]).to_bits());
            }
        }
    }
}
