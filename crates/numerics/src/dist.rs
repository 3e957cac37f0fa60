//! Random sampling for process variation and thermal stochasticity.
//!
//! Implemented on top of `rand`'s uniform source rather than pulling in
//! `rand_distr`: the distributions are part of the scientific substrate
//! this reproduction is asked to build, and the dependency budget stays
//! minimal. Two standard-normal samplers live here:
//!
//! * the Box–Muller transform ([`standard_normal`],
//!   [`standard_normal_pair`]) behind [`Normal`] — the process-variation
//!   draws, whose seeded streams the golden figures pin;
//! * the 256-layer [`Ziggurat`] (Marsaglia & Tsang 2000) behind the
//!   s-LLGS thermal field, where three normals per lane per time step
//!   are the whole cost of a Monte-Carlo write campaign: ≈98.5% of its
//!   draws take one 64-bit word, two table reads, one multiply and one
//!   compare, with no transcendental function.

use crate::{NumericsError, Result};
use rand::Rng;
use std::sync::OnceLock;

/// A normal (Gaussian) distribution `N(mean, std_dev²)`.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::dist::Normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let ecd_variation = Normal::new(55.0, 1.5)?; // nm, device-to-device
/// let sample = ecd_variation.sample(&mut rng);
/// assert!((sample - 55.0).abs() < 10.0);
/// # Ok::<(), mramsim_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for a negative or
    /// non-finite standard deviation, or a non-finite mean.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(NumericsError::InvalidDomain {
                routine: "Normal::new",
                message: format!("mean = {mean}, std_dev = {std_dev}"),
            });
        }
        Ok(Self { mean, std_dev })
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample (Box–Muller; one of the pair is discarded for
    /// statelessness).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_pair(rng).0
}

/// Two independent standard-normal variates from one Box–Muller
/// transform (both halves of the pair, so a caller that needs two
/// normals pays two uniforms for them instead of two each).
///
/// The first element is exactly what [`standard_normal`] returns for the
/// same RNG state.
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // u1 ∈ (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (2.0 * core::f64::consts::PI * u2).sin_cos();
    (r * c, r * s)
}

/// Number of ziggurat layers.
pub const ZIGGURAT_LAYERS: usize = 256;

/// The ziggurat's base-strip edge `R` for 256 layers (Marsaglia &
/// Tsang 2000): draws beyond `|z| > R` come from the exact tail.
pub const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// The common area `V` of every ziggurat layer (the base strip
/// includes the tail beyond `R`).
pub const ZIGGURAT_V: f64 = 0.004_928_673_233_99;

/// The unnormalised standard-normal density `exp(−x²/2)`.
#[inline]
fn gauss(x: f64) -> f64 {
    (-x * x / 2.0).exp()
}

/// A standard-normal sampler over the 256-layer ziggurat of Marsaglia
/// & Tsang (2000), with `rand_distr`'s bit layout: the layer index is
/// the low 8 bits of one `next_u64` and the signed abscissa fraction
/// `u ∈ [−1, 1)` its top 52 bits.
///
/// A draw is split so lane-parallel callers can run the common case
/// across many streams at once: [`Ziggurat::fast`] maps one 64-bit
/// word to a candidate and says whether it was accepted (≈98.5% are);
/// [`Ziggurat::slow`] finishes a rejected candidate — the wedge test or
/// the exact tail, then fresh words until one is accepted — on the
/// same generator. [`Ziggurat::sample`] is the two in sequence.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::dist::Ziggurat;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let zig = Ziggurat::get();
/// let z = zig.sample(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug)]
pub struct Ziggurat {
    /// Layer edges: `x[0] = V/f(R)` (the base strip's virtual width),
    /// `x[1] = R`, decreasing to `x[256] = 0`.
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `f[i] = exp(−x[i]²/2)`.
    f: [f64; ZIGGURAT_LAYERS + 1],
}

impl Ziggurat {
    /// The process-wide tables, built on first use.
    #[must_use]
    pub fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Self::build)
    }

    /// Builds the tables: every layer `i ≥ 1` has width `x[i]` and
    /// height `f(x[i+1]) − f(x[i])`, so `x[i+1] = f⁻¹(V/x[i] + f(x[i]))`.
    fn build() -> Self {
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_V / gauss(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + gauss(x[i - 1])).ln()).sqrt();
        }
        Self { x, f: x.map(gauss) }
    }

    /// One standard-normal variate.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let bits = rng.next_u64();
        match self.fast(bits) {
            (z, true) => z,
            _ => self.slow(bits, rng),
        }
    }

    /// The fast path for one 64-bit word: the candidate `u·x[i]` and
    /// whether it lies inside layer `i`'s rectangle, which makes it the
    /// variate. Branch-free, so callers can run it across lanes.
    #[inline(always)]
    #[must_use]
    pub fn fast(&self, bits: u64) -> (f64, bool) {
        let (i, u) = layer_and_u(bits);
        let z = u * self.x[i];
        (z, z.abs() < self.x[i + 1])
    }

    /// Finishes a draw whose word `bits` [`Ziggurat::fast`] rejected,
    /// drawing whatever else it needs from `rng`: the exact tail for the
    /// base strip, otherwise the wedge test and, on rejection, fresh
    /// words until one is accepted.
    #[cold]
    #[inline(never)]
    pub fn slow<R: Rng + ?Sized>(&self, mut bits: u64, rng: &mut R) -> f64 {
        loop {
            let (i, u) = layer_and_u(bits);
            if i == 0 {
                return tail(u, rng);
            }
            let z = u * self.x[i];
            if self.f[i + 1] + (self.f[i] - self.f[i + 1]) * rng.gen::<f64>() < gauss(z) {
                return z;
            }
            bits = rng.next_u64();
            if let (z, true) = self.fast(bits) {
                return z;
            }
        }
    }
}

/// One word's layer index (its low 8 bits) and `u ∈ [−1, 1)` (its top
/// 52 bits as the mantissa of a float in `[2, 4)`, minus 3).
#[inline(always)]
fn layer_and_u(bits: u64) -> (usize, f64) {
    let u = f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0;
    ((bits & 0xff) as usize, u)
}

/// Marsaglia's exact tail beyond `R`, on the side of `u`'s sign.
fn tail<R: Rng + ?Sized>(u: f64, rng: &mut R) -> f64 {
    let (mut x, mut y) = (1.0f64, 0.0f64);
    while -2.0 * y < x * x {
        x = open01(rng).ln() / ZIGGURAT_R;
        y = open01(rng).ln();
    }
    if u < 0.0 {
        x - ZIGGURAT_R
    } else {
        ZIGGURAT_R - x
    }
}

/// Uniform in the open interval `(0, 1)` from the top 52 bits.
fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    f64::from_bits((rng.next_u64() >> 12) | 0x3ff0_0000_0000_0000) - (1.0 - f64::EPSILON / 2.0)
}

/// The thermal-equilibrium initial-angle distribution of a macrospin in
/// a uniaxial well of stability factor `Δ`.
///
/// The Boltzmann density over the polar angle is
/// `p(θ) ∝ sin θ · exp(−Δ·sin²θ)`; for the `Δ ≳ 20` regime of STT-MRAM
/// free layers this is the small-angle Maxwell–Boltzmann form
/// `p(θ) ∝ θ · exp(−Δ·θ²)`, which inverts in closed form:
/// `θ = sqrt(−ln(1−u)/Δ)` for `u` uniform in `[0, 1)`. Samples are
/// clamped to `π/2` (the well boundary).
///
/// This seeds the `mramsim-dynamics` Monte-Carlo ensembles: the write
/// error rate is dominated by the thermally distributed initial angle.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::dist::InitialAngle;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let dist = InitialAngle::new(60.0)?;
/// let theta = dist.sample(&mut rng);
/// // Typical angles sit near 1/sqrt(Δ) ≈ 0.13 rad.
/// assert!(theta > 0.0 && theta < 0.6);
/// # Ok::<(), mramsim_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitialAngle {
    delta: f64,
}

impl InitialAngle {
    /// Creates the sampler for thermal stability factor `delta`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for a non-positive or
    /// non-finite `delta`.
    pub fn new(delta: f64) -> Result<Self> {
        if !(delta > 0.0) || !delta.is_finite() {
            return Err(NumericsError::InvalidDomain {
                routine: "InitialAngle::new",
                message: format!("delta = {delta} must be positive and finite"),
            });
        }
        Ok(Self { delta })
    }

    /// The stability factor `Δ`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Draws one polar angle in `(0, π/2]` by inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u ∈ (0, 1] avoids ln(0); the clamp keeps pathological
        // low-Δ draws inside the well.
        let u: f64 = 1.0 - rng.gen::<f64>();
        (-u.ln() / self.delta)
            .sqrt()
            .min(core::f64::consts::FRAC_PI_2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_match_parameters() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = Normal::new(10.0, 2.0).unwrap();
        let xs: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let m = stats::mean(&xs).unwrap();
        let s = stats::std_dev(&xs).unwrap();
        assert!((m - 10.0).abs() < 0.05, "mean = {m}");
        assert!((s - 2.0).abs() < 0.05, "std = {s}");
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(3.5, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60_000;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond_2sigma as f64 / f64::from(n);
        // True value 4.55 %.
        assert!((frac - 0.0455).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn seeded_rng_reproduces_sequences() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let draw = |rng: &mut StdRng| -> Vec<f64> { (0..16).map(|_| d.sample(rng)).collect() };
        let a = draw(&mut StdRng::seed_from_u64(99));
        let b = draw(&mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn normal_pair_halves_are_independent_standard_normals() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 30_000;
        let mut firsts = Vec::with_capacity(n);
        let mut seconds = Vec::with_capacity(n);
        let mut cross = 0.0;
        for _ in 0..n {
            let (a, b) = standard_normal_pair(&mut rng);
            cross += a * b;
            firsts.push(a);
            seconds.push(b);
        }
        for xs in [&firsts, &seconds] {
            assert!(stats::mean(xs).unwrap().abs() < 0.02);
            assert!((stats::std_dev(xs).unwrap() - 1.0).abs() < 0.02);
        }
        // Sine and cosine halves of one Box–Muller draw are uncorrelated.
        assert!((cross / n as f64).abs() < 0.02);
    }

    #[test]
    fn normal_pair_first_half_is_standard_normal() {
        let a = standard_normal(&mut StdRng::seed_from_u64(5));
        let (b, _) = standard_normal_pair(&mut StdRng::seed_from_u64(5));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn initial_angle_moments_match_small_angle_theory() {
        // For p(θ) ∝ θ·exp(−Δθ²): E[θ²] = 1/Δ and E[θ] = √(π/(4Δ)).
        let mut rng = StdRng::seed_from_u64(42);
        let delta = 60.0;
        let dist = InitialAngle::new(delta).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| dist.sample(&mut rng)).collect();
        assert!(xs
            .iter()
            .all(|&t| t > 0.0 && t <= core::f64::consts::FRAC_PI_2));
        let mean = stats::mean(&xs).unwrap();
        let mean_sq = stats::mean(&xs.iter().map(|t| t * t).collect::<Vec<_>>()).unwrap();
        let mean_theory = (core::f64::consts::PI / (4.0 * delta)).sqrt();
        assert!((mean / mean_theory - 1.0).abs() < 0.02, "mean = {mean}");
        assert!(
            (mean_sq * delta - 1.0).abs() < 0.03,
            "E[θ²]Δ = {}",
            mean_sq * delta
        );
    }

    #[test]
    fn ziggurat_layers_have_equal_area_and_decreasing_edges() {
        // Every layer holds the same area V to 1e-9 — the base strip
        // counted with its exact tail beyond R — and the edges strictly
        // decrease from the base strip's virtual width through R to 0.
        let Ziggurat { x, f } = Ziggurat::get();
        let (r, v) = (ZIGGURAT_R, ZIGGURAT_V);
        assert_eq!(x[1], r);
        assert_eq!(x[ZIGGURAT_LAYERS], 0.0);
        // The tail beyond R by composite Simpson over [R, R + 12] at
        // h = 1e-3; past R + 12 the density is below e^-115 of f(R).
        let n = 12_000;
        let h = 12.0 / f64::from(n);
        let weight = |k: u32| match k {
            0 => 1.0,
            k if k == n => 1.0,
            k if k % 2 == 1 => 4.0,
            _ => 2.0,
        };
        let tail = h / 3.0
            * (0..=n)
                .map(|k| weight(k) * gauss(r + h * f64::from(k)))
                .sum::<f64>();
        let base = r * f[1] + tail;
        assert!(
            (base / v - 1.0).abs() < 1e-9,
            "base strip area {base} vs {v}"
        );
        for i in 1..ZIGGURAT_LAYERS {
            let area = x[i] * (f[i + 1] - f[i]);
            assert!(
                (area / v - 1.0).abs() < 1e-9,
                "layer {i}: area {area} vs {v}"
            );
        }
        for i in 0..ZIGGURAT_LAYERS {
            assert!(x[i] > x[i + 1], "edges not decreasing at layer {i}");
        }
    }

    #[test]
    fn initial_angle_rejects_bad_delta() {
        assert!(InitialAngle::new(0.0).is_err());
        assert!(InitialAngle::new(-3.0).is_err());
        assert!(InitialAngle::new(f64::NAN).is_err());
    }
}
