//! Random sampling for process variation and thermal stochasticity.
//!
//! Implemented on top of `rand`'s uniform source rather than pulling in
//! `rand_distr`: the distributions are part of the scientific substrate
//! this reproduction is asked to build, and the dependency budget stays
//! minimal. One standard-normal sampler lives here, the Box–Muller
//! transform ([`standard_normal`], [`standard_normal_pair`]) behind
//! [`Normal`] — the process-variation draws, whose seeded streams the
//! golden figures pin. The s-LLGS thermal field does not draw normals:
//! `mramsim-dynamics` reads moment-matched four-point increments off
//! its replica streams' bits.

use crate::{NumericsError, Result};
use rand::Rng;

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
    fn initial_angle_rejects_bad_delta() {
        assert!(InitialAngle::new(0.0).is_err());
        assert!(InitialAngle::new(-3.0).is_err());
        assert!(InitialAngle::new(f64::NAN).is_err());
    }
}
