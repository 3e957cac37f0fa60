//! Thermally activated field-driven switching (Sharrock model).
//!
//! This is the physics behind the paper's R-H hysteresis loops (§III):
//! under an applied field the energy barrier shrinks as
//! `Δ(H) = Δ0·(1 − H_eff/Hk)²` and the FL escapes at rate
//! `f0·exp(−Δ(H))`. Measured switching fields `Hsw_p`, `Hsw_n` are
//! therefore stochastic and sweep-rate dependent; the technique of
//! Thomas et al. \[21\] (which the paper uses to extract `Hk` and `Δ0`)
//! fits exactly this model to switching-probability data.

use crate::MtjError;
use mramsim_units::{Oersted, Second};

/// Attempt frequency `f0 = 1 GHz`.
pub const ATTEMPT_FREQUENCY: f64 = 1e9;

/// Thermally activated over-barrier switching under an applied field.
///
/// `h_eff` is the destabilising field component: positive values push
/// the FL over the barrier (applied field plus stray field, projected on
/// the switching direction).
///
/// # Examples
///
/// ```
/// use mramsim_mtj::SharrockModel;
/// use mramsim_units::{Oersted, Second};
///
/// let m = SharrockModel::new(Oersted::new(4646.8), 45.5)?;
/// // With a 0.1 ms dwell per field point the median switching field is
/// // ≈ 2.2 kOe — the paper's measured coercivity.
/// let hsw = m.median_switching_field(Second::new(1e-4))?;
/// assert!((hsw.value() - 2200.0).abs() < 150.0, "{hsw}");
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharrockModel {
    hk: Oersted,
    delta0: f64,
}

impl SharrockModel {
    /// Creates the model from the intrinsic anisotropy field and thermal
    /// stability factor.
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] for non-positive inputs.
    pub fn new(hk: Oersted, delta0: f64) -> Result<Self, MtjError> {
        if !(hk.value() > 0.0) || !hk.is_finite() {
            return Err(MtjError::InvalidParameter {
                name: "hk",
                message: format!("Hk must be positive, got {hk:?}"),
            });
        }
        if !(delta0 > 0.0) || !delta0.is_finite() {
            return Err(MtjError::InvalidParameter {
                name: "delta0",
                message: format!("Δ0 must be positive, got {delta0}"),
            });
        }
        Ok(Self { hk, delta0 })
    }

    /// The intrinsic anisotropy field.
    #[must_use]
    pub fn hk(&self) -> Oersted {
        self.hk
    }

    /// The intrinsic thermal stability factor.
    #[must_use]
    pub fn delta0(&self) -> f64 {
        self.delta0
    }

    /// Field-dependent barrier `Δ(H) = Δ0·(1 − H/Hk)²`, clamped to zero
    /// beyond `Hk` (deterministic switching).
    #[must_use]
    pub fn barrier(&self, h_eff: Oersted) -> f64 {
        let x = 1.0 - h_eff / self.hk;
        if x <= 0.0 {
            0.0
        } else {
            self.delta0 * x * x
        }
    }

    /// Escape rate `f0·exp(−Δ(H))` in Hz.
    #[must_use]
    pub fn switching_rate(&self, h_eff: Oersted) -> f64 {
        ATTEMPT_FREQUENCY * (-self.barrier(h_eff)).exp()
    }

    /// Probability of switching within `dwell` at constant field:
    /// `P = 1 − exp(−rate·dwell)`.
    #[must_use]
    pub fn switching_probability(&self, h_eff: Oersted, dwell: Second) -> f64 {
        -(-self.switching_rate(h_eff) * dwell.value()).exp_m1()
    }

    /// The median switching field for a per-point dwell time `t`
    /// (Sharrock's equation):
    ///
    /// `Hsw = Hk·(1 − sqrt(ln(f0·t/ln2)/Δ0))`.
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] when the dwell is so long
    /// (or `Δ0` so small) that the device switches below zero field.
    pub fn median_switching_field(&self, dwell: Second) -> Result<Oersted, MtjError> {
        if !(dwell.value() > 0.0) {
            return Err(MtjError::InvalidParameter {
                name: "dwell",
                message: format!("dwell must be positive, got {dwell:?}"),
            });
        }
        let arg = ATTEMPT_FREQUENCY * dwell.value() / core::f64::consts::LN_2;
        if arg <= 1.0 {
            // Dwell shorter than an attempt period: Hsw -> Hk.
            return Ok(self.hk);
        }
        let ratio = arg.ln() / self.delta0;
        if ratio >= 1.0 {
            return Err(MtjError::InvalidParameter {
                name: "dwell",
                message: "barrier too small: device is superparamagnetic at this dwell".into(),
            });
        }
        Ok(self.hk * (1.0 - ratio.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SharrockModel {
        SharrockModel::new(Oersted::new(4646.8), 45.5).unwrap()
    }

    #[test]
    fn barrier_falls_quadratically_and_clamps() {
        let m = model();
        assert!((m.barrier(Oersted::ZERO) - 45.5).abs() < 1e-12);
        let half = m.barrier(Oersted::new(4646.8 / 2.0));
        assert!((half - 45.5 * 0.25).abs() < 1e-9);
        assert_eq!(m.barrier(Oersted::new(5000.0)), 0.0);
    }

    #[test]
    fn negative_field_strengthens_the_barrier() {
        let m = model();
        assert!(m.barrier(Oersted::new(-500.0)) > m.barrier(Oersted::ZERO));
    }

    #[test]
    fn probability_is_sigmoidal_in_field() {
        let m = model();
        let dwell = Second::new(1e-4);
        let p_low = m.switching_probability(Oersted::new(1500.0), dwell);
        let p_mid = m.switching_probability(Oersted::new(2200.0), dwell);
        let p_high = m.switching_probability(Oersted::new(2900.0), dwell);
        assert!(p_low < 0.01, "p_low = {p_low}");
        assert!(p_mid > 0.2 && p_mid < 0.8, "p_mid = {p_mid}");
        assert!(p_high > 0.99, "p_high = {p_high}");
    }

    #[test]
    fn median_field_matches_probability_half() {
        let m = model();
        let dwell = Second::new(1e-4);
        let med = m.median_switching_field(dwell).unwrap();
        let p = m.switching_probability(med, dwell);
        assert!((p - 0.5).abs() < 1e-6, "P(median) = {p}");
    }

    #[test]
    fn paper_coercivity_emerges_from_paper_hk_and_delta() {
        // Hk = 4646.8 Oe and Δ0 = 45.5 with a 0.1 ms dwell yield the
        // measured Hc ≈ 2.2 kOe: the three §III/§V-A numbers cohere.
        let m = model();
        let hsw = m.median_switching_field(Second::new(1e-4)).unwrap();
        assert!((hsw.value() - 2200.0).abs() < 150.0, "Hsw = {hsw}");
    }

    #[test]
    fn longer_dwell_lowers_the_switching_field() {
        let m = model();
        let fast = m.median_switching_field(Second::new(1e-6)).unwrap();
        let slow = m.median_switching_field(Second::new(1e-2)).unwrap();
        assert!(slow < fast);
    }

    #[test]
    fn superparamagnetic_regime_is_reported() {
        let m = SharrockModel::new(Oersted::new(1000.0), 5.0).unwrap();
        assert!(m.median_switching_field(Second::new(1.0)).is_err());
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(SharrockModel::new(Oersted::ZERO, 45.5).is_err());
        assert!(SharrockModel::new(Oersted::new(4646.8), 0.0).is_err());
    }
}
