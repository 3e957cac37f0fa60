//! STT switching models: the critical current (Eq. 2) and the thermal
//! stability factor (Eq. 5).

use crate::{MtjError, MtjState, ThermalModel};
use mramsim_units::constants::{E_CHARGE, H_BAR, K_B};
use mramsim_units::{Kelvin, MicroAmpere, Oersted};

/// STT switching direction.
///
/// Eq. 2 carries `−` for AP→P and `+` for P→AP (with the sign
/// conventions of this crate; see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchDirection {
    /// Anti-parallel to parallel (a `write 0`).
    ApToP,
    /// Parallel to anti-parallel (a `write 1`).
    PToAp,
}

impl SwitchDirection {
    /// The sign in the parentheses of Eq. 2.
    #[inline]
    #[must_use]
    pub fn eq2_sign(self) -> f64 {
        match self {
            Self::ApToP => -1.0,
            Self::PToAp => 1.0,
        }
    }

    /// The state the device starts from.
    #[inline]
    #[must_use]
    pub fn initial_state(self) -> MtjState {
        match self {
            Self::ApToP => MtjState::AntiParallel,
            Self::PToAp => MtjState::Parallel,
        }
    }
}

impl core::fmt::Display for SwitchDirection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ApToP => write!(f, "AP->P"),
            Self::PToAp => write!(f, "P->AP"),
        }
    }
}

/// Extracted switching parameters of a device (the paper's §V-A set for
/// eCD = 35 nm: `Hk = 4646.8 Oe`, `Δ0 = 45.5`, both medians).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingParams {
    hk: Oersted,
    delta0: f64,
    alpha: f64,
    eta: f64,
    spin_polarization: f64,
    thermal: ThermalModel,
}

impl SwitchingParams {
    /// Creates the parameter set.
    ///
    /// * `hk` — magnetic anisotropy field (Oe), extracted from switching
    ///   probability fits,
    /// * `delta0` — intrinsic thermal stability factor at the thermal
    ///   model's reference temperature,
    /// * `alpha` — Gilbert damping,
    /// * `eta` — STT efficiency (Eq. 2),
    /// * `spin_polarization` — `P` in Sun's model (Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] for non-positive `hk`,
    /// `delta0`, `alpha`, `eta`, or `P` outside `(0, 1)`.
    pub fn new(
        hk: Oersted,
        delta0: f64,
        alpha: f64,
        eta: f64,
        spin_polarization: f64,
        thermal: ThermalModel,
    ) -> Result<Self, MtjError> {
        fn positive(name: &'static str, v: f64) -> Result<(), MtjError> {
            if !(v > 0.0) || !v.is_finite() {
                return Err(MtjError::InvalidParameter {
                    name,
                    message: format!("must be positive and finite, got {v}"),
                });
            }
            Ok(())
        }
        positive("hk", hk.value())?;
        positive("delta0", delta0)?;
        positive("alpha", alpha)?;
        positive("eta", eta)?;
        positive("spin_polarization", spin_polarization)?;
        if spin_polarization >= 1.0 {
            return Err(MtjError::InvalidParameter {
                name: "spin_polarization",
                message: format!("P must be < 1, got {spin_polarization}"),
            });
        }
        Ok(Self {
            hk,
            delta0,
            alpha,
            eta,
            spin_polarization,
            thermal,
        })
    }

    /// Anisotropy field at the reference temperature.
    #[must_use]
    pub fn hk(&self) -> Oersted {
        self.hk
    }

    /// Anisotropy field at temperature `t`.
    ///
    /// # Errors
    ///
    /// Propagates the thermal model's domain errors.
    pub fn hk_at(&self, t: Kelvin) -> Result<Oersted, MtjError> {
        Ok(self.hk * self.thermal.hk_ratio(t)?)
    }

    /// Intrinsic thermal stability factor at the reference temperature.
    #[must_use]
    pub fn delta0(&self) -> f64 {
        self.delta0
    }

    /// Intrinsic thermal stability factor at temperature `t`.
    ///
    /// # Errors
    ///
    /// Propagates the thermal model's domain errors.
    pub fn delta0_at(&self, t: Kelvin) -> Result<f64, MtjError> {
        Ok(self.delta0 * self.thermal.delta0_ratio(t)?)
    }

    /// Gilbert damping constant.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// STT efficiency η of Eq. 2.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Spin polarisation `P` of Sun's model.
    #[must_use]
    pub fn spin_polarization(&self) -> f64 {
        self.spin_polarization
    }

    /// The thermal scaling model.
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// The intrinsic critical current without any stray field:
    ///
    /// `Ic0(T) = (1/η)(2αe/ℏ)·Ms·V·Hk = (4αe/ℏη)·Δ0(T)·kB·T`
    ///
    /// using `Ms·V·Hk·µ0 = 2·Eb = 2·Δ0·kB·T`. At 300 K with the paper's
    /// extracted values this is exactly 57.2 µA.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the thermal model's domain (use
    /// [`SwitchingParams::delta0_at`] to validate first if unsure).
    #[must_use]
    pub fn intrinsic_critical_current(&self, t: Kelvin) -> MicroAmpere {
        let delta0_t = self
            .delta0_at(t)
            .expect("temperature outside thermal-model domain");
        let amps = 4.0 * self.alpha * E_CHARGE * delta0_t * K_B * t.value() / (H_BAR * self.eta);
        MicroAmpere::new(amps * 1e6)
    }

    /// Eq. 2 with stray field:
    /// `Ic(Hz) = Ic0·(1 ± Hz/Hk)`, `−` for AP→P and `+` for P→AP.
    ///
    /// A negative (measured) intra-cell stray field therefore *raises*
    /// `Ic(AP→P)` and *lowers* `Ic(P→AP)` — the Fig. 4c bifurcation.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the thermal model's domain.
    #[must_use]
    pub fn critical_current(
        &self,
        direction: SwitchDirection,
        hz_stray: Oersted,
        t: Kelvin,
    ) -> MicroAmpere {
        let hk_t = self
            .hk_at(t)
            .expect("temperature outside thermal-model domain");
        let h = hz_stray / hk_t;
        self.intrinsic_critical_current(t) * (1.0 + direction.eq2_sign() * h)
    }

    /// Eq. 5 with stray field:
    /// `Δ(Hz) = Δ0·(1 ± Hz/Hk)²`, `+` for the P state and `−` for AP.
    ///
    /// With a negative stray field `ΔP < Δ0 < ΔAP`: the P state is the
    /// retention-critical one (Fig. 6, paper conclusion). The result is
    /// clamped at zero when `|Hz|` exceeds `Hk` and the state ceases to
    /// be (meta)stable — the "locked device" scenario of Golonzka \[11\].
    ///
    /// # Errors
    ///
    /// Propagates the thermal model's domain errors.
    pub fn delta(&self, state: MtjState, hz_stray: Oersted, t: Kelvin) -> Result<f64, MtjError> {
        let sign = match state {
            MtjState::Parallel => 1.0,
            MtjState::AntiParallel => -1.0,
        };
        let h = hz_stray / self.hk_at(t)?;
        let factor = 1.0 + sign * h;
        let delta = self.delta0_at(t)? * factor * factor;
        Ok(if factor <= 0.0 { 0.0 } else { delta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SwitchingParams {
        SwitchingParams::new(
            Oersted::new(4646.8),
            45.5,
            0.01,
            0.2,
            0.35,
            ThermalModel::default(),
        )
        .unwrap()
    }

    const T300: Kelvin = Kelvin::new(300.0);

    #[test]
    fn intrinsic_ic_matches_paper_quote() {
        let ic = params().intrinsic_critical_current(T300);
        assert!((ic.value() - 57.2).abs() < 0.15, "Ic0 = {ic}");
    }

    #[test]
    fn intra_stray_field_bifurcates_ic_by_seven_percent() {
        // Paper Fig. 4c: Hz = Hz_s_intra ⇒ Ic(AP→P) = 61.7 µA (+7 %),
        // Ic(P→AP) = 52.8 µA (−7 %).
        let p = params();
        let hz = Oersted::new(-366.0);
        let up = p.critical_current(SwitchDirection::ApToP, hz, T300);
        let down = p.critical_current(SwitchDirection::PToAp, hz, T300);
        assert!((up.value() - 61.7).abs() < 0.5, "Ic(AP->P) = {up}");
        assert!((down.value() - 52.8).abs() < 0.5, "Ic(P->AP) = {down}");
    }

    #[test]
    fn zero_stray_field_removes_the_bifurcation() {
        let p = params();
        let up = p.critical_current(SwitchDirection::ApToP, Oersted::ZERO, T300);
        let down = p.critical_current(SwitchDirection::PToAp, Oersted::ZERO, T300);
        assert!((up.value() - down.value()).abs() < 1e-9);
    }

    #[test]
    fn delta_splits_with_p_state_lower_under_negative_stray() {
        let p = params();
        let hz = Oersted::new(-366.0);
        let dp = p.delta(MtjState::Parallel, hz, T300).unwrap();
        let dap = p.delta(MtjState::AntiParallel, hz, T300).unwrap();
        assert!(dp < 45.5 && 45.5 < dap);
        // The ~30 % split magnitude quoted by the paper.
        let split = dp / dap;
        assert!(split > 0.65 && split < 0.80, "ΔP/ΔAP = {split}");
    }

    #[test]
    fn delta_without_stray_is_delta0() {
        let p = params();
        let d = p.delta(MtjState::Parallel, Oersted::ZERO, T300).unwrap();
        assert!((d - 45.5).abs() < 1e-9);
    }

    #[test]
    fn over_coercive_stray_field_destroys_the_state() {
        // |Hz| > Hk: the paper cites Golonzka's locked devices; Δ clamps
        // to zero for the destabilised state.
        let p = params();
        let hz = Oersted::new(-5000.0);
        assert_eq!(p.delta(MtjState::Parallel, hz, T300).unwrap(), 0.0);
        assert!(p.delta(MtjState::AntiParallel, hz, T300).unwrap() > 45.5);
    }

    #[test]
    fn critical_current_falls_with_temperature() {
        let p = params();
        let cold = p.intrinsic_critical_current(Kelvin::new(273.15));
        let hot = p.intrinsic_critical_current(Kelvin::new(423.15));
        assert!(cold.value() > hot.value());
    }

    #[test]
    fn direction_metadata_is_consistent() {
        assert_eq!(
            SwitchDirection::ApToP.initial_state(),
            MtjState::AntiParallel
        );
        assert_eq!(SwitchDirection::ApToP.eq2_sign(), -1.0);
        assert_eq!(SwitchDirection::PToAp.eq2_sign(), 1.0);
        assert_eq!(SwitchDirection::ApToP.to_string(), "AP->P");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let tm = ThermalModel::default();
        assert!(SwitchingParams::new(Oersted::ZERO, 45.5, 0.01, 0.2, 0.35, tm).is_err());
        assert!(SwitchingParams::new(Oersted::new(4646.8), -1.0, 0.01, 0.2, 0.35, tm).is_err());
        assert!(SwitchingParams::new(Oersted::new(4646.8), 45.5, 0.0, 0.2, 0.35, tm).is_err());
        assert!(SwitchingParams::new(Oersted::new(4646.8), 45.5, 0.01, 0.2, 1.2, tm).is_err());
    }
}
