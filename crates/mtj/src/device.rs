//! The complete MTJ device: stack + electrical + switching models.

use crate::{
    retention_fault_probability, retention_time, ElectricalParams, MtjError, MtjStack, MtjState,
    SwitchDirection, SwitchingParams,
};
use mramsim_units::constants::{EULER_GAMMA, E_CHARGE, MU_B};
use mramsim_units::{
    circle_area, Kelvin, Nanometer, Nanosecond, Oersted, Second, SquareMeter, Volt,
};

/// A complete MTJ device of a given electrical critical diameter.
///
/// # Examples
///
/// ```
/// use mramsim_mtj::{presets, MtjState, SwitchDirection};
/// use mramsim_units::{Kelvin, Nanometer, Oersted, Volt};
///
/// let dev = presets::imec_like(Nanometer::new(35.0))?;
/// // AP→P write at 0.9 V with the device's own intra-cell stray field:
/// let hz = dev.intra_hz_at_fl_center()?;
/// let tw = dev.switching_time(SwitchDirection::ApToP, Volt::new(0.9), hz, Kelvin::new(300.0))?;
/// assert!(tw.value() > 1.0 && tw.value() < 30.0);
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MtjDevice {
    ecd: Nanometer,
    stack: MtjStack,
    electrical: ElectricalParams,
    switching: SwitchingParams,
}

impl MtjDevice {
    /// Assembles a device.
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] for a non-positive eCD.
    pub fn new(
        ecd: Nanometer,
        stack: MtjStack,
        electrical: ElectricalParams,
        switching: SwitchingParams,
    ) -> Result<Self, MtjError> {
        if !(ecd.value() > 0.0) || !ecd.is_finite() {
            return Err(MtjError::InvalidParameter {
                name: "ecd",
                message: format!("eCD must be positive, got {ecd:?}"),
            });
        }
        Ok(Self {
            ecd,
            stack,
            electrical,
            switching,
        })
    }

    /// Electrical critical diameter.
    #[must_use]
    pub fn ecd(&self) -> Nanometer {
        self.ecd
    }

    /// Junction area `π·(eCD/2)²`.
    #[must_use]
    pub fn area(&self) -> SquareMeter {
        circle_area(self.ecd)
    }

    /// The magnetic stack.
    #[must_use]
    pub fn stack(&self) -> &MtjStack {
        &self.stack
    }

    /// The electrical model.
    #[must_use]
    pub fn electrical(&self) -> &ElectricalParams {
        &self.electrical
    }

    /// The switching parameters.
    #[must_use]
    pub fn switching(&self) -> &SwitchingParams {
        &self.switching
    }

    /// Returns a copy of the device with a different eCD, keeping every
    /// other parameter (the paper's size sweeps hold the stack fixed).
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] for a non-positive eCD.
    pub fn with_ecd(&self, ecd: Nanometer) -> Result<Self, MtjError> {
        Self::new(
            ecd,
            self.stack.clone(),
            self.electrical,
            self.switching.clone(),
        )
    }

    /// FL magnetic moment `m = (Ms·t)·A` in A·m² (= J/T), the `m` of
    /// Sun's Eq. 3.
    #[must_use]
    pub fn fl_moment(&self) -> f64 {
        self.stack.fl_ms_t().moment(self.area()).value()
    }

    /// The device's own intra-cell stray field at the FL centre
    /// (`Hz_s_intra`), in oersted.
    ///
    /// # Errors
    ///
    /// Propagates [`MtjError::Magnetics`] for degenerate geometry.
    pub fn intra_hz_at_fl_center(&self) -> Result<Oersted, MtjError> {
        self.stack.intra_hz_at_fl_center(self.ecd)
    }

    /// Eq. 5 thermal stability in `state` under total stray field
    /// `hz_stray` at temperature `t`.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model domain errors.
    pub fn delta(&self, state: MtjState, hz_stray: Oersted, t: Kelvin) -> Result<f64, MtjError> {
        self.switching.delta(state, hz_stray, t)
    }

    /// Mean retention time in `state` under `hz_stray` at `t`.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model domain errors.
    pub fn retention_time(
        &self,
        state: MtjState,
        hz_stray: Oersted,
        t: Kelvin,
    ) -> Result<Second, MtjError> {
        Ok(retention_time(self.delta(state, hz_stray, t)?))
    }

    /// Probability of a retention fault within `horizon`.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model domain errors.
    pub fn retention_fault_probability(
        &self,
        state: MtjState,
        hz_stray: Oersted,
        t: Kelvin,
        horizon: Second,
    ) -> Result<f64, MtjError> {
        Ok(retention_fault_probability(
            self.delta(state, hz_stray, t)?,
            horizon,
        ))
    }

    /// Sun's average switching time (Eq. 3–4):
    ///
    /// `tw = [ 2/(C + ln(π²Δ/4)) · µB·P/(e·m·(1+P²)) · Im ]⁻¹`
    /// with `Im = Vp/R(Vp) − Ic(Hz)`.
    ///
    /// `R(Vp)` is the resistance of the *initial* state (AP for AP→P),
    /// and `Δ` is the initial-state stability under the same stray field
    /// (the thermal initial-angle term).
    ///
    /// # Errors
    ///
    /// * [`MtjError::SubCriticalDrive`] when `Vp/R(Vp) ≤ Ic` — the
    ///   precessional model does not apply below threshold.
    /// * Thermal-model domain errors for an out-of-range temperature.
    pub fn switching_time(
        &self,
        direction: SwitchDirection,
        vp: Volt,
        hz_stray: Oersted,
        t: Kelvin,
    ) -> Result<Nanosecond, MtjError> {
        let ic = self
            .switching
            .critical_current(direction, hz_stray, t)
            .to_ampere();
        let drive = self
            .electrical
            .current(direction.initial_state(), vp, self.area());
        let im = drive.value() - ic.value();
        if im <= 0.0 {
            return Err(MtjError::SubCriticalDrive {
                drive_ua: drive.to_micro_ampere().value(),
                critical_ua: ic.to_micro_ampere().value(),
            });
        }

        let delta = self.delta(direction.initial_state(), hz_stray, t)?.max(1.0); // guard the log for nearly destroyed states
        let ln_term = (core::f64::consts::PI.powi(2) * delta / 4.0).ln();
        let angle_factor = 2.0 / (EULER_GAMMA + ln_term);

        let p = self.switching.spin_polarization();
        let m = self.fl_moment();
        let torque_factor = MU_B * p / (E_CHARGE * m * (1.0 + p * p));

        let rate = angle_factor * torque_factor * im; // 1/s
        Ok(Second::new(1.0 / rate).to_nanosecond())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    const T300: Kelvin = Kelvin::new(300.0);

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    #[test]
    fn switching_time_window_matches_fig5_axis() {
        // Fig. 5 plots 5…25 ns over 0.7…1.2 V.
        let dev = device();
        let slow = dev
            .switching_time(SwitchDirection::ApToP, Volt::new(0.72), Oersted::ZERO, T300)
            .unwrap();
        let fast = dev
            .switching_time(SwitchDirection::ApToP, Volt::new(1.2), Oersted::ZERO, T300)
            .unwrap();
        assert!(slow.value() > fast.value());
        assert!(slow.value() < 40.0, "slow = {slow}");
        assert!(fast.value() > 1.0 && fast.value() < 10.0, "fast = {fast}");
    }

    #[test]
    fn stray_field_slows_ap_to_p_switching() {
        // Fig. 5: solid (with stray) lies above dashed (without).
        let dev = device();
        let vp = Volt::new(0.8);
        let without = dev
            .switching_time(SwitchDirection::ApToP, vp, Oersted::ZERO, T300)
            .unwrap();
        let with = dev
            .switching_time(SwitchDirection::ApToP, vp, Oersted::new(-366.0), T300)
            .unwrap();
        assert!(with.value() > without.value());
    }

    #[test]
    fn stray_field_effect_shrinks_at_high_voltage() {
        let dev = device();
        let gap = |v: f64| {
            let a = dev
                .switching_time(SwitchDirection::ApToP, Volt::new(v), Oersted::ZERO, T300)
                .unwrap();
            let b = dev
                .switching_time(
                    SwitchDirection::ApToP,
                    Volt::new(v),
                    Oersted::new(-366.0),
                    T300,
                )
                .unwrap();
            b.value() - a.value()
        };
        assert!(
            gap(0.75) > gap(1.2),
            "low-V gap {} vs high-V gap {}",
            gap(0.75),
            gap(1.2)
        );
    }

    #[test]
    fn subcritical_drive_is_an_error_not_a_number() {
        let dev = device();
        let err = dev
            .switching_time(SwitchDirection::ApToP, Volt::new(0.3), Oersted::ZERO, T300)
            .unwrap_err();
        assert!(matches!(err, MtjError::SubCriticalDrive { .. }));
    }

    #[test]
    fn retention_time_splits_by_state_under_stray() {
        let dev = device();
        let hz = dev.intra_hz_at_fl_center().unwrap();
        let tp = dev.retention_time(MtjState::Parallel, hz, T300).unwrap();
        let tap = dev
            .retention_time(MtjState::AntiParallel, hz, T300)
            .unwrap();
        assert!(
            tp.value() < tap.value(),
            "P state retains worse under negative stray"
        );
    }

    #[test]
    fn fl_moment_scales_with_area() {
        let d35 = device();
        let d70 = d35.with_ecd(Nanometer::new(70.0)).unwrap();
        assert!((d70.fl_moment() / d35.fl_moment() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_ecd_rejected() {
        let dev = device();
        assert!(dev.with_ecd(Nanometer::new(0.0)).is_err());
        assert!(dev.with_ecd(Nanometer::new(-5.0)).is_err());
    }
}
