//! The stochastic LLGS macrospin model: calibrated coefficients and the
//! Stratonovich–Heun stepper.
//!
//! # Model
//!
//! The free layer is one macrospin `m` (unit vector, easy axis `+z`)
//! obeying the Landau–Lifshitz form of the stochastic
//! Landau–Lifshitz–Gilbert–Slonczewski equation:
//!
//! ```text
//! dm/dt = −γ'·[ m×H  +  α·m×(m×H)  +  a_j·m×(m×p̂) ]
//! ```
//!
//! with `γ' = γ₀/(1+α²)`, `H = Hk·m_z·ẑ + H_applied + H_thermal`, the
//! Slonczewski spin-torque field `a_j ∝ I` along the destination axis
//! `p̂ = ±ẑ`, and a Brownian thermal field `H_thermal` whose per-component
//! diffusion `D = α(1+α²)·kB·T/(γ₀·µ₀·m_FL)` reproduces the Boltzmann
//! distribution (Brown 1963). The field-like torque is omitted, as usual
//! for symmetric MTJ macrospin models. Integration is the Heun
//! (predictor–corrector) scheme with the same noise realisation in both
//! stages — the Stratonovich-consistent choice — followed by a
//! projection back onto `|m| = 1`.
//!
//! # Calibration
//!
//! The analytic models of `mramsim-mtj` quote three independently
//! extracted quantities per device: the critical current `Ic` (Eq. 2,
//! efficiency `η`), Sun's angle-growth torque factor (Eq. 3,
//! polarisation `P`), and the thermal stability `Δ` (Eq. 5). Those
//! extractions are not mutually energy-consistent with the micromagnetic
//! raw parameters, so [`MacrospinParams::from_device`] calibrates the
//! LLGS coefficients *to the extracted quantities* instead:
//!
//! * the anisotropy field is the thermodynamically consistent
//!   `Hk_eff = 2·Δ₀(T)·kB·T/(µ₀·m_FL)`, so the energy barrier and the
//!   thermal initial-angle distribution carry exactly the device's `Δ`;
//! * the spin-torque prefactor reproduces Sun's exponential angle-growth
//!   rate `1/τD = µB·P·(I−Ic)/(e·m_FL·(1+P²))` (the same `τD` as
//!   [`mramsim_mtj::wer`]);
//! * the effective damping is chosen so the STT instability threshold
//!   lands exactly on Eq. 2's `Ic(Hz, T)` — including its `(1 ± Hz/Hk)`
//!   stray-field shift, because applied fields enter the dynamics in
//!   reduced units of the extracted `Hk` (see
//!   [`MacrospinParams::with_applied_hz`]).
//!
//! This makes the time-domain solver the *completion* of the repo's
//! closed-form models — they agree where the closed forms are exact, and
//! the solver keeps going where they are not (pulse shapes, back-hopping,
//! transients; see Imamura & Matsumoto, arXiv:1906.00593).

use crate::DynamicsError;
use mramsim_mtj::{MtjDevice, SwitchDirection};
use mramsim_numerics::dist::{InitialAngle, Ziggurat};
use mramsim_numerics::Vec3;
use mramsim_units::constants::{E_CHARGE, K_B, MU_0, MU_B};
use mramsim_units::{Kelvin, Oersted};
use rand::Rng;

pub use crate::stream::{replica_rng, ReplicaStream};

/// Electron gyromagnetic ratio `γₑ` \[rad/(s·T)\] (CODATA 2018).
pub const GYROMAGNETIC_RATIO: f64 = 1.760_859_630_23e11;

/// `γ₀ = γₑ·µ₀` \[m/(A·s)\] — precession rate per A/m of field.
pub const GAMMA_0: f64 = GYROMAGNETIC_RATIO * MU_0;

/// Calibrated macrospin coefficients for one `(device, direction,
/// temperature)` operating point, plus the applied field.
///
/// # Examples
///
/// ```
/// use mramsim_dynamics::MacrospinParams;
/// use mramsim_mtj::{presets, SwitchDirection};
/// use mramsim_units::{Kelvin, Nanometer};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let params = MacrospinParams::from_device(
///     &device, SwitchDirection::ApToP, Kelvin::new(300.0))?;
/// // The LLGS threshold reproduces Eq. 2's critical current.
/// let ic_ua = 1e6 * params.critical_current();
/// assert!((ic_ua - 57.2).abs() < 0.2, "Ic = {ic_ua} uA");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MacrospinParams {
    /// Effective Gilbert damping (calibrated, see module docs).
    alpha_eff: f64,
    /// `γ₀/(1+α²)` \[m/(A·s)\].
    gamma_eff: f64,
    /// Thermodynamically consistent anisotropy field \[A/m\].
    hk_eff: f64,
    /// Spin-torque field per ampere of drive \[A/m per A\].
    aj_per_ampere: f64,
    /// Reduced-unit scale: simulator A/m per physical A/m of applied
    /// field (`Hk_eff / Hk_extracted`).
    field_scale: f64,
    /// Applied field in simulator units \[A/m\], already scaled.
    h_app: Vec3,
    /// Thermal-field diffusion per component \[(A/m)²·s\].
    thermal_d: f64,
    /// Intrinsic stability factor `Δ₀(T)` (zero applied field).
    delta0_t: f64,
    /// Initial easy-axis orientation: `+1` (P well) or `−1` (AP well).
    initial_mz: f64,
    /// STT destination axis sign: `p̂ = stt_sign·ẑ`.
    stt_sign: f64,
}

impl MacrospinParams {
    /// Calibrates the LLGS coefficients from a device's extracted
    /// parameters at temperature `t` for a write in `direction`
    /// (conventions: the P state is `m_z = +1`, AP is `m_z = −1`).
    ///
    /// # Errors
    ///
    /// Propagates thermal-model domain errors for an out-of-range `t`.
    pub fn from_device(
        device: &MtjDevice,
        direction: SwitchDirection,
        t: Kelvin,
    ) -> Result<Self, DynamicsError> {
        let sw = device.switching();
        let moment = device.fl_moment();
        let delta0_t = sw.delta0_at(t)?;
        let kbt = K_B * t.value();
        let hk_eff = 2.0 * delta0_t * kbt / (MU_0 * moment);
        let hk_extracted = sw.hk_at(t)?.to_ampere_per_meter().value();

        // Sun's Eq. 3 torque factor per ampere of overdrive [1/(A·s)].
        let p = sw.spin_polarization();
        let chi = MU_B * p / (E_CHARGE * moment * (1.0 + p * p));
        let ic0 = sw.intrinsic_critical_current(t).to_ampere().value();

        // Effective damping: fixed point of α = (χ·Ic0/(γ₀·Hk_eff))·(1+α²),
        // which puts the LLGS instability threshold exactly at Eq. 2's
        // Ic0 while the slope of the growth rate in I stays χ. The α²
        // correction is ~1e-4; three sweeps are far past convergence.
        let a0 = chi * ic0 / (GAMMA_0 * hk_eff);
        let mut alpha_eff = a0;
        for _ in 0..3 {
            alpha_eff = a0 * (1.0 + alpha_eff * alpha_eff);
        }
        let one_plus_a2 = 1.0 + alpha_eff * alpha_eff;

        let (initial_mz, stt_sign) = match direction {
            // AP (−z) → P (+z): spin torque pushes toward +z.
            SwitchDirection::ApToP => (-1.0, 1.0),
            SwitchDirection::PToAp => (1.0, -1.0),
        };

        Ok(Self {
            alpha_eff,
            gamma_eff: GAMMA_0 / one_plus_a2,
            hk_eff,
            aj_per_ampere: chi * one_plus_a2 / GAMMA_0,
            field_scale: hk_eff / hk_extracted,
            h_app: Vec3::ZERO,
            thermal_d: alpha_eff * one_plus_a2 * kbt / (GAMMA_0 * MU_0 * moment),
            delta0_t,
            initial_mz,
            stt_sign,
        })
    }

    /// Adds an out-of-plane stray/applied field given in oersted.
    ///
    /// The field enters the dynamics in reduced units of the extracted
    /// `Hk`, so the threshold shift is exactly Eq. 2's `(1 ± Hz/Hk)` and
    /// the barrier shift exactly Eq. 5's `(1 ± Hz/Hk)²`.
    #[must_use]
    pub fn with_applied_hz(mut self, hz: Oersted) -> Self {
        self.h_app += Vec3::new(0.0, 0.0, hz.to_ampere_per_meter().value()) * self.field_scale;
        self
    }

    /// Every coefficient as its exact `f64` bits, the applied field
    /// included: parameter sets with equal keys step bit-identical
    /// trajectories. The key of memoised ensembles
    /// ([`crate::EnsembleMemo`]).
    #[must_use]
    pub fn bit_key(&self) -> [u64; 12] {
        // Exhaustive on purpose: a new coefficient fails to compile
        // here until the key covers it.
        let Self {
            alpha_eff,
            gamma_eff,
            hk_eff,
            aj_per_ampere,
            field_scale,
            h_app: Vec3 { x, y, z },
            thermal_d,
            delta0_t,
            initial_mz,
            stt_sign,
        } = *self;
        [
            alpha_eff,
            gamma_eff,
            hk_eff,
            aj_per_ampere,
            field_scale,
            x,
            y,
            z,
            thermal_d,
            delta0_t,
            initial_mz,
            stt_sign,
        ]
        .map(f64::to_bits)
    }

    /// The applied field in simulator (reduced) units \[A/m\].
    #[must_use]
    pub fn applied_field(&self) -> Vec3 {
        self.h_app
    }

    /// The initial easy-axis orientation (`±1`).
    #[must_use]
    pub fn initial_mz(&self) -> f64 {
        self.initial_mz
    }

    /// The stability factor of the *initial* well under the current
    /// applied field — Eq. 5's `Δ₀·(1 ± Hz/Hk)²`, floored at 1 like the
    /// analytic models (guards the nearly destroyed-state regime).
    #[must_use]
    pub fn delta_init(&self) -> f64 {
        let factor = 1.0 + self.initial_mz * self.h_app.z / self.hk_eff;
        if factor <= 0.0 {
            return 1.0;
        }
        (self.delta0_t * factor * factor).max(1.0)
    }

    /// The LLGS instability threshold current \[A\] — by calibration
    /// exactly Eq. 2's `Ic(Hz, T)` for the stored applied field.
    #[must_use]
    pub fn critical_current(&self) -> f64 {
        self.alpha_eff * (self.hk_eff + self.initial_mz * self.h_app.z) / self.aj_per_ampere
    }

    /// Sun's exponential angle-growth time constant `τD` \[s\] for a
    /// drive of `current` amperes, or `+∞` below threshold.
    #[must_use]
    pub fn tau_d(&self, current: f64) -> f64 {
        let rate = self.gamma_eff
            * (self.aj_per_ampere * current
                - self.alpha_eff * (self.hk_eff + self.initial_mz * self.h_app.z));
        if rate > 0.0 {
            1.0 / rate
        } else {
            f64::INFINITY
        }
    }

    /// The Butler analytic WER for this operating point:
    /// `1 − exp(−(π²Δ/4)·exp(−2τ/τD))`, saturating at 1 below
    /// threshold. On a voltage-driven device this equals
    /// [`mramsim_mtj::wer::write_error_rate_saturating`] by calibration.
    #[must_use]
    pub fn butler_wer(&self, current: f64, pulse: f64) -> f64 {
        let tau_d = self.tau_d(current);
        if !tau_d.is_finite() {
            return 1.0;
        }
        let exponent = (core::f64::consts::PI.powi(2) * self.delta_init() / 4.0)
            * (-2.0 * pulse / tau_d).exp();
        -(-exponent).exp_m1()
    }

    /// The spin-torque field magnitude \[A/m\] for a drive of `current`
    /// amperes.
    #[must_use]
    pub fn aj_of(&self, current: f64) -> f64 {
        self.aj_per_ampere * current
    }

    /// The per-component thermal-field standard deviation \[A/m\] for a
    /// step of `dt` seconds.
    #[must_use]
    pub fn thermal_sigma(&self, dt: f64) -> f64 {
        (2.0 * self.thermal_d / dt).sqrt()
    }

    /// Draws one thermally distributed initial orientation: polar angle
    /// from the small-angle Maxwell–Boltzmann distribution at
    /// [`MacrospinParams::delta_init`], azimuth uniform.
    pub fn initial_m<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec3 {
        let theta = InitialAngle::new(self.delta_init())
            .expect("delta_init is floored at 1")
            .sample(rng);
        let phi = core::f64::consts::TAU * rng.gen::<f64>();
        let (sin_t, cos_t) = theta.sin_cos();
        Vec3::new(
            sin_t * phi.cos(),
            sin_t * phi.sin(),
            self.initial_mz * cos_t,
        )
    }

    /// The coefficients the drift reads, for [`heun_step`].
    #[must_use]
    pub fn coeffs(&self) -> DriftCoeffs {
        DriftCoeffs {
            h_app: self.h_app,
            hk_eff: self.hk_eff,
            stt_sign: self.stt_sign,
            gamma_eff: self.gamma_eff,
            alpha_eff: self.alpha_eff,
        }
    }
}

/// The coefficients of the deterministic drift: everything a
/// [`heun_step`] reads besides the state, the fields and the step.
///
/// The scalar reference path passes one per replica, and the lane
/// kernel one per lane, so a coefficient added here reaches both paths
/// or neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftCoeffs {
    /// Applied field in simulator (reduced) units \[A/m\].
    pub h_app: Vec3,
    /// The thermodynamically consistent anisotropy field \[A/m\].
    pub hk_eff: f64,
    /// The STT destination sign (`p̂ = stt_sign·ẑ`).
    pub stt_sign: f64,
    /// `γ₀/(1+α²)` \[m/(A·s)\].
    pub gamma_eff: f64,
    /// Effective Gilbert damping.
    pub alpha_eff: f64,
}

impl DriftCoeffs {
    /// The deterministic drift `dm/dt` at `m` under thermal field
    /// `h_noise` and spin-torque field `aj` (A/m, signed along `p̂`).
    #[inline]
    #[must_use]
    pub fn drift(&self, m: Vec3, h_noise: Vec3, aj: f64) -> Vec3 {
        let h = Vec3::new(
            self.h_app.x + h_noise.x,
            self.h_app.y + h_noise.y,
            self.h_app.z + h_noise.z + self.hk_eff * m.z,
        );
        let p_hat = Vec3::new(0.0, 0.0, self.stt_sign);
        let mxh = m.cross(h);
        let mxmxh = m.cross(mxh);
        let mxmxp = m.cross(m.cross(p_hat));
        -self.gamma_eff * (mxh + self.alpha_eff * mxmxh + aj * mxmxp)
    }
}

/// One Stratonovich–Heun step of length `dt` with frozen thermal field
/// `h_noise`, followed by projection back to `|m| = 1`.
///
/// Shared verbatim by the scalar reference path and the lane kernel,
/// which is what makes the two bit-identical per replica.
#[inline]
#[must_use]
pub fn heun_step(coeffs: &DriftCoeffs, m: Vec3, h_noise: Vec3, aj: f64, dt: f64) -> Vec3 {
    let f1 = coeffs.drift(m, h_noise, aj);
    let predictor = m + f1 * dt;
    let f2 = coeffs.drift(predictor, h_noise, aj);
    let corrected = m + (f1 + f2) * (0.5 * dt);
    corrected / corrected.norm()
}

/// Draws the three thermal-field components for one step: three
/// [`Ziggurat`] normals, x then y then z. The draw order is part of the
/// per-replica determinism contract.
#[inline]
pub fn thermal_field<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Vec3 {
    let zig = Ziggurat::get();
    let nx = zig.sample(rng);
    let ny = zig.sample(rng);
    let nz = zig.sample(rng);
    Vec3::new(nx * sigma, ny * sigma, nz * sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::presets;
    use mramsim_units::constants::{EULER_GAMMA, E_CHARGE as QE};
    use mramsim_units::{Nanometer, Nanosecond, Volt};

    const T300: Kelvin = Kelvin::new(300.0);

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    #[test]
    fn threshold_reproduces_eq2_under_stray_fields_both_directions() {
        let dev = device();
        for direction in [SwitchDirection::ApToP, SwitchDirection::PToAp] {
            for hz in [0.0, -366.0, 250.0] {
                let analytic = dev
                    .switching()
                    .critical_current(direction, Oersted::new(hz), T300)
                    .to_ampere()
                    .value();
                let llgs = MacrospinParams::from_device(&dev, direction, T300)
                    .unwrap()
                    .with_applied_hz(Oersted::new(hz))
                    .critical_current();
                assert!(
                    (llgs / analytic - 1.0).abs() < 1e-12,
                    "{direction} hz={hz}: {llgs} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn tau_d_matches_suns_torque_factor() {
        // 1/τD = µB·P·(I − Ic)/(e·m·(1+P²)) — the exact τD of mtj::wer.
        let dev = device();
        let params = MacrospinParams::from_device(&dev, SwitchDirection::ApToP, T300).unwrap();
        let p = dev.switching().spin_polarization();
        let m = dev.fl_moment();
        let ic = params.critical_current();
        for over in [1.5, 3.0, 6.0] {
            let i = over * ic;
            let expected = QE * m * (1.0 + p * p) / (MU_B * p * (i - ic));
            let got = params.tau_d(i);
            assert!(
                (got / expected - 1.0).abs() < 1e-9,
                "over={over}: {got} vs {expected}"
            );
        }
        assert!(params.tau_d(0.5 * ic).is_infinite());
    }

    #[test]
    fn butler_wer_matches_the_analytic_model_on_a_voltage_drive() {
        let dev = device();
        let vp = Volt::new(1.0);
        let direction = SwitchDirection::ApToP;
        let hz = Oersted::new(-366.0);
        let current = dev
            .electrical()
            .current(direction.initial_state(), vp, dev.area())
            .value();
        let params = MacrospinParams::from_device(&dev, direction, T300)
            .unwrap()
            .with_applied_hz(hz);
        for pulse_ns in [5.0, 10.0, 20.0] {
            let analytic = mramsim_mtj::wer::write_error_rate(
                &dev,
                direction,
                vp,
                hz,
                T300,
                Nanosecond::new(pulse_ns),
            )
            .unwrap();
            let got = params.butler_wer(current, pulse_ns * 1e-9);
            assert!(
                (got - analytic).abs() <= 1e-9 * analytic.max(1e-12),
                "pulse={pulse_ns}: {got} vs {analytic}"
            );
        }
    }

    #[test]
    fn delta_init_matches_eq5_for_the_initial_state() {
        let dev = device();
        for (direction, hz) in [
            (SwitchDirection::ApToP, -366.0),
            (SwitchDirection::PToAp, -366.0),
            (SwitchDirection::ApToP, 0.0),
        ] {
            let analytic = dev
                .delta(direction.initial_state(), Oersted::new(hz), T300)
                .unwrap()
                .max(1.0);
            let got = MacrospinParams::from_device(&dev, direction, T300)
                .unwrap()
                .with_applied_hz(Oersted::new(hz))
                .delta_init();
            assert!(
                (got / analytic - 1.0).abs() < 1e-12,
                "{direction} hz={hz}: {got} vs {analytic}"
            );
        }
    }

    /// One replica at 1 ps steps with the thermal field off: the bath
    /// acts only through the initial angle drawn on stream `(seed, 0)`.
    fn deterministic_replica(
        params: &MacrospinParams,
        current: f64,
        span: f64,
        seed: u64,
    ) -> crate::ReplicaOutcome {
        let plan = crate::EnsemblePlan::new(1, seed, 1e-12)
            .unwrap()
            .with_thermal(false);
        crate::run_replica(params, current, span, &plan, 0)
    }

    #[test]
    fn zero_temperature_relaxation_conserves_norm_and_finds_easy_axis() {
        let dev = device();
        let params = MacrospinParams::from_device(&dev, SwitchDirection::ApToP, T300).unwrap();
        let last = deterministic_replica(&params, 0.0, 20e-9, 42).final_m;
        assert!((last.norm() - 1.0).abs() < 1e-12);
        // AP→P starts in the −z well; with no drive it relaxes back down.
        assert!(last.z < -0.999, "final m = {last:?}");
    }

    #[test]
    fn over_critical_drive_switches_deterministically() {
        let dev = device();
        let params = MacrospinParams::from_device(&dev, SwitchDirection::ApToP, T300).unwrap();
        let ic = params.critical_current();
        let last = deterministic_replica(&params, 4.0 * ic, 10e-9, 3).final_m;
        assert!(last.z > 0.999, "final m = {last:?}");
    }

    #[test]
    fn mean_switching_time_scale_is_suns_eq3() {
        // τ_mean = τD·(C + ln(π²Δ/4))/2: the deterministic trajectory
        // from a typical initial angle must cross on that scale.
        let dev = device();
        let params = MacrospinParams::from_device(&dev, SwitchDirection::ApToP, T300).unwrap();
        let ic = params.critical_current();
        let i = 3.0 * ic;
        let tau_d = params.tau_d(i);
        let delta = params.delta_init();
        let t_mean =
            0.5 * tau_d * (EULER_GAMMA + (core::f64::consts::PI.powi(2) * delta / 4.0).ln());
        let crossing = deterministic_replica(&params, i, 4.0 * t_mean, 11)
            .crossing_time
            .expect("must switch within 4 mean times");
        assert!(
            crossing > 0.2 * t_mean && crossing < 3.0 * t_mean,
            "crossed at {crossing:.3e} vs mean {t_mean:.3e}"
        );
    }

    #[test]
    fn replica_streams_are_deterministic_and_distinct() {
        let mut ra = replica_rng(7, 3);
        let mut rb = replica_rng(7, 3);
        let a: Vec<u64> = (0..4).map(|_| ra.gen::<u64>()).collect();
        let b: Vec<u64> = (0..4).map(|_| rb.gen::<u64>()).collect();
        assert_eq!(a, b);
        assert_ne!(
            replica_rng(7, 3).gen::<u64>(),
            replica_rng(7, 4).gen::<u64>()
        );
        assert_ne!(
            replica_rng(7, 3).gen::<u64>(),
            replica_rng(8, 3).gen::<u64>()
        );
    }
}
