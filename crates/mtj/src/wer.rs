//! Write-error-rate model: the probabilistic extension of Sun's
//! switching-time formula.
//!
//! Sun's Eq. 3 gives the *mean* switching time; real writes fail with a
//! finite probability because the initial FL angle `θ0` is thermally
//! distributed. In the macrospin precessional theory the angle grows
//! exponentially with time constant `τD = e·m·(1+P²)/(µB·P·Im)` — the
//! inverse of Eq. 3's torque factor — which yields the standard
//! write-error rate (Butler et al., IEEE Trans. Magn. 48, 2012):
//!
//! `WER(τ) = 1 − exp(−(π²Δ/4)·exp(−2τ/τD))`.
//!
//! Consistency with Eq. 3: the median of this distribution is
//! `τ50 = (τD/2)·ln(π²Δ/(4·ln 2))`, the same `τD·ln(π²Δ/4)/2` scale as
//! Sun's mean — both are implemented on the same device parameters.

use crate::{MtjDevice, MtjError, SwitchDirection};
use mramsim_units::constants::{E_CHARGE, MU_B};
use mramsim_units::{Kelvin, Nanosecond, Oersted, Volt};

/// The write-error rate for a pulse of width `pulse` (probability that
/// the FL has *not* switched when the pulse ends).
///
/// # Errors
///
/// * [`MtjError::SubCriticalDrive`] when `Vp/R(Vp) ≤ Ic` — below
///   threshold the precessional model does not apply (the WER is ~1).
/// * Thermal-model domain errors for out-of-range temperatures.
///
/// # Examples
///
/// ```
/// use mramsim_mtj::{presets, wer::write_error_rate, SwitchDirection};
/// use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
///
/// let dev = presets::imec_like(Nanometer::new(35.0))?;
/// let wer = |ns: f64| write_error_rate(
///     &dev, SwitchDirection::ApToP, Volt::new(1.0),
///     Oersted::new(-366.0), Kelvin::new(300.0), Nanosecond::new(ns),
/// ).unwrap();
/// // Longer pulses are exponentially safer.
/// assert!(wer(20.0) < 1e-6);
/// assert!(wer(5.0) > wer(20.0));
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
pub fn write_error_rate(
    device: &MtjDevice,
    direction: SwitchDirection,
    vp: Volt,
    hz_stray: Oersted,
    t: Kelvin,
    pulse: Nanosecond,
) -> Result<f64, MtjError> {
    let ic = device
        .switching()
        .critical_current(direction, hz_stray, t)
        .to_ampere();
    let drive = device
        .electrical()
        .current(direction.initial_state(), vp, device.area());
    let im = drive.value() - ic.value();
    if im <= 0.0 {
        return Err(MtjError::SubCriticalDrive {
            drive_ua: drive.to_micro_ampere().value(),
            critical_ua: ic.to_micro_ampere().value(),
        });
    }
    let delta = device
        .delta(direction.initial_state(), hz_stray, t)?
        .max(1.0);

    let p = device.switching().spin_polarization();
    let m = device.fl_moment();
    // τD: exponential angle-growth time (inverse of Eq. 3's torque term).
    let tau_d = E_CHARGE * m * (1.0 + p * p) / (MU_B * p * im);

    let tau = pulse.to_second().value();
    let exponent = (core::f64::consts::PI.powi(2) * delta / 4.0) * (-2.0 * tau / tau_d).exp();
    Ok(-(-exponent).exp_m1())
}

/// [`write_error_rate`], saturating at `WER = 1` below threshold
/// instead of failing.
///
/// Below the critical current the precessional model does not apply and
/// the write essentially never completes — the physically sensible
/// answer for a sweep is `WER ≈ 1`, not an abort. This variant maps
/// [`MtjError::SubCriticalDrive`] to `Ok(1.0)` so Monte-Carlo-vs-analytic
/// comparisons over a voltage or pulse grid keep going past the
/// threshold point; every other error (thermal-model domain, invalid
/// parameters) still propagates. The strict API is unchanged.
///
/// # Errors
///
/// Thermal-model domain errors for out-of-range temperatures.
///
/// # Examples
///
/// ```
/// use mramsim_mtj::{presets, wer::write_error_rate_saturating, SwitchDirection};
/// use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
///
/// let dev = presets::imec_like(Nanometer::new(35.0))?;
/// // 0.3 V is far below threshold: strict API errors, this returns 1.
/// let wer = write_error_rate_saturating(
///     &dev, SwitchDirection::ApToP, Volt::new(0.3),
///     Oersted::ZERO, Kelvin::new(300.0), Nanosecond::new(100.0),
/// )?;
/// assert_eq!(wer, 1.0);
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
pub fn write_error_rate_saturating(
    device: &MtjDevice,
    direction: SwitchDirection,
    vp: Volt,
    hz_stray: Oersted,
    t: Kelvin,
    pulse: Nanosecond,
) -> Result<f64, MtjError> {
    match write_error_rate(device, direction, vp, hz_stray, t, pulse) {
        Err(MtjError::SubCriticalDrive { .. }) => Ok(1.0),
        other => other,
    }
}

/// The pulse width achieving a target write-error rate, in nanoseconds.
///
/// Inverts the WER formula analytically:
/// `τ = (τD/2)·ln((π²Δ/4)/(−ln(1−WER)))`.
///
/// # Errors
///
/// * [`MtjError::InvalidParameter`] for a target outside `(0, 1)`.
/// * Same sub-threshold/thermal errors as [`write_error_rate`].
///
/// # Examples
///
/// ```
/// use mramsim_mtj::{presets, wer, SwitchDirection};
/// use mramsim_units::{Kelvin, Nanometer, Oersted, Volt};
///
/// let dev = presets::imec_like(Nanometer::new(35.0))?;
/// let pulse = wer::pulse_for_error_rate(
///     &dev, SwitchDirection::ApToP, Volt::new(1.0),
///     Oersted::new(-366.0), Kelvin::new(300.0), 1e-9,
/// )?;
/// // A 1e-9 WER needs a pulse a few times the mean switching time.
/// assert!(pulse.value() > 5.0 && pulse.value() < 60.0);
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
pub fn pulse_for_error_rate(
    device: &MtjDevice,
    direction: SwitchDirection,
    vp: Volt,
    hz_stray: Oersted,
    t: Kelvin,
    target_wer: f64,
) -> Result<Nanosecond, MtjError> {
    if !(target_wer > 0.0 && target_wer < 1.0) {
        return Err(MtjError::InvalidParameter {
            name: "target_wer",
            message: format!("target must be in (0, 1), got {target_wer}"),
        });
    }
    let ic = device
        .switching()
        .critical_current(direction, hz_stray, t)
        .to_ampere();
    let drive = device
        .electrical()
        .current(direction.initial_state(), vp, device.area());
    let im = drive.value() - ic.value();
    if im <= 0.0 {
        return Err(MtjError::SubCriticalDrive {
            drive_ua: drive.to_micro_ampere().value(),
            critical_ua: ic.to_micro_ampere().value(),
        });
    }
    let delta = device
        .delta(direction.initial_state(), hz_stray, t)?
        .max(1.0);
    let p = device.switching().spin_polarization();
    let m = device.fl_moment();
    let tau_d = E_CHARGE * m * (1.0 + p * p) / (MU_B * p * im);

    let lambda = -(-target_wer).ln_1p(); // −ln(1−WER)
    let tau = 0.5 * tau_d * ((core::f64::consts::PI.powi(2) * delta / 4.0) / lambda).ln();
    Ok(mramsim_units::Second::new(tau.max(0.0)).to_nanosecond())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use mramsim_units::constants::EULER_GAMMA;
    use mramsim_units::Nanometer;

    const T300: Kelvin = Kelvin::new(300.0);

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    #[test]
    fn wer_decreases_exponentially_with_pulse() {
        let dev = device();
        let wer = |ns: f64| {
            write_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(1.0),
                Oersted::ZERO,
                T300,
                Nanosecond::new(ns),
            )
            .unwrap()
        };
        let w1 = wer(8.0);
        let w2 = wer(12.0);
        let w3 = wer(16.0);
        assert!(w1 > w2 && w2 > w3);
        // Log-linear tail: equal pulse increments give roughly equal
        // log-WER decrements.
        let r1 = (w1.ln() - w2.ln()).abs();
        let r2 = (w2.ln() - w3.ln()).abs();
        assert!((r1 / r2 - 1.0).abs() < 0.35, "r1 {r1}, r2 {r2}");
    }

    #[test]
    fn wer_at_sun_mean_time_matches_theory() {
        // Evaluating the WER exactly at Eq. 3's mean switching time must
        // give 1 − exp(−exp(−C)) for any drive point.
        let dev = device();
        for (v, h) in [(0.85, 0.0), (1.0, -366.0), (1.1, 100.0)] {
            let tw = dev
                .switching_time(SwitchDirection::ApToP, Volt::new(v), Oersted::new(h), T300)
                .unwrap();
            let wer = write_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(v),
                Oersted::new(h),
                T300,
                tw,
            )
            .unwrap();
            // Sun's Eq. 3 mean sits slightly past the median: the WER
            // there is 1 − exp(−exp(−γ)) ≈ 43 % for every device.
            let theory = -(-(-EULER_GAMMA).exp()).exp_m1();
            assert!(
                (wer - theory).abs() < 1e-6,
                "v={v}, h={h}: wer {wer} vs theory {theory}"
            );
        }
    }

    #[test]
    fn pulse_for_error_rate_inverts_wer() {
        let dev = device();
        for target in [1e-3, 1e-6, 1e-9] {
            let pulse = pulse_for_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(0.95),
                Oersted::new(-366.0),
                T300,
                target,
            )
            .unwrap();
            let wer = write_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(0.95),
                Oersted::new(-366.0),
                T300,
                pulse,
            )
            .unwrap();
            assert!(
                (wer / target - 1.0).abs() < 1e-6,
                "target {target}: wer {wer} at pulse {pulse}"
            );
        }
    }

    #[test]
    fn hostile_stray_field_needs_longer_pulses() {
        // The paper's write-margin conclusion, quantified at WER 1e-6.
        let dev = device();
        let pulse = |h: f64| {
            pulse_for_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(0.9),
                Oersted::new(h),
                T300,
                1e-6,
            )
            .unwrap()
            .value()
        };
        assert!(pulse(-450.0) > pulse(-366.0));
        assert!(pulse(-366.0) > pulse(0.0));
    }

    #[test]
    fn subcritical_drive_is_an_error() {
        let dev = device();
        assert!(matches!(
            write_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(0.3),
                Oersted::ZERO,
                T300,
                Nanosecond::new(100.0),
            ),
            Err(MtjError::SubCriticalDrive { .. })
        ));
    }

    #[test]
    fn saturating_variant_spans_the_threshold() {
        // A voltage grid crossing the sub-critical regime never aborts
        // and the WER is monotone non-increasing in drive.
        let dev = device();
        let mut last = f64::INFINITY;
        for v in [0.2, 0.4, 0.6, 0.8, 1.0, 1.2] {
            let wer = write_error_rate_saturating(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(v),
                Oersted::ZERO,
                T300,
                Nanosecond::new(15.0),
            )
            .unwrap();
            assert!((0.0..=1.0).contains(&wer), "v={v}: wer={wer}");
            assert!(wer <= last + 1e-15, "v={v}: wer={wer} after {last}");
            last = wer;
        }
        assert!(last < 1e-3, "over-critical end of the grid: {last}");
        // Above threshold the saturating and strict APIs agree exactly.
        let strict = write_error_rate(
            &dev,
            SwitchDirection::ApToP,
            Volt::new(1.0),
            Oersted::ZERO,
            T300,
            Nanosecond::new(10.0),
        )
        .unwrap();
        let saturating = write_error_rate_saturating(
            &dev,
            SwitchDirection::ApToP,
            Volt::new(1.0),
            Oersted::ZERO,
            T300,
            Nanosecond::new(10.0),
        )
        .unwrap();
        assert_eq!(strict, saturating);
    }

    #[test]
    fn saturating_wer_is_finite_under_extreme_stray_fields() {
        // The array campaign feeds per-cell stray fields straight into
        // this API; fields past ±Hk (a destroyed or deepened well) and
        // drives pinned exactly at threshold must yield a probability,
        // never a panic or a NaN.
        let dev = device();
        for direction in [SwitchDirection::ApToP, SwitchDirection::PToAp] {
            for hz in [-9000.0, -4646.8, -366.0, 0.0, 366.0, 4646.8, 9000.0] {
                for v in [0.02, 0.3, 1.0] {
                    let wer = write_error_rate_saturating(
                        &dev,
                        direction,
                        Volt::new(v),
                        Oersted::new(hz),
                        T300,
                        Nanosecond::new(10.0),
                    )
                    .unwrap();
                    assert!(
                        wer.is_finite() && (0.0..=1.0).contains(&wer),
                        "{direction} hz={hz} v={v}: wer={wer}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_target_rejected() {
        let dev = device();
        for bad in [0.0, 1.0, -0.5, 2.0] {
            assert!(pulse_for_error_rate(
                &dev,
                SwitchDirection::ApToP,
                Volt::new(1.0),
                Oersted::ZERO,
                T300,
                bad,
            )
            .is_err());
        }
    }
}
