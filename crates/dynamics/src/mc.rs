//! Monte-Carlo estimators on top of the trajectory ensembles: write
//! error rates and switching-time distributions.

use crate::ensemble::{run_ensemble, EnsemblePlan};
use crate::llgs::MacrospinParams;
use crate::DynamicsError;
use mramsim_numerics::histogram::Histogram;
use mramsim_numerics::pool::WorkerPool;
use mramsim_numerics::stats;
use mramsim_telemetry as telemetry;

/// A Monte-Carlo write-error-rate estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WerEstimate {
    /// Replicas simulated.
    pub trajectories: usize,
    /// Replicas that had not crossed the barrier when the pulse ended.
    pub failures: usize,
    /// The WER point estimate `failures / trajectories`.
    pub wer: f64,
    /// One-sigma binomial standard error (floored at `1/N` so a zero
    /// count never reports zero uncertainty).
    pub std_error: f64,
}

impl WerEstimate {
    /// Builds the estimate from raw ensemble counts — the one place
    /// the point estimate and its floored binomial standard error are
    /// defined (shared by [`wer_monte_carlo`] and the array
    /// campaign's per-cell aggregation).
    ///
    /// # Panics
    ///
    /// Panics for an empty ensemble (`trajectories == 0`).
    #[must_use]
    pub fn from_counts(trajectories: usize, failures: usize) -> Self {
        assert!(trajectories > 0, "an estimate needs at least one replica");
        let n = trajectories as f64;
        let wer = failures as f64 / n;
        Self {
            trajectories,
            failures,
            wer,
            std_error: (wer * (1.0 - wer) / n).sqrt().max(1.0 / n),
        }
    }

    /// Whether an analytic prediction sits within `n_sigma` standard
    /// errors of this estimate.
    #[must_use]
    pub fn agrees_with(&self, analytic: f64, n_sigma: f64) -> bool {
        (self.wer - analytic).abs() <= n_sigma * self.std_error
    }

    /// Half-width of the Wilson score interval at `z` standard normal
    /// quantiles (1.96 for 95%) — the estimator-health number the
    /// telemetry events carry. Unlike the Wald interval behind
    /// [`WerEstimate::std_error`], it stays honest at the extreme
    /// rates MRAM cares about (0 failures in N still yields a
    /// non-degenerate width).
    #[must_use]
    pub fn wilson_halfwidth(&self, z: f64) -> f64 {
        let n = self.trajectories as f64;
        let p = self.wer;
        let z2 = z * z;
        z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / (1.0 + z2 / n)
    }

    /// Emits the `ensemble.health` telemetry event for this estimate:
    /// trajectories, failures, point estimate, and the 95% Wilson
    /// half-width. `extra` carries caller context (which cell, which
    /// class). No-op when telemetry is off.
    pub fn emit_health(&self, estimator: &str, extra: &[telemetry::Field]) {
        if !telemetry::enabled() {
            return;
        }
        let mut fields: Vec<telemetry::Field> = vec![
            ("estimator", telemetry::Value::Text(estimator.to_owned())),
            (
                "trajectories",
                telemetry::Value::U64(self.trajectories as u64),
            ),
            ("failures", telemetry::Value::U64(self.failures as u64)),
            ("wer", telemetry::Value::F64(self.wer)),
            (
                "wilson_halfwidth_95",
                telemetry::Value::F64(self.wilson_halfwidth(1.96)),
            ),
        ];
        fields.extend_from_slice(extra);
        telemetry::event("ensemble.health", &fields);
    }
}

/// Estimates the WER of a write pulse of `current` amperes lasting
/// `pulse` seconds: the fraction of replicas still on the initial side
/// of the barrier at pulse end.
///
/// # Examples
///
/// ```
/// use mramsim_dynamics::{wer_monte_carlo, EnsemblePlan, MacrospinParams};
/// use mramsim_mtj::{presets, SwitchDirection};
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::{Kelvin, Nanometer};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let params = MacrospinParams::from_device(
///     &device, SwitchDirection::PToAp, Kelvin::new(300.0))?;
/// let plan = EnsemblePlan::new(64, 7, 2e-12)?;
/// let drive = 4.0 * params.critical_current();
/// let est = wer_monte_carlo(&params, drive, 6e-9, &plan, &WorkerPool::new(2));
/// assert_eq!(est.trajectories, 64);
/// assert!(est.wer < 0.2, "wer = {}", est.wer);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn wer_monte_carlo(
    params: &MacrospinParams,
    current: f64,
    pulse: f64,
    plan: &EnsemblePlan,
    pool: &WorkerPool,
) -> WerEstimate {
    let outcomes = run_ensemble(params, current, pulse, plan, pool);
    let failures = outcomes.iter().filter(|o| !o.switched).count();
    telemetry::counter_add("llgs.wer_estimates", 1);
    let estimate = WerEstimate::from_counts(outcomes.len(), failures);
    estimate.emit_health("wer", &[]);
    estimate
}

/// A Monte-Carlo switching-time distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingTimes {
    /// Histogram of first barrier-crossing times, in nanoseconds, over
    /// `[0, duration)`.
    pub histogram: Histogram,
    /// Replicas simulated.
    pub trajectories: usize,
    /// Replicas that crossed within the simulated span. When this is
    /// zero the summary statistics below are all `None` — callers see
    /// a typed no-switching-events outcome instead of a `NaN` that
    /// would leak into CSV output, cache entries, and `PartialEq`
    /// comparisons (where `NaN != NaN` breaks golden checks).
    pub switched: usize,
    /// Mean crossing time (ns) of the switched replicas (`None` if
    /// none switched).
    pub mean_ns: Option<f64>,
    /// Standard deviation (ns) of the crossing times (`None` if fewer
    /// than two switched).
    pub std_ns: Option<f64>,
    /// Median crossing time (ns) (`None` if none switched).
    pub median_ns: Option<f64>,
}

/// Simulates `duration` seconds of constant drive and histograms the
/// first barrier-crossing time of every replica.
///
/// Every replica that crossed within the span is counted in exactly one
/// bin (the histogram's upper edge covers the final integration step).
///
/// # Errors
///
/// [`DynamicsError::InvalidParameter`] for a non-positive `duration`,
/// a span longer than [`EnsemblePlan::MAX_STEPS`] steps, or zero
/// `bins`.
pub fn switching_time_distribution(
    params: &MacrospinParams,
    current: f64,
    duration: f64,
    plan: &EnsemblePlan,
    bins: usize,
    pool: &WorkerPool,
) -> Result<SwitchingTimes, DynamicsError> {
    if !(duration > 0.0) || !duration.is_finite() {
        return Err(DynamicsError::InvalidParameter {
            name: "duration",
            message: format!("simulated span must be positive and finite, got {duration}"),
        });
    }
    let steps = plan.checked_steps_for(duration)?;
    if bins == 0 {
        return Err(DynamicsError::InvalidParameter {
            name: "bins",
            message: "histogram needs at least one bin".into(),
        });
    }
    // The upper edge is the *actual* simulated end (step count × dt can
    // overshoot a non-commensurate `duration`), nudged one part in 1e12
    // above it so a final-step crossing lands in the last bin instead
    // of the invisible overflow counter.
    let end_ns = steps as f64 * plan.dt * 1e9;
    let mut histogram = Histogram::new(0.0, end_ns * (1.0 + 1e-12), bins)?;
    let outcomes = run_ensemble(params, current, duration, plan, pool);
    let times_ns: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.crossing_time)
        .map(|t| t * 1e9)
        .collect();
    histogram.extend(times_ns.iter().copied());
    telemetry::counter_add("llgs.switch_distributions", 1);
    if telemetry::enabled() {
        telemetry::event(
            "ensemble.health",
            &[
                ("estimator", telemetry::Value::Text("switch_times".into())),
                ("trajectories", telemetry::Value::U64(outcomes.len() as u64)),
                ("switched", telemetry::Value::U64(times_ns.len() as u64)),
            ],
        );
    }
    let mean_ns = stats::mean(&times_ns).ok();
    let std_ns = stats::std_dev(&times_ns).ok();
    let median_ns = stats::median(&times_ns).ok();
    Ok(SwitchingTimes {
        histogram,
        trajectories: outcomes.len(),
        switched: times_ns.len(),
        mean_ns,
        std_ns,
        median_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::{presets, SwitchDirection};
    use mramsim_units::{Kelvin, Nanometer};

    fn params() -> MacrospinParams {
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        MacrospinParams::from_device(&device, SwitchDirection::ApToP, Kelvin::new(300.0)).unwrap()
    }

    #[test]
    fn longer_pulses_are_safer() {
        let p = params();
        let plan = EnsemblePlan::new(192, 12, 2e-12).unwrap();
        let pool = WorkerPool::new(4);
        let drive = 3.0 * p.critical_current();
        let tau_d = p.tau_d(drive);
        let short = wer_monte_carlo(&p, drive, 2.0 * tau_d, &plan, &pool);
        let long = wer_monte_carlo(&p, drive, 5.0 * tau_d, &plan, &pool);
        assert!(
            long.wer < short.wer,
            "short {} vs long {}",
            short.wer,
            long.wer
        );
    }

    #[test]
    fn wer_estimate_bookkeeping_is_consistent() {
        let p = params();
        let plan = EnsemblePlan::new(50, 3, 2e-12).unwrap();
        let drive = 3.0 * p.critical_current();
        let est = wer_monte_carlo(&p, drive, 2e-9, &plan, &WorkerPool::new(2));
        assert_eq!(est.trajectories, 50);
        assert!((est.wer - est.failures as f64 / 50.0).abs() < 1e-15);
        assert!(est.std_error >= 1.0 / 50.0);
        assert!(est.agrees_with(est.wer, 1.0));
    }

    #[test]
    fn wilson_halfwidth_matches_the_closed_form_and_survives_zero_counts() {
        // 10 failures in 100 at z = 1.96: the textbook Wilson interval
        // is (0.0552, 0.1744) — half-width ~0.0596 around the shifted
        // center.
        let est = WerEstimate::from_counts(100, 10);
        let hw = est.wilson_halfwidth(1.96);
        assert!((hw - 0.059_57).abs() < 5e-4, "hw = {hw}");

        // Zero failures: Wald collapses to the 1/N floor, Wilson stays
        // a genuine interval.
        let clean = WerEstimate::from_counts(1000, 0);
        let hw = clean.wilson_halfwidth(1.96);
        assert!(hw > 0.0 && hw < 0.01, "hw = {hw}");
        // And emitting health while telemetry is off is a no-op.
        clean.emit_health("wer", &[]);
    }

    #[test]
    fn switching_times_concentrate_around_the_sun_mean() {
        let p = params();
        let plan = EnsemblePlan::new(160, 21, 2e-12).unwrap();
        let drive = 3.0 * p.critical_current();
        let tau_d = p.tau_d(drive);
        let span = 12.0 * tau_d;
        let dist =
            switching_time_distribution(&p, drive, span, &plan, 24, &WorkerPool::new(4)).unwrap();
        assert_eq!(dist.trajectories, 160);
        assert!(dist.switched > 150, "switched {}", dist.switched);
        // Mean within a factor ~2 of the analytic mean switching time.
        let delta = p.delta_init();
        let t_mean_ns = 0.5
            * tau_d
            * 1e9
            * (mramsim_units::constants::EULER_GAMMA
                + (core::f64::consts::PI.powi(2) * delta / 4.0).ln());
        let mean_ns = dist.mean_ns.expect("ensemble switched");
        assert!(
            mean_ns > 0.5 * t_mean_ns && mean_ns < 2.0 * t_mean_ns,
            "mean {mean_ns} vs analytic {t_mean_ns}"
        );
        assert_eq!(dist.histogram.total() as usize, dist.switched);
    }

    #[test]
    fn zero_switching_events_yield_typed_absence_not_nan() {
        // Deterministic sub-critical drive with the thermal field off:
        // no replica can cross, so the summary statistics must be a
        // typed `None` (regression: `unwrap_or(f64::NAN)` sent NaN
        // into CSV output and `PartialEq`-compared cache entries).
        let p = params();
        let plan = EnsemblePlan::new(16, 5, 2e-12).unwrap().with_thermal(false);
        let drive = 0.1 * p.critical_current();
        let dist =
            switching_time_distribution(&p, drive, 1e-9, &plan, 8, &WorkerPool::new(2)).unwrap();
        assert_eq!(dist.switched, 0);
        assert_eq!(dist.mean_ns, None);
        assert_eq!(dist.std_ns, None);
        assert_eq!(dist.median_ns, None);
        // The typed absence restores reflexive equality for cache use.
        assert_eq!(dist, dist.clone());
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let p = params();
        let plan = EnsemblePlan::new(8, 1, 1e-12).unwrap();
        assert!(
            switching_time_distribution(&p, 1e-4, 0.0, &plan, 10, &WorkerPool::new(1)).is_err()
        );
        assert!(
            switching_time_distribution(&p, 1e-4, f64::NAN, &plan, 10, &WorkerPool::new(1))
                .is_err()
        );
        assert!(
            switching_time_distribution(&p, 1e-4, 1e-9, &plan, 0, &WorkerPool::new(1)).is_err()
        );
    }

    #[test]
    fn final_step_crossings_land_in_a_bin_for_non_commensurate_spans() {
        // span/dt not integer: the step count ceils past `duration`, so
        // a crossing on the final step must still land inside the
        // histogram (regression: it fell into the overflow counter).
        let p = params();
        let plan = EnsemblePlan::new(96, 7, 3e-12).unwrap();
        let drive = 3.0 * p.critical_current();
        let span = 10.3e-9; // 3433.33… steps of 3 ps
        let dist =
            switching_time_distribution(&p, drive, span, &plan, 20, &WorkerPool::new(2)).unwrap();
        assert_eq!(dist.histogram.overflow(), 0);
        assert_eq!(dist.histogram.underflow(), 0);
        assert_eq!(dist.histogram.total() as usize, dist.switched);
    }
}
