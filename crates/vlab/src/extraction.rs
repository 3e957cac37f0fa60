//! Parameter extraction: the Thomas et al. \[21\] `Hk`/`Δ0` fit and the
//! Fig. 2b intra-field-vs-size study.

use crate::{analyze_loop, RhLoopTester, SwitchingProbePoint, VlabError, Wafer};
use mramsim_mtj::SharrockModel;
use mramsim_numerics::optimize::{nelder_mead, NelderMeadOptions};
use mramsim_numerics::stats::Summary;
use mramsim_units::{Nanometer, Oersted, Second};
use rand::Rng;

/// Result of fitting the Sharrock switching-probability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharrockFit {
    /// Extracted anisotropy field.
    pub hk: Oersted,
    /// Extracted intrinsic thermal stability factor.
    pub delta0: f64,
    /// Least-squares cost `½·Σrᵢ²` at the fit, `rᵢ` being the model's
    /// switching probability minus the measured one.
    pub cost: f64,
}

/// Fits `(Hk, Δ0)` to switching-probability data by least squares:
/// Nelder–Mead minimises `½·Σ(P(Hᵢ) − pᵢ)²`, where `P` is
/// [`SharrockModel::switching_probability`],
/// `P(H) = 1 − exp(−f0·τ·exp(−Δ0·(1 − H/Hk)²))`.
///
/// The simplex works in units of the starting guess (`[Hk/Hk₀, Δ0/Δ0₀]`
/// from `[1, 1]`), so one relative step and one tolerance suit both
/// parameters. A point the model rejects (`Hk` or `Δ0` not positive)
/// costs infinity.
///
/// The fields in `data` must already be offset-corrected (effective
/// fields at the FL), exactly as the paper corrects by the measured
/// `Hoffset` before fitting.
///
/// # Errors
///
/// * [`VlabError::InvalidSetup`] for fewer than 4 points or a
///   non-positive dwell.
/// * [`VlabError::Numerics`] for a non-positive starting guess, or when
///   the fit fails to converge.
///
/// # Examples
///
/// ```
/// use mramsim_vlab::fit_sharrock;
/// use mramsim_mtj::SharrockModel;
/// use mramsim_units::{Oersted, Second};
///
/// // Noise-free forward data must be recovered exactly.
/// let truth = SharrockModel::new(Oersted::new(4646.8), 45.5)?;
/// let dwell = Second::new(1e-4);
/// let data: Vec<(Oersted, f64)> = (0..50)
///     .map(|i| {
///         let h = Oersted::new(1900.0 + 15.0 * f64::from(i));
///         (h, truth.switching_probability(h, dwell))
///     })
///     .collect();
/// let fit = fit_sharrock(&data, dwell, (Oersted::new(4000.0), 40.0))?;
/// assert!((fit.hk.value() - 4646.8).abs() < 0.01);
/// assert!((fit.delta0 - 45.5).abs() < 1e-4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fit_sharrock(
    data: &[(Oersted, f64)],
    dwell: Second,
    initial: (Oersted, f64),
) -> Result<SharrockFit, VlabError> {
    if data.len() < 4 {
        return Err(VlabError::InvalidSetup {
            name: "data",
            message: format!("need at least 4 points, got {}", data.len()),
        });
    }
    if !(dwell.value() > 0.0) {
        return Err(VlabError::InvalidSetup {
            name: "dwell",
            message: format!("must be positive, got {dwell:?}"),
        });
    }

    let (hk0, delta00) = initial;
    let cost = |p: &[f64]| -> f64 {
        let Ok(model) = SharrockModel::new(hk0 * p[0], delta00 * p[1]) else {
            return f64::INFINITY;
        };
        let sum: f64 = data
            .iter()
            .map(|&(h, prob)| (model.switching_probability(h, dwell) - prob).powi(2))
            .sum();
        0.5 * sum
    };
    let report = nelder_mead(
        cost,
        &[1.0, 1.0],
        &NelderMeadOptions {
            max_evaluations: 4000,
            f_tolerance: 1e-14,
            x_tolerance: 1e-9,
            initial_step: 0.1,
        },
    )?;

    Ok(SharrockFit {
        hk: hk0 * report.x[0],
        delta0: delta00 * report.x[1],
        cost: report.fx,
    })
}

/// Convenience: fit from raw probe points plus a separately measured
/// loop offset (applied fields are corrected by `Hz_s_intra`).
///
/// # Errors
///
/// Same contract as [`fit_sharrock`].
pub fn fit_sharrock_from_probe(
    points: &[SwitchingProbePoint],
    hz_s_intra: Oersted,
    dwell: Second,
    initial: (Oersted, f64),
) -> Result<SharrockFit, VlabError> {
    let data: Vec<(Oersted, f64)> = points
        .iter()
        .map(|p| (p.h_applied + hz_s_intra, p.probability))
        .collect();
    fit_sharrock(&data, dwell, initial)
}

/// One size point of the Fig. 2b study: per-size statistics of the
/// extracted `Hz_s_intra` and eCD.
#[derive(Debug, Clone, PartialEq)]
pub struct IntraFieldPoint {
    /// Nominal (designed) eCD of this group.
    pub nominal_ecd: Nanometer,
    /// Statistics of the extracted eCD across devices.
    pub ecd: Summary,
    /// Statistics of the extracted `Hz_s_intra` (Oe) across devices —
    /// mean ± std are the paper's error bars.
    pub hz_s_intra: Summary,
}

/// Runs the full §III study on a wafer: measure an R-H loop per device,
/// extract `Hz_s_intra` and eCD, and summarise per size group.
///
/// # Errors
///
/// Propagates measurement and extraction failures.
pub fn intra_field_study<R: Rng + ?Sized>(
    wafer: &Wafer,
    tester: &RhLoopTester,
    rng: &mut R,
) -> Result<Vec<IntraFieldPoint>, VlabError> {
    let mut out = Vec::new();
    for group in wafer.size_groups() {
        let mut ecds = Vec::new();
        let mut fields = Vec::new();
        for dut in group.devices {
            let rh = tester.run(dut.device(), rng)?;
            let x = analyze_loop(&rh, dut.device().electrical().ra())?;
            ecds.push(x.ecd.value());
            fields.push(x.hz_s_intra.value());
        }
        out.push(IntraFieldPoint {
            nominal_ecd: group.nominal_ecd,
            ecd: Summary::of(&ecds)?,
            hz_s_intra: Summary::of(&fields)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcessVariation, SwitchingProbe, WaferSpec};
    use mramsim_mtj::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_hk_delta0_recovery_from_noisy_probe() {
        // The paper's §V-A pipeline: probe switching probability over
        // 1000 cycles, correct by the loop offset, fit (Hk, Δ0).
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let fields: Vec<Oersted> = (0..60)
            .map(|i| Oersted::new(2200.0 + 12.0 * f64::from(i)))
            .collect();
        let probe = SwitchingProbe::paper_setup();
        let points = probe.measure_ap_to_p(&device, &fields, &mut rng).unwrap();
        let truth_stray = device.intra_hz_at_fl_center().unwrap();
        let fit = fit_sharrock_from_probe(
            &points,
            truth_stray,
            probe.dwell(),
            (Oersted::new(4000.0), 40.0),
        )
        .unwrap();
        assert!((fit.hk.value() - 4646.8).abs() < 250.0, "Hk = {:?}", fit.hk);
        assert!((fit.delta0 - 45.5).abs() < 3.0, "Δ0 = {}", fit.delta0);
    }

    #[test]
    fn fit_rejects_tiny_datasets() {
        let data = [(Oersted::new(2000.0), 0.5)];
        assert!(fit_sharrock(&data, Second::new(1e-4), (Oersted::new(4000.0), 40.0)).is_err());
    }

    #[test]
    fn fit_rejects_a_non_positive_start() {
        let data: Vec<(Oersted, f64)> = (0..8)
            .map(|i| {
                (
                    Oersted::new(2000.0 + 50.0 * f64::from(i)),
                    0.1 * f64::from(i),
                )
            })
            .collect();
        for start in [(Oersted::new(-4000.0), 40.0), (Oersted::new(4000.0), 0.0)] {
            let fit = fit_sharrock(&data, Second::new(1e-4), start);
            assert!(matches!(fit, Err(VlabError::Numerics(_))), "{fit:?}");
        }
    }

    #[test]
    fn intra_field_study_reproduces_size_dependence() {
        let nominal = presets::imec_like(Nanometer::new(55.0)).unwrap();
        let spec = WaferSpec {
            sizes: vec![Nanometer::new(35.0), Nanometer::new(90.0)],
            devices_per_size: 5,
            variation: ProcessVariation::default(),
        };
        let mut rng = StdRng::seed_from_u64(33);
        let wafer = Wafer::fabricate(&nominal, &spec, &mut rng).unwrap();
        let study = intra_field_study(&wafer, &RhLoopTester::paper_setup(), &mut rng).unwrap();
        assert_eq!(study.len(), 2);
        // Smaller device ⇒ stronger (more negative) intra field.
        assert!(study[0].hz_s_intra.mean < study[1].hz_s_intra.mean);
        assert!(study[0].hz_s_intra.std_dev > 0.0, "error bars exist");
    }
}
