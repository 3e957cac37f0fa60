//! Pitch sweeps and density optimisation (Fig. 4b and the paper's
//! design-rule conclusion).

use crate::{ArrayError, CouplingAnalyzer};
use mramsim_mtj::MtjDevice;
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Nanometer, Oersted};

/// One point of a Ψ-vs-pitch sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsiPoint {
    /// Array pitch.
    pub pitch: Nanometer,
    /// Coupling factor Ψ (dimensionless; 0.02 = the paper's threshold).
    pub psi: f64,
}

/// Sweeps Ψ over the given pitches (Fig. 4b) in parallel on a default
/// [`WorkerPool`] — the same pool type the execution engine schedules
/// on. Inside a pool job (an engine sweep point) that pool takes the
/// job's share of the machine; the Ψ values do not depend on it.
///
/// An empty `pitches` slice yields an empty sweep.
///
/// # Errors
///
/// Propagates analyzer construction failures (e.g. a pitch smaller than
/// the device).
///
/// # Examples
///
/// ```
/// use mramsim_array::psi_vs_pitch;
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let pitches: Vec<Nanometer> = [52.5, 70.0, 105.0, 200.0]
///     .into_iter().map(Nanometer::new).collect();
/// let sweep = psi_vs_pitch(&device, &pitches, presets::MEASURED_HC)?;
/// assert!(sweep.windows(2).all(|w| w[0].psi > w[1].psi));
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
pub fn psi_vs_pitch(
    device: &MtjDevice,
    pitches: &[Nanometer],
    hc: Oersted,
) -> Result<Vec<PsiPoint>, ArrayError> {
    if pitches.is_empty() {
        return Ok(Vec::new());
    }
    WorkerPool::default()
        .scoped_map(pitches, |_, pitch| {
            CouplingAnalyzer::new(device.clone(), *pitch).map(|c| PsiPoint {
                pitch: *pitch,
                psi: c.psi(hc),
            })
        })
        .into_iter()
        .collect()
}

/// Finds the smallest pitch (= highest density) whose coupling factor
/// stays at or below `target_psi` — the paper's design rule ("Ψ ≈ 2 %
/// maximizes the array density … negligible impact").
///
/// Searches `[lo, hi]` by bisection on the monotone Ψ(pitch).
///
/// # Errors
///
/// * [`ArrayError::InvalidParameter`] when the bracket is degenerate or
///   the target is unreachable inside it (Ψ(hi) still above target).
/// * Propagates analyzer errors.
///
/// # Examples
///
/// ```
/// use mramsim_array::max_density_pitch;
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let pitch = max_density_pitch(
///     &device, presets::MEASURED_HC, 0.02,
///     (Nanometer::new(52.5), Nanometer::new(200.0)),
/// )?;
/// // Paper: Ψ = 2 % at roughly 2×eCD for this device.
/// assert!(pitch.value() > 55.0 && pitch.value() < 95.0);
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
pub fn max_density_pitch(
    device: &MtjDevice,
    hc: Oersted,
    target_psi: f64,
    (lo, hi): (Nanometer, Nanometer),
) -> Result<Nanometer, ArrayError> {
    if !(target_psi > 0.0) || !(lo.value() > 0.0) || !(hi.value() > lo.value()) {
        return Err(ArrayError::InvalidParameter {
            name: "target_psi/bracket",
            message: format!("target {target_psi}, bracket [{lo:?}, {hi:?}]"),
        });
    }
    let psi_at = |pitch_nm: f64| -> Result<f64, ArrayError> {
        Ok(CouplingAnalyzer::new(device.clone(), Nanometer::new(pitch_nm))?.psi(hc))
    };
    let psi_hi = psi_at(hi.value())?;
    if psi_hi > target_psi {
        return Err(ArrayError::InvalidParameter {
            name: "target_psi",
            message: format!("Ψ({hi:?}) = {psi_hi:.4} still exceeds the target {target_psi}"),
        });
    }
    let psi_lo = psi_at(lo.value())?;
    if psi_lo <= target_psi {
        // Even the densest pitch satisfies the target.
        return Ok(lo);
    }

    // Bisection on the monotone-decreasing Ψ(pitch).
    let (mut a, mut b) = (lo.value(), hi.value());
    for _ in 0..80 {
        let mid = 0.5 * (a + b);
        if psi_at(mid)? > target_psi {
            a = mid;
        } else {
            b = mid;
        }
        if (b - a) < 0.05 {
            break;
        }
    }
    Ok(Nanometer::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::presets;

    fn device(ecd: f64) -> MtjDevice {
        presets::imec_like(Nanometer::new(ecd)).unwrap()
    }

    #[test]
    fn sweep_preserves_input_order_and_length() {
        let dev = device(55.0);
        let pitches: Vec<Nanometer> = [200.0, 90.0, 150.0]
            .into_iter()
            .map(Nanometer::new)
            .collect();
        let sweep = psi_vs_pitch(&dev, &pitches, presets::MEASURED_HC).unwrap();
        assert_eq!(sweep.len(), 3);
        for (point, pitch) in sweep.iter().zip(&pitches) {
            assert_eq!(point.pitch.value(), pitch.value());
        }
        // 90 nm couples hardest.
        assert!(sweep[1].psi > sweep[0].psi && sweep[1].psi > sweep[2].psi);
    }

    #[test]
    fn empty_pitch_list_yields_empty_sweep() {
        // Regression: the old chunked implementation panicked on
        // `chunks(0)` for an empty input.
        let dev = device(35.0);
        let sweep = psi_vs_pitch(&dev, &[], presets::MEASURED_HC).unwrap();
        assert!(sweep.is_empty());
    }

    #[test]
    fn sweep_matches_sequential_evaluation() {
        let dev = device(35.0);
        let pitches: Vec<Nanometer> = (0..12)
            .map(|i| Nanometer::new(52.5 + 12.0 * f64::from(i)))
            .collect();
        let parallel = psi_vs_pitch(&dev, &pitches, presets::MEASURED_HC).unwrap();
        for point in &parallel {
            let sequential = CouplingAnalyzer::new(dev.clone(), point.pitch)
                .unwrap()
                .psi(presets::MEASURED_HC);
            assert!((point.psi - sequential).abs() < 1e-12);
        }
    }

    #[test]
    fn psi_is_the_same_bits_at_every_pool_width() {
        // Inside a pool job the default pool shrinks to the job's share;
        // the sweep must not move.
        let dev = device(35.0);
        let pitches: Vec<Nanometer> = [52.5, 70.0, 105.0, 200.0]
            .into_iter()
            .map(Nanometer::new)
            .collect();
        let sweep = || psi_vs_pitch(&dev, &pitches, presets::MEASURED_HC).unwrap();
        let top = sweep();
        for k in [1, 2, 4] {
            for nested in WorkerPool::new(k).scoped_map(&vec![(); k], |_, ()| sweep()) {
                assert!(nested == top, "Ψ moved at k = {k}");
            }
        }
    }

    #[test]
    fn larger_devices_couple_harder_at_fixed_pitch() {
        // Fig. 4b: at a given pitch, Ψ grows with eCD (bigger moments).
        let pitch = [Nanometer::new(200.0)];
        let psi20 = psi_vs_pitch(&device(20.0), &pitch, presets::MEASURED_HC).unwrap()[0].psi;
        let psi35 = psi_vs_pitch(&device(35.0), &pitch, presets::MEASURED_HC).unwrap()[0].psi;
        let psi55 = psi_vs_pitch(&device(55.0), &pitch, presets::MEASURED_HC).unwrap()[0].psi;
        assert!(psi20 < psi35 && psi35 < psi55);
    }

    #[test]
    fn max_density_pitch_hits_the_target() {
        let dev = device(35.0);
        let pitch = max_density_pitch(
            &dev,
            presets::MEASURED_HC,
            0.02,
            (Nanometer::new(52.5), Nanometer::new(200.0)),
        )
        .unwrap();
        let psi = CouplingAnalyzer::new(dev.clone(), pitch)
            .unwrap()
            .psi(presets::MEASURED_HC);
        assert!(psi <= 0.02 + 1e-6, "Ψ at solution = {psi}");
        // Tight: 1 nm below the solution must violate the target.
        let tighter = CouplingAnalyzer::new(dev, pitch - Nanometer::new(1.0))
            .unwrap()
            .psi(presets::MEASURED_HC);
        assert!(tighter > 0.02);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let dev = device(55.0);
        let err = max_density_pitch(
            &dev,
            presets::MEASURED_HC,
            1e-7,
            (Nanometer::new(82.5), Nanometer::new(120.0)),
        )
        .unwrap_err();
        assert!(matches!(err, ArrayError::InvalidParameter { .. }));
    }

    #[test]
    fn trivial_target_returns_the_dense_end() {
        let dev = device(35.0);
        let pitch = max_density_pitch(
            &dev,
            presets::MEASURED_HC,
            0.5,
            (Nanometer::new(52.5), Nanometer::new(200.0)),
        )
        .unwrap();
        assert_eq!(pitch.value(), 52.5);
    }
}
