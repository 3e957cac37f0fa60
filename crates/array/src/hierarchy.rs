//! The ring hierarchy of the stray-field kernel.
//!
//! Ring 1 of a [`StrayFieldKernel`] models the paper's 8 aggressors;
//! [`rings`](crate::ExtendedCoupling) showed the uniform-data tail
//! beyond them is a double-digit-percent correction. A megabit campaign
//! cannot afford per-cell Biot–Savart out to large radii, but it does
//! not have to: every ring `k` holds `8k` cells whose fields depend only
//! on the canonical lattice offset `(max|Δ|, min|Δ|)`, so ring `k` costs
//! `k + 1` field evaluations and the whole kernel is reused
//! process-wide. The dipole tail beyond the outermost ring is bounded a
//! priori, so callers can ask for a field *tolerance* instead of
//! guessing a radius.
//!
//! The bound: a cell at distance `d` contributes at most `c₃ / d³`
//! (dipole far field), with `c₃` calibrated from the outermost computed
//! ring — conservative, because loop sources fall off *faster* than an
//! ideal dipole near the array (the SAF pair is quasi-quadrupolar).
//! Ring `k` then contributes at most `8k · c₃ / (k·p)³ = 8c₃/(k²p³)`,
//! and `Σ_{k>R} 1/k² < 1/R` gives `tail(R) ≤ 8c₃ / (p³R)`.

use crate::kernel::LatticeField;
use crate::StrayFieldKernel;

/// The ring-truncated kernel under its former name: a
/// [`StrayFieldKernel`] built by
/// [`for_tolerance`](StrayFieldKernel::for_tolerance) or
/// [`shared_for_tolerance`](StrayFieldKernel::shared_for_tolerance)
/// carries its outer rings itself. A radius-1 evaluation is
/// **bit-identical** to the dense [`cell_field_map`](crate::cell_field_map)
/// path; rings ≥ 2 serve all `8k` cells of ring `k` from `k + 1`
/// Biot–Savart evaluations.
///
/// # Examples
///
/// ```
/// use mramsim_array::HierarchicalKernel;
/// use mramsim_mtj::presets;
/// use mramsim_units::{Nanometer, Oersted};
///
/// let device = presets::imec_like(Nanometer::new(55.0))?;
/// let kernel =
///     HierarchicalKernel::for_tolerance(&device, Nanometer::new(90.0), Oersted::new(30.0), 8)?;
/// assert!(kernel.radius() >= 2);
/// assert!(kernel.tol_met(Oersted::new(30.0)));
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
pub type HierarchicalKernel = StrayFieldKernel;

/// One outer ring `k ≥ 2`: the fields at the `k + 1` canonical offsets
/// `(k, b)`, `0 ≤ b ≤ k`, which serve all `8k` cells by square-lattice
/// symmetry, plus their sums over the ring for uniform data.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RingTable {
    canon: Vec<LatticeField>,
    /// Each field part summed over the ring in scan order.
    pub(crate) uniform: LatticeField,
}

impl RingTable {
    pub(crate) fn new(canon: Vec<LatticeField>) -> Self {
        let mut uniform = LatticeField::default();
        ring_scan(canon.len() - 1, |_, _, b| {
            uniform.fixed_hz += canon[b].fixed_hz;
            uniform.fl_p_hz += canon[b].fl_p_hz;
            uniform.fl_ap_hz += canon[b].fl_ap_hz;
        });
        Self { canon, uniform }
    }

    /// Calls `f(di, dj, field)` for each cell of the ring in scan order.
    pub(crate) fn for_each_cell(&self, mut f: impl FnMut(i32, i32, &LatticeField)) {
        ring_scan(self.canon.len() - 1, |di, dj, b| f(di, dj, &self.canon[b]));
    }
}

/// Calls `f(di, dj, b)` for the `8k` cells of ring `k` in row-major
/// scan order, `b = min(|di|, |dj|)` being the cell's canonical index.
fn ring_scan(k: usize, mut f: impl FnMut(i32, i32, usize)) {
    let k = k as i32;
    for di in -k..=k {
        if di.abs() == k {
            for dj in -k..=k {
                f(di, dj, dj.unsigned_abs() as usize);
            }
        } else {
            // Inner rows of the ring hold only its two side cells.
            f(di, -k, di.unsigned_abs() as usize);
            f(di, k, di.unsigned_abs() as usize);
        }
    }
}

/// `c₃ = max |field| · d³` over ring `k`, from its canonical fields
/// `canon[b]` at `(k, b)` — the dipole coefficient that bounds every
/// cell further out.
pub(crate) fn tail_coeff(k: i32, canon: &[LatticeField], p: f64) -> f64 {
    canon
        .iter()
        .zip(0..)
        .map(|(cell, b)| {
            let d = f64::from(k).hypot(f64::from(b)) * p;
            (cell.fixed_hz.abs() + cell.fl_p_hz.abs().max(cell.fl_ap_hz.abs())) * d.powi(3)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cell_field_map, CellArray, ExtendedCoupling};
    use mramsim_mtj::{presets, MtjDevice, MtjState};
    use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
    use mramsim_units::{Nanometer, Oersted};
    use std::sync::Arc;

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(55.0)).unwrap()
    }

    /// The kernel with exactly `radius` rings: a tolerance no radius
    /// reaches stops the growth at the cap.
    fn at_radius(dev: &MtjDevice, pitch: Nanometer, radius: usize) -> StrayFieldKernel {
        StrayFieldKernel::for_tolerance(dev, pitch, Oersted::new(1e-12), radius).unwrap()
    }

    #[test]
    fn ring_sizes_and_radius() {
        let kernel = at_radius(&device(), Nanometer::new(90.0), 3);
        assert_eq!(kernel.radius(), 3);
        for k in 1..=3 {
            let mut cells = Vec::new();
            ring_scan(k, |di, dj, b| cells.push((di, dj, b)));
            assert_eq!(cells.len(), 8 * k);
            let k = k as i32;
            assert!(cells
                .iter()
                .all(|&(di, dj, b)| di.abs().max(dj.abs()) == k
                    && di.abs().min(dj.abs()) as usize == b));
        }
        assert!(kernel.tail_bound().value() > 0.0);
    }

    #[test]
    fn radius_one_matches_the_dense_path_bit_for_bit() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        let kernel = StrayFieldKernel::compute(&dev, pitch).unwrap();
        let data = CellArray::checkerboard(5, 5).unwrap();
        let dense = cell_field_map(&dev, pitch, &data).unwrap();
        for f in &dense {
            let (r, c) = (f.row as i32, f.col as i32);
            let state_of = |di: i32, dj: i32| -> MtjState {
                let (nr, nc) = (r + di, c + dj);
                if !(0..5).contains(&nr) || !(0..5).contains(&nc) {
                    MtjState::Parallel
                } else {
                    data.get(nr as usize, nc as usize).unwrap()
                }
            };
            let hz = kernel.total_hz_window(&state_of);
            assert_eq!(
                hz.to_bits(),
                f.hz_apm.to_bits(),
                "cell ({r}, {c}): {hz} vs {}",
                f.hz_apm
            );
        }
    }

    #[test]
    fn uniform_inter_matches_the_window_walk() {
        let kernel = at_radius(&device(), Nanometer::new(90.0), 4);
        for state in [MtjState::Parallel, MtjState::AntiParallel] {
            let collapsed = kernel.uniform_inter_hz(state);
            let walked = kernel.inter_hz_window(&|_, _| state);
            assert!(
                (collapsed - walked).abs() <= 1e-9 * walked.abs().max(1.0),
                "{state}: {collapsed} vs {walked}"
            );
        }
    }

    #[test]
    fn outer_rings_track_the_extended_coupling_sum() {
        // The canonical-offset tables must reproduce the per-offset
        // ExtendedCoupling ring sums up to the (tiny) polygonal
        // symmetry error; ring 1 additionally carries the base
        // kernel's representative collapse (< 0.05 Oe, same scale the
        // rings tests tolerate).
        let dev = device();
        let pitch = Nanometer::new(90.0);
        let kernel = at_radius(&dev, pitch, 3);
        let ext = ExtendedCoupling::new(dev, pitch).unwrap();
        for state in [MtjState::Parallel, MtjState::AntiParallel] {
            let truncated =
                Oersted::new(kernel.uniform_inter_hz(state) * OERSTED_PER_AMPERE_PER_METER);
            let full = ext.cumulative_hz(3, state).unwrap();
            assert!(
                (truncated.value() - full.value()).abs() < 0.1,
                "{state}: truncated {truncated} vs extended {full}"
            );
        }
    }

    #[test]
    fn tail_bound_covers_the_measured_tail() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        let kernel = at_radius(&dev, pitch, 2);
        let ext = ExtendedCoupling::new(dev.clone(), pitch).unwrap();
        for state in [MtjState::Parallel, MtjState::AntiParallel] {
            let truncated = kernel.uniform_inter_hz(state) * OERSTED_PER_AMPERE_PER_METER;
            let full = ext.cumulative_hz(8, state).unwrap().value();
            let err = (full - truncated).abs();
            // Bound plus the representative-collapse slack of ring 1.
            let bound = kernel.tail_bound().value() + 0.1;
            assert!(err <= bound, "{state}: measured {err} > bound {bound}");
        }
    }

    #[test]
    fn tail_bound_shrinks_with_radius() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        let b2 = at_radius(&dev, pitch, 2).tail_bound().value();
        let b4 = at_radius(&dev, pitch, 4).tail_bound().value();
        assert!(b4 < b2, "bound must shrink: R=2 {b2} vs R=4 {b4}");
    }

    #[test]
    fn for_tolerance_stops_at_the_requested_accuracy() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        // The bound decays as 1/R (true dipole tail), so useful
        // tolerances are a fraction of the ~80 Oe ring-1 swing.
        let loose = StrayFieldKernel::for_tolerance(&dev, pitch, Oersted::new(80.0), 16).unwrap();
        let tight = StrayFieldKernel::for_tolerance(&dev, pitch, Oersted::new(20.0), 16).unwrap();
        assert!(loose.radius() < tight.radius());
        assert!(loose.tol_met(Oersted::new(80.0)));
        assert!(tight.tol_met(Oersted::new(20.0)));
        // An unreachable tolerance caps out at max_radius, unmet.
        let capped = StrayFieldKernel::for_tolerance(&dev, pitch, Oersted::new(1e-12), 3).unwrap();
        assert_eq!(capped.radius(), 3);
        assert!(!capped.tol_met(Oersted::new(1e-12)));
    }

    #[test]
    fn shared_kernels_are_memoised_and_counted() {
        let dev = device();
        let pitch = Nanometer::new(91.0);
        let before = crate::kernel_cache_stats();
        let a = StrayFieldKernel::shared(&dev, pitch).unwrap();
        let b = StrayFieldKernel::shared(&dev, pitch).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = StrayFieldKernel::shared_for_tolerance(&dev, pitch, Oersted::new(5.0), 8).unwrap();
        let d = StrayFieldKernel::shared_for_tolerance(&dev, pitch, Oersted::new(5.0), 8).unwrap();
        assert!(Arc::ptr_eq(&c, &d));
        let after = crate::kernel_cache_stats();
        assert!(after.hits >= before.hits + 2);
        assert!(after.entries > before.entries);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        assert!(StrayFieldKernel::compute(&dev, Nanometer::new(10.0)).is_err());
        assert!(StrayFieldKernel::for_tolerance(&dev, pitch, Oersted::new(0.0), 4).is_err());
        assert!(StrayFieldKernel::for_tolerance(&dev, pitch, Oersted::new(f64::NAN), 4).is_err());
        assert!(StrayFieldKernel::for_tolerance(&dev, pitch, Oersted::new(1.0), 0).is_err());
    }
}
