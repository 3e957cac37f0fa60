//! Ring-truncated hierarchical stray-field kernels.
//!
//! The ring-1 [`StrayFieldKernel`](crate::StrayFieldKernel) models the
//! paper's 8 aggressors; [`rings`](crate::ExtendedCoupling) showed the
//! uniform-data tail beyond them is a double-digit-percent correction.
//! A megabit campaign cannot afford per-cell Biot–Savart out to large
//! radii, but it does not have to: every ring `k` holds `8k` cells
//! whose fields depend only on the canonical lattice offset
//! `(max|Δ|, min|Δ|)`, so ring `k` costs `k + 1` field evaluations and
//! the whole table is reused process-wide. The dipole tail beyond the
//! outermost ring is bounded a priori, so callers can ask for a field
//! *tolerance* instead of guessing a radius.
//!
//! The bound: a cell at distance `d` contributes at most `c₃ / d³`
//! (dipole far field), with `c₃` calibrated from the outermost computed
//! ring — conservative, because loop sources fall off *faster* than an
//! ideal dipole near the array (the SAF pair is quasi-quadrupolar).
//! Ring `k` then contributes at most `8k · c₃ / (k·p)³ = 8c₃/(k²p³)`,
//! and `Σ_{k>R} 1/k² < 1/R` gives `tail(R) ≤ 8c₃ / (p³R)`.

use crate::kernel::{fingerprint, offset_field_at, shared_kernel, Kernel};
use crate::{ArrayError, NeighborhoodPattern, StrayFieldKernel};
use mramsim_mtj::{MtjDevice, MtjState};
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Nanometer, Oersted};
use std::collections::HashMap;
use std::sync::Arc;

/// One aggressor of an outer ring, addressed in lattice units
/// (`di` rows down, `dj` columns right of the victim). Fields in A/m
/// at the victim FL centre, same decomposition as
/// [`OffsetField`](crate::OffsetField).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeField {
    /// Row offset of the aggressor.
    pub di: i32,
    /// Column offset of the aggressor.
    pub dj: i32,
    /// Fixed-layer (RL + HL) contribution — data-independent.
    pub fixed_hz: f64,
    /// FL contribution when the aggressor stores P.
    pub fl_p_hz: f64,
    /// FL contribution when the aggressor stores AP.
    pub fl_ap_hz: f64,
}

impl LatticeField {
    /// The contribution under a concrete stored state.
    #[must_use]
    pub fn hz(&self, state: MtjState) -> f64 {
        self.fixed_hz
            + match state {
                MtjState::Parallel => self.fl_p_hz,
                MtjState::AntiParallel => self.fl_ap_hz,
            }
    }
}

/// The precomputed table of one square ring: per-cell fields in a fixed
/// scan order plus the uniform-data aggregates that let interior cells
/// of a uniform region skip the per-cell walk entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct RingTable {
    ring: usize,
    cells: Vec<LatticeField>,
    fixed_sum: f64,
    fl_p_sum: f64,
    fl_ap_sum: f64,
}

impl RingTable {
    /// The ring index (1 = the paper's 8 aggressors).
    #[must_use]
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Per-cell fields, deterministic row-major scan order.
    #[must_use]
    pub fn cells(&self) -> &[LatticeField] {
        &self.cells
    }

    /// Aggregate ring field (A/m) with every cell in `state`.
    #[must_use]
    pub fn uniform_hz(&self, state: MtjState) -> f64 {
        self.fixed_sum
            + match state {
                MtjState::Parallel => self.fl_p_sum,
                MtjState::AntiParallel => self.fl_ap_sum,
            }
    }

    fn from_cells(ring: usize, cells: Vec<LatticeField>) -> Self {
        let (mut fixed_sum, mut fl_p_sum, mut fl_ap_sum) = (0.0, 0.0, 0.0);
        for cell in &cells {
            fixed_sum += cell.fixed_hz;
            fl_p_sum += cell.fl_p_hz;
            fl_ap_sum += cell.fl_ap_hz;
        }
        Self {
            ring,
            cells,
            fixed_sum,
            fl_p_sum,
            fl_ap_sum,
        }
    }
}

/// A [`StrayFieldKernel`] extended with per-ring aggressor tables out
/// to a configurable radius, plus an a-priori bound on the field left
/// out beyond that radius.
///
/// Ring 1 delegates to the base kernel's NP8 arithmetic, so a radius-1
/// hierarchical evaluation is **bit-identical** to the dense
/// [`cell_field_map`](crate::cell_field_map) path. Rings ≥ 2 are
/// canonical-offset tables: `k + 1` Biot–Savart evaluations serve all
/// `8k` cells of ring `k` by square-lattice symmetry.
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
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalKernel {
    base: Arc<StrayFieldKernel>,
    pitch: Nanometer,
    /// The base kernel's fingerprint, or the kernel-table fingerprint
    /// (with radius or tolerance) for a shared kernel.
    fingerprint: String,
    rings: Vec<RingTable>,
    /// Dipole coefficient `c₃` \[A·m²\] calibrated from the outermost
    /// computed ring.
    tail_coeff: f64,
}

impl HierarchicalKernel {
    /// Computes the kernel directly with a fixed `radius`, bypassing
    /// the cache.
    ///
    /// # Errors
    ///
    /// * [`ArrayError::InvalidParameter`] when `radius == 0` or the
    ///   pitch is invalid (same contract as the base kernel).
    /// * [`ArrayError::Device`] if loop construction fails.
    pub fn compute(
        device: &MtjDevice,
        pitch: Nanometer,
        radius: usize,
    ) -> Result<Self, ArrayError> {
        if radius == 0 {
            return Err(ArrayError::InvalidParameter {
                name: "radius",
                message: "hierarchical kernel radius must be at least 1".to_owned(),
            });
        }
        // Only actual builds get a span — hits in the kernel table
        // never reach here, so traces show real kernel work.
        let _span = mramsim_telemetry::span_tree("kernel.build");
        let base = StrayFieldKernel::shared(device, pitch)?;
        let mut kernel = Self {
            fingerprint: base.fingerprint().to_owned(),
            base,
            pitch,
            rings: Vec::with_capacity(radius),
            tail_coeff: 0.0,
        };
        for k in 1..=radius {
            kernel.push_ring(device, k)?;
        }
        Ok(kernel)
    }

    /// Grows rings until the a-priori tail bound drops to `tol` or the
    /// radius reaches `max_radius`, whichever comes first. The kernel
    /// is returned either way; check [`Self::tol_met`] to learn whether
    /// the accuracy request was satisfied within the radius cap.
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for a non-positive or
    /// non-finite `tol`, `max_radius == 0`, or an invalid pitch.
    pub fn for_tolerance(
        device: &MtjDevice,
        pitch: Nanometer,
        tol: Oersted,
        max_radius: usize,
    ) -> Result<Self, ArrayError> {
        if !tol.value().is_finite() || tol.value() <= 0.0 {
            return Err(ArrayError::InvalidParameter {
                name: "field_tol",
                message: format!("field tolerance must be positive and finite, got {tol:?}"),
            });
        }
        if max_radius == 0 {
            return Err(ArrayError::InvalidParameter {
                name: "max_radius",
                message: "maximum radius must be at least 1".to_owned(),
            });
        }
        let mut kernel = Self::compute(device, pitch, 1)?;
        while kernel.radius() < max_radius && !kernel.tol_met(tol) {
            let next = kernel.radius() + 1;
            kernel.push_ring(device, next)?;
        }
        Ok(kernel)
    }

    /// The memoised kernel for `(device, pitch, radius)`: served from
    /// the process-wide table when present, computed and inserted
    /// otherwise. Counted in [`kernel_cache_stats`](crate::kernel_cache_stats).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::compute`].
    pub fn shared(
        device: &MtjDevice,
        pitch: Nanometer,
        radius: usize,
    ) -> Result<Arc<Self>, ArrayError> {
        let fp = format!("{}radius={radius};", fingerprint(device, pitch));
        shared_kernel(&fp, || {
            Ok(Self {
                fingerprint: fp.clone(),
                ..Self::compute(device, pitch, radius)?
            })
        })
    }

    /// The memoised tolerance-driven kernel: keyed by
    /// `(device, pitch, tol, max_radius)` so repeated campaign shards
    /// reuse one table.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::for_tolerance`].
    pub fn shared_for_tolerance(
        device: &MtjDevice,
        pitch: Nanometer,
        tol: Oersted,
        max_radius: usize,
    ) -> Result<Arc<Self>, ArrayError> {
        let fp = format!(
            "{}tol={:016x};max_radius={max_radius};",
            fingerprint(device, pitch),
            tol.value().to_bits()
        );
        shared_kernel(&fp, || {
            Ok(Self {
                fingerprint: fp.clone(),
                ..Self::for_tolerance(device, pitch, tol, max_radius)?
            })
        })
    }

    /// Appends ring `next` (must be `radius() + 1`) and recalibrates
    /// the tail coefficient from it.
    fn push_ring(&mut self, device: &MtjDevice, next: usize) -> Result<(), ArrayError> {
        debug_assert_eq!(next, self.rings.len() + 1);
        let table = if next == 1 {
            self.ring_one_table()
        } else {
            self.outer_ring_table(device, next)?
        };
        self.tail_coeff = tail_coeff(&table, self.pitch);
        self.rings.push(table);
        Ok(())
    }

    /// Ring 1 synthesised from the base kernel's representative direct
    /// and diagonal offsets — the same two numbers the dense NP8 path
    /// multiplies by 4, so both paths agree bit-for-bit.
    fn ring_one_table(&self) -> RingTable {
        let mut cells = Vec::with_capacity(8);
        for di in -1i32..=1 {
            for dj in -1i32..=1 {
                if di == 0 && dj == 0 {
                    continue;
                }
                let field = if di == 0 || dj == 0 {
                    self.base.direct()
                } else {
                    self.base.diagonal()
                };
                cells.push(LatticeField {
                    di,
                    dj,
                    fixed_hz: field.fixed_hz,
                    fl_p_hz: field.fl_p_hz,
                    fl_ap_hz: field.fl_ap_hz,
                });
            }
        }
        RingTable::from_cells(1, cells)
    }

    /// Ring `k ≥ 2`: one Biot–Savart evaluation per canonical offset
    /// `(k, b)` with `0 ≤ b ≤ k`, fanned out to all `8k` lattice
    /// positions by the square-lattice symmetry.
    fn outer_ring_table(&self, device: &MtjDevice, k: usize) -> Result<RingTable, ArrayError> {
        let p = self.pitch.to_meter().value();
        let k_i = k as i32;
        let mut canon: HashMap<i32, (f64, f64, f64)> = HashMap::with_capacity(k + 1);
        let mut cells = Vec::with_capacity(8 * k);
        for di in -k_i..=k_i {
            for dj in -k_i..=k_i {
                if di.abs().max(dj.abs()) != k_i {
                    continue;
                }
                let b = di.abs().min(dj.abs());
                let (fixed_hz, fl_p_hz, fl_ap_hz) = match canon.get(&b) {
                    Some(v) => *v,
                    None => {
                        let f = offset_field_at(device, f64::from(k_i) * p, f64::from(b) * p)?;
                        let v = (f.fixed_hz, f.fl_p_hz, f.fl_ap_hz);
                        canon.insert(b, v);
                        v
                    }
                };
                cells.push(LatticeField {
                    di,
                    dj,
                    fixed_hz,
                    fl_p_hz,
                    fl_ap_hz,
                });
            }
        }
        Ok(RingTable::from_cells(k, cells))
    }

    /// The underlying ring-1 kernel.
    #[must_use]
    pub fn base(&self) -> &Arc<StrayFieldKernel> {
        &self.base
    }

    /// The lattice pitch the tables were built for.
    #[must_use]
    pub fn pitch(&self) -> Nanometer {
        self.pitch
    }

    /// Number of rings in the table.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.rings.len()
    }

    /// The per-ring tables, innermost first.
    #[must_use]
    pub fn rings(&self) -> &[RingTable] {
        &self.rings
    }

    /// A-priori bound on `|Hz|` omitted beyond [`Self::radius`]:
    /// `8c₃ / (p³·R)` in oersted.
    #[must_use]
    pub fn tail_bound(&self) -> Oersted {
        let p = self.pitch.to_meter().value();
        let r = self.rings.len() as f64;
        Oersted::new(8.0 * self.tail_coeff / (p.powi(3) * r) * OERSTED_PER_AMPERE_PER_METER)
    }

    /// Whether the truncation tail is within `tol`.
    #[must_use]
    pub fn tol_met(&self, tol: Oersted) -> bool {
        self.tail_bound().value() <= tol.value()
    }

    /// `Hz_s_inter` \[A/m\] for a victim whose neighbourhood out to
    /// [`Self::radius`] is given by `state_of(di, dj)` (lattice
    /// offsets; the caller supplies its out-of-array convention).
    ///
    /// Ring 1 goes through the base kernel's NP8 arithmetic; outer
    /// rings accumulate per cell in the stored deterministic order, so
    /// the result is a pure function of the window content.
    #[must_use]
    pub fn inter_hz_window(&self, state_of: &dyn Fn(i32, i32) -> MtjState) -> f64 {
        let mut bits = 0u8;
        // C0..C3 direct, C4..C7 diagonal — CellArray::neighborhood's
        // bit order, so NP8 values match the dense path exactly.
        let ring1: [(i32, i32); 8] = [
            (0, 1),
            (0, -1),
            (1, 0),
            (-1, 0),
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        ];
        for (i, (di, dj)) in ring1.into_iter().enumerate() {
            if state_of(di, dj) == MtjState::AntiParallel {
                bits |= 1 << i;
            }
        }
        let mut total = self.base.inter_hz(NeighborhoodPattern::new(bits));
        for table in &self.rings[1..] {
            for cell in &table.cells {
                total += cell.hz(state_of(cell.di, cell.dj));
            }
        }
        total
    }

    /// Total stray field \[A/m\] — `Hz_s_intra` plus the windowed
    /// inter term.
    #[must_use]
    pub fn total_hz_window(&self, state_of: &dyn Fn(i32, i32) -> MtjState) -> f64 {
        self.base.intra_hz() + self.inter_hz_window(state_of)
    }

    /// `Hz_s_inter` \[A/m\] under uniform data in `state` — the
    /// collapsed interior-cell evaluation: ring 1 via the base kernel
    /// (ALL_P / ALL_AP) plus the precomputed outer-ring aggregates.
    #[must_use]
    pub fn uniform_inter_hz(&self, state: MtjState) -> f64 {
        let np = match state {
            MtjState::Parallel => NeighborhoodPattern::ALL_P,
            MtjState::AntiParallel => NeighborhoodPattern::ALL_AP,
        };
        let mut total = self.base.inter_hz(np);
        for table in &self.rings[1..] {
            total += table.uniform_hz(state);
        }
        total
    }
}

impl Kernel for HierarchicalKernel {
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

/// `c₃ = max |field| · d³` over the cells of `table` — the dipole
/// coefficient that bounds every cell further out.
fn tail_coeff(table: &RingTable, pitch: Nanometer) -> f64 {
    let p = pitch.to_meter().value();
    table
        .cells
        .iter()
        .map(|cell| {
            let d = f64::from(cell.di).hypot(f64::from(cell.dj)) * p;
            (cell.fixed_hz.abs() + cell.fl_p_hz.abs().max(cell.fl_ap_hz.abs())) * d.powi(3)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cell_field_map, CellArray, ExtendedCoupling};
    use mramsim_mtj::presets;

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(55.0)).unwrap()
    }

    #[test]
    fn ring_sizes_and_radius() {
        let kernel = HierarchicalKernel::compute(&device(), Nanometer::new(90.0), 3).unwrap();
        assert_eq!(kernel.radius(), 3);
        assert_eq!(kernel.rings()[0].cells().len(), 8);
        assert_eq!(kernel.rings()[1].cells().len(), 16);
        assert_eq!(kernel.rings()[2].cells().len(), 24);
        assert!(kernel.tail_bound().value() > 0.0);
    }

    #[test]
    fn radius_one_matches_the_dense_path_bit_for_bit() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        let kernel = HierarchicalKernel::compute(&dev, pitch, 1).unwrap();
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
        let kernel = HierarchicalKernel::compute(&device(), Nanometer::new(90.0), 4).unwrap();
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
        let kernel = HierarchicalKernel::compute(&dev, pitch, 3).unwrap();
        let ext = ExtendedCoupling::new(dev, pitch).unwrap();
        for state in [MtjState::Parallel, MtjState::AntiParallel] {
            let truncated =
                Oersted::new(kernel.uniform_inter_hz(state) * OERSTED_PER_AMPERE_PER_METER);
            let full = ext.cumulative_hz(3, state).unwrap();
            assert!(
                (truncated.value() - full.value()).abs() < 0.1,
                "{state}: hierarchical {truncated} vs extended {full}"
            );
        }
    }

    #[test]
    fn tail_bound_covers_the_measured_tail() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        let kernel = HierarchicalKernel::compute(&dev, pitch, 2).unwrap();
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
        let b2 = HierarchicalKernel::compute(&dev, pitch, 2)
            .unwrap()
            .tail_bound()
            .value();
        let b4 = HierarchicalKernel::compute(&dev, pitch, 4)
            .unwrap()
            .tail_bound()
            .value();
        assert!(b4 < b2, "bound must shrink: R=2 {b2} vs R=4 {b4}");
    }

    #[test]
    fn for_tolerance_stops_at_the_requested_accuracy() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        // The bound decays as 1/R (true dipole tail), so useful
        // tolerances are a fraction of the ~80 Oe ring-1 swing.
        let loose = HierarchicalKernel::for_tolerance(&dev, pitch, Oersted::new(80.0), 16).unwrap();
        let tight = HierarchicalKernel::for_tolerance(&dev, pitch, Oersted::new(20.0), 16).unwrap();
        assert!(loose.radius() < tight.radius());
        assert!(loose.tol_met(Oersted::new(80.0)));
        assert!(tight.tol_met(Oersted::new(20.0)));
        // An unreachable tolerance caps out at max_radius, unmet.
        let capped =
            HierarchicalKernel::for_tolerance(&dev, pitch, Oersted::new(1e-12), 3).unwrap();
        assert_eq!(capped.radius(), 3);
        assert!(!capped.tol_met(Oersted::new(1e-12)));
    }

    #[test]
    fn shared_kernels_are_memoised_and_counted() {
        let dev = device();
        let pitch = Nanometer::new(91.0);
        let before = crate::kernel_cache_stats();
        let a = HierarchicalKernel::shared(&dev, pitch, 3).unwrap();
        let b = HierarchicalKernel::shared(&dev, pitch, 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c =
            HierarchicalKernel::shared_for_tolerance(&dev, pitch, Oersted::new(5.0), 8).unwrap();
        let d =
            HierarchicalKernel::shared_for_tolerance(&dev, pitch, Oersted::new(5.0), 8).unwrap();
        assert!(Arc::ptr_eq(&c, &d));
        let after = crate::kernel_cache_stats();
        assert!(after.hits >= before.hits + 2);
        assert!(after.entries > before.entries);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let dev = device();
        let pitch = Nanometer::new(90.0);
        assert!(HierarchicalKernel::compute(&dev, pitch, 0).is_err());
        assert!(HierarchicalKernel::compute(&dev, Nanometer::new(10.0), 2).is_err());
        assert!(HierarchicalKernel::for_tolerance(&dev, pitch, Oersted::new(0.0), 4).is_err());
        assert!(HierarchicalKernel::for_tolerance(&dev, pitch, Oersted::new(f64::NAN), 4).is_err());
        assert!(HierarchicalKernel::for_tolerance(&dev, pitch, Oersted::new(1.0), 0).is_err());
    }
}
