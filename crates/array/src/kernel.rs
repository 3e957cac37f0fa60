//! The stray-field kernel: per-`(device, pitch)` precomputed aggressor
//! fields out to a ring radius, memoised in a bounded process-wide
//! table.
//!
//! Every array-level quantity — the Fig. 4a pattern table, the Ψ-vs-pitch
//! sweeps, the window-class campaigns — needs the same three numbers per
//! aggressor offset: the fixed-layer (RL + HL) `Hz` at the victim FL
//! centre and the FL `Hz` for the P and AP data states. Those numbers
//! cost a full Biot–Savart superposition each (hundreds of segments per
//! loop), but depend only on the device stack, the eCD and the lattice
//! offset. [`StrayFieldKernel`] computes them once and a process-wide
//! [`Memo`](mramsim_numerics::memo::Memo), keyed by the exact canonical
//! fingerprint of the design point, serves every later analyzer, sweep
//! point and campaign shard. It builds each missing kernel once
//! (concurrent requests wait for the one build) and holds at most 1024
//! kernels, least recently used out first.

use crate::hierarchy::{tail_coeff, RingTable};
use crate::{ArrayError, NeighborhoodPattern, PatternClass};
use mramsim_magnetics::FieldSource;
use mramsim_mtj::{MtjDevice, MtjState};
use mramsim_numerics::memo::{Memo, MemoStats};
use mramsim_numerics::Vec3;
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Nanometer, Oersted};
use std::sync::{Arc, LazyLock};

/// The three field contributions of one aggressor, all in A/m at the
/// victim FL centre.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct LatticeField {
    /// Fixed-layer (RL + HL) contribution — data-independent.
    pub(crate) fixed_hz: f64,
    /// FL contribution when the aggressor stores P.
    pub(crate) fl_p_hz: f64,
    /// FL contribution when the aggressor stores AP.
    pub(crate) fl_ap_hz: f64,
}

impl LatticeField {
    /// The contribution under a concrete stored state.
    pub(crate) fn hz(&self, state: MtjState) -> f64 {
        self.fixed_hz
            + match state {
                MtjState::Parallel => self.fl_p_hz,
                MtjState::AntiParallel => self.fl_ap_hz,
            }
    }
}

/// Precomputed stray-field data for one `(device, pitch)` pair: the
/// victim's own intra-cell field, ring 1 as one representative direct
/// and one diagonal aggressor (the other six follow by the
/// square-lattice symmetry), and the outer rings out to
/// [`Self::radius`]: ring `k ≥ 2` keeps the fields at its `k + 1`
/// canonical offsets `(k, b)`, which serve all `8k` of its cells.
/// [`Self::tail_bound`] bounds the field left out beyond the outermost
/// ring, so [`Self::for_tolerance`] can grow rings to an accuracy.
///
/// # Examples
///
/// ```
/// use mramsim_array::StrayFieldKernel;
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(55.0))?;
/// let kernel = StrayFieldKernel::shared(&device, Nanometer::new(90.0))?;
/// // A second request for the same design point is a cache hit
/// // returning the same allocation.
/// let again = StrayFieldKernel::shared(&device, Nanometer::new(90.0))?;
/// assert!(std::sync::Arc::ptr_eq(&kernel, &again));
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrayFieldKernel {
    pitch: Nanometer,
    intra_hz: f64,
    /// Ring 1 at the canonical lattice offsets `(1, 0)` and `(1, 1)`.
    ring1: [LatticeField; 2],
    /// Rings `2..=radius`, innermost first.
    outer: Vec<RingTable>,
    /// Dipole coefficient `c₃` \[A·m²\] of the outermost ring.
    tail_coeff: f64,
}

impl StrayFieldKernel {
    /// Computes the radius-1 kernel directly, bypassing the cache.
    ///
    /// # Errors
    ///
    /// * [`ArrayError::InvalidParameter`] when `pitch < eCD` (cells would
    ///   overlap) or is non-finite.
    /// * [`ArrayError::Device`] if loop construction fails.
    pub fn compute(device: &MtjDevice, pitch: Nanometer) -> Result<Self, ArrayError> {
        Self::for_tolerance(device, pitch, RING_ONE, 1)
    }

    /// The memoised radius-1 kernel for a `(device, pitch)` pair: served
    /// from the process-wide table when present, computed and inserted
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Same contract as [`StrayFieldKernel::compute`].
    pub fn shared(device: &MtjDevice, pitch: Nanometer) -> Result<Arc<Self>, ArrayError> {
        TABLE.get_or_build(fingerprint(device, pitch), || {
            Self::compute(device, pitch).map(Arc::new)
        })
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
        if !pitch.is_finite() || pitch.value() < device.ecd().value() {
            return Err(ArrayError::InvalidParameter {
                name: "pitch",
                message: format!(
                    "pitch {pitch:?} must be at least the device eCD {:?}",
                    device.ecd()
                ),
            });
        }
        // Only actual builds get a span — cache hits never reach here,
        // so traces show real kernel work, not lookups.
        let _span = mramsim_telemetry::span_tree("kernel.build");
        let p = pitch.to_meter().value();
        let ring1 = [
            offset_field_at(device, p, 1, 0)?,
            offset_field_at(device, p, 1, 1)?,
        ];
        let mut kernel = Self {
            pitch,
            intra_hz: device
                .stack()
                .intra_hz_at(device.ecd(), Vec3::ZERO)?
                .value(),
            ring1,
            outer: Vec::new(),
            tail_coeff: tail_coeff(1, &ring1, p),
        };
        while kernel.radius() < max_radius && !kernel.tol_met(tol) {
            let k = kernel.radius() as i32 + 1;
            let canon = (0..=k)
                .map(|b| offset_field_at(device, p, k, b))
                .collect::<Result<Vec<_>, _>>()?;
            kernel.tail_coeff = tail_coeff(k, &canon, p);
            kernel.outer.push(RingTable::new(canon));
        }
        Ok(kernel)
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
        TABLE.get_or_build(fp, || {
            Self::for_tolerance(device, pitch, tol, max_radius).map(Arc::new)
        })
    }

    /// The victim's own intra-cell field `Hz_s_intra` at the FL centre
    /// (A/m).
    #[must_use]
    pub fn intra_hz(&self) -> f64 {
        self.intra_hz
    }

    /// The representative direct and diagonal ring-1 aggressors.
    pub(crate) fn ring_one(&self) -> [LatticeField; 2] {
        self.ring1
    }

    /// Number of rings in the kernel.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.outer.len() + 1
    }

    /// `Hz_s_inter` \[A/m\] for a symmetry class: the fixed-layer
    /// baseline of all 8 aggressors plus the data-dependent FL terms.
    ///
    /// This is the one place the NP8 → field arithmetic lives;
    /// `CouplingAnalyzer` and the window evaluation below both delegate
    /// here, so the analytic and Monte-Carlo paths see bit-identical
    /// stray fields.
    #[must_use]
    pub fn inter_hz_class(&self, class: PatternClass) -> f64 {
        let [direct, diagonal] = &self.ring1;
        let nd = f64::from(class.direct_ones);
        let ng = f64::from(class.diagonal_ones);
        4.0 * (direct.fixed_hz + diagonal.fixed_hz)
            + nd * direct.fl_ap_hz
            + (4.0 - nd) * direct.fl_p_hz
            + ng * diagonal.fl_ap_hz
            + (4.0 - ng) * diagonal.fl_p_hz
    }

    /// `Hz_s_inter` \[A/m\] for a full neighbourhood pattern.
    #[must_use]
    pub fn inter_hz(&self, np: NeighborhoodPattern) -> f64 {
        self.inter_hz_class(np.class())
    }

    /// The total stray field \[A/m\] at a victim's FL centre under one
    /// neighbourhood pattern: `Hz_s_intra + Hz_s_inter(NP8)` — the
    /// Eq. 2 / Eq. 5 input.
    #[must_use]
    pub fn total_hz(&self, np: NeighborhoodPattern) -> f64 {
        self.intra_hz + self.inter_hz(np)
    }

    /// `Hz_s_inter` \[A/m\] for a victim whose neighbourhood out to
    /// [`Self::radius`] is given by `state_of(di, dj)` (lattice
    /// offsets; the caller supplies its out-of-array convention).
    ///
    /// Ring 1 goes through the NP8 arithmetic; outer rings accumulate
    /// per cell in a fixed scan order, so the result is a pure function
    /// of the window content.
    #[must_use]
    pub fn inter_hz_window(&self, state_of: &dyn Fn(i32, i32) -> MtjState) -> f64 {
        let mut total = self.inter_hz(NeighborhoodPattern::from_fn(state_of));
        for ring in &self.outer {
            ring.for_each_cell(|di, dj, field| total += field.hz(state_of(di, dj)));
        }
        total
    }

    /// Total stray field \[A/m\] — `Hz_s_intra` plus the windowed
    /// inter term.
    #[must_use]
    pub fn total_hz_window(&self, state_of: &dyn Fn(i32, i32) -> MtjState) -> f64 {
        self.intra_hz + self.inter_hz_window(state_of)
    }

    /// `Hz_s_inter` \[A/m\] under uniform data in `state` — the
    /// collapsed interior-cell evaluation: ring 1 via the NP8
    /// arithmetic (ALL_P / ALL_AP) plus the outer rings' sums.
    #[must_use]
    pub fn uniform_inter_hz(&self, state: MtjState) -> f64 {
        let np = match state {
            MtjState::Parallel => NeighborhoodPattern::ALL_P,
            MtjState::AntiParallel => NeighborhoodPattern::ALL_AP,
        };
        let mut total = self.inter_hz(np);
        for ring in &self.outer {
            total += ring.uniform.hz(state);
        }
        total
    }

    /// A-priori bound on `|Hz|` omitted beyond [`Self::radius`]:
    /// `8c₃ / (p³·R)` in oersted.
    #[must_use]
    pub fn tail_bound(&self) -> Oersted {
        let p = self.pitch.to_meter().value();
        let r = self.radius() as f64;
        Oersted::new(8.0 * self.tail_coeff / (p.powi(3) * r) * OERSTED_PER_AMPERE_PER_METER)
    }

    /// Whether the truncation tail is within `tol`.
    #[must_use]
    pub fn tol_met(&self, tol: Oersted) -> bool {
        self.tail_bound().value() <= tol.value()
    }
}

/// Any tolerance serves a radius-1 build: `max_radius = 1` stops it.
const RING_ONE: Oersted = Oersted::new(f64::MAX);

/// The three field contributions of the aggressor at lattice offset
/// `(k, b)` on a square lattice of pitch `p` metres — one full
/// Biot–Savart superposition per layer kind. Every ring of the kernel
/// goes through here, so every radius uses the identical arithmetic.
fn offset_field_at(device: &MtjDevice, p: f64, k: i32, b: i32) -> Result<LatticeField, ArrayError> {
    let (x, y) = (f64::from(k) * p, f64::from(b) * p);
    let victim = Vec3::ZERO;
    let ecd = device.ecd();
    let stack = device.stack();
    let fixed_hz: f64 = stack
        .fixed_kinds_at(ecd, x, y)?
        .iter()
        .map(|s| s.hz(victim))
        .sum();
    let fl_p_hz = stack.fl_kind_at(ecd, x, y, MtjState::Parallel)?.hz(victim);
    let fl_ap_hz = stack
        .fl_kind_at(ecd, x, y, MtjState::AntiParallel)?
        .hz(victim);
    Ok(LatticeField {
        fixed_hz,
        fl_p_hz,
        fl_ap_hz,
    })
}

/// Canonical, bit-exact fingerprint of everything the kernel depends on:
/// pitch, eCD, the field-model knobs (segments, backend) and every layer
/// of the stack.
fn fingerprint(device: &MtjDevice, pitch: Nanometer) -> String {
    use std::fmt::Write as _;
    let stack = device.stack();
    let mut fp = String::with_capacity(160);
    let bits = |out: &mut String, x: f64| {
        write!(out, "{:016x};", x.to_bits()).expect("string write");
    };
    fp.push_str("pitch=");
    bits(&mut fp, pitch.value());
    fp.push_str("ecd=");
    bits(&mut fp, device.ecd().value());
    write!(fp, "segments={};", stack.segments()).expect("string write");
    write!(fp, "backend={};", stack.backend().tag()).expect("string write");
    fp.push_str("fl=");
    bits(&mut fp, stack.fl_ms_t().value());
    bits(&mut fp, stack.fl_thickness().value());
    for layer in stack.fixed_layers() {
        write!(fp, "layer={};", layer.name()).expect("string write");
        bits(&mut fp, layer.signed_sheet_current());
        bits(&mut fp, layer.z_center().value());
        bits(&mut fp, layer.thickness().value());
    }
    fp
}

/// Kernels the process-wide table holds at most; a radius-1 kernel is
/// about 100 B.
const TABLE_CAPACITY: usize = 1024;

/// The process-wide kernel table, keyed by the full canonical
/// fingerprint (a tolerance kernel appends its `tol` and `max_radius`).
static TABLE: LazyLock<Memo<String, Arc<StrayFieldKernel>>> =
    LazyLock::new(|| Memo::new(TABLE_CAPACITY));

/// Current counters of the process-wide kernel table.
#[must_use]
pub fn kernel_cache_stats() -> MemoStats {
    TABLE.stats()
}

/// Drops every memoised kernel (counters keep accumulating). Used by
/// cold-cache benchmarks and long-running services that change device
/// populations wholesale.
pub fn clear_kernel_cache() {
    TABLE.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct_neighbor_offsets;
    use mramsim_mtj::presets;

    fn device(ecd: f64) -> MtjDevice {
        presets::imec_like(Nanometer::new(ecd)).unwrap()
    }

    #[test]
    fn kernel_matches_direct_stack_evaluation() {
        let dev = device(55.0);
        let pitch = Nanometer::new(90.0);
        let kernel = StrayFieldKernel::compute(&dev, pitch).unwrap();
        let (dx, dy) = direct_neighbor_offsets(pitch)[0];
        let fixed: f64 = dev
            .stack()
            .fixed_kinds_at(dev.ecd(), dx, dy)
            .unwrap()
            .iter()
            .map(|s| s.hz(Vec3::ZERO))
            .sum();
        assert_eq!(kernel.ring_one()[0].fixed_hz, fixed);
        assert_eq!(
            kernel.intra_hz(),
            dev.stack()
                .intra_hz_at(dev.ecd(), Vec3::ZERO)
                .unwrap()
                .value()
        );
    }

    #[test]
    fn shared_kernel_is_memoised_per_design_point() {
        clear_kernel_cache();
        let dev = device(35.0);
        let before = kernel_cache_stats();
        let a = StrayFieldKernel::shared(&dev, Nanometer::new(75.0)).unwrap();
        let b = StrayFieldKernel::shared(&dev, Nanometer::new(75.0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let after = kernel_cache_stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn distinct_design_points_get_distinct_kernels() {
        let dev = device(35.0);
        let a = StrayFieldKernel::shared(&dev, Nanometer::new(75.0)).unwrap();
        let b = StrayFieldKernel::shared(&dev, Nanometer::new(76.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Different field-model knobs are different cache entries too.
        let coarse = presets::imec_like_with(Nanometer::new(35.0), 64, false).unwrap();
        let exact = presets::imec_like_with(Nanometer::new(35.0), 64, true).unwrap();
        let c = StrayFieldKernel::shared(&coarse, Nanometer::new(75.0)).unwrap();
        let d = StrayFieldKernel::shared(&exact, Nanometer::new(75.0)).unwrap();
        assert!(!Arc::ptr_eq(&c, &d));
        assert!(!Arc::ptr_eq(&a, &c));
        let pitch = Nanometer::new(75.0);
        assert_ne!(fingerprint(&coarse, pitch), fingerprint(&exact, pitch));
        assert_ne!(fingerprint(&dev, pitch), fingerprint(&coarse, pitch));
    }

    #[test]
    fn concurrent_requests_for_a_new_kernel_share_one_build() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dev = device(35.0);
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        let fp = "test=single-flight;";
        let kernels: Vec<Arc<StrayFieldKernel>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        TABLE
                            .get_or_build(fp.to_owned(), || {
                                builds.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                StrayFieldKernel::compute(&dev, Nanometer::new(70.0)).map(Arc::new)
                            })
                            .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(kernels.iter().all(|k| Arc::ptr_eq(k, &kernels[0])));
    }

    #[test]
    fn failed_builds_are_not_stored() {
        let dev = &device(35.0);
        let fp = "test=failed-build;";
        let at = |pitch: f64| {
            TABLE.get_or_build(fp.to_owned(), || {
                StrayFieldKernel::compute(dev, Nanometer::new(pitch)).map(Arc::new)
            })
        };
        // Overlapping cells: the build fails.
        let failed = at(20.0);
        assert!(failed.is_err());
        let retried = at(70.0).unwrap();
        assert_eq!(retried.pitch, Nanometer::new(70.0));
        let again = at(80.0).unwrap();
        assert_eq!(again.pitch, Nanometer::new(70.0));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn radius_one_kernels_do_not_grow() {
        // A service holds one radius-1 kernel per design point it has
        // seen, tens of thousands of them: ring 1 stays inline and the
        // empty outer-ring table allocates nothing.
        assert_eq!(std::mem::size_of::<StrayFieldKernel>(), 96);
        let kernel = StrayFieldKernel::compute(&device(35.0), Nanometer::new(70.0)).unwrap();
        assert_eq!(kernel.outer.capacity(), 0);
    }

    #[test]
    fn overlapping_pitch_is_rejected() {
        let dev = device(55.0);
        assert!(matches!(
            StrayFieldKernel::compute(&dev, Nanometer::new(50.0)),
            Err(ArrayError::InvalidParameter { .. })
        ));
        assert!(StrayFieldKernel::shared(&dev, Nanometer::new(f64::NAN)).is_err());
    }
}
