//! The shared stray-field kernel: per-`(device, pitch)` precomputed
//! aggressor fields, memoised in a content-addressed cache.
//!
//! Every array-level quantity — the Fig. 4a pattern table, the Ψ-vs-pitch
//! sweeps, the coupling-aware fault simulator — needs the same three
//! numbers per aggressor offset: the fixed-layer (RL + HL) `Hz` at the
//! victim FL centre and the FL `Hz` for the P and AP data states. Those
//! numbers cost a full Biot–Savart superposition each (hundreds of
//! segments per loop), but depend only on the device stack, the eCD and
//! the relative offset. [`StrayFieldKernel`] computes them once and a
//! process-wide table keyed by an FNV-1a content address (the same
//! hashing approach as the engine's result cache) serves every later
//! analyzer, simulator, and sweep point for free. The same table holds
//! the [`HierarchicalKernel`](crate::HierarchicalKernel)s, and builds
//! each missing kernel once: concurrent requests for it wait for the
//! one build instead of repeating it.

use crate::{diagonal_neighbor_offsets, direct_neighbor_offsets, ArrayError};
use mramsim_magnetics::FieldSource;
use mramsim_mtj::{MtjDevice, MtjState};
use mramsim_numerics::hash::fnv1a;
use mramsim_numerics::Vec3;
use mramsim_units::Nanometer;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The three per-offset field contributions of one aggressor cell, all
/// in A/m at the victim FL centre.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetField {
    /// Relative aggressor offset `(x, y)` in metres.
    pub offset: (f64, f64),
    /// Fixed-layer (RL + HL) contribution — data-independent.
    pub fixed_hz: f64,
    /// FL contribution when the aggressor stores P.
    pub fl_p_hz: f64,
    /// FL contribution when the aggressor stores AP.
    pub fl_ap_hz: f64,
}

/// Hit/miss counters of the process-wide kernel cache (ring-1 and
/// hierarchical kernels alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCacheStats {
    /// Kernels served from the cache.
    pub hits: u64,
    /// Kernels that had to be computed.
    pub misses: u64,
    /// Kernels currently stored.
    pub entries: usize,
}

/// Precomputed stray-field data for one `(device, pitch)` pair: the
/// victim's own intra-cell field plus one [`OffsetField`] per
/// representative ring-1 offset (one direct, one diagonal — the other
/// six follow by the square-lattice symmetry).
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
    fingerprint: String,
    intra_hz: f64,
    direct: OffsetField,
    diagonal: OffsetField,
}

impl StrayFieldKernel {
    /// Computes the kernel directly, bypassing the cache.
    ///
    /// # Errors
    ///
    /// * [`ArrayError::InvalidParameter`] when `pitch < eCD` (cells would
    ///   overlap) or is non-finite.
    /// * [`ArrayError::Device`] if loop construction fails.
    pub fn compute(device: &MtjDevice, pitch: Nanometer) -> Result<Self, ArrayError> {
        Self::compute_with_fingerprint(device, pitch, fingerprint(device, pitch))
    }

    fn compute_with_fingerprint(
        device: &MtjDevice,
        pitch: Nanometer,
        fingerprint: String,
    ) -> Result<Self, ArrayError> {
        if !pitch.is_finite() || pitch.value() < device.ecd().value() {
            return Err(ArrayError::InvalidParameter {
                name: "pitch",
                message: format!(
                    "pitch {pitch:?} must be at least the device eCD {:?}",
                    device.ecd()
                ),
            });
        }
        // Only actual builds get a span — cache hits in `shared` never
        // reach here, so traces show real kernel work, not lookups.
        let _span = mramsim_telemetry::span_tree("kernel.build");
        let (dx, dy) = direct_neighbor_offsets(pitch)[0];
        let (gx, gy) = diagonal_neighbor_offsets(pitch)[0];
        Ok(Self {
            fingerprint,
            intra_hz: device
                .stack()
                .intra_hz_at(device.ecd(), Vec3::ZERO)?
                .value(),
            direct: offset_field_at(device, dx, dy)?,
            diagonal: offset_field_at(device, gx, gy)?,
        })
    }

    /// The memoised kernel for a `(device, pitch)` pair: served from the
    /// process-wide content-addressed table when present, computed and
    /// inserted otherwise.
    ///
    /// # Errors
    ///
    /// Same contract as [`StrayFieldKernel::compute`].
    pub fn shared(device: &MtjDevice, pitch: Nanometer) -> Result<Arc<Self>, ArrayError> {
        let fp = fingerprint(device, pitch);
        shared_kernel(&fp, || {
            Self::compute_with_fingerprint(device, pitch, fp.clone())
        })
    }

    /// The canonical fingerprint the cache keys on.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The victim's own intra-cell field `Hz_s_intra` at the FL centre
    /// (A/m).
    #[must_use]
    pub fn intra_hz(&self) -> f64 {
        self.intra_hz
    }

    /// The representative *direct* aggressor contribution.
    #[must_use]
    pub fn direct(&self) -> OffsetField {
        self.direct
    }

    /// The representative *diagonal* aggressor contribution.
    #[must_use]
    pub fn diagonal(&self) -> OffsetField {
        self.diagonal
    }

    /// `Hz_s_inter` \[A/m\] for a symmetry class: the fixed-layer
    /// baseline of all 8 aggressors plus the data-dependent FL terms.
    ///
    /// This is the one place the NP8 → field arithmetic lives;
    /// `CouplingAnalyzer` and the dynamics' kernel-pattern applied
    /// fields both delegate here, so the analytic and Monte-Carlo
    /// paths see bit-identical stray fields.
    #[must_use]
    pub fn inter_hz_class(&self, class: crate::PatternClass) -> f64 {
        let nd = f64::from(class.direct_ones);
        let ng = f64::from(class.diagonal_ones);
        4.0 * (self.direct.fixed_hz + self.diagonal.fixed_hz)
            + nd * self.direct.fl_ap_hz
            + (4.0 - nd) * self.direct.fl_p_hz
            + ng * self.diagonal.fl_ap_hz
            + (4.0 - ng) * self.diagonal.fl_p_hz
    }

    /// `Hz_s_inter` \[A/m\] for a full neighbourhood pattern.
    #[must_use]
    pub fn inter_hz(&self, np: crate::NeighborhoodPattern) -> f64 {
        self.inter_hz_class(np.class())
    }

    /// The total stray field \[A/m\] at a victim's FL centre under one
    /// neighbourhood pattern: `Hz_s_intra + Hz_s_inter(NP8)` — the
    /// Eq. 2 / Eq. 5 input.
    #[must_use]
    pub fn total_hz(&self, np: crate::NeighborhoodPattern) -> f64 {
        self.intra_hz + self.inter_hz(np)
    }
}

/// The three field contributions of one aggressor at relative offset
/// `(x, y)` metres — one full Biot–Savart superposition per layer kind.
/// Shared by the ring-1 kernel above and the hierarchical outer-ring
/// tables, so every radius uses the identical arithmetic.
pub(crate) fn offset_field_at(
    device: &MtjDevice,
    x: f64,
    y: f64,
) -> Result<OffsetField, ArrayError> {
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
    Ok(OffsetField {
        offset: (x, y),
        fixed_hz,
        fl_p_hz,
        fl_ap_hz,
    })
}

/// Canonical, bit-exact fingerprint of everything the kernel depends on:
/// pitch, eCD, the field-model knobs (segments, backend) and every layer
/// of the stack.
pub(crate) fn fingerprint(device: &MtjDevice, pitch: Nanometer) -> String {
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

/// The process-wide kernel table: built kernels of every kind under an
/// FNV-1a digest of their canonical fingerprint, plus the keys being
/// built right now.
struct KernelTable {
    state: Mutex<TableState>,
    /// Signalled whenever a build ends, built or failed.
    build_ended: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct TableState {
    built: HashMap<u64, Arc<dyn Kernel>>,
    building: HashSet<u64>,
}

/// What the kernel table holds: a kernel that carries the full
/// fingerprint it was built for, the table's collision guard.
pub(crate) trait Kernel: Any + Send + Sync {
    /// The exact fingerprint the kernel is stored under.
    fn fingerprint(&self) -> &str;
}

impl Kernel for StrayFieldKernel {
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

impl KernelTable {
    /// Locks the state, recovering from poisoning: no kernel code runs
    /// under the lock, so the maps are always whole.
    fn lock(&self) -> MutexGuard<'_, TableState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Clears a key's in-flight mark when its build ends, by success,
/// error or panic, and wakes the requests waiting on it.
struct Flight<'a> {
    table: &'a KernelTable,
    key: u64,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.table.lock().building.remove(&self.key);
        self.table.build_ended.notify_all();
    }
}

fn table() -> &'static KernelTable {
    static TABLE: OnceLock<KernelTable> = OnceLock::new();
    TABLE.get_or_init(|| KernelTable {
        state: Mutex::new(TableState::default()),
        build_ended: Condvar::new(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// The shared kernel for fingerprint `fp`, built by `build` (whose
/// kernel must carry `fp`) when the table lacks it. While one request
/// builds a key, the others for that key wait and are then served its
/// kernel; a failed build is not stored, so the next request tries
/// again.
pub(crate) fn shared_kernel<T: Kernel>(
    fp: &str,
    build: impl FnOnce() -> Result<T, ArrayError>,
) -> Result<Arc<T>, ArrayError> {
    let table = table();
    let key = fnv1a(fp.as_bytes());
    let mut state = table.lock();
    loop {
        // Guard against an FNV collision: a hit must carry the exact
        // fingerprint, not just the same 64-bit digest.
        if let Some(kernel) = state.built.get(&key) {
            if kernel.fingerprint() == fp {
                let kernel: Arc<dyn Any + Send + Sync> = kernel.clone();
                if let Ok(kernel) = kernel.downcast::<T>() {
                    table.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(kernel);
                }
            }
        }
        if !state.building.contains(&key) {
            break;
        }
        state = table
            .build_ended
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    state.building.insert(key);
    drop(state);
    table.misses.fetch_add(1, Ordering::Relaxed);
    let flight = Flight { table, key };
    let kernel = Arc::new(build()?);
    debug_assert_eq!(kernel.fingerprint(), fp);
    table.lock().built.insert(key, Arc::clone(&kernel) as _);
    drop(flight);
    Ok(kernel)
}

/// Current counters of the process-wide kernel table — ring-1 and
/// hierarchical kernels reported as one pool (both are
/// `(device, pitch)`-keyed field precomputations).
#[must_use]
pub fn kernel_cache_stats() -> KernelCacheStats {
    let table = table();
    KernelCacheStats {
        hits: table.hits.load(Ordering::Relaxed),
        misses: table.misses.load(Ordering::Relaxed),
        entries: table.lock().built.len(),
    }
}

/// Drops every memoised kernel — ring-1 and hierarchical (counters keep
/// accumulating). Used by cold-cache benchmarks and long-running
/// services that change device populations wholesale.
pub fn clear_kernel_cache() {
    table().lock().built.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(kernel.direct().fixed_hz, fixed);
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
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Different field-model knobs are different cache entries too.
        let coarse = presets::imec_like_with(Nanometer::new(35.0), 64, false).unwrap();
        let exact = presets::imec_like_with(Nanometer::new(35.0), 64, true).unwrap();
        let c = StrayFieldKernel::shared(&coarse, Nanometer::new(75.0)).unwrap();
        let d = StrayFieldKernel::shared(&exact, Nanometer::new(75.0)).unwrap();
        assert_ne!(c.fingerprint(), d.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// A stand-in kernel: its fingerprint and a value.
    #[derive(Debug, PartialEq)]
    struct Probe(&'static str, u64);

    impl Kernel for Probe {
        fn fingerprint(&self) -> &str {
            self.0
        }
    }

    #[test]
    fn concurrent_requests_for_a_new_kernel_share_one_build() {
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        let fp = "test=single-flight;";
        let kernels: Vec<Arc<Probe>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        shared_kernel(fp, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(Probe(fp, 42))
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
        let fp = "test=failed-build;";
        let failed = shared_kernel::<Probe>(fp, || {
            Err(ArrayError::InvalidParameter {
                name: "test",
                message: "refused".to_owned(),
            })
        });
        assert!(failed.is_err());
        let retried = shared_kernel(fp, || Ok(Probe(fp, 7))).unwrap();
        assert_eq!(retried.1, 7);
        assert_eq!(shared_kernel(fp, || Ok(Probe(fp, 8))).unwrap().1, 7);
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
