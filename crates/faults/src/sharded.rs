//! Monte-Carlo write campaigns over window equivalence classes: the
//! time-domain counterpart of [`crate::classify_write_faults`].
//!
//! The analytic classifier asks "does Sun's switching time fit the
//! pulse?" per neighbourhood class. A campaign instead *simulates* the
//! complement write of every cell under the stray field of its actual
//! data window, with s-LLGS trajectory ensembles next to the analytic
//! Butler WER. Three structural facts keep that cheap at any size:
//!
//! 1. **Equivalence classes.** A cell's WER is a pure function of its
//!    stored-state window (stray field) and its ensemble seed. Seeding
//!    each class from its *window content* ([`class_seed`]) makes the
//!    estimate a pure function of the environment too, so an array
//!    holds only a few write problems (an 8×8 checkerboard has 14
//!    distinct 3×3 windows) and a megabit checkerboard's million
//!    interior cells collapse into a handful of ensembles —
//!    `O(radius² + defects)` work, with defect sites and edge bands
//!    explicit.
//! 2. **Row sharding.** [`ShardPlan`] slices the grid into fixed-height
//!    row bands evaluated independently; a shard's peak memory is its
//!    class list, never the grid. Shards are embarrassingly parallel
//!    and — because class results are position-independent — their
//!    reports are bit-identical however the grid is partitioned
//!    (property-tested in `tests/`).
//! 3. **One ensemble per distinct window.** Class ensembles run through
//!    an [`EnsembleMemo`] keyed by their exact inputs, so a window that
//!    recurs in another shard of the same campaign is served, not
//!    rerun, at any worker count: a shard that needs a window another
//!    shard is running joins that batch and helps run it —
//!    bit-identical either way.
//!
//! The stray field comes from the shared [`StrayFieldKernel`], grown
//! ring by ring to the caller's `field_tol` accuracy (up to
//! `max_radius`) and built once per design point for all shards; the
//! report carries the radius actually used and the a-priori tail bound
//! so truncation is never silent. At `max_radius = 1` the kernel is the
//! ring-1 NP8 arithmetic of [`mramsim_array::cell_field_map`] bit for
//! bit, so a whole-array shard at that radius is the paper's 3×3
//! per-cell fault map.

use crate::FaultsError;
use mramsim_array::{
    array_density_bits_per_um2, NeighborhoodPattern, PatternGrid, StrayFieldKernel,
};
use mramsim_dynamics::{CellDrive, EnsembleMemo, EnsemblePlan, MacrospinParams, WerEstimate};
use mramsim_mtj::wer::write_error_rate_saturating;
use mramsim_mtj::{MtjDevice, MtjState, SwitchDirection};
use mramsim_numerics::hash::{fnv1a, Fnv1a};
use mramsim_numerics::pool::WorkerPool;
use mramsim_telemetry as telemetry;
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
use std::collections::BTreeSet;

/// Write conditions, Monte-Carlo budget and stray-field accuracy of one
/// campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayWerConfig {
    /// Write pulse amplitude.
    pub voltage: Volt,
    /// Write pulse width.
    pub pulse: Nanosecond,
    /// Operating temperature.
    pub temperature: Kelvin,
    /// Monte-Carlo replicas per window class.
    pub trajectories: usize,
    /// Campaign base seed (a class runs on [`class_seed`]`(seed,
    /// window)`).
    pub seed: u64,
    /// Integrator time step \[s\].
    pub dt: f64,
    /// Whether the thermal bath acts during the pulse.
    pub thermal: bool,
    /// A class whose Monte-Carlo WER exceeds this budget is a fault.
    pub wer_budget: f64,
    /// Hard cap on the kernel radius (rings).
    pub max_radius: usize,
    /// Requested truncation accuracy: rings grow until the a-priori
    /// tail bound drops below this (or `max_radius` stops them).
    pub field_tol: Oersted,
}

impl Default for ArrayWerConfig {
    fn default() -> Self {
        Self {
            voltage: Volt::new(0.9),
            pulse: Nanosecond::new(10.0),
            temperature: Kelvin::new(300.0),
            trajectories: 256,
            seed: 7,
            dt: 2e-12,
            thermal: true,
            wer_budget: 0.01,
            max_radius: 4,
            // A quarter of the ~80 Oe ring-1 swing at the paper's
            // high-density point — radius 4 at 90 nm pitch.
            field_tol: Oersted::new(25.0),
        }
    }
}

/// The transition a campaign write performs on a cell storing `stored`:
/// always to the complement — the single place the stored-state →
/// direction mapping lives.
fn write_direction(stored: MtjState) -> SwitchDirection {
    match stored {
        MtjState::AntiParallel => SwitchDirection::ApToP,
        MtjState::Parallel => SwitchDirection::PToAp,
    }
}

/// The write-condition checks; the kernel and the ensemble plan check
/// the accuracy knobs and the Monte-Carlo budget.
fn validate_config(config: &ArrayWerConfig) -> Result<(), FaultsError> {
    if !(config.pulse.value() > 0.0) || !config.pulse.value().is_finite() {
        return Err(FaultsError::InvalidParameter {
            name: "pulse",
            message: format!("must be positive and finite, got {:?}", config.pulse),
        });
    }
    if !(config.voltage.value() > 0.0) || !config.voltage.value().is_finite() {
        return Err(FaultsError::InvalidParameter {
            name: "voltage",
            message: format!("must be positive and finite, got {:?}", config.voltage),
        });
    }
    if !(config.wer_budget > 0.0 && config.wer_budget <= 1.0) {
        return Err(FaultsError::InvalidParameter {
            name: "wer_budget",
            message: format!("must be in (0, 1], got {}", config.wer_budget),
        });
    }
    Ok(())
}

/// One calibrated base operating point and drive per transition; classes
/// differ only by the applied stray field.
fn direction_point(
    device: &MtjDevice,
    direction: SwitchDirection,
    config: &ArrayWerConfig,
) -> Result<(MacrospinParams, f64), FaultsError> {
    let base = MacrospinParams::from_device(device, direction, config.temperature)?;
    let drive = device
        .electrical()
        .current(direction.initial_state(), config.voltage, device.area())
        .value();
    Ok((base, drive))
}

/// How a grid's rows are cut into independently evaluated shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    rows: usize,
    shard_rows: usize,
}

impl ShardPlan {
    /// Cuts `rows` into bands of `shard_rows` (the last may be short).
    ///
    /// # Errors
    ///
    /// [`FaultsError::InvalidParameter`] when either count is zero.
    pub fn new(rows: usize, shard_rows: usize) -> Result<Self, FaultsError> {
        if rows == 0 || shard_rows == 0 {
            return Err(FaultsError::InvalidParameter {
                name: "shard_rows",
                message: format!("rows ({rows}) and shard_rows ({shard_rows}) must be positive"),
            });
        }
        Ok(Self { rows, shard_rows })
    }

    /// Total grid rows covered.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per shard.
    #[must_use]
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.rows.div_ceil(self.shard_rows)
    }

    /// The `[row_lo, row_hi)` band of shard `shard`.
    ///
    /// # Errors
    ///
    /// [`FaultsError::InvalidParameter`] for a shard index out of range.
    pub fn range(&self, shard: usize) -> Result<(usize, usize), FaultsError> {
        if shard >= self.n_shards() {
            return Err(FaultsError::InvalidParameter {
                name: "shard",
                message: format!("shard {shard} out of range (plan has {})", self.n_shards()),
            });
        }
        let lo = shard * self.shard_rows;
        Ok((lo, (lo + self.shard_rows).min(self.rows)))
    }
}

/// Where a campaign's class ensembles run: lane blocks fan out on
/// `pool`, and inputs already run are served from `memo`.
#[derive(Debug, Clone, Copy)]
pub struct Ensembles<'a> {
    /// The pool the ensembles' lane blocks fan out on.
    pub pool: &'a WorkerPool,
    /// The memo that serves repeated class inputs.
    pub memo: &'a EnsembleMemo,
}

/// The deterministic ensemble seed of an equivalence class: an FNV-1a
/// mix of the base seed with the class's *window content*. Identical
/// environments get identical seeds — and therefore bit-identical
/// estimates — in every shard, order, and grid size; the domain tag
/// keeps class streams off the per-cell [`mramsim_dynamics::cell_seed`]
/// streams.
#[must_use]
pub fn class_seed(seed: u64, window: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.field(b"campaign-class");
    h.field(&seed.to_le_bytes());
    h.update(window);
    h.finish()
}

/// The Monte-Carlo write result of one equivalence class, standing for
/// its `count` member cells at once.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseClassWer {
    /// FNV-1a digest of the window content — the class's stable
    /// identity across shards, partitions, and grid sizes (two
    /// mirror-symmetric windows can share `np` *and* field, but never
    /// a key).
    pub window_key: u64,
    /// The first member in row-major order.
    pub representative: (usize, usize),
    /// Cells sharing this window within the shard.
    pub count: usize,
    /// The state stored in the class's cells.
    pub stored: MtjState,
    /// The simulated transition (complement write).
    pub direction: SwitchDirection,
    /// The ring-1 neighbourhood pattern of the window.
    pub np: NeighborhoodPattern,
    /// Total stray field at the FL (intra + inter to the kernel
    /// radius).
    pub hz_stray: Oersted,
    /// Drive current through the cells \[µA\].
    pub drive_ua: f64,
    /// The class's field-shifted critical current \[µA\].
    pub ic_ua: f64,
    /// The Monte-Carlo estimate (shared by all `count` cells).
    pub mc: WerEstimate,
    /// The analytic (Butler, saturating) WER at the same point.
    pub analytic: f64,
    /// Whether the class breaks the WER budget.
    pub faulty: bool,
}

/// The outcome of one shard of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWerReport {
    /// The shard index within the plan.
    pub shard: usize,
    /// First row of the band (inclusive).
    pub row_lo: usize,
    /// End row of the band (exclusive).
    pub row_hi: usize,
    /// Full grid rows.
    pub rows: usize,
    /// Full grid columns.
    pub cols: usize,
    /// Array pitch.
    pub pitch: Nanometer,
    /// The density this pitch realises \[bits/µm²\].
    pub density_bits_per_um2: f64,
    /// The WER budget classes were judged against.
    pub wer_budget: f64,
    /// Kernel radius actually used (rings).
    pub radius: usize,
    /// A-priori bound on the stray field ignored beyond `radius`.
    pub tail_bound: Oersted,
    /// Whether the bound met the requested `field_tol`.
    pub tol_met: bool,
    /// Per-class results, ordered by window content (deterministic
    /// across shard partitions and worker counts).
    pub classes: Vec<SparseClassWer>,
}

impl ShardWerReport {
    /// Cells covered by the shard.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Cells over the WER budget.
    #[must_use]
    pub fn faulty_cells(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.faulty)
            .map(|c| c.count)
            .sum()
    }

    /// The worst class Monte-Carlo WER.
    #[must_use]
    pub fn worst_wer(&self) -> f64 {
        self.classes.iter().map(|c| c.mc.wer).fold(0.0, f64::max)
    }

    /// The worst class analytic WER.
    #[must_use]
    pub fn worst_analytic(&self) -> f64 {
        self.classes.iter().map(|c| c.analytic).fold(0.0, f64::max)
    }

    /// The count-weighted mean per-cell Monte-Carlo WER.
    #[must_use]
    pub fn mean_wer(&self) -> f64 {
        let cells = self.cells().max(1) as f64;
        self.classes
            .iter()
            .map(|c| c.mc.wer * c.count as f64)
            .sum::<f64>()
            / cells
    }

    /// Distinct `(direction, NP8 class)` pairs holding a faulty cell —
    /// the campaign's count of the analytic classifier's
    /// [`crate::WriteFault`] records.
    #[must_use]
    pub fn faulty_classes(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.faulty)
            .map(|c| {
                (
                    u8::from(c.direction == SwitchDirection::PToAp),
                    c.np.class(),
                )
            })
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Runs one shard of a write campaign: extracts the band's
/// window equivalence classes, evaluates one field + one Monte-Carlo
/// ensemble per class (served from `ensembles.memo` when the same
/// inputs already ran), and reports per-class results standing for
/// every member cell.
///
/// # Errors
///
/// * [`FaultsError::InvalidParameter`] for invalid write conditions,
///   accuracy knobs, or a shard index / plan inconsistent with `grid`.
/// * Propagated device / array / dynamics failures, among them a pulse
///   longer than [`EnsemblePlan::MAX_STEPS`] steps, refused before any
///   kernel or ensemble runs.
///
/// # Examples
///
/// ```
/// use mramsim_array::{DataPattern, PatternGrid};
/// use mramsim_dynamics::EnsembleMemo;
/// use mramsim_faults::{shard_wer_campaign, ArrayWerConfig, Ensembles, ShardPlan};
/// use mramsim_mtj::presets;
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let grid = PatternGrid::new(256, 256, DataPattern::Checkerboard)?;
/// let plan = ShardPlan::new(256, 64)?;
/// let config = ArrayWerConfig {
///     trajectories: 24,
///     ..ArrayWerConfig::default()
/// };
/// let (pool, memo) = (WorkerPool::new(2), EnsembleMemo::new());
/// let ensembles = Ensembles { pool: &pool, memo: &memo };
/// let report = shard_wer_campaign(
///     &device, Nanometer::new(70.0), &grid, &plan, 1, &config, ensembles)?;
/// // 64 rows × 256 cols, but only a handful of window classes.
/// assert_eq!(report.cells(), 64 * 256);
/// assert!(report.classes.len() < 40);
/// // The next interior shard holds the same windows: all served.
/// let next = shard_wer_campaign(
///     &device, Nanometer::new(70.0), &grid, &plan, 2, &config, ensembles)?;
/// assert_eq!(memo.stats().hits, next.classes.len() as u64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn shard_wer_campaign(
    device: &MtjDevice,
    pitch: Nanometer,
    grid: &PatternGrid,
    plan: &ShardPlan,
    shard: usize,
    config: &ArrayWerConfig,
    ensembles: Ensembles<'_>,
) -> Result<ShardWerReport, FaultsError> {
    validate_config(config)?;
    let ensemble = EnsemblePlan::new(config.trajectories, config.seed, config.dt)?
        .with_thermal(config.thermal);
    ensemble.checked_steps_for(config.pulse.to_second().value())?;
    if plan.rows() != grid.rows() {
        return Err(FaultsError::InvalidParameter {
            name: "shard_rows",
            message: format!(
                "shard plan covers {} rows but the grid has {}",
                plan.rows(),
                grid.rows()
            ),
        });
    }
    let (row_lo, row_hi) = plan.range(shard)?;

    // The shard span covers kernel build, class extraction, and the
    // whole Monte-Carlo campaign; it nests under the dispatching job
    // span when the shard runs inside a sweep.
    let mut shard_span = None;
    if telemetry::enabled() {
        shard_span = Some(telemetry::span_tree_with(
            "campaign.shard",
            &[
                ("shard", telemetry::Value::U64(shard as u64)),
                ("row_lo", telemetry::Value::U64(row_lo as u64)),
                ("row_hi", telemetry::Value::U64(row_hi as u64)),
            ],
        ));
    }
    let _shard_span = shard_span;

    let kernel =
        StrayFieldKernel::shared_for_tolerance(device, pitch, config.field_tol, config.max_radius)?;
    let classes = grid.shard_classes(row_lo, row_hi, kernel.radius())?;

    let (base_ap2p, drive_ap2p) = direction_point(device, SwitchDirection::ApToP, config)?;
    let (base_p2ap, drive_p2ap) = direction_point(device, SwitchDirection::PToAp, config)?;

    let mut drives = Vec::with_capacity(classes.len());
    let mut seeds = Vec::with_capacity(classes.len());
    let mut fields = Vec::with_capacity(classes.len());
    for class in &classes {
        let hz_apm = kernel.total_hz_window(&|di, dj| class.state_at(di, dj));
        let hz = Oersted::new(hz_apm * OERSTED_PER_AMPERE_PER_METER);
        let (base, drive) = match write_direction(class.stored()) {
            SwitchDirection::ApToP => (&base_ap2p, drive_ap2p),
            SwitchDirection::PToAp => (&base_p2ap, drive_p2ap),
        };
        drives.push(CellDrive {
            params: base.clone().with_applied_hz(hz),
            current: drive,
        });
        seeds.push(class_seed(config.seed, &class.window));
        fields.push(hz);
    }

    let estimates = ensembles.memo.wer_campaign_seeded(
        &drives,
        &seeds,
        config.pulse.to_second().value(),
        &ensemble,
        ensembles.pool,
    );

    let mut rows_out = Vec::with_capacity(classes.len());
    for (((class, drive), hz), &(mc, _)) in classes.iter().zip(&drives).zip(&fields).zip(&estimates)
    {
        let direction = write_direction(class.stored());
        let analytic = write_error_rate_saturating(
            device,
            direction,
            config.voltage,
            *hz,
            config.temperature,
            config.pulse,
        )?;
        rows_out.push(SparseClassWer {
            window_key: fnv1a(&class.window),
            representative: class.representative,
            count: class.count,
            stored: class.stored(),
            direction,
            np: class.np(),
            hz_stray: *hz,
            drive_ua: 1e6 * drive.current,
            ic_ua: 1e6 * drive.params.critical_current(),
            mc,
            analytic,
            faulty: mc.wer > config.wer_budget,
        });
    }

    let report = ShardWerReport {
        shard,
        row_lo,
        row_hi,
        rows: grid.rows(),
        cols: grid.cols(),
        pitch,
        density_bits_per_um2: array_density_bits_per_um2(pitch),
        wer_budget: config.wer_budget,
        radius: kernel.radius(),
        tail_bound: kernel.tail_bound(),
        tol_met: kernel.tol_met(config.field_tol),
        classes: rows_out,
    };
    if telemetry::enabled() {
        telemetry::counter_add("campaign.shards", 1);
        telemetry::counter_add("campaign.cells", report.cells() as u64);
        telemetry::counter_add("campaign.classes", report.classes.len() as u64);
        let served = estimates.iter().filter(|&&(_, ran)| !ran).count();
        telemetry::counter_add("campaign.memo_hits", served as u64);
        telemetry::gauge_set(
            "campaign.memo_entries",
            ensembles.memo.stats().entries as f64,
        );
        telemetry::gauge_set("kernel.radius", report.radius as f64);
        telemetry::gauge_set("kernel.tail_bound_oe", report.tail_bound.value());
        // Per-class estimator health, keyed by the content-derived
        // window key so the same environment is comparable across
        // shards, grids, and runs; `ran` tells a computed ensemble from
        // a memo hit.
        for (class, &(_, ran)) in report.classes.iter().zip(&estimates) {
            class.mc.emit_health(
                "class_wer",
                &[
                    (
                        "window_key",
                        telemetry::Value::Text(format!("{:016x}", class.window_key)),
                    ),
                    ("cells", telemetry::Value::U64(class.count as u64)),
                    ("shard", telemetry::Value::U64(shard as u64)),
                    ("ran", telemetry::Value::Bool(ran)),
                ],
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_array::{cell_field_map, DataPattern};
    use mramsim_dynamics::wer_campaign;
    use mramsim_mtj::presets;
    use std::collections::BTreeMap;

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    fn config(trajectories: usize) -> ArrayWerConfig {
        ArrayWerConfig {
            voltage: Volt::new(0.95),
            pulse: Nanosecond::new(8.0),
            trajectories,
            max_radius: 2,
            field_tol: Oersted::new(60.0),
            ..ArrayWerConfig::default()
        }
    }

    fn board(n: usize) -> PatternGrid {
        PatternGrid::new(n, n, DataPattern::Checkerboard).unwrap()
    }

    /// One shard on a memo of its own, so every class ensemble runs.
    fn fresh_shard(
        device: &MtjDevice,
        pitch: Nanometer,
        grid: &PatternGrid,
        plan: &ShardPlan,
        shard: usize,
        config: &ArrayWerConfig,
        pool: &WorkerPool,
    ) -> Result<ShardWerReport, FaultsError> {
        let memo = EnsembleMemo::new();
        let ensembles = Ensembles { pool, memo: &memo };
        shard_wer_campaign(device, pitch, grid, plan, shard, config, ensembles)
    }

    /// The `array-wer` set-up: one whole-array shard at kernel radius 1.
    fn whole_array(
        grid: &PatternGrid,
        pitch: f64,
        (voltage, pulse, trajectories): (f64, f64, usize),
        pool: &WorkerPool,
    ) -> ShardWerReport {
        let config = ArrayWerConfig {
            voltage: Volt::new(voltage),
            pulse: Nanosecond::new(pulse),
            trajectories,
            max_radius: 1,
            ..ArrayWerConfig::default()
        };
        let plan = ShardPlan::new(grid.rows(), grid.rows()).unwrap();
        let pitch = Nanometer::new(pitch);
        fresh_shard(&device(), pitch, grid, &plan, 0, &config, pool).unwrap()
    }

    #[test]
    fn shard_plan_partitions_rows() {
        let plan = ShardPlan::new(100, 32).unwrap();
        assert_eq!(plan.n_shards(), 4);
        assert_eq!(plan.range(0).unwrap(), (0, 32));
        assert_eq!(plan.range(3).unwrap(), (96, 100));
        assert!(plan.range(4).is_err());
        assert!(ShardPlan::new(0, 32).is_err());
        assert!(ShardPlan::new(100, 0).is_err());
    }

    #[test]
    fn shard_reports_cover_the_band_sparsely() {
        let dev = device();
        let grid = PatternGrid::new(128, 96, DataPattern::Checkerboard).unwrap();
        let plan = ShardPlan::new(128, 48).unwrap();
        let report = fresh_shard(
            &dev,
            Nanometer::new(70.0),
            &grid,
            &plan,
            1,
            &config(24),
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!((report.row_lo, report.row_hi), (48, 96));
        assert_eq!(report.cells(), 48 * 96);
        // Sparse: orders of magnitude fewer ensembles than cells.
        assert!(report.classes.len() < 40, "{}", report.classes.len());
        assert!(report.radius >= 1 && report.tail_bound.value() > 0.0);
        assert!(report.worst_wer() >= report.mean_wer());
    }

    #[test]
    fn class_results_are_partition_invariant() {
        // The same window class must carry the identical estimate
        // whether the grid is cut into 2 shards or evaluated whole —
        // the resume-safety invariant.
        let dev = device();
        let grid = PatternGrid::new(64, 48, DataPattern::Checkerboard).unwrap();
        let cfg = config(24);
        let pitch = Nanometer::new(70.0);
        let whole = fresh_shard(
            &dev,
            pitch,
            &grid,
            &ShardPlan::new(64, 64).unwrap(),
            0,
            &cfg,
            &WorkerPool::new(2),
        )
        .unwrap();
        let plan = ShardPlan::new(64, 32).unwrap();
        for shard in 0..2 {
            let part =
                fresh_shard(&dev, pitch, &grid, &plan, shard, &cfg, &WorkerPool::new(5)).unwrap();
            for class in &part.classes {
                let full = whole
                    .classes
                    .iter()
                    .find(|c| c.window_key == class.window_key)
                    .expect("every shard window exists in the whole-grid extraction");
                assert_eq!(
                    full.mc, class.mc,
                    "shard {shard} at {:?}",
                    class.representative
                );
                assert_eq!(full.hz_stray, class.hz_stray);
            }
        }
        let cells: usize = (0..2)
            .map(|s| {
                fresh_shard(&dev, pitch, &grid, &plan, s, &cfg, &WorkerPool::new(1))
                    .unwrap()
                    .cells()
            })
            .sum();
        assert_eq!(cells, whole.cells());
    }

    #[test]
    fn a_shared_memo_runs_each_window_once_and_changes_no_result() {
        // Shard by shard through one memo, a campaign is bit-identical
        // to fresh-memo runs at 1 and 4 workers; at 1 worker it runs
        // exactly one ensemble per distinct window.
        let dev = device();
        let grid = board(256);
        let plan = ShardPlan::new(256, 64).unwrap();
        let cfg = ArrayWerConfig {
            pulse: Nanosecond::new(2.0),
            ..config(8)
        };
        let pitch = Nanometer::new(70.0);
        let (one, four) = (WorkerPool::new(1), WorkerPool::new(4));
        let memo = EnsembleMemo::new();
        let ensembles = Ensembles {
            pool: &one,
            memo: &memo,
        };
        let (mut rows, mut windows) = (0, BTreeSet::new());
        for shard in 0..plan.n_shards() {
            let shared =
                shard_wer_campaign(&dev, pitch, &grid, &plan, shard, &cfg, ensembles).unwrap();
            for pool in [&one, &four] {
                let fresh = fresh_shard(&dev, pitch, &grid, &plan, shard, &cfg, pool).unwrap();
                assert_eq!(shared, fresh, "shard {shard}");
            }
            rows += shared.classes.len();
            windows.extend(shared.classes.iter().map(|c| c.window_key));
        }
        let stats = memo.stats();
        assert_eq!(stats.misses, windows.len() as u64);
        assert_eq!(stats.hits, (rows - windows.len()) as u64);
        assert!(stats.hits > 0, "interior shards repeat their windows");
    }

    #[test]
    fn concurrent_shards_run_each_window_once_through_one_memo() {
        // 2, 3 and 4 threads leave a barrier together and each runs
        // every shard, from its own starting shard, through one memo:
        // every distinct window runs once, whoever asks first, and every
        // report equals a fresh-memo run.
        let dev = device();
        let grid = board(256);
        let plan = ShardPlan::new(256, 64).unwrap();
        let cfg = ArrayWerConfig {
            pulse: Nanosecond::new(2.0),
            ..config(8)
        };
        let pitch = Nanometer::new(70.0);
        let one = WorkerPool::new(1);
        let shards = plan.n_shards();
        let fresh: Vec<ShardWerReport> = (0..shards)
            .map(|s| fresh_shard(&dev, pitch, &grid, &plan, s, &cfg, &one).unwrap())
            .collect();
        let windows: BTreeSet<u64> = fresh
            .iter()
            .flat_map(|r| r.classes.iter().map(|c| c.window_key))
            .collect();
        let rows: usize = fresh.iter().map(|r| r.classes.len()).sum();
        for threads in [2, 3, 4] {
            let memo = EnsembleMemo::new();
            let ensembles = Ensembles {
                pool: &one,
                memo: &memo,
            };
            let start = std::sync::Barrier::new(threads);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (dev, grid, plan, fresh, start) = (&dev, &grid, &plan, &fresh, &start);
                    scope.spawn(move || {
                        start.wait();
                        for s in (0..shards).map(|k| (k + t) % shards) {
                            let report =
                                shard_wer_campaign(dev, pitch, grid, plan, s, &cfg, ensembles)
                                    .unwrap();
                            assert_eq!(report, fresh[s], "{threads} threads, shard {s}");
                        }
                    });
                }
            });
            let stats = memo.stats();
            assert_eq!(stats.misses, windows.len() as u64, "{threads} threads");
            assert_eq!(stats.hits, (threads * rows - windows.len()) as u64);
        }
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let run =
            |workers| whole_array(&board(4), 70.0, (0.95, 8.0, 48), &WorkerPool::new(workers));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn healthy_corner_is_fault_free_and_aggressive_corner_is_not() {
        let pool = WorkerPool::new(4);
        let healthy = whole_array(&board(4), 70.0, (1.0, 20.0, 32), &pool);
        assert_eq!((healthy.faulty_cells(), healthy.faulty_classes()), (0, 0));
        // Sub-critical drive: every transition write fails — a finding,
        // not a panic (the analytic path saturates at WER = 1 too).
        let broken = whole_array(&board(4), 70.0, (0.3, 20.0, 16), &pool);
        assert!(broken.faulty_cells() > 0);
        let ap2p = broken
            .classes
            .iter()
            .filter(|c| c.direction == SwitchDirection::ApToP);
        for class in ap2p {
            assert_eq!(class.analytic, 1.0, "sub-critical analytic WER saturates");
            assert_eq!(class.mc.wer, 1.0, "sub-critical MC WER saturates");
        }
    }

    #[test]
    fn denser_arrays_have_no_better_worst_case() {
        let pool = WorkerPool::new(4);
        let sparse = whole_array(&board(4), 105.0, (0.9, 8.0, 32), &pool);
        let dense = whole_array(&board(4), 52.5, (0.9, 8.0, 32), &pool);
        assert!(dense.density_bits_per_um2 > sparse.density_bits_per_um2);
        // The paper's density claim, time-domain edition: tighter pitch
        // must not improve the analytic worst case.
        assert!(dense.worst_analytic() >= sparse.worst_analytic());
    }

    #[test]
    fn single_cell_and_report_bookkeeping() {
        let grid = PatternGrid::new(1, 1, DataPattern::Zeros).unwrap();
        let report = whole_array(&grid, 70.0, (1.0, 20.0, 16), &WorkerPool::new(2));
        assert_eq!((report.rows, report.cols, report.cells()), (1, 1, 1));
        assert_eq!((report.row_lo, report.row_hi, report.radius), (0, 1, 1));
        assert_eq!(report.classes.len(), 1);
        let class = &report.classes[0];
        assert_eq!((class.representative, class.count), ((0, 0), 1));
        assert_eq!(class.direction, SwitchDirection::PToAp);
        assert!(report.worst_wer() >= report.mean_wer());
    }

    #[test]
    fn class_report_covers_every_cell_once() {
        // Sub-critical: every class is faulty, so `faulty_classes` must
        // count the distinct (direction, NP8 class) pairs of the dense
        // per-cell map.
        let report = whole_array(&board(4), 70.0, (0.3, 10.0, 16), &WorkerPool::new(2));
        assert_eq!((report.cells(), report.faulty_cells()), (16, 16));
        let data = DataPattern::Checkerboard.build(4, 4).unwrap();
        let pairs: BTreeSet<_> = cell_field_map(&device(), Nanometer::new(70.0), &data)
            .unwrap()
            .iter()
            .map(|f| (f.state == MtjState::AntiParallel, f.np.class()))
            .collect();
        assert_eq!(report.faulty_classes(), pairs.len());
        assert!(report.faulty_classes() < report.classes.len());
    }

    #[test]
    fn class_estimates_match_independent_per_cell_ensembles() {
        // Statistical equivalence of the class path with the dense one
        // it replaced: each class's estimate against independent
        // per-cell ensembles of its member cells (two-proportion z,
        // pooled SE), the member fields bit-identical to the dense map.
        let (n, pitch, write) = (6, 60.0, (0.9, 4.0, 128));
        let pool = WorkerPool::new(4);
        let report = whole_array(&board(n), pitch, write, &pool);
        let (dev, cfg) = (device(), ArrayWerConfig::default());
        let data = DataPattern::Checkerboard.build(n, n).unwrap();
        let fields = cell_field_map(&dev, Nanometer::new(pitch), &data).unwrap();
        let drives: Vec<CellDrive> = fields
            .iter()
            .map(|f| {
                let direction = write_direction(f.state);
                let cfg = ArrayWerConfig {
                    voltage: Volt::new(write.0),
                    ..cfg
                };
                let (base, current) = direction_point(&dev, direction, &cfg).unwrap();
                CellDrive {
                    params: base.with_applied_hz(f.hz_oe()),
                    current,
                }
            })
            .collect();
        let plan = EnsemblePlan::new(write.2, cfg.seed, cfg.dt).unwrap();
        let cells = wer_campaign(&drives, write.1 * 1e-9, &plan, &pool);

        // Pooled (trajectories, failures) of each class's member cells.
        let mut members: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for ((field, drive), estimate) in fields.iter().zip(&drives).zip(&cells) {
            let key = fnv1a(&board(n).pack_window(field.row, field.col, 1));
            let class = report.classes.iter().find(|c| c.window_key == key).unwrap();
            assert_eq!(
                class.hz_stray.value().to_bits(),
                field.hz_oe().value().to_bits()
            );
            assert_eq!(class.ic_ua, 1e6 * drive.params.critical_current());
            let entry = members.entry(key).or_default();
            entry.0 += estimate.trajectories as f64;
            entry.1 += estimate.failures as f64;
        }
        assert_eq!(members.len(), report.classes.len());
        let mut informative = 0;
        for class in &report.classes {
            let (n2, x2) = members[&class.window_key];
            let (n1, x1) = (class.mc.trajectories as f64, class.mc.failures as f64);
            let pooled = (x1 + x2) / (n1 + n2);
            let se = (pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)).sqrt();
            let z = if se > 0.0 {
                (x1 / n1 - x2 / n2) / se
            } else {
                0.0
            };
            assert!(
                z.abs() <= 4.0,
                "class at {:?}: WER {} vs members {} (z = {z:.2})",
                class.representative,
                class.mc.wer,
                x2 / n2
            );
            informative += usize::from(class.mc.wer > 0.05 && class.mc.wer < 0.95);
        }
        assert!(
            informative >= 5,
            "only {informative} classes in (0.05, 0.95)"
        );
    }

    #[test]
    fn defects_surface_as_explicit_classes() {
        let dev = device();
        let grid = PatternGrid::new(32, 32, DataPattern::Zeros)
            .unwrap()
            .with_defects(vec![mramsim_array::Defect {
                row: 16,
                col: 16,
                state: MtjState::AntiParallel,
            }])
            .unwrap();
        let plan = ShardPlan::new(32, 32).unwrap();
        let report = fresh_shard(
            &dev,
            Nanometer::new(70.0),
            &grid,
            &plan,
            0,
            &config(16),
            &WorkerPool::new(2),
        )
        .unwrap();
        let stuck = report
            .classes
            .iter()
            .find(|c| c.representative == (16, 16))
            .expect("defect class present");
        assert_eq!(stuck.count, 1);
        assert_eq!(stuck.stored, MtjState::AntiParallel);
        assert_eq!(stuck.direction, SwitchDirection::ApToP);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let dev = device();
        let grid = PatternGrid::new(16, 16, DataPattern::Zeros).unwrap();
        let pool = WorkerPool::new(1);
        let plan = ShardPlan::new(16, 8).unwrap();
        let run = |plan: &ShardPlan, cfg: &ArrayWerConfig| {
            fresh_shard(&dev, Nanometer::new(70.0), &grid, plan, 0, cfg, &pool)
        };
        // Plan/grid mismatch.
        assert!(run(&ShardPlan::new(32, 8).unwrap(), &config(8)).is_err());
        // Bad accuracy knobs and write conditions surface as errors.
        for bad in [
            ArrayWerConfig {
                field_tol: Oersted::new(0.0),
                ..config(8)
            },
            ArrayWerConfig {
                max_radius: 0,
                ..config(8)
            },
            ArrayWerConfig {
                voltage: Volt::new(0.0),
                ..config(8)
            },
        ] {
            assert!(run(&plan, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let grid = board(2);
        let plan = ShardPlan::new(2, 2).unwrap();
        let pool = WorkerPool::new(1);
        let cfg = |voltage: f64, pulse: f64, trajectories: usize| ArrayWerConfig {
            voltage: Volt::new(voltage),
            pulse: Nanosecond::new(pulse),
            trajectories,
            max_radius: 1,
            ..ArrayWerConfig::default()
        };
        // Bad write conditions, a zero WER budget and zero trajectories
        // (the EnsemblePlan error) on the whole-array set-up all surface
        // as errors, not panics.
        for bad in [
            cfg(0.0, 10.0, 8),
            cfg(1.0, 0.0, 8),
            cfg(1.0, f64::NAN, 8),
            ArrayWerConfig {
                wer_budget: 0.0,
                ..cfg(1.0, 10.0, 8)
            },
            cfg(1.0, 10.0, 0),
        ] {
            let run = fresh_shard(
                &device(),
                Nanometer::new(70.0),
                &grid,
                &plan,
                0,
                &bad,
                &pool,
            );
            assert!(run.is_err(), "{bad:?}");
        }
    }

    #[test]
    fn class_seeds_depend_on_window_content_only() {
        assert_eq!(class_seed(7, &[1, 2, 3]), class_seed(7, &[1, 2, 3]));
        assert_ne!(class_seed(7, &[1, 2, 3]), class_seed(7, &[1, 2, 4]));
        assert_ne!(class_seed(7, &[1, 2, 3]), class_seed(8, &[1, 2, 3]));
        // Off the per-cell stream domain.
        assert_ne!(
            class_seed(7, &0u64.to_le_bytes()),
            mramsim_dynamics::cell_seed(7, 0)
        );
    }
}
