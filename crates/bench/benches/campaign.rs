//! Benchmarks of the array write-campaign subsystem: the kernel-to-cell
//! field adapter (pure cached-pattern arithmetic), the per-cell
//! Monte-Carlo WER campaign (per-cell-sequential vs block-flattened),
//! the `array-wer` fault map (one whole-array shard at kernel radius 1),
//! and the `campaign_megabit` group — the class-collapsed sharded path
//! against a dense per-cell reference at megabit scale. Timed shard runs
//! take a fresh ensemble memo per iteration, so they measure one
//! shard's whole work.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mramsim_array::{cell_field_map, CellArray, DataPattern, PatternGrid, StrayFieldKernel};
use mramsim_dynamics::{
    cell_seed, wer_campaign, wer_monte_carlo, CellDrive, EnsembleMemo, EnsemblePlan,
    MacrospinParams, WerEstimate,
};
use mramsim_faults::{shard_wer_campaign, ArrayWerConfig, Ensembles, ShardPlan, ShardWerReport};
use mramsim_mtj::{presets, MtjDevice, MtjState, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Volt};
use std::time::{Duration, Instant};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500))
}

fn device() -> MtjDevice {
    presets::imec_like(Nanometer::new(35.0)).unwrap()
}

/// One shard on a fresh memo, so every class ensemble runs.
fn fresh_shard(
    dev: &MtjDevice,
    grid: &PatternGrid,
    plan: &ShardPlan,
    shard: usize,
    cfg: &ArrayWerConfig,
    pool: &WorkerPool,
) -> ShardWerReport {
    let memo = EnsembleMemo::new();
    let ensembles = Ensembles { pool, memo: &memo };
    shard_wer_campaign(dev, Nanometer::new(70.0), grid, plan, shard, cfg, ensembles).unwrap()
}

/// The adapter alone: deriving 256 per-cell stray fields from the
/// warmed kernel cache is pattern arithmetic, no Biot–Savart at all.
fn bench_cell_field_map(c: &mut Criterion) {
    let dev = device();
    let pitch = Nanometer::new(70.0);
    let data = CellArray::checkerboard(16, 16).unwrap();
    // Warm the process-wide kernel cache once.
    let _ = StrayFieldKernel::shared(&dev, pitch).unwrap();
    c.bench_function("cell_field_map_16x16_warm_kernel", |b| {
        b.iter(|| black_box(cell_field_map(&dev, pitch, &data).unwrap()))
    });
}

/// Per-cell-sequential ensembles vs the flattened campaign on the same
/// seeds: the flattening removes the per-cell fan-out barrier, so the
/// pool drains one item list instead of N small ones.
fn bench_campaign_vs_sequential(c: &mut Criterion) {
    let dev = device();
    let base =
        MacrospinParams::from_device(&dev, SwitchDirection::ApToP, Kelvin::new(300.0)).unwrap();
    let fields = cell_field_map(
        &dev,
        Nanometer::new(70.0),
        &CellArray::checkerboard(4, 4).unwrap(),
    )
    .unwrap();
    let drive = 3.0 * base.critical_current();
    let cells: Vec<CellDrive> = fields
        .iter()
        .map(|f| CellDrive {
            params: base.clone().with_applied_hz(f.hz_oe()),
            current: drive,
        })
        .collect();
    let plan = EnsemblePlan::new(64, 7, 2e-12).unwrap();
    let pulse = 2e-9;
    let pool = WorkerPool::with_default_parallelism();
    let mut group = c.benchmark_group("wer_campaign_16cells_64traj");
    group.bench_function("per_cell_sequential", |b| {
        b.iter(|| {
            let wers: Vec<_> = cells
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    let cell_plan = EnsemblePlan {
                        seed: cell_seed(plan.seed, i as u64),
                        ..plan
                    };
                    wer_monte_carlo(&cell.params, cell.current, pulse, &cell_plan, &pool)
                })
                .collect();
            black_box(wers)
        })
    });
    group.bench_function("flattened_campaign", |b| {
        b.iter(|| black_box(wer_campaign(&cells, pulse, &plan, &pool)))
    });
    group.finish();
}

/// The full fault-map pipeline the `array-wer` scenario runs: one
/// whole-array shard at kernel radius 1.
fn bench_full_array_wer(c: &mut Criterion) {
    let dev = device();
    let grid = PatternGrid::new(4, 4, DataPattern::Checkerboard).unwrap();
    let plan = ShardPlan::new(4, 4).unwrap();
    let cfg = ArrayWerConfig {
        voltage: Volt::new(0.9),
        pulse: Nanosecond::new(4.0),
        trajectories: 32,
        max_radius: 1,
        ..ArrayWerConfig::default()
    };
    let pool = WorkerPool::with_default_parallelism();
    c.bench_function("array_wer_campaign_4x4_32traj", |b| {
        b.iter(|| black_box(fresh_shard(&dev, &grid, &plan, 0, &cfg, &pool)))
    });
}

/// The shared Monte-Carlo point for the megabit comparison: a short
/// pulse and a small ensemble keep single iterations benchable while
/// exercising exactly the production code paths.
fn megabit_config() -> ArrayWerConfig {
    ArrayWerConfig {
        voltage: Volt::new(0.9),
        pulse: Nanosecond::new(2.0),
        trajectories: 8,
        ..ArrayWerConfig::default()
    }
}

/// The dense per-cell reference: one drive and one ensemble per cell
/// of `data` under its NP8 stray field, on per-cell seed streams.
fn dense_campaign(
    dev: &MtjDevice,
    pitch: Nanometer,
    data: &CellArray,
    cfg: &ArrayWerConfig,
    pool: &WorkerPool,
) -> Vec<WerEstimate> {
    // One calibrated base point and drive per write direction: AP→P
    // for the AP cells, P→AP for the P cells.
    let points = [SwitchDirection::ApToP, SwitchDirection::PToAp].map(|direction| {
        let base = MacrospinParams::from_device(dev, direction, cfg.temperature).unwrap();
        let initial = direction.initial_state();
        let current = dev.electrical().current(initial, cfg.voltage, dev.area());
        CellDrive {
            params: base,
            current: current.value(),
        }
    });
    let fields = cell_field_map(dev, pitch, data).unwrap();
    let drives: Vec<CellDrive> = fields
        .iter()
        .map(|f| {
            let base = &points[usize::from(f.state == MtjState::Parallel)];
            CellDrive {
                params: base.params.clone().with_applied_hz(f.hz_oe()),
                current: base.current,
            }
        })
        .collect();
    let plan = EnsemblePlan::new(cfg.trajectories, cfg.seed, cfg.dt)
        .unwrap()
        .with_thermal(cfg.thermal);
    wer_campaign(&drives, cfg.pulse.to_second().value(), &plan, pool)
}

/// VmHWM from /proc — the peak-RSS proxy quoted next to cells/s.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// The dense per-cell reference at a size it can still afford: 32×32,
/// one drive and one ensemble per cell. Its cells/s extrapolates
/// linearly — the megabit comparison baseline.
fn bench_megabit_dense_reference(c: &mut Criterion) {
    let dev = device();
    let data = CellArray::checkerboard(32, 32).unwrap();
    let cfg = megabit_config();
    let pool = WorkerPool::with_default_parallelism();
    c.bench_function("campaign_megabit/dense_reference_32x32", |b| {
        b.iter(|| {
            black_box(dense_campaign(
                &dev,
                Nanometer::new(70.0),
                &data,
                &cfg,
                &pool,
            ))
        })
    });
}

/// Window-class extraction over the full megabit grid: the structural
/// fast path that collapses a million interior cells into a few dozen
/// equivalence classes, no physics at all.
fn bench_megabit_class_extraction(c: &mut Criterion) {
    let grid = PatternGrid::new(1024, 1024, DataPattern::Checkerboard).unwrap();
    c.bench_function("campaign_megabit/class_extraction_1024x1024_r4", |b| {
        b.iter(|| {
            let mut classes = 0;
            for shard in 0..16 {
                classes += grid
                    .shard_classes(shard * 64, (shard + 1) * 64, 4)
                    .unwrap()
                    .len();
            }
            black_box(classes)
        })
    });
}

/// One interior 64-row shard of the megabit checkerboard through the
/// sparse hierarchical pipeline — the unit of work `mramsim campaign`
/// journals and resumes.
fn bench_megabit_sparse_shard(c: &mut Criterion) {
    let dev = device();
    let grid = PatternGrid::new(1024, 1024, DataPattern::Checkerboard).unwrap();
    let plan = ShardPlan::new(1024, 64).unwrap();
    let cfg = megabit_config();
    let pool = WorkerPool::with_default_parallelism();
    c.bench_function("campaign_megabit/sparse_shard_64x1024", |b| {
        b.iter(|| black_box(fresh_shard(&dev, &grid, &plan, 8, &cfg, &pool)))
    });
}

/// The acceptance-criteria measurement, printed once per bench run: a
/// full 1024×1024 checkerboard campaign through every shard, on one
/// memo as one engine runs it, vs the dense path's extrapolated
/// throughput, with the peak-RSS proxy and the ensembles that ran.
fn report_megabit_speedup(_c: &mut Criterion) {
    let dev = device();
    let pool = WorkerPool::with_default_parallelism();
    let pitch = Nanometer::new(70.0);

    let data = CellArray::checkerboard(32, 32).unwrap();
    let cfg = megabit_config();
    let t0 = Instant::now();
    let dense = dense_campaign(&dev, pitch, &data, &cfg, &pool);
    let dense_rate = dense.len() as f64 / t0.elapsed().as_secs_f64();

    let grid = PatternGrid::new(1024, 1024, DataPattern::Checkerboard).unwrap();
    let plan = ShardPlan::new(1024, 64).unwrap();
    let memo = EnsembleMemo::new();
    let ensembles = Ensembles {
        pool: &pool,
        memo: &memo,
    };
    let t1 = Instant::now();
    let (mut cells, mut classes) = (0usize, 0usize);
    for shard in 0..plan.n_shards() {
        let report = shard_wer_campaign(&dev, pitch, &grid, &plan, shard, &cfg, ensembles).unwrap();
        cells += report.cells();
        classes += report.classes.len();
    }
    let sparse_rate = cells as f64 / t1.elapsed().as_secs_f64();
    println!(
        "campaign_megabit: dense {dense_rate:.0} cells/s ({} cells), \
         sparse {sparse_rate:.0} cells/s ({cells} cells via {classes} class ensembles, \
         {:.0}x dense), peak RSS {} MB, {} ensembles run",
        dense.len(),
        sparse_rate / dense_rate,
        peak_rss_mb().map_or_else(|| "?".to_owned(), |mb| mb.to_string()),
        memo.stats().misses,
    );
}

criterion_group! {
    name = campaign;
    config = config();
    targets = bench_cell_field_map, bench_campaign_vs_sequential, bench_full_array_wer,
        bench_megabit_dense_reference, bench_megabit_class_extraction,
        bench_megabit_sparse_shard, report_megabit_speedup
}
criterion_main!(campaign);
