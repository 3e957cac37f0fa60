//! Benchmarks of the s-LLGS dynamics subsystem: scalar vs lane-blocked
//! stepping and single-core vs pooled ensembles.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mramsim_dynamics::{run_ensemble, run_replica, EnsemblePlan, MacrospinParams};
use mramsim_mtj::{presets, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200))
}

fn operating_point() -> (MacrospinParams, f64) {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let params =
        MacrospinParams::from_device(&device, SwitchDirection::PToAp, Kelvin::new(300.0)).unwrap();
    let drive = 4.0 * params.critical_current();
    (params, drive)
}

/// 256 replicas × 1 ns at 2 ps steps: the scalar reference path one
/// replica at a time vs the 16-lane SoA block stepper (both on one
/// worker, so the delta is pure stepping-kernel shape).
fn bench_scalar_vs_lane_blocked(c: &mut Criterion) {
    let (params, drive) = operating_point();
    let plan = EnsemblePlan::new(256, 7, 2e-12).unwrap();
    let duration = 1e-9;
    let mut group = c.benchmark_group("llgs_step_256x500");
    group.bench_function("scalar_reference", |b| {
        b.iter(|| {
            let mut switched = 0usize;
            for i in 0..plan.trajectories as u64 {
                let out = run_replica(&params, drive, duration, &plan, i);
                switched += usize::from(out.switched);
            }
            black_box(switched)
        })
    });
    group.bench_function("lane_blocked_1_worker", |b| {
        let pool = WorkerPool::new(1);
        b.iter(|| black_box(run_ensemble(&params, drive, duration, &plan, &pool)))
    });
    group.finish();
}

/// The same ensemble fanned out in lane blocks across the pool.
fn bench_pooled_ensembles(c: &mut Criterion) {
    let (params, drive) = operating_point();
    let plan = EnsemblePlan::new(1024, 7, 2e-12).unwrap();
    let duration = 1e-9;
    let mut group = c.benchmark_group("llgs_ensemble_1024x500");
    let mut widths = vec![1usize, WorkerPool::with_default_parallelism().workers()];
    widths.dedup();
    for workers in widths {
        let pool = WorkerPool::new(workers);
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| black_box(run_ensemble(&params, drive, duration, &plan, &pool)))
        });
    }
    group.finish();
}

/// The thermal-field-free (deterministic) stepper, isolating the cost
/// of the thermal-field draws. CI gates the thermal/deterministic ratio
/// of this group's `min` times.
fn bench_thermal_vs_deterministic(c: &mut Criterion) {
    let (params, drive) = operating_point();
    let duration = 1e-9;
    let pool = WorkerPool::new(1);
    let mut group = c.benchmark_group("llgs_noise_cost_256x500");
    for thermal in [true, false] {
        let plan = EnsemblePlan::new(256, 7, 2e-12)
            .unwrap()
            .with_thermal(thermal);
        group.bench_function(if thermal { "thermal" } else { "deterministic" }, |b| {
            b.iter(|| black_box(run_ensemble(&params, drive, duration, &plan, &pool)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_scalar_vs_lane_blocked, bench_pooled_ensembles, bench_thermal_vs_deterministic
}
criterion_main!(benches);
