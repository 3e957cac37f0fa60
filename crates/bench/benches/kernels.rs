//! Microbenchmarks of the numerical kernels underneath the figures.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mramsim_array::{clear_kernel_cache, CouplingAnalyzer, NeighborhoodPattern};
use mramsim_bench::{design_point_device, eval_device};
use mramsim_magnetics::field_map::PlaneMap;
use mramsim_magnetics::{AnalyticLoop, FieldSource, LoopSource, SourceSet};
use mramsim_mtj::SwitchDirection;
use mramsim_numerics::{special, Vec3};
use mramsim_units::{Kelvin, Nanometer, Oersted, Volt};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

/// A faithful replica of the seed-repo `LoopSource`: the vertex list is
/// stored (with its duplicated closing vertex) and `dl`/midpoint are
/// recomputed from it for every evaluated point. This is the "pre-PR
/// scalar path" baseline the batched kernels are measured against.
struct PrePrLoop {
    vertices: Vec<Vec3>,
    current: f64,
}

impl PrePrLoop {
    fn new(center: Vec3, radius: f64, current: f64, segments: usize) -> Self {
        let vertices = (0..=segments)
            .map(|k| {
                let theta = 2.0 * core::f64::consts::PI * k as f64 / segments as f64;
                center + Vec3::new(radius * theta.cos(), radius * theta.sin(), 0.0)
            })
            .collect();
        Self { vertices, current }
    }
}

impl FieldSource for PrePrLoop {
    fn h_field(&self, p: Vec3) -> Vec3 {
        let mut h = Vec3::ZERO;
        for w in self.vertices.windows(2) {
            let dl = w[1] - w[0];
            let mid = w[0].lerp(w[1], 0.5);
            let r = p - mid;
            let r2 = r.norm_squared();
            if r2 < 1e-300 {
                continue;
            }
            let r3 = r2 * r2.sqrt();
            h += dl.cross(r) / r3;
        }
        h * (self.current / (4.0 * core::f64::consts::PI))
    }
}

fn bench_biot_savart(c: &mut Criterion) {
    let mut group = c.benchmark_group("biot_savart");
    for segments in [64usize, 256, 1024] {
        let l = LoopSource::new(Vec3::ZERO, 27.5e-9, 2.06e-3, segments).unwrap();
        let p = Vec3::new(9e-8, 0.0, 3e-9);
        group.bench_function(format!("segments_{segments}"), |b| {
            b.iter(|| black_box(l.h_field(black_box(p))))
        });
    }
    group.finish();
}

fn bench_analytic_loop(c: &mut Criterion) {
    let l = AnalyticLoop::new(Vec3::ZERO, 27.5e-9, 2.06e-3).unwrap();
    let p = Vec3::new(9e-8, 0.0, 3e-9);
    c.bench_function("analytic_loop_field", |b| {
        b.iter(|| black_box(l.h_field(black_box(p))))
    });
}

fn bench_elliptic(c: &mut Criterion) {
    c.bench_function("elliptic_ke", |b| {
        b.iter(|| special::ellip_ke(black_box(0.7)).unwrap())
    });
}

/// The `kernels` group of the PR-2 performance work: scalar vs batched
/// loop evaluation, the (batched + pooled) plane map against the old
/// per-point scalar path, and warm- vs cold-cache analyzer builds.
fn bench_batched_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    // Scalar vs batched single-loop evaluation over a point cloud.
    let l = LoopSource::new(Vec3::ZERO, 27.5e-9, 2.06e-3, 256).unwrap();
    let points: Vec<Vec3> = (0..256)
        .map(|i| {
            let t = f64::from(i);
            Vec3::new(1.2e-7 * (0.13 * t).cos(), 1.2e-7 * (0.29 * t).sin(), 3e-9)
        })
        .collect();
    group.bench_function("loop_eval_scalar_256pts", |b| {
        b.iter(|| {
            let mut acc = Vec3::ZERO;
            for p in &points {
                acc += l.h_field(*p);
            }
            black_box(acc)
        })
    });
    let mut out = vec![Vec3::ZERO; points.len()];
    group.bench_function("loop_eval_batched_256pts", |b| {
        b.iter(|| {
            l.h_field_many(&points, &mut out);
            black_box(out[0])
        })
    });

    // Plane map: a faithful replica of the pre-PR scalar path (boxed
    // trait objects, per-point Biot–Savart with dl/midpoint recomputed
    // from the vertex list at every evaluation — exactly the seed
    // implementation) against the batched + row-chunk-parallel
    // PlaneMap::sample.
    let device = design_point_device();
    let stack = device.stack();
    let radius = 55e-9 / 2.0;
    let pre_pr: Vec<Box<dyn FieldSource + Send + Sync>> = stack
        .fixed_layers()
        .iter()
        .map(|layer| {
            Box::new(PrePrLoop::new(
                Vec3::new(0.0, 0.0, layer.z_center().to_meter().value()),
                radius,
                layer.signed_sheet_current(),
                256,
            )) as Box<dyn FieldSource + Send + Sync>
        })
        .collect();
    let sources: SourceSet = stack
        .fixed_kinds_at(Nanometer::new(55.0), 0.0, 0.0)
        .unwrap()
        .into_iter()
        .collect();
    let grid = 48usize;
    let half = 1.6 * 55e-9;
    group.bench_function("plane_map_prepr_scalar_48x48", |b| {
        b.iter(|| {
            let step = 2.0 * half / (grid - 1) as f64;
            let mut acc = Vec3::ZERO;
            for j in 0..grid {
                for i in 0..grid {
                    let p = Vec3::new(-half + step * i as f64, -half + step * j as f64, 0.0);
                    acc += pre_pr.iter().map(|s| s.h_field(p)).sum::<Vec3>();
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("plane_map_batched_48x48", |b| {
        b.iter(|| {
            let map =
                PlaneMap::sample(&sources, (-half, half), (-half, half), 0.0, grid, grid).unwrap();
            black_box(map.hz_range())
        })
    });

    // Analyzer builds: cold pays the full Biot–Savart kernel, warm is a
    // lookup in the process-wide content-addressed kernel cache.
    let device = design_point_device();
    group.bench_function("coupling_analyzer_cold", |b| {
        b.iter(|| {
            clear_kernel_cache();
            CouplingAnalyzer::new(device.clone(), Nanometer::new(90.0)).unwrap()
        })
    });
    let _prime = CouplingAnalyzer::new(device.clone(), Nanometer::new(90.0)).unwrap();
    group.bench_function("coupling_analyzer_warm", |b| {
        b.iter(|| CouplingAnalyzer::new(device.clone(), Nanometer::new(90.0)).unwrap())
    });
    group.finish();
}

fn bench_coupling_analyzer(c: &mut Criterion) {
    let device = design_point_device();
    c.bench_function("coupling_analyzer_build", |b| {
        b.iter(|| {
            clear_kernel_cache();
            CouplingAnalyzer::new(device.clone(), Nanometer::new(90.0)).unwrap()
        })
    });

    let analyzer = CouplingAnalyzer::new(device, Nanometer::new(90.0)).unwrap();
    c.bench_function("pattern_sweep_256", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for np in NeighborhoodPattern::all() {
                acc += analyzer.inter_hz(np).unwrap().value();
            }
            black_box(acc)
        })
    });
}

fn bench_switching_models(c: &mut Criterion) {
    let device = eval_device();
    let t = Kelvin::new(300.0);
    c.bench_function("eq2_critical_current", |b| {
        b.iter(|| {
            device.switching().critical_current(
                SwitchDirection::ApToP,
                black_box(Oersted::new(-366.0)),
                t,
            )
        })
    });
    c.bench_function("sun_switching_time", |b| {
        b.iter(|| {
            device
                .switching_time(
                    SwitchDirection::ApToP,
                    black_box(Volt::new(0.9)),
                    black_box(Oersted::new(-366.0)),
                    t,
                )
                .unwrap()
        })
    });
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_biot_savart, bench_analytic_loop, bench_elliptic,
              bench_batched_kernels, bench_coupling_analyzer,
              bench_switching_models
}
criterion_main!(kernels);
