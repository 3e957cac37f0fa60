//! Layer probes for the traced run: each times one public function of
//! one layer on the workload's own inputs, inside a span.

use crate::host;
use crate::report::median;
use crate::trace::Tracer;
use mramsim_array::StrayFieldKernel;
use mramsim_dynamics::{run_ensemble, EnsemblePlan, MacrospinParams, LANES};
use mramsim_engine::{DiskStore, ScenarioOutput, SweepJournal, SweepPlan};
use mramsim_mtj::SwitchDirection;
use mramsim_numerics::dist::standard_normal_pair;
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds per `dist::standard_normal_pair` in a tight loop.
pub fn normal_pair_ns(tr: &Tracer, parent: Option<usize>, seed: u64) -> f64 {
    const PAIRS: usize = 1 << 22;
    tr.scope("numerics.normal_pair", parent, |_| {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..PAIRS {
            let (a, b) = standard_normal_pair(&mut rng);
            acc += a + b;
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e9 / PAIRS as f64
    })
}

/// Padded lanes × steps of one ensemble: the work the solver does.
pub fn lane_steps(trajectories: usize, steps: usize) -> f64 {
    (trajectories.div_ceil(LANES) * LANES * steps) as f64
}

/// Median ms of cold `StrayFieldKernel::compute` at each pitch.
pub fn stray_kernel_build_ms(
    tr: &Tracer,
    parent: Option<usize>,
    ecd: f64,
    pitches: &[f64],
) -> Result<f64, String> {
    let device = crate::checks::device(ecd)?;
    let mut ms = Vec::new();
    for &pitch in pitches {
        let start = Instant::now();
        tr.scope("array.kernel_build", parent, |_| {
            StrayFieldKernel::compute(&device, Nanometer::new(pitch))
        })
        .map_err(|e| e.to_string())?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// Median µs of `DiskStore::save` and `DiskStore::load` over the
/// workload's own outputs, in a fresh store under `dir`.
pub fn disk_us(
    tr: &Tracer,
    parent: Option<usize>,
    dir: &Path,
    outputs: &[(u64, &ScenarioOutput)],
) -> Result<(f64, f64), String> {
    let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
    let mut save = Vec::new();
    for (key, output) in outputs {
        let start = Instant::now();
        tr.scope("engine.disk_save", parent, |_| store.save(*key, output));
        save.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut load = Vec::new();
    for (key, output) in outputs {
        let start = Instant::now();
        let loaded = tr.scope("engine.disk_load", parent, |_| store.load(*key));
        load.push(start.elapsed().as_secs_f64() * 1e6);
        if loaded.as_ref() != Some(*output) {
            return Err(format!("disk probe: key {key:016x} did not round-trip"));
        }
    }
    Ok((median(&save), median(&load)))
}

/// Median µs of `SweepJournal::create` (run lock included) and of
/// `SweepJournal::record`, on the workload's own plans.
pub fn journal_us(
    tr: &Tracer,
    parent: Option<usize>,
    dir: &Path,
    plans: &[SweepPlan],
) -> Result<(f64, f64), String> {
    let (mut create, mut record) = (Vec::new(), Vec::new());
    for plan in plans {
        let path = SweepJournal::path_for(dir, &SweepJournal::run_id(plan));
        let start = Instant::now();
        let journal = tr
            .scope("engine.journal_create", parent, |_| {
                SweepJournal::create(path, plan)
            })
            .map_err(|e| e.to_string())?;
        create.push(start.elapsed().as_secs_f64() * 1e6);
        for index in 0..plan.len() {
            let start = Instant::now();
            tr.scope("engine.journal_record", parent, |_| {
                journal.record(index, index as u64);
            });
            record.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((median(&create), median(&record)))
}

/// Dynamics timing of one ensemble: wall ms, CPU ns per lane-step.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleTiming {
    /// Wall time of the ensemble call, ms.
    pub wall_ms: f64,
    /// Process CPU over the call ÷ lane-steps, ns.
    pub ns_per_lane_step: f64,
}

/// Times `f` (an ensemble doing `lane_steps` of work) by wall and CPU.
pub fn time_ensemble<R>(lane_steps: f64, f: impl FnOnce() -> R) -> (R, EnsembleTiming) {
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let out = f();
    let timing = EnsembleTiming {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        ns_per_lane_step: (host::cpu_seconds() - cpu) * 1e9 / lane_steps,
    };
    (out, timing)
}

/// The reference ensemble for workloads that run no dynamics of their
/// own: `wer-mc`'s validated point (Δ≈60 at 253 K, 5×Ic, 1.3 ns at
/// 1 ps, 1024 trajectories). Returns (thermal, deterministic) timings.
pub fn reference_ensemble(
    tr: &Tracer,
    parent: Option<usize>,
    seed: u64,
) -> Result<(EnsembleTiming, EnsembleTiming), String> {
    let device = crate::checks::device(35.0)?;
    let params = MacrospinParams::from_device(&device, SwitchDirection::PToAp, Kelvin::new(253.0))
        .map_err(|e| e.to_string())?;
    let current = 5.0 * params.critical_current();
    let pool = WorkerPool::new(host::bench_workers());
    let mut timings = Vec::new();
    for thermal in [true, false] {
        let plan = EnsemblePlan::new(1024, seed, 1e-12)
            .map_err(|e| e.to_string())?
            .with_thermal(thermal);
        let work = lane_steps(plan.trajectories, plan.steps_for(1.3e-9));
        let name = if thermal {
            "dynamics.ensemble"
        } else {
            "dynamics.ensemble_deterministic"
        };
        let (_, timing) = tr.scope(name, parent, |_| {
            time_ensemble(work, || {
                black_box(run_ensemble(&params, current, 1.3e-9, &plan, &pool))
            })
        });
        timings.push(timing);
    }
    Ok((timings[0], timings[1]))
}
