//! The two engine-sweep workloads.
//!
//! * `megabit-campaign` (W1): the `mramsim campaign` path — a
//!   defect-free 1024×1024 checkerboard at 70 nm pitch (Ψ ≈ 2 %) cut
//!   into 16 shards of 64 rows, swept on `W` engine workers with the
//!   disk tier on and a journal recording every point. An op is one
//!   shard job; a run is whole campaigns.
//! * `array-wer-sweep` (W2): dense per-cell WER vs density — an 8×8
//!   checkerboard over pitch {55, 60, 70, 90, 120} on one sweep worker,
//!   so each point's ensembles fan out on the inner pool. An op is one
//!   point; a run is whole sweeps.
//!
//! Both write 2 ns pulses at 1.2 V with 2 ps steps.

use crate::checks::{self, Check};
use crate::host;
use crate::probes::{self, EnsembleTiming};
use crate::report::{median, Layers, Measured, Unit};
use crate::trace::{self, Tracer};
use mramsim_array::{
    cell_field_map, clear_kernel_cache, kernel_cache_stats, DataPattern, HierarchicalKernel,
    PatternGrid,
};
use mramsim_dynamics::{
    wer_campaign, wer_campaign_seeded, CellDrive, EnsemblePlan, MacrospinParams,
};
use mramsim_engine::cache::ResultCache;
use mramsim_engine::{
    Engine, JobEvent, ScenarioOutput, SweepJob, SweepJournal, SweepOptions, SweepPlan,
};
use mramsim_faults::class_seed;
use mramsim_mtj::wer::write_error_rate_saturating;
use mramsim_mtj::{MtjDevice, MtjState};
use mramsim_numerics::pool::WorkerPool;
use mramsim_telemetry::{Json, MetricsRecorder};
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ECD: f64 = 35.0;
const VOLTAGE: f64 = 1.2;
const PULSE_NS: f64 = 2.0;
const DT_PS: f64 = 2.0;
const TEMPERATURE_K: f64 = 300.0;

const GRID: usize = 1024;
const SHARD_ROWS: usize = 64;
const SHARDS: usize = GRID / SHARD_ROWS;
const CAMPAIGN_PITCH: f64 = 70.0;
const MAX_RADIUS: usize = 4;
const FIELD_TOL: f64 = 25.0;

const PITCHES: [f64; 5] = [55.0, 60.0, 70.0, 90.0, 120.0];
const ARRAY: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Which engine-sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// W1, `megabit-campaign`.
    Megabit,
    /// W2, `array-wer-sweep`.
    ArrayWer,
}

impl Kind {
    fn scenario(self) -> &'static str {
        match self {
            Kind::Megabit => "array-wer-shard",
            Kind::ArrayWer => "array-wer",
        }
    }

    /// The span name of one whole unit (campaign or sweep).
    fn unit_span(self) -> &'static str {
        match self {
            Kind::Megabit => "w1.campaign",
            Kind::ArrayWer => "w2.sweep",
        }
    }

    /// The span name of one replayed op.
    pub fn op_span(self) -> &'static str {
        match self {
            Kind::Megabit => "w1.shard",
            Kind::ArrayWer => "w2.point",
        }
    }

    /// Engine sweep workers: `W` shards at once for W1; one point at a
    /// time for W2, whose ensembles take the inner pool instead.
    fn engine_workers(self) -> usize {
        match self {
            Kind::Megabit => host::bench_workers(),
            Kind::ArrayWer => 1,
        }
    }

    /// The inner width the engine gives a job's ensembles.
    fn inner_workers(self) -> usize {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        (nproc / self.engine_workers()).max(1)
    }

    fn trajectories(self) -> usize {
        match self {
            Kind::Megabit => 16,
            Kind::ArrayWer => 24,
        }
    }

    /// Units per run: sized so one run measures about `seconds` at
    /// 44 shards/s (W1) and 9.6 points/s (W2) on 2 vCPUs, and never so
    /// few that the calm half of the units holds under 100 ops (p90
    /// keeps ten samples beyond it). The count depends on `seconds`
    /// only, never on speed.
    pub fn units(self, seconds: u64) -> usize {
        let (per_second, ops_per_unit) = match self {
            Kind::Megabit => (2.75, SHARDS),
            Kind::ArrayWer => (1.95, PITCHES.len()),
        };
        let sized = (per_second * seconds as f64).round() as usize;
        sized.max(2 * 100usize.div_ceil(ops_per_unit))
    }

    /// One whole unit with campaign seed `seed`.
    fn plan(self, seed: u32) -> SweepPlan {
        let plan = SweepPlan::new(self.scenario())
            .fix("trajectories", self.trajectories() as f64)
            .fix("pulse_ns", PULSE_NS)
            .fix("voltage_v", VOLTAGE)
            .fix("dt_ps", DT_PS)
            .fix("seed", f64::from(seed));
        match self {
            Kind::Megabit => plan
                .fix("rows", GRID as f64)
                .fix("cols", GRID as f64)
                .fix("shard_rows", SHARD_ROWS as f64)
                .fix("pitch", CAMPAIGN_PITCH)
                .fix("max_radius", MAX_RADIUS as f64)
                .fix("field_tol", FIELD_TOL)
                .axis("shard", (0..SHARDS).map(|s| s as f64).collect()),
            Kind::ArrayWer => plan
                .fix("rows", ARRAY as f64)
                .fix("cols", ARRAY as f64)
                .axis("pitch", PITCHES.to_vec()),
        }
    }
}

/// One finished job as `on_done` saw it.
struct JobDone {
    duration: Duration,
    end: Instant,
    lane: u64,
}

/// Runs one unit as the CLI does: journal created first, every done
/// point recorded, journal (and its run lock) released at the end.
fn run_unit(
    engine: &Engine,
    dir: &Path,
    plan: &SweepPlan,
) -> Result<(Vec<SweepJob>, Vec<JobDone>), String> {
    let path = SweepJournal::path_for(dir, &SweepJournal::run_id(plan));
    let journal = SweepJournal::create(path, plan).map_err(|e| e.to_string())?;
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let on_done = |event: &JobEvent<'_>| {
        if event.ok {
            journal.record(event.index, event.key);
        }
        let record = JobDone {
            duration: event.duration,
            end: Instant::now(),
            lane: trace::lane(),
        };
        done.lock()
            .expect("no on_done panics while holding the lock")
            .push((event.index, record));
    };
    let options = SweepOptions {
        on_done: Some(&on_done),
        ..SweepOptions::default()
    };
    let outcome = engine
        .sweep_with(plan, &options)
        .map_err(|e| e.to_string())?;
    drop(journal);
    let mut done = done.into_inner().expect("on_done never panics");
    done.sort_by_key(|(index, _)| *index);
    Ok((outcome.jobs, done.into_iter().map(|(_, d)| d).collect()))
}

/// A fresh engine over a fresh cache dir, with cold kernel caches.
fn fresh_engine(kind: Kind, dir: &Path) -> Result<Engine, String> {
    clear_kernel_cache();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Engine::standard()
        .with_workers(kind.engine_workers())
        .with_disk_cache(dir)
        .map_err(|e| e.to_string())
}

/// What the independent oracles say every op must report.
enum Expect {
    Shards(checks::ShardExpect),
    Cells(Vec<(f64, checks::CellExpect)>),
}

fn expect(kind: Kind) -> Result<Expect, String> {
    Ok(match kind {
        Kind::Megabit => Expect::Shards(checks::shard_expect(
            ECD,
            CAMPAIGN_PITCH,
            (GRID, GRID, SHARD_ROWS),
            FIELD_TOL,
            MAX_RADIUS,
        )?),
        Kind::ArrayWer => Expect::Cells(
            PITCHES
                .iter()
                .map(|&pitch| {
                    checks::cell_expect(
                        ECD,
                        pitch,
                        (ARRAY, ARRAY),
                        (VOLTAGE, PULSE_NS, TEMPERATURE_K),
                    )
                    .map(|e| (pitch, e))
                })
                .collect::<Result<_, _>>()?,
        ),
    })
}

fn check_job(expect: &Expect, job: &SweepJob) -> Check {
    let out = job
        .result
        .as_ref()
        .map_err(|e| format!("job failed: {e}"))?;
    match expect {
        Expect::Shards(e) => {
            let shard = job.params.count("shard").map_err(|e| e.to_string())?;
            checks::check_shard(out, shard, e)
        }
        Expect::Cells(by_pitch) => {
            let pitch = job.params.number("pitch").map_err(|e| e.to_string())?;
            let (_, e) = by_pitch
                .iter()
                .find(|(p, _)| *p == pitch)
                .ok_or_else(|| format!("no expectation for pitch {pitch}"))?;
            checks::check_point(out, e)
        }
    }
}

/// Untraced run: set-ups, the timed phase, and every output check.
pub fn run(kind: Kind, seed: u64, seconds: u64, scratch: &Path) -> Result<Measured, String> {
    let time_wait = host::time_wait_sockets();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for rep in 0..SETUPS {
        let start = Instant::now();
        let dir = scratch.join(format!("setup-{rep}"));
        let engine = fresh_engine(kind, &dir)?;
        run_unit(
            &engine,
            &dir,
            &kind.plan(crate::derive(seed, "warm-up", rep)),
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, old)) = bench.replace((engine, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (engine, dir) = bench.expect("at least one set-up");
    host::sync_filesystem(scratch);

    let units = kind.units(seconds);
    let mut timed = Vec::with_capacity(units);
    let mut ops: Vec<SweepJob> = Vec::new();
    for unit in 0..units {
        let plan = kind.plan(crate::derive(seed, "op", unit));
        let (result, mut timing) = Unit::time(plan.len(), || run_unit(&engine, &dir, &plan));
        let (jobs, done) = result?;
        timing.latencies_ms = done
            .iter()
            .map(|d| d.duration.as_secs_f64() * 1e3)
            .collect();
        timed.push(timing);
        ops.extend(jobs);
    }

    let mut failures = Vec::new();
    let expect = expect(kind)?;
    let failed_ops = ops
        .iter()
        .filter(|job| match check_job(&expect, job) {
            Ok(()) => false,
            Err(e) => {
                failures.push(e);
                true
            }
        })
        .count();
    let pick = crate::derive(seed, "replay", 0) as usize % ops.len();
    let replayed = &ops[pick];
    let run_checks = [
        ("wer-mc vs Butler", checks::mc_vs_butler()),
        ("1-worker replay", replay_check(kind, replayed)),
    ];
    let disk = engine.disk_stats().unwrap_or_default();
    Ok(Measured {
        setup_s,
        ops: ops.len(),
        failed_ops,
        units: timed,
        failures,
        run_checks: run_checks
            .into_iter()
            .map(|(name, check)| (name.to_owned(), check))
            .collect(),
        context: vec![
            ("engine_workers", Json::Num(engine.workers() as f64)),
            ("inner_workers", Json::Num(kind.inner_workers() as f64)),
            ("units", Json::Num(units as f64)),
            ("cache_fs", Json::Str(host::fs_type(&dir))),
            ("time_wait_at_start", Json::Num(time_wait as f64)),
            (
                "disk_errors",
                Json::Num((disk.corrupt + disk.write_errors) as f64),
            ),
        ],
    })
}

/// One op replayed on a fresh 1-worker engine is byte-identical.
fn replay_check(kind: Kind, job: &SweepJob) -> Check {
    let original = job.result.as_ref().map_err(|e| e.clone())?;
    let replay = Engine::standard()
        .with_workers(1)
        .run(kind.scenario(), &job.params)
        .map_err(|e| e.to_string())?;
    checks::check_replay(original, &replay.output)
}

/// The calibrated base point and drive of one write direction — what
/// the campaigns derive once per transition.
fn direction_point(device: &MtjDevice, stored: MtjState) -> Result<(MacrospinParams, f64), String> {
    let direction = checks::write_direction(stored);
    let base = MacrospinParams::from_device(device, direction, Kelvin::new(TEMPERATURE_K))
        .map_err(|e| e.to_string())?;
    let drive = device
        .electrical()
        .current(direction.initial_state(), Volt::new(VOLTAGE), device.area())
        .value();
    Ok((base, drive))
}

fn analytic(device: &MtjDevice, stored: MtjState, hz: Oersted) -> Result<f64, String> {
    write_error_rate_saturating(
        device,
        checks::write_direction(stored),
        Volt::new(VOLTAGE),
        hz,
        Kelvin::new(TEMPERATURE_K),
        Nanosecond::new(PULSE_NS),
    )
    .map_err(|e| e.to_string())
}

/// Per-op layer times of one replayed op.
struct Replay {
    /// Class extraction (W1) or cell field map (W2), ms.
    geometry_ms: f64,
    /// The ensembles.
    ensemble: EnsembleTiming,
    /// Analytic WER, µs per class or cell.
    analytic_us: f64,
    /// Ensembles in the op (classes or cells).
    ensembles: usize,
    /// Distinct (stored state, NP8) windows among them.
    distinct_windows: usize,
    /// Cells the op covers.
    cells: usize,
    /// Padded lanes × steps over all of the op's ensembles.
    lane_steps: f64,
}

/// Replays one op through the public functions the scenario composes:
/// kernel, class extraction or field map, per-class drives, the
/// ensembles, the analytic model.
fn replay_op(
    tr: &Tracer,
    kind: Kind,
    point: f64,
    seed: u32,
    thermal: bool,
) -> Result<Replay, String> {
    let device = checks::device(ECD)?;
    let pool = WorkerPool::new(kind.inner_workers());
    let pulse_s = PULSE_NS * 1e-9;
    let plan = EnsemblePlan::new(kind.trajectories(), u64::from(seed), DT_PS * 1e-12)
        .map_err(|e| e.to_string())?
        .with_thermal(thermal);
    tr.scope(kind.op_span(), None, |root| {
        let timed = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| {
            let start = Instant::now();
            tr.scope(name, Some(root), |_| f())?;
            Ok::<f64, String>(start.elapsed().as_secs_f64() * 1e3)
        };
        // (stored state, applied field, ensemble seed, NP8) per ensemble.
        let mut members: Vec<(MtjState, Oersted, u64, u8)> = Vec::new();
        let mut cells = 0;
        let geometry_ms = match kind {
            Kind::Megabit => {
                let shard = point as usize;
                let kernel = tr
                    .scope("array.kernel", Some(root), |_| {
                        HierarchicalKernel::shared_for_tolerance(
                            &device,
                            Nanometer::new(CAMPAIGN_PITCH),
                            Oersted::new(FIELD_TOL),
                            MAX_RADIUS,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let grid = PatternGrid::new(GRID, GRID, DataPattern::Checkerboard)
                    .map_err(|e| e.to_string())?;
                let lo = shard * SHARD_ROWS;
                let mut classes = Vec::new();
                let ms = timed("array.shard_classes", &mut || {
                    classes = grid
                        .shard_classes(lo, lo + SHARD_ROWS, kernel.radius())
                        .map_err(|e| e.to_string())?;
                    Ok(())
                })?;
                timed("faults.class_fields", &mut || {
                    for class in &classes {
                        let hz = kernel.total_hz_window(&|di, dj| class.state_at(di, dj));
                        members.push((
                            class.stored(),
                            Oersted::new(hz * OERSTED_PER_AMPERE_PER_METER),
                            class_seed(u64::from(seed), &class.window),
                            class.np().bits(),
                        ));
                        cells += class.count;
                    }
                    Ok(())
                })?;
                ms
            }
            Kind::ArrayWer => {
                let data = DataPattern::Checkerboard
                    .build(ARRAY, ARRAY)
                    .map_err(|e| e.to_string())?;
                let mut fields = Vec::new();
                let ms = timed("array.cell_field_map", &mut || {
                    fields = cell_field_map(&device, Nanometer::new(point), &data)
                        .map_err(|e| e.to_string())?;
                    Ok(())
                })?;
                members.extend(fields.iter().map(|f| (f.state, f.hz_oe(), 0, f.np.bits())));
                cells = fields.len();
                ms
            }
        };
        let mut drives = Vec::with_capacity(members.len());
        timed("faults.cell_drives", &mut || {
            let ap = direction_point(&device, MtjState::AntiParallel)?;
            let p = direction_point(&device, MtjState::Parallel)?;
            drives = members
                .iter()
                .map(|(stored, hz, _, _)| {
                    let (base, current) = if *stored == MtjState::AntiParallel {
                        &ap
                    } else {
                        &p
                    };
                    CellDrive {
                        params: base.clone().with_applied_hz(*hz),
                        current: *current,
                    }
                })
                .collect();
            Ok(())
        })?;
        let work =
            drives.len() as f64 * probes::lane_steps(plan.trajectories, plan.steps_for(pulse_s));
        let (_, ensemble) = tr.scope("dynamics.ensemble", Some(root), |_| {
            probes::time_ensemble(work, || match kind {
                Kind::Megabit => {
                    let seeds: Vec<u64> = members.iter().map(|m| m.2).collect();
                    wer_campaign_seeded(&drives, &seeds, pulse_s, &plan, &pool)
                }
                Kind::ArrayWer => wer_campaign(&drives, pulse_s, &plan, &pool),
            })
        });
        let analytic_ms = timed("faults.analytic", &mut || {
            for (stored, hz, _, _) in &members {
                std::hint::black_box(analytic(&device, *stored, *hz)?);
            }
            Ok(())
        })?;
        let mut windows: Vec<(bool, u8)> = members
            .iter()
            .map(|m| (m.0 == MtjState::AntiParallel, m.3))
            .collect();
        windows.sort_unstable();
        windows.dedup();
        Ok(Replay {
            geometry_ms,
            ensemble,
            analytic_us: analytic_ms * 1e3 / members.len().max(1) as f64,
            ensembles: members.len(),
            distinct_windows: windows.len(),
            cells,
            lane_steps: work,
        })
    })
}

/// The op positions of one unit (shard indices or pitches).
fn unit_points(kind: Kind) -> Vec<f64> {
    match kind {
        Kind::Megabit => (0..SHARDS).map(|s| s as f64).collect(),
        Kind::ArrayWer => PITCHES.to_vec(),
    }
}

fn throughput(ops: usize, elapsed: Duration) -> f64 {
    ops as f64 / elapsed.as_secs_f64()
}

/// Traced run: untraced and traced units in turn, then the layer
/// replays and probes. Fills `layers` with every per-layer
/// metric this workload exercises, and says why the rest are absent.
pub fn trace(
    kind: Kind,
    seed: u64,
    scratch: &Path,
    tr: &Tracer,
    layers: &mut Layers,
) -> Result<(usize, usize), String> {
    const SLICE: usize = 3;
    layers.put("host.time_wait_at_start", host::time_wait_sockets() as f64);
    let dir = scratch.join("trace");
    let engine = fresh_engine(kind, &dir)?;
    run_unit(&engine, &dir, &kind.plan(crate::derive(seed, "warm-up", 0)))?;
    let per_unit = unit_points(kind).len();
    host::sync_filesystem(scratch);

    // Untraced and traced units alternate, so drift on the host lands
    // on both sides of `trace.overhead_frac` alike.
    let kernel_before = kernel_cache_stats();
    let disk_before = engine.disk_stats().unwrap_or_default();
    let workers = engine.workers();
    let (mut busy, mut tails) = (Duration::ZERO, Vec::new());
    let mut walls = [Duration::ZERO; 2];
    let mut jobs: Vec<(SweepJob, Duration)> = Vec::new();
    for unit in 0..2 * SLICE {
        let traced = unit % 2 == 1;
        let plan = kind.plan(crate::derive(seed, "slice", unit));
        let unit_start = Instant::now();
        if !traced {
            run_unit(&engine, &dir, &plan)?;
            walls[0] += unit_start.elapsed();
            continue;
        }
        let (unit_jobs, done) = tr.scope(kind.unit_span(), None, |root| {
            let out = run_unit(&engine, &dir, &plan)?;
            for d in &out.1 {
                tr.record("engine.job", Some(root), d.end - d.duration, d.end, d.lane);
            }
            Ok::<_, String>(out)
        })?;
        walls[1] += unit_start.elapsed();
        busy += done.iter().map(|d| d.duration).sum::<Duration>();
        // The pool's tail: from the moment the first worker ran dry
        // (the W-th last completion) to the last completion.
        let mut ends: Vec<Instant> = done.iter().map(|d| d.end).collect();
        ends.sort_unstable();
        if ends.len() >= workers {
            let last = ends[ends.len() - 1];
            tails.push((last - ends[ends.len() - workers]).as_secs_f64() * 1e3);
        }
        jobs.extend(unit_jobs.into_iter().zip(done.iter().map(|d| d.duration)));
    }
    let untraced = throughput(SLICE * per_unit, walls[0]);
    let traced = throughput(SLICE * per_unit, walls[1]);
    let kernel_after = kernel_cache_stats();
    let disk_after = engine.disk_stats().unwrap_or_default();
    let lookups = (kernel_after.hits + kernel_after.misses)
        .saturating_sub(kernel_before.hits + kernel_before.misses);
    layers.put("trace.overhead_frac", 1.0 - traced / untraced);
    layers.put(
        "numerics.pool.busy_frac",
        busy.as_secs_f64() / (walls[1].as_secs_f64() * workers as f64),
    );
    match kind {
        Kind::Megabit => layers.put("numerics.pool.tail_ms", median(&tails)),
        Kind::ArrayWer => layers.absent(
            "numerics.pool.tail_ms",
            "one sweep worker: no pool tail between points",
        ),
    }
    layers.put(
        "array.kernel_hit_ratio",
        (kernel_after.hits - kernel_before.hits) as f64 / lookups.max(1) as f64,
    );
    layers.put(
        "engine.disk_bytes_per_op",
        (disk_after.bytes_written - disk_before.bytes_written) as f64 / (2 * jobs.len()) as f64,
    );
    layers.put(
        "engine.disk_errors",
        (disk_after.corrupt + disk_after.write_errors) as f64,
    );
    layers.put(
        "engine.warm_hit_ratio",
        jobs.iter().filter(|(j, _)| j.cache_hit).count() as f64 / jobs.len() as f64,
    );
    layers.absent(
        "engine.warm_lookup_us",
        "every timed op is a fresh seed: no warm hits to time",
    );

    // Layer split: replay the last traced unit op by op.
    let replay_seed = crate::derive(seed, "slice", 2 * SLICE - 1);
    let mut replays = Vec::new();
    for point in unit_points(kind) {
        replays.push(replay_op(tr, kind, point, replay_seed, true)?);
    }
    let deterministic = replay_op(tr, kind, unit_points(kind)[0], replay_seed, false)?;
    let last_unit = &jobs[jobs.len() - per_unit..];
    let ensemble_ms: Vec<f64> = replays.iter().map(|r| r.ensemble.wall_ms).collect();
    let work_per_op: Vec<f64> = replays.iter().map(|r| r.lane_steps).collect();
    layers.put(
        "dynamics.ns_per_lane_step",
        median(
            &replays
                .iter()
                .map(|r| r.ensemble.ns_per_lane_step)
                .collect::<Vec<_>>(),
        ),
    );
    layers.put(
        "dynamics.thermal_over_deterministic",
        replays[0].ensemble.wall_ms / deterministic.ensemble.wall_ms,
    );
    layers.put(
        "dynamics.lane_steps_per_op",
        work_per_op.iter().sum::<f64>() / work_per_op.len() as f64,
    );
    let padded = kind.trajectories().div_ceil(mramsim_dynamics::LANES) * mramsim_dynamics::LANES;
    layers.put(
        "dynamics.useful_lane_frac",
        kind.trajectories() as f64 / padded as f64,
    );
    layers.put("dynamics.ensemble_ms", median(&ensemble_ms));
    layers.put(
        "faults.analytic_us",
        median(&replays.iter().map(|r| r.analytic_us).collect::<Vec<_>>()),
    );
    let geometry: Vec<f64> = replays.iter().map(|r| r.geometry_ms).collect();
    match kind {
        Kind::Megabit => {
            let classes: usize = replays.iter().map(|r| r.ensembles).sum();
            let cells: usize = replays.iter().map(|r| r.cells).sum();
            layers.put("array.shard_classes_ms", median(&geometry));
            layers.put("array.classes_per_campaign", classes as f64);
            layers.put("array.cells_per_class", cells as f64 / classes as f64);
            let self_ms: Vec<f64> = last_unit
                .iter()
                .zip(&replays)
                .map(|((_, duration), r)| {
                    duration.as_secs_f64() * 1e3
                        - r.geometry_ms
                        - r.ensemble.wall_ms
                        - r.analytic_us * r.ensembles as f64 * 1e-3
                })
                .collect();
            layers.put("faults.shard_self_ms", median(&self_ms));
            layers.absent("array.cell_field_map_ms", "W1 extracts classes instead");
            layers.absent(
                "faults.cells_per_distinct_window",
                "W1 already runs one ensemble per window class",
            );
        }
        Kind::ArrayWer => {
            layers.put("array.cell_field_map_ms", median(&geometry));
            let ratio: Vec<f64> = replays
                .iter()
                .map(|r| r.cells as f64 / r.distinct_windows as f64)
                .collect();
            layers.put("faults.cells_per_distinct_window", median(&ratio));
            for name in [
                "array.shard_classes_ms",
                "array.classes_per_campaign",
                "array.cells_per_class",
                "faults.shard_self_ms",
            ] {
                layers.absent(name, "W2 is dense: no shards or window classes");
            }
        }
    }

    // Engine overhead per job: a 1-worker sweep (whose jobs get the
    // same inner width as a direct call) against direct scenario runs.
    let overhead_dir = scratch.join("overhead");
    std::fs::create_dir_all(&overhead_dir).map_err(|e| e.to_string())?;
    let single = Engine::standard()
        .with_workers(1)
        .with_disk_cache(&overhead_dir)
        .map_err(|e| e.to_string())?;
    let scenario = engine
        .registry()
        .get(kind.scenario())
        .map_err(|e| e.to_string())?;
    let mut overhead = Vec::new();
    for unit in 0..SLICE {
        let plan = kind.plan(crate::derive(seed, "overhead", unit));
        let (single_jobs, single_done) = run_unit(&single, &overhead_dir, &plan)?;
        for (job, done) in single_jobs.iter().zip(&single_done) {
            let start = Instant::now();
            scenario.run(&job.params).map_err(|e| e.to_string())?;
            let direct = start.elapsed().as_secs_f64();
            overhead.push((done.duration.as_secs_f64() - direct) * 1e3);
        }
    }
    layers.put("engine.job_overhead_ms", median(&overhead));

    // Telemetry on vs off, interleaved.
    let mut on_off = [Duration::ZERO; 2];
    for unit in 0..2 * SLICE {
        let plan = kind.plan(crate::derive(seed, "telemetry", unit));
        let guard =
            (unit % 2 == 1).then(|| mramsim_telemetry::install(Arc::new(MetricsRecorder::new())));
        let start = Instant::now();
        run_unit(&engine, &dir, &plan)?;
        on_off[unit % 2] += start.elapsed();
        drop(guard);
    }
    layers.put(
        "telemetry.overhead_frac",
        on_off[1].as_secs_f64() / on_off[0].as_secs_f64() - 1.0,
    );

    // Probes on the workload's own inputs and outputs.
    let probe = tr.scope("probes", None, |root| -> Result<(), String> {
        layers.put(
            "numerics.normal_pair_ns",
            probes::normal_pair_ns(tr, Some(root), seed),
        );
        let build_ms = match kind {
            Kind::Megabit => {
                let device = checks::device(ECD)?;
                let mut ms = Vec::new();
                for _ in 0..3 {
                    clear_kernel_cache();
                    let start = Instant::now();
                    tr.scope("array.kernel_build", Some(root), |_| {
                        HierarchicalKernel::for_tolerance(
                            &device,
                            Nanometer::new(CAMPAIGN_PITCH),
                            Oersted::new(FIELD_TOL),
                            MAX_RADIUS,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                    ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                median(&ms)
            }
            Kind::ArrayWer => probes::stray_kernel_build_ms(tr, Some(root), ECD, &PITCHES)?,
        };
        layers.put("array.kernel_build_ms", build_ms);
        let outputs: Vec<(u64, &ScenarioOutput)> = last_unit
            .iter()
            .filter_map(|(job, _)| {
                let out = job.result.as_ref().ok()?;
                let key = ResultCache::key(kind.scenario(), &job.params.fingerprint());
                Some((key, out.as_ref()))
            })
            .collect();
        let (save, load) = probes::disk_us(tr, Some(root), &scratch.join("probe-store"), &outputs)?;
        layers.put("engine.disk_save_us", save);
        layers.put("engine.disk_load_us", load);
        let plans: Vec<SweepPlan> = (0..8)
            .map(|i| kind.plan(crate::derive(seed, "journal-probe", i)))
            .collect();
        let journal_dir = scratch.join("probe-journals");
        std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
        let (create, record) = probes::journal_us(tr, Some(root), &journal_dir, &plans)?;
        layers.put("engine.journal_create_us", create);
        layers.put("engine.journal_record_us", record);
        Ok(())
    });
    probe?;
    layers.put(
        "trace.unattributed_frac",
        tr.unattributed_frac(kind.op_span()),
    );
    let expect = expect(kind)?;
    let failed = jobs
        .iter()
        .filter(|(job, _)| check_job(&expect, job).is_err())
        .count();
    Ok((jobs.len(), failed))
}
