//! End-to-end coverage of the execution engine: every registered
//! scenario runs with its default parameters, produces non-empty
//! output, and is served from the cache on the second run; bad plans
//! fail the one plan check with their typed errors; and a panicking
//! scenario fails its own grid point, not the sweep.

use mramsim_array::{cell_field_map, DataPattern, PatternGrid};
use mramsim_dynamics::EnsemblePlan;
use mramsim_engine::{Engine, EngineError, ParamSet, ParamSpec, Registry, Scenario};
use mramsim_engine::{ScenarioOutput, SweepPlan, Tier};
use mramsim_mtj::wer::write_error_rate_saturating;
use mramsim_mtj::{presets, MtjState, SwitchDirection};
use mramsim_numerics::hash::fnv1a;
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Volt};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Reports the width of a default pool opened inside its job.
struct Width;

impl Scenario for Width {
    fn id(&self) -> &'static str {
        "width"
    }
    fn summary(&self) -> &'static str {
        "the default pool width a job sees"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::new("x", "input", 0.0)]
    }
    fn run(&self, _: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let width = WorkerPool::default().workers() as f64;
        Ok(ScenarioOutput::default().with_scalar("width", width))
    }
}

#[test]
fn scenario_pools_take_their_jobs_share_and_leave_the_callers_width() {
    let machine = std::thread::available_parallelism().map_or(4, |n| n.get());
    assert_eq!(WorkerPool::default().workers(), machine);
    let mut registry = Registry::new();
    registry.register(Arc::new(Width));
    let engine = Engine::new(registry).with_workers(2);
    let widths = |xs: Vec<f64>| -> Vec<f64> {
        let outcome = engine
            .sweep(&SweepPlan::new("width").axis("x", xs))
            .unwrap();
        let widths = outcome.jobs.iter().map(|job| {
            let output = job.result.as_ref().unwrap();
            output.scalar("width").unwrap()
        });
        widths.collect()
    };
    // One point runs inline on this thread with the whole machine, and
    // leaves this thread's width as it found it.
    assert_eq!(widths(vec![1.0]), [machine as f64]);
    assert_eq!(WorkerPool::default().workers(), machine);
    // Two points on two engine workers: each job holds half.
    assert_eq!(widths(vec![2.0, 3.0]), [(machine / 2).max(1) as f64; 2]);
    assert_eq!(WorkerPool::default().workers(), machine);
}

#[test]
fn every_registered_scenario_runs_end_to_end_and_caches() {
    let engine = Engine::standard();
    let ids: Vec<&str> = engine.registry().ids().collect();
    assert_eq!(ids.len(), 17, "the standard registry shrank: {ids:?}");

    for id in &ids {
        let cold = engine
            .run(id, &ParamSet::new())
            .unwrap_or_else(|e| panic!("{id} failed: {e}"));
        assert_eq!(cold.tier, Tier::Computed, "{id}: first run must be a miss");
        assert!(
            !cold.output.tables.is_empty(),
            "{id}: no tables in the output"
        );
        for table in &cold.output.tables {
            assert!(table.row_count() > 0, "{id}: empty table in the output");
        }
        let markdown = cold.output.to_markdown();
        assert!(markdown.contains("###"), "{id}: markdown lost the tables");
        let csv = cold.output.to_csv();
        assert!(csv.contains(','), "{id}: csv came out empty");

        let warm = engine
            .run(id, &ParamSet::new())
            .unwrap_or_else(|e| panic!("{id} warm run failed: {e}"));
        assert_eq!(
            warm.tier,
            Tier::Warm,
            "{id}: second run must be a cache hit"
        );
    }

    let stats = engine.cache_stats();
    assert_eq!(stats.entries, ids.len());
    assert_eq!(stats.hits, ids.len() as u64);
}

#[test]
fn default_parameters_round_trip_through_the_resolver() {
    let engine = Engine::standard();
    for scenario in engine.registry().iter() {
        let resolved = engine.resolve(scenario.id(), &ParamSet::new()).unwrap();
        for spec in scenario.params() {
            assert_eq!(
                resolved.get(spec.name),
                Some(&spec.default),
                "{}: default for `{}` lost in resolution",
                scenario.id(),
                spec.name
            );
        }
    }
}

#[test]
fn fifty_point_grid_sweeps_in_parallel_with_a_warm_cache_rerun() {
    let engine = Engine::standard().with_workers(4);
    // A 5 eCD × 10 pitch grid = 50 points, the acceptance-criteria
    // scale, swept through the Ψ point-mode scenario.
    let plan = SweepPlan::new("fig4b")
        .axis("ecd", vec![20.0, 30.0, 35.0, 45.0, 55.0])
        .axis(
            "pitch",
            (0..10).map(|i| 85.0 + 10.0 * f64::from(i)).collect(),
        );
    let cold = engine.sweep(&plan).unwrap();
    assert_eq!(cold.jobs.len(), 50);
    assert_eq!(cold.errors, 0);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.summary_table().row_count(), 50);

    let warm = engine.sweep(&plan).unwrap();
    assert_eq!(warm.cache_hits, 50, "warm sweep must be all cache hits");
    assert!(
        warm.duration <= cold.duration,
        "warm sweep should not be slower: {:?} vs {:?}",
        warm.duration,
        cold.duration
    );

    // The cached grid agrees point-for-point with the cold run.
    for (a, b) in cold.jobs.iter().zip(&warm.jobs) {
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(a.scalar("psi"), b.scalar("psi"));
    }
}

#[test]
fn wer_mc_is_deterministic_cached_and_sweepable_over_pulse_width() {
    // The acceptance-criteria path at test scale: a seeded Monte-Carlo
    // run reproduces bit-for-bit, repeats hit the result cache, and the
    // pulse-width axis sweeps with monotone non-increasing analytic WER.
    let engine = Engine::standard().with_workers(4);
    let point = ParamSet::new()
        .with("trajectories", 128.0)
        .with("seed", 7.0);
    let cold = engine.run("wer-mc", &point).unwrap();
    assert_eq!(cold.tier, Tier::Computed);
    let warm = engine.run("wer-mc", &point).unwrap();
    assert_eq!(
        warm.tier,
        Tier::Warm,
        "repeat run must be served from the cache"
    );
    assert_eq!(
        cold.output.scalar("wer_mc"),
        warm.output.scalar("wer_mc"),
        "seeded MC result must be reproducible"
    );
    // A different seed is a different content address and result.
    let reseeded = engine
        .run("wer-mc", &point.clone().with("seed", 8.0))
        .unwrap();
    assert_eq!(reseeded.tier, Tier::Computed);

    let plan = SweepPlan::new("wer-mc")
        .fix("trajectories", 128.0)
        .axis("pulse_ns", vec![0.9, 1.3, 1.8]);
    let sweep = engine.sweep(&plan).unwrap();
    assert_eq!(sweep.errors, 0);
    let analytic: Vec<f64> = sweep
        .jobs
        .iter()
        .map(|j| j.result.as_ref().unwrap().scalar("wer_analytic").unwrap())
        .collect();
    assert!(
        analytic.windows(2).all(|w| w[1] <= w[0]),
        "longer pulses must not raise the analytic WER: {analytic:?}"
    );
}

#[test]
fn array_wer_checkerboard_sweeps_two_densities_worker_invariantly() {
    // The acceptance-criteria path at test scale: an 8x8 checkerboard
    // campaign swept over two pitches (two densities), with per-cell
    // Monte-Carlo results bit-identical across worker counts.
    let plan = SweepPlan::new("array-wer")
        .fix("rows", 8.0)
        .fix("cols", 8.0)
        .fix("pattern", "checkerboard")
        .fix("trajectories", 16.0)
        .fix("pulse_ns", 4.0)
        .fix("seed", 7.0)
        .axis("pitch", vec![60.0, 90.0]);
    let narrow = Engine::standard().with_workers(1).sweep(&plan).unwrap();
    let wide = Engine::standard().with_workers(4).sweep(&plan).unwrap();
    assert_eq!(narrow.errors, 0, "{:?}", narrow.jobs[0].result);
    assert_eq!(narrow.jobs.len(), 2);
    for (a, b) in narrow.jobs.iter().zip(&wide.jobs) {
        assert_eq!(
            a.result.as_ref().unwrap().to_csv(),
            b.result.as_ref().unwrap().to_csv(),
            "per-cell MC results must not depend on the worker count"
        );
    }
    // The WER-vs-pitch curve: density falls with pitch, and the tighter
    // pitch must not have a better analytic worst case.
    let scalar = |job: &mramsim_engine::SweepJob, name: &str| {
        job.result.as_ref().unwrap().scalar(name).unwrap()
    };
    assert!(
        scalar(&narrow.jobs[0], "density_bits_per_um2")
            > scalar(&narrow.jobs[1], "density_bits_per_um2")
    );
    assert!(
        scalar(&narrow.jobs[0], "worst_wer_analytic")
            >= scalar(&narrow.jobs[1], "worst_wer_analytic")
    );
    // The fault-map table carries one row per cell.
    let out = narrow.jobs[0].result.as_ref().unwrap();
    assert_eq!(out.tables[1].row_count(), 64);
    assert!(out.chart.as_deref().unwrap().lines().count() == 8);
}

/// The rows of `out`'s table `title`, each as column name → cell.
fn table_rows<'a>(out: &'a ScenarioOutput, title: &str) -> Vec<BTreeMap<&'a str, &'a str>> {
    let table = out
        .tables
        .iter()
        .find(|t| t.title() == title)
        .unwrap_or_else(|| panic!("no table `{title}`"));
    table
        .rows()
        .iter()
        .map(|row| {
            table
                .columns()
                .iter()
                .map(String::as_str)
                .zip(row.iter().map(String::as_str))
                .collect()
        })
        .collect()
}

#[test]
fn array_wer_deterministic_columns_match_the_dense_field_map() {
    // The benchmark's array-wer check at test scale: `hz_oe` and
    // `wer_analytic` of every cell equal `cell_field_map` plus the
    // saturating analytic WER, rendered as the fault map renders them.
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let data = DataPattern::Checkerboard.build(8, 8).unwrap();
    for pitch in [55.0, 60.0, 70.0, 90.0, 120.0] {
        let params = ParamSet::new().with("pitch", pitch).with("voltage_v", 1.2);
        let params = params.with("pulse_ns", 2.0).with("trajectories", 24.0);
        let out = Engine::standard().run("array-wer", &params).unwrap().output;
        let cells = table_rows(&out, "array-wer: per-cell fault map");
        let fields = cell_field_map(&device, Nanometer::new(pitch), &data).unwrap();
        assert_eq!(cells.len(), fields.len());
        for (cell, field) in cells.iter().zip(&fields) {
            let direction = match field.state {
                MtjState::AntiParallel => SwitchDirection::ApToP,
                MtjState::Parallel => SwitchDirection::PToAp,
            };
            let (hz, volts, kelvin) = (field.hz_oe(), Volt::new(1.2), Kelvin::new(300.0));
            let analytic = write_error_rate_saturating(
                &device,
                direction,
                volts,
                hz,
                kelvin,
                Nanosecond::new(2.0),
            )
            .unwrap();
            let expected = [
                ("row", field.row.to_string()),
                ("col", field.col.to_string()),
                ("hz_oe", format!("{:.2}", hz.value())),
                ("wer_analytic", format!("{analytic:.6}")),
            ];
            for (column, value) in expected {
                assert_eq!(cell[column], value, "pitch {pitch}, {column} of {cell:?}");
            }
        }
    }
}

#[test]
fn array_wer_classes_equal_the_shard_scenarios_radius_one_classes() {
    // `array-wer` is a whole-array shard at radius 1, and class
    // estimates depend on window content only: every cell of an 8x8
    // map must render exactly the row its window gets in a 64x64
    // `array-wer-shard` campaign at `--max_radius 1`.
    let engine = Engine::standard();
    let run = |id, n: f64, extra: ParamSet| {
        let params = extra.with("rows", n).with("cols", n).with("seed", 3.0);
        let params = params.with("trajectories", 16.0).with("pulse_ns", 4.0);
        engine.run(id, &params).unwrap().output
    };
    let map = run("array-wer", 8.0, ParamSet::new());
    let radius_one = ParamSet::new()
        .with("shard_rows", 64.0)
        .with("max_radius", 1.0);
    let shard = run("array-wer-shard", 64.0, radius_one);
    let classes: BTreeMap<&str, BTreeMap<&str, &str>> =
        table_rows(&shard, "array-wer-shard: window classes")
            .into_iter()
            .map(|class| (class["window_key"], class))
            .collect();
    let grid = PatternGrid::new(8, 8, DataPattern::Checkerboard).unwrap();
    let mut windows = std::collections::BTreeSet::new();
    for cell in table_rows(&map, "array-wer: per-cell fault map") {
        let (row, col) = (cell["row"].parse().unwrap(), cell["col"].parse().unwrap());
        let key = format!("{:016x}", fnv1a(&grid.pack_window(row, col, 1)));
        for (column, value) in cell.iter().filter(|(c, _)| !["row", "col"].contains(c)) {
            assert_eq!(
                *value,
                classes[key.as_str()][column],
                "({row}, {col}) {column}"
            );
        }
        windows.insert(key);
    }
    assert_eq!(map.scalar("classes"), Some(windows.len() as f64));
    assert_eq!(windows.len(), 14, "an 8x8 checkerboard has 14 windows");
}

#[test]
fn oversized_ensembles_fail_as_parameter_errors() {
    // One request must not be able to abort the process on an
    // allocation: past the plan's cap the run fails with the dynamics
    // crate's typed parameter error.
    let too_many = (EnsemblePlan::MAX_TRAJECTORIES + 1) as f64;
    for id in ["wer-mc", "array-wer"] {
        let params = ParamSet::new().with("trajectories", too_many);
        match Engine::standard().run(id, &params) {
            Err(EngineError::Scenario { scenario, message }) => {
                assert_eq!(scenario, id);
                assert!(
                    message.contains("invalid parameter trajectories"),
                    "{id}: {message}"
                );
            }
            other => panic!("{id}: expected a scenario error, got {other:?}"),
        }
    }
    // A span past the plan's step cap would run for hours: it is
    // refused before any block runs.
    for (id, span) in [
        ("wer-mc", "pulse_ns"),
        ("array-wer", "pulse_ns"),
        ("array-wer-shard", "pulse_ns"),
        ("switch-traj", "span_ns"),
    ] {
        let params = ParamSet::new().with(span, 1e9);
        match Engine::standard().run(id, &params) {
            Err(EngineError::Scenario { scenario, message }) => {
                assert_eq!(scenario, id);
                assert!(
                    message.contains("invalid parameter steps"),
                    "{id}: {message}"
                );
            }
            other => panic!("{id}: expected a scenario error, got {other:?}"),
        }
    }
    // The largest replica count over the longest span passes both caps
    // above (2^20 x 2^20 steps at each scenario's default dt) and would
    // run for hours: replicas x steps is refused too.
    let replicas = EnsemblePlan::MAX_TRAJECTORIES as f64;
    for (id, span, ns) in [
        ("wer-mc", "pulse_ns", 1048.576),
        ("switch-traj", "span_ns", 2097.152),
        ("array-wer", "pulse_ns", 2097.152),
        ("array-wer-shard", "pulse_ns", 2097.152),
    ] {
        let params = ParamSet::new()
            .with("trajectories", replicas)
            .with(span, ns);
        match Engine::standard().run(id, &params) {
            Err(EngineError::Scenario { scenario, message }) => {
                assert_eq!(scenario, id);
                assert!(
                    message.contains("invalid parameter lane_steps")
                        && message.contains("1048576 replicas x 1048576 Heun steps"),
                    "{id}: {message}"
                );
            }
            other => panic!("{id}: expected a scenario error, got {other:?}"),
        }
    }
}

#[test]
fn sweep_results_match_isolated_runs() {
    // The same parameter point must produce identical output whether
    // it ran alone or inside a parallel sweep (deterministic seeding).
    let sweeping = Engine::standard().with_workers(4);
    let solo = Engine::standard();
    let plan = SweepPlan::new("fig4a").axis("pitch", vec![90.0, 120.0, 180.0]);
    let swept = sweeping.sweep(&plan).unwrap();
    for job in &swept.jobs {
        let alone = solo.run("fig4a", &job.params).unwrap();
        assert_eq!(
            job.result.as_ref().unwrap().as_ref(),
            alone.output.as_ref(),
            "pitch {:?} diverged between sweep and solo run",
            job.point
        );
    }
}

#[test]
fn validate_rejects_every_bad_plan_with_its_typed_error() {
    let engine = Engine::standard();
    let unknown = |name: &str| EngineError::UnknownParameter {
        scenario: "fig4b".into(),
        name: name.into(),
    };
    let invalid = |message: &str| EngineError::InvalidParameter {
        name: "pitch".into(),
        message: message.into(),
    };
    let fig4b = || SweepPlan::new("fig4b");
    let cases = [
        (
            "unknown scenario",
            SweepPlan::new("nope").axis("pitch", vec![90.0]),
            EngineError::UnknownScenario { id: "nope".into() },
        ),
        (
            "unknown axis",
            fig4b().axis("bogus", vec![1.0]),
            unknown("bogus"),
        ),
        (
            "unknown fixed parameter",
            fig4b().fix("bogus", 1.0).axis("pitch", vec![90.0]),
            unknown("bogus"),
        ),
        (
            "empty axis",
            fig4b().axis("pitch", vec![]),
            invalid("sweep axis has no values"),
        ),
        (
            "duplicate axis",
            fig4b().axis("pitch", vec![90.0]).axis("pitch", vec![120.0]),
            invalid("parameter appears twice in the plan"),
        ),
        (
            "axis duplicating a fixed parameter",
            fig4b().fix("pitch", 100.0).axis("pitch", vec![90.0, 120.0]),
            invalid("parameter appears twice in the plan"),
        ),
    ];
    for (case, plan, expected) in cases {
        match engine.validate(&plan) {
            Err(e) => assert_eq!(e, expected, "{case}"),
            Ok(valid) => panic!("{case}: accepted {valid:?}"),
        }
    }
    let valid = engine
        .validate(&fig4b().fix("ecd", 35.0).axis("pitch", vec![90.0, 120.0]))
        .unwrap();
    assert_eq!(valid.plan().len(), 2);
}

/// A scenario that panics for `x > 1`.
struct Fragile;

impl Scenario for Fragile {
    fn id(&self) -> &'static str {
        "fragile"
    }
    fn summary(&self) -> &'static str {
        "panics for x > 1"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::new("x", "input", 0.0)]
    }
    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let x = params.number("x")?;
        assert!(x <= 1.0, "x = {x} is out of range");
        Ok(ScenarioOutput::default().with_scalar("x", x))
    }
}

#[test]
fn a_panicking_job_fails_alone() {
    let mut registry = Registry::new();
    registry.register(Arc::new(Fragile));
    let engine = Engine::new(registry).with_workers(1);
    let plan = SweepPlan::new("fragile").axis("x", vec![0.0, 2.0, 1.0]);
    let outcome = engine.sweep(&plan).unwrap();
    assert_eq!((outcome.errors, outcome.skipped), (1, 0));
    let tiers: Vec<Tier> = outcome.jobs.iter().map(|j| j.tier).collect();
    assert_eq!(tiers, [Tier::Computed, Tier::Failed, Tier::Computed]);
    let message = outcome.jobs[1].result.as_ref().unwrap_err();
    assert_eq!(
        message,
        "scenario `fragile` failed: panicked: x = 2 is out of range"
    );
    // A single run of the same point is the same typed error.
    assert!(matches!(
        engine.run("fragile", &ParamSet::new().with("x", 2.0)),
        Err(EngineError::Scenario { .. })
    ));
}
