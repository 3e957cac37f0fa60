//! The [`Engine`]: cache-aware scenario execution and parallel sweeps,
//! with an optional persistent disk tier and checkpointed (resumable)
//! sweep execution.

use crate::cache::{fnv1a, ResultCache};
use crate::store::{DiskStats, DiskStore};
use crate::{EngineError, ParamSet, Registry, Scenario, ScenarioOutput, SweepPlan, ValidPlan};
use mramsim_core::report::Table;
use mramsim_numerics::memo::MemoStats;
use mramsim_numerics::pool::WorkerPool;
use mramsim_telemetry as telemetry;
use mramsim_telemetry::{TreeSpan, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of the in-memory result cache: large enough that
/// every realistic interactive session is fully served, small enough
/// that an unbounded campaign cannot grow the map without limit (the
/// disk tier, when enabled, still serves evicted points).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The base seed folded into derived per-job seeds.
const BASE_SEED: u64 = 2020;

/// Where a job ended in the engine's lookup order: memory → disk →
/// compute, or not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-memory result cache.
    Warm,
    /// Served from the on-disk store (and promoted into memory).
    Disk,
    /// Computed now, then stored back into both tiers.
    Computed,
    /// Not attempted: the sweep's job budget ran out or the sweep was
    /// cancelled. Resuming the run computes it.
    Skipped,
    /// The scenario returned an error or panicked.
    Failed,
}

impl Tier {
    /// The tier's `source` string in `job.done` telemetry events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Warm => "warm",
            Self::Disk => "disk",
            Self::Computed => "computed",
            Self::Skipped => "skipped",
            Self::Failed => "error",
        }
    }

    /// Whether a cache tier (memory or disk) served the result.
    #[must_use]
    pub fn is_cache_hit(self) -> bool {
        matches!(self, Self::Warm | Self::Disk)
    }
}

/// The outcome of one cache-aware [`Engine::run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The scenario output (shared with the cache).
    pub output: Arc<ScenarioOutput>,
    /// The tier that served it: [`Tier::Warm`], [`Tier::Disk`], or
    /// [`Tier::Computed`] (failures are the call's `Err`).
    pub tier: Tier,
    /// Wall-clock time of this call (≈0 for hits).
    pub duration: Duration,
}

/// One job of a sweep: the grid point and its result.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The axis values of this grid point, in axis order.
    pub point: Vec<(String, f64)>,
    /// The fully resolved parameters the job ran with.
    pub params: ParamSet,
    /// The result, or the rendered error.
    pub result: Result<Arc<ScenarioOutput>, String>,
    /// Whether this job was served from a cache tier
    /// ([`Tier::is_cache_hit`]).
    pub cache_hit: bool,
    /// Where the job ended.
    pub tier: Tier,
}

/// The outcome of one [`Engine::sweep`].
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The swept scenario id.
    pub scenario: String,
    /// One entry per grid point, in deterministic expansion order.
    pub jobs: Vec<SweepJob>,
    /// Jobs served from a cache tier.
    pub cache_hits: usize,
    /// Jobs served from the on-disk store (subset of `cache_hits`).
    pub disk_hits: usize,
    /// Jobs that failed (excluding budget-skipped jobs).
    pub errors: usize,
    /// Jobs not attempted because the job budget ran out.
    pub skipped: usize,
    /// Wall-clock time of the whole sweep.
    pub duration: Duration,
}

/// A completed (or skipped) sweep job, as seen by
/// [`SweepOptions::on_done`] the moment it finishes — the hook that
/// lets a journal checkpoint progress while the sweep is still
/// running.
#[derive(Debug, Clone, Copy)]
pub struct JobEvent<'a> {
    /// The job's index in deterministic expansion order.
    pub index: usize,
    /// The job's content address (`ResultCache::versioned_key`).
    pub key: u64,
    /// The fully resolved parameters.
    pub params: &'a ParamSet,
    /// Whether the job succeeded (skipped jobs are not successes).
    pub ok: bool,
    /// Where the job ended.
    pub tier: Tier,
    /// Wall-clock time of this job (≈0 for cache hits and skips).
    pub duration: Duration,
}

/// Execution knobs of [`Engine::sweep_with`].
#[derive(Default)]
pub struct SweepOptions<'a> {
    /// Run at most this many jobs that would actually *compute*
    /// (cache-served jobs are free and never count). Jobs beyond the
    /// budget end as [`Tier::Skipped`]; a later run — or `--resume` —
    /// picks them up. `None` = unlimited.
    pub limit: Option<usize>,
    /// Called for every finished job, from the worker threads, as soon
    /// as the job completes (not in expansion order).
    pub on_done: Option<&'a (dyn Fn(&JobEvent<'_>) + Sync)>,
    /// Cooperative cancellation: when the flag flips to `true`, jobs
    /// that have not started yet end as [`Tier::Skipped`] — exactly
    /// like budget exhaustion, so a journaled run stays
    /// `--resume`-able. In-flight jobs run to completion (and are
    /// journaled); the sweep still returns a full, well-formed
    /// [`SweepOutcome`]. This is how a draining server stops a sweep
    /// without corrupting anything.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

impl std::fmt::Debug for SweepOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("limit", &self.limit)
            .field("on_done", &self.on_done.map(|_| "…"))
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .finish()
    }
}

impl SweepOutcome {
    /// Summarises the grid as one table: axis columns plus every
    /// headline scalar of the scenario, one row per job. When any job
    /// failed, a trailing `status` column carries the error so an
    /// all-failed sweep can never masquerade as a successful one.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let axis_names: Vec<&str> = self
            .jobs
            .first()
            .map(|j| j.point.iter().map(|(n, _)| n.as_str()).collect())
            .unwrap_or_default();
        // The scalar columns are the first-seen-ordered union over
        // *every* successful job, not just the first one: a scenario
        // may legitimately omit a scalar at some grid points (e.g.
        // switch-traj's mean_ns when nothing switched), and the
        // summary must still carry the column for the points that
        // have it — absent values render as "-".
        let mut scalar_names: Vec<&str> = Vec::new();
        for job in &self.jobs {
            if let Ok(out) = &job.result {
                for (name, _) in &out.scalars {
                    if !scalar_names.contains(&name.as_str()) {
                        scalar_names.push(name);
                    }
                }
            }
        }
        let with_status = self.errors > 0
            || self.skipped > 0
            || (axis_names.is_empty() && scalar_names.is_empty());
        let mut columns: Vec<&str> = axis_names.clone();
        columns.extend(&scalar_names);
        if with_status {
            columns.push("status");
        }
        let mut table = Table::new(
            &format!("sweep: {} ({} points)", self.scenario, self.jobs.len()),
            &columns,
        );
        for job in &self.jobs {
            let mut row: Vec<String> = job.point.iter().map(|(_, v)| format!("{v}")).collect();
            for name in &scalar_names {
                row.push(match &job.result {
                    Ok(out) => out
                        .scalar(name)
                        .map_or_else(|| "-".to_owned(), |v| format!("{v:.6}")),
                    Err(_) => "-".to_owned(),
                });
            }
            if with_status {
                row.push(match &job.result {
                    Ok(_) => "ok".to_owned(),
                    Err(_) if job.tier == Tier::Skipped => "skipped".to_owned(),
                    Err(e) => format!("error: {e}"),
                });
            }
            table.push_row(&row);
        }
        table
    }
}

/// The compute step of an [`Engine::walk`]: the point to run on a
/// miss, under the sweep's job budget (slots claimed so far, limit).
struct Compute<'a> {
    id: &'a str,
    params: &'a ParamSet,
    budget: Option<(&'a AtomicUsize, usize)>,
}

/// Where one [`Engine::walk`] ended: `served` is `Ok(None)` when the
/// caches missed and nothing was computed, and `job_span` is a sweep
/// job's span, kept open over its completion events.
struct Walk {
    served: Result<Option<(Tier, Arc<ScenarioOutput>)>, EngineError>,
    duration: Duration,
    job_span: Option<TreeSpan>,
}

/// Runs one scenario point with any panic contained: the panic becomes
/// this point's [`EngineError::Scenario`], so one bad point can take
/// down neither its sweep nor the server thread running it.
fn run_contained(
    scenario: &dyn Scenario,
    params: &ParamSet,
) -> Result<ScenarioOutput, EngineError> {
    catch_unwind(AssertUnwindSafe(|| scenario.run(params))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(EngineError::Scenario {
            scenario: scenario.id().to_owned(),
            message: format!("panicked: {message}"),
        })
    })
}

/// The unified scenario-execution engine.
///
/// Owns a [`Registry`], a content-addressed [`ResultCache`], and a
/// [`WorkerPool`]; every run — single or swept — flows through the
/// same resolve → cache-lookup → execute → insert path.
///
/// # Examples
///
/// ```
/// use mramsim_engine::{Engine, ParamSet, Tier};
///
/// let engine = Engine::standard();
/// let first = engine.run("fig4a", &ParamSet::new())?;
/// let again = engine.run("fig4a", &ParamSet::new())?;
/// assert_eq!((first.tier, again.tier), (Tier::Computed, Tier::Warm));
/// # Ok::<(), mramsim_engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    registry: Registry,
    cache: ResultCache,
    store: Option<DiskStore>,
    pool: WorkerPool,
}

impl Engine {
    /// An engine over the standard registry and default parallelism.
    #[must_use]
    pub fn standard() -> Self {
        Self::new(Registry::standard())
    }

    /// An engine over a custom registry, with a memory-only cache
    /// bounded at [`DEFAULT_CACHE_CAPACITY`] entries and no disk tier.
    #[must_use]
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            cache: ResultCache::with_capacity(DEFAULT_CACHE_CAPACITY),
            store: None,
            pool: WorkerPool::with_default_parallelism(),
        }
    }

    /// Overrides the sweep worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool = WorkerPool::new(workers);
        self
    }

    /// Overrides the in-memory cache capacity (entries). The existing
    /// cache is replaced, so call this before running anything.
    #[must_use]
    pub fn with_cache_capacity(mut self, limit: usize) -> Self {
        self.cache = ResultCache::with_capacity(limit);
        self
    }

    /// Layers the persistent on-disk result store at `dir` under the
    /// in-memory cache (read-through / write-through): lookups fall
    /// back to disk before computing, and every computed result is
    /// persisted, so a second process over the same directory is
    /// served without recomputation.
    ///
    /// # Errors
    ///
    /// [`EngineError::Persistence`] when the directory cannot be
    /// created.
    pub fn with_disk_cache(mut self, dir: impl AsRef<Path>) -> Result<Self, EngineError> {
        self.store = Some(DiskStore::open(dir)?);
        Ok(self)
    }

    /// The on-disk store, when one is attached.
    #[must_use]
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// Disk-tier counters, when a store is attached.
    #[must_use]
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.store.as_ref().map(DiskStore::stats)
    }

    /// The registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> MemoStats {
        self.cache.stats()
    }

    /// Drops every cached result.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The sweep worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Resolves `overrides` against the scenario's declared defaults.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownScenario`] / [`EngineError::UnknownParameter`].
    pub fn resolve(&self, id: &str, overrides: &ParamSet) -> Result<ParamSet, EngineError> {
        let scenario = self.registry.get(id)?;
        let specs = scenario.params();
        let mut resolved = ParamSet::defaults(&specs);
        for (name, value) in overrides.iter() {
            if !specs.iter().any(|s| s.name == name) {
                return Err(EngineError::UnknownParameter {
                    scenario: id.to_owned(),
                    name: name.to_owned(),
                });
            }
            resolved.insert(name, value.clone());
        }
        Ok(resolved)
    }

    /// The one plan check, behind [`Engine::sweep_with`], every
    /// [`Run`](crate::Run), and served submissions: the scenario
    /// exists, every fixed and axis name is declared, and the plan
    /// expands — into resolved, seeded grid points, ready to execute.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownScenario`], [`EngineError::UnknownParameter`],
    /// or [`EngineError::InvalidParameter`] for an empty axis or a name
    /// that appears twice.
    pub fn validate(&self, plan: &SweepPlan) -> Result<ValidPlan, EngineError> {
        let id = plan.scenario();
        let specs = self.registry.get(id)?.params();
        let axis_names = plan.axes().iter().map(|(name, _)| name.as_str());
        for name in axis_names.chain(plan.fixed().iter().map(|(name, _)| name)) {
            if !specs.iter().any(|s| s.name == name) {
                return Err(EngineError::UnknownParameter {
                    scenario: id.to_owned(),
                    name: name.to_owned(),
                });
            }
        }
        let has_seed = specs.iter().any(|s| s.name == "seed");
        let points = plan
            .expand()?
            .into_iter()
            .map(|overrides| {
                let point: Vec<(String, f64)> = plan
                    .axes()
                    .iter()
                    .map(|(name, _)| (name.clone(), overrides.number(name).expect("axis value")))
                    .collect();
                let mut params = self.resolve(id, &overrides)?;
                // Deterministic per-job seeding: independent of worker
                // scheduling, stable across runs, unique per grid point
                // — unless the caller pinned the seed explicitly.
                if has_seed && !overrides.contains("seed") {
                    let derived = BASE_SEED ^ fnv1a(params.fingerprint().as_bytes());
                    // 32 bits: exactly representable in the f64 that
                    // `ParamValue::Number` stores and well inside the
                    // integer cap `ParamSet::count` enforces.
                    params.insert("seed", f64::from(derived as u32));
                }
                Ok((point, params))
            })
            .collect::<Result<_, EngineError>>()?;
        Ok(ValidPlan {
            plan: plan.clone(),
            points,
        })
    }

    /// Runs one scenario, serving repeats from the cache.
    ///
    /// # Errors
    ///
    /// Resolution errors plus whatever the scenario itself returns (a
    /// panic comes back as [`EngineError::Scenario`]).
    pub fn run(&self, id: &str, overrides: &ParamSet) -> Result<RunOutcome, EngineError> {
        let params = self.resolve(id, overrides)?;
        let compute = Compute {
            id,
            params: &params,
            budget: None,
        };
        let key = self.key(id, &params);
        let walk = self.walk(key, Instant::now(), None, Some(compute));
        let (tier, output) = walk.served?.expect("without a budget every miss computes");
        Ok(RunOutcome {
            output,
            tier,
            duration: walk.duration,
        })
    }

    /// The content address of resolved `params` under the registered
    /// scenario `id`, at the scenario's model version
    /// ([`ResultCache::versioned_key`]).
    fn key(&self, id: &str, params: &ParamSet) -> u64 {
        let version = self.registry.get(id).map_or(1, |s| s.version());
        ResultCache::versioned_key(id, version, &params.fingerprint())
    }

    /// Looks a result up by its content address across both cache
    /// tiers — memory first, then the disk store (promoting the entry
    /// into memory on the way) — without ever computing anything.
    /// `None` means the key was never computed under this cache
    /// directory, or has been evicted from a memory-only engine.
    ///
    /// This is the read side of the serve API's `GET /results/<key>`:
    /// submission responses hand out the key
    /// ([`ResultCache::versioned_key`] over scenario id, model version
    /// and parameter fingerprint), and any client holding it can fetch
    /// the output from the shared warm cache.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<Arc<ScenarioOutput>> {
        let walk = self.walk(key, Instant::now(), None, None);
        walk.served.ok().flatten().map(|(_, output)| output)
    }

    /// The one walk down the tiers, behind [`Engine::run`],
    /// [`Engine::lookup`] (no compute step), and every sweep job:
    /// memory → disk (promoting into memory) → budget claim → compute →
    /// store-back. The budget slot is claimed only at the compute step,
    /// so a corrupt disk entry that falls through pays for its compute.
    /// Memory hits open no span (tracing a hashmap get would cost more
    /// than it measures); a sweep job (`job` = its index) that misses
    /// memory opens a `job` span over `disk.load`, `compute`, and
    /// `disk.store`.
    fn walk(
        &self,
        key: u64,
        start: Instant,
        job: Option<usize>,
        compute: Option<Compute<'_>>,
    ) -> Walk {
        let mut job_span = None;
        let served = 'walk: {
            if let Some(output) = self.cache.get(key) {
                break 'walk Ok(Some((Tier::Warm, output)));
            }
            job_span = job.map(|index| {
                telemetry::span_tree_with("job", &[("index", Value::U64(index as u64))])
            });
            if let Some(store) = &self.store {
                let load = telemetry::span_tree("disk.load");
                let loaded = store.load(key);
                load.finish();
                if let Some(output) = loaded {
                    // Promote into the memory tier; repeats are then free.
                    let output = Arc::new(output);
                    self.cache.insert(key, Arc::clone(&output));
                    break 'walk Ok(Some((Tier::Disk, output)));
                }
            }
            let Some(compute) = compute else {
                break 'walk Ok(None);
            };
            if let Some((claimed, limit)) = compute.budget {
                if claimed.fetch_add(1, Ordering::Relaxed) >= limit {
                    break 'walk Ok(None);
                }
            }
            let span = telemetry::span_tree("compute");
            let scenario = self.registry.get(compute.id);
            let ran = scenario.and_then(|s| run_contained(s.as_ref(), compute.params));
            span.finish();
            ran.map(|output| {
                let output = Arc::new(output);
                self.cache.insert(key, Arc::clone(&output));
                if let Some(store) = &self.store {
                    let save = telemetry::span_tree("disk.store");
                    store.save(key, &output);
                    save.finish();
                }
                Some((Tier::Computed, output))
            })
        };
        let duration = start.elapsed();
        if let Ok(Some((tier, _))) = &served {
            let histogram = match tier {
                Tier::Warm => "engine.warm_lookup_s",
                Tier::Disk => "engine.disk_load_s",
                _ => "engine.compute_s",
            };
            telemetry::observe(histogram, duration.as_secs_f64());
        }
        Walk {
            served,
            duration,
            job_span,
        }
    }

    /// Expands a [`SweepPlan`] and executes every grid point on the
    /// worker pool, cache-aware and with deterministic per-job seeds.
    ///
    /// Individual job failures do not abort the sweep; they surface in
    /// [`SweepJob::result`] and [`SweepOutcome::errors`].
    ///
    /// # Errors
    ///
    /// Plan-level problems only, as [`Engine::validate`] reports them.
    pub fn sweep(&self, plan: &SweepPlan) -> Result<SweepOutcome, EngineError> {
        self.sweep_with(plan, &SweepOptions::default())
    }

    /// [`Engine::sweep`] with execution knobs: a compute-job budget
    /// (for checkpointed partial runs), a per-job completion hook, and
    /// cooperative cancellation. See [`SweepOptions`]; for a journaled,
    /// resumable sweep use a [`Run`](crate::Run).
    ///
    /// # Errors
    ///
    /// Plan-level problems only, as for [`Engine::sweep`].
    pub fn sweep_with(
        &self,
        plan: &SweepPlan,
        options: &SweepOptions<'_>,
    ) -> Result<SweepOutcome, EngineError> {
        Ok(self.sweep_valid(self.validate(plan)?, options))
    }

    /// The sweep loop over an already validated plan: every grid point
    /// walks the tiers on the worker pool.
    pub(crate) fn sweep_valid(&self, plan: ValidPlan, options: &SweepOptions<'_>) -> SweepOutcome {
        let id = plan.plan.scenario();
        let start = Instant::now();
        // The sweep root span: every job span (and everything under
        // it, down to kernel builds and journal flushes on worker
        // threads) nests here via the pool's context propagation.
        let mut sweep_span = None;
        if telemetry::enabled() {
            telemetry::event(
                "sweep.start",
                &[
                    ("scenario", Value::Text(id.to_owned())),
                    ("jobs", Value::U64(plan.points.len() as u64)),
                    ("workers", Value::U64(self.pool.workers() as u64)),
                ],
            );
            telemetry::set_lane_label("sweep");
            sweep_span = Some(telemetry::span_tree_with(
                "sweep",
                &[("scenario", Value::Text(id.to_owned()))],
            ));
        }
        let computed = AtomicUsize::new(0);
        let budget = options.limit.map(|limit| (&computed, limit));
        let busy_ns = AtomicU64::new(0);
        // Scenarios with internal parallelism (the Monte-Carlo dynamics,
        // field maps, Ψ sweeps) open default pools, which the pool
        // sizes to each job's share of the machine.
        let results = self.pool.scoped_map(&plan.points, |index, (_, params)| {
            let key = self.key(id, params);
            let job_start = Instant::now();
            // Cooperative cancellation (a draining server): jobs that
            // have not started when the flag flips are skipped — like
            // budget exhaustion — so the journal stays resumable.
            let (tier, result, duration, _job_span) =
                if options.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    let cancelled = "not run: sweep cancelled (resume to continue)";
                    let duration = job_start.elapsed();
                    (Tier::Skipped, Err(cancelled.to_owned()), duration, None)
                } else {
                    let compute = Compute { id, params, budget };
                    let walk = self.walk(key, job_start, Some(index), Some(compute));
                    let (tier, result) = match walk.served {
                        Ok(Some((tier, output))) => (tier, Ok(output)),
                        Ok(None) => (
                            Tier::Skipped,
                            Err("not run: sweep job budget exhausted (resume to continue)"
                                .to_owned()),
                        ),
                        Err(e) => (Tier::Failed, Err(e.to_string())),
                    };
                    (tier, result, walk.duration, walk.job_span)
                };
            if tier != Tier::Skipped {
                busy_ns.fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
            }
            if telemetry::enabled() {
                telemetry::event(
                    "job.done",
                    &[
                        ("index", Value::U64(index as u64)),
                        ("source", Value::Text(tier.as_str().to_owned())),
                        ("duration_ns", Value::U64(duration.as_nanos() as u64)),
                        ("ok", Value::Bool(result.is_ok())),
                        ("scenario", Value::Text(id.to_owned())),
                    ],
                );
            }
            if let Some(on_done) = options.on_done {
                on_done(&JobEvent {
                    index,
                    key,
                    params,
                    ok: result.is_ok(),
                    tier,
                    duration,
                });
            }
            (tier, result)
        });

        let (mut cache_hits, mut disk_hits, mut errors, mut skipped) = (0, 0, 0, 0);
        for (tier, _) in &results {
            match tier {
                Tier::Warm => cache_hits += 1,
                Tier::Disk => {
                    cache_hits += 1;
                    disk_hits += 1;
                }
                Tier::Computed => {}
                Tier::Skipped => skipped += 1,
                Tier::Failed => errors += 1,
            }
        }
        let duration = start.elapsed();
        telemetry::counter_add("engine.busy_ns", busy_ns.load(Ordering::Relaxed));
        telemetry::observe("engine.sweep_s", duration.as_secs_f64());
        if telemetry::enabled() {
            telemetry::event(
                "sweep.end",
                &[
                    ("duration_ns", Value::U64(duration.as_nanos() as u64)),
                    ("cache_hits", Value::U64(cache_hits as u64)),
                    ("disk_hits", Value::U64(disk_hits as u64)),
                    ("errors", Value::U64(errors as u64)),
                    ("skipped", Value::U64(skipped as u64)),
                ],
            );
        }
        // Close the root span last so the trace covers the whole run,
        // end events included.
        drop(sweep_span);
        let jobs = plan
            .points
            .into_iter()
            .zip(results)
            .map(|((point, params), (tier, result))| SweepJob {
                point,
                params,
                result,
                cache_hit: tier.is_cache_hit(),
                tier,
            })
            .collect();
        SweepOutcome {
            scenario: id.to_owned(),
            jobs,
            cache_hits,
            disk_hits,
            errors,
            skipped,
            duration,
        }
    }

    /// Runs every registered scenario with default parameters and
    /// renders one combined Markdown report.
    ///
    /// Failures are embedded in the report rather than aborting it.
    #[must_use]
    pub fn report(&self, ids: &[&str]) -> String {
        let mut out = String::from("# mramsim report\n\n");
        let ids: Vec<&str> = if ids.is_empty() {
            self.registry.ids().collect()
        } else {
            ids.to_vec()
        };
        for id in ids {
            out.push_str(&format!("## {id}\n\n"));
            match self.run(id, &ParamSet::new()) {
                Ok(outcome) => out.push_str(&outcome.output.to_markdown()),
                Err(e) => out.push_str(&format!("**failed:** {e}\n")),
            }
            out.push('\n');
        }
        let stats = self.cache_stats();
        out.push_str(&format!(
            "---\n{} scenario(s), cache: {} hit(s) / {} miss(es), {} entries\n",
            self.registry.len(),
            stats.hits,
            stats.misses,
            stats.entries
        ));
        out
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_shareable_across_threads() {
        // The serve module hands one `Arc<Engine>` to every request
        // handler thread; this pins the auto-traits that makes legal.
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<Engine>();
        assert_shareable::<std::sync::Arc<Engine>>();
    }

    #[test]
    fn lookup_serves_both_tiers_without_computing() {
        let dir = crate::store::TempDir::new("lookup");
        let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
        let params = engine.resolve("fig4a", &ParamSet::new()).unwrap();
        let key = ResultCache::key("fig4a", &params.fingerprint());
        assert!(engine.lookup(key).is_none(), "nothing computed yet");
        let run = engine.run("fig4a", &ParamSet::new()).unwrap();
        let warm = engine.lookup(key).expect("memory tier");
        assert!(Arc::ptr_eq(&run.output, &warm));
        // A second engine over the same directory serves from disk and
        // promotes into its own memory tier.
        let cold = Engine::standard().with_disk_cache(&dir.0).unwrap();
        assert!(cold.lookup(key).is_some(), "disk tier");
        assert_eq!(cold.cache_stats().entries, 1, "promoted into memory");
    }

    #[test]
    fn cancelled_sweeps_skip_cleanly() {
        use std::sync::atomic::AtomicBool;
        let engine = Engine::standard().with_workers(1);
        let plan = SweepPlan::new("fig4b").axis("pitch", vec![90.0, 120.0, 150.0, 200.0]);
        // Flip the flag after the second job completes: the remaining
        // jobs must come back skipped, not half-run.
        let cancel = AtomicBool::new(false);
        let seen = AtomicUsize::new(0);
        let outcome = engine
            .sweep_with(
                &plan,
                &SweepOptions {
                    cancel: Some(&cancel),
                    on_done: Some(&|event: &JobEvent<'_>| {
                        if seen.fetch_add(1, Ordering::Relaxed) + 1 == 2 {
                            cancel.store(true, Ordering::Relaxed);
                        }
                        assert_eq!(event.ok, event.tier != Tier::Skipped);
                    }),
                    ..SweepOptions::default()
                },
            )
            .unwrap();
        assert_eq!(outcome.jobs.len(), 4, "outcome still covers the grid");
        assert_eq!(outcome.skipped, 2);
        assert_eq!(outcome.errors, 0, "skips are not errors");
        for job in &outcome.jobs[2..] {
            assert_eq!(job.tier, Tier::Skipped);
            let message = job.result.as_ref().unwrap_err();
            assert!(message.contains("cancelled"), "{message}");
        }
        // A fresh sweep without the flag completes the rest.
        let finished = engine.sweep(&plan).unwrap();
        assert_eq!(finished.skipped, 0);
        assert_eq!(finished.cache_hits, 2, "completed jobs were cached");
    }

    #[test]
    fn unknown_scenario_and_parameter_are_rejected() {
        let engine = Engine::standard();
        assert!(matches!(
            engine.run("nope", &ParamSet::new()),
            Err(EngineError::UnknownScenario { .. })
        ));
        assert!(matches!(
            engine.run("fig4a", &ParamSet::new().with("bogus", 1.0)),
            Err(EngineError::UnknownParameter { .. })
        ));
        assert!(matches!(
            engine.sweep(&SweepPlan::new("fig4a").axis("bogus", vec![1.0])),
            Err(EngineError::UnknownParameter { .. })
        ));
    }

    #[test]
    fn repeated_runs_hit_the_cache() {
        let engine = Engine::standard();
        let first = engine.run("fig4a", &ParamSet::new()).unwrap();
        let second = engine.run("fig4a", &ParamSet::new()).unwrap();
        assert_eq!(first.tier, Tier::Computed);
        assert_eq!(second.tier, Tier::Warm);
        assert!(Arc::ptr_eq(&first.output, &second.output));
        // A different parameter point is a different cache entry.
        let third = engine
            .run("fig4a", &ParamSet::new().with("pitch", 120.0))
            .unwrap();
        assert_eq!(third.tier, Tier::Computed);
    }

    #[test]
    fn sweep_executes_the_whole_grid_in_order() {
        let engine = Engine::standard().with_workers(4);
        let plan = SweepPlan::new("fig4b")
            .axis("ecd", vec![20.0, 35.0, 55.0])
            .axis("pitch", vec![90.0, 120.0, 150.0, 200.0]);
        let outcome = engine.sweep(&plan).unwrap();
        assert_eq!(outcome.jobs.len(), 12);
        assert_eq!(outcome.errors, 0);
        assert_eq!(outcome.cache_hits, 0);
        // Deterministic expansion order: first axis slowest.
        assert_eq!(
            outcome.jobs[0].point,
            vec![("ecd".into(), 20.0), ("pitch".into(), 90.0)]
        );
        assert_eq!(
            outcome.jobs[5].point,
            vec![("ecd".into(), 35.0), ("pitch".into(), 120.0)]
        );
        // Ψ decreases along every pitch row.
        for row in outcome.jobs.chunks(4) {
            let psis: Vec<f64> = row
                .iter()
                .map(|j| j.result.as_ref().unwrap().scalar("psi").unwrap())
                .collect();
            assert!(psis.windows(2).all(|w| w[0] > w[1]), "psis = {psis:?}");
        }
        let summary = outcome.summary_table();
        assert_eq!(summary.row_count(), 12);

        // Re-sweeping the same grid is served entirely from the cache.
        let warm = engine.sweep(&plan).unwrap();
        assert_eq!(warm.cache_hits, 12);
    }

    #[test]
    fn sweep_jobs_get_distinct_deterministic_seeds() {
        let engine = Engine::standard();
        let plan = SweepPlan::new("fig2a").axis("ecd", vec![35.0, 55.0]);
        let outcome = engine.sweep(&plan).unwrap();
        // The derived seeds must actually be accepted by the scenario
        // (regression: 48-bit seeds tripped `ParamSet::count`'s cap).
        assert_eq!(outcome.errors, 0, "derived seeds were rejected");
        let seeds: Vec<f64> = outcome
            .jobs
            .iter()
            .map(|j| j.params.number("seed").unwrap())
            .collect();
        assert_ne!(seeds[0], seeds[1], "grid points must not share a seed");
        let again = engine.sweep(&plan).unwrap();
        let seeds_again: Vec<f64> = again
            .jobs
            .iter()
            .map(|j| j.params.number("seed").unwrap())
            .collect();
        assert_eq!(seeds, seeds_again, "seeds must be stable across runs");
        // Pinning the seed disables derivation.
        let pinned = engine
            .sweep(
                &SweepPlan::new("fig2a")
                    .fix("seed", 7.0)
                    .axis("ecd", vec![35.0, 55.0]),
            )
            .unwrap();
        for job in &pinned.jobs {
            assert_eq!(job.params.number("seed").unwrap(), 7.0);
        }
    }

    #[test]
    fn sweep_summary_carries_scalars_missing_from_early_jobs() {
        // switch-traj omits mean/median/std when nothing switched; a
        // sub-critical deterministic first point must not erase those
        // columns for the whole sweep (regression: columns came from
        // the first successful job only).
        let engine = Engine::standard();
        let plan = SweepPlan::new("switch-traj")
            .fix("trajectories", 8.0)
            .fix("thermal", 0.0)
            .fix("span_ns", 4.0)
            .axis("overdrive", vec![0.2, 3.0]);
        let outcome = engine.sweep(&plan).unwrap();
        assert_eq!(outcome.errors, 0);
        let first = outcome.jobs[0].result.as_ref().unwrap();
        assert_eq!(
            first.scalar("switched"),
            Some(0.0),
            "sub-critical drive without thermal noise must not switch"
        );
        assert_eq!(first.scalar("mean_ns"), None);
        let csv = outcome.summary_table().to_csv();
        let header = csv.lines().next().unwrap();
        assert!(
            header.contains("mean_ns") && header.contains("std_ns"),
            "columns present on any job must survive: {header}"
        );
        // The none-switched row renders "-" for the absent stats.
        let first_row = csv.lines().nth(1).unwrap();
        assert!(first_row.contains(",-"), "{first_row}");
    }

    #[test]
    fn job_failures_are_contained() {
        let engine = Engine::standard();
        // 10 nm pitch is smaller than the 35 nm device: that job fails,
        // the rest of the grid still completes.
        let plan = SweepPlan::new("fig4b").axis("pitch", vec![10.0, 90.0]);
        let outcome = engine.sweep(&plan).unwrap();
        assert_eq!(outcome.errors, 1);
        assert!(outcome.jobs[0].result.is_err());
        assert!(outcome.jobs[1].result.is_ok());
        let summary = outcome.summary_table();
        assert!(summary.to_markdown().contains("error:"));
    }

    #[test]
    fn report_covers_selected_scenarios() {
        let engine = Engine::standard();
        let report = engine.report(&["fig4a", "explore"]);
        assert!(report.contains("## fig4a"));
        assert!(report.contains("## explore"));
        assert!(report.contains("cache:"));
    }
}
