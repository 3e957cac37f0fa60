//! # mramsim-engine
//!
//! The unified scenario-execution layer of the `mramsim` workspace:
//! one production entry point over the ten figure drivers, the WER
//! extension, the design-space explorer, and the fault simulator.
//!
//! * [`Scenario`] — the uniform `run(params) -> ScenarioOutput`
//!   interface, with a [`Registry`] of the sixteen standard
//!   scenarios (figures, explorer, faults, Monte-Carlo dynamics, and
//!   the `array-wer` write campaign),
//! * [`SweepPlan`] — cartesian parameter grids (pitch × eCD ×
//!   temperature × voltage × …) with deterministic expansion order
//!   and per-job seeding,
//! * [`Engine`] — cache-aware execution on a shared work-stealing
//!   worker pool ([`pool`], re-exported from `mramsim-numerics`): one
//!   plan check ([`Engine::validate`]) and one walk down the tiers,
//!   each job ending in a [`Tier`] (a panicking scenario is a `Failed`
//!   point, not a dead sweep); a scenario's own pools (s-LLGS
//!   ensembles, field maps, Ψ sweeps) take its job's share of the
//!   machine, the pool's nested-width rule,
//! * a content-addressed in-memory result [`cache`], bounded with
//!   least-recently-used eviction on the shared
//!   [`memo`](mramsim_numerics::memo), so repeated grid points are
//!   served without recomputation,
//! * a persistent on-disk result [`store`] (schema-versioned, atomic,
//!   corruption-tolerant) layered under the memory tier, so repeats
//!   are served across *processes* too,
//! * checkpointed sweeps: a [`Run`] — the one execution path of the
//!   CLI and the server — logs every finished grid point to its
//!   [`journal`], so an interrupted campaign resumes by run id with
//!   byte-identical output,
//! * a concurrent HTTP/JSON simulation service over one shared engine
//!   ([`serve`]): job submission, streamed progress, content-addressed
//!   result fetches, admission control, and graceful drain,
//! * the `mramsim` CLI binary (`list`, `run`, `sweep`, `campaign`,
//!   `serve`, `report`, `stats`, `trace`, `diff`).
//!
//! # Quickstart
//!
//! ```
//! use mramsim_engine::{Engine, ParamSet, SweepPlan};
//!
//! let engine = Engine::standard().with_workers(4);
//!
//! // One scenario, one parameter point.
//! let run = engine.run("explore", &ParamSet::new().with("ecd", 35.0))?;
//! assert!(run.output.scalar("recommended_pitch_nm").unwrap() > 52.5);
//!
//! // A 2×3 grid, executed in parallel; repeats come from the cache.
//! let plan = SweepPlan::new("fig4b")
//!     .axis("ecd", vec![20.0, 55.0])
//!     .axis("pitch", vec![90.0, 120.0, 200.0]);
//! let sweep = engine.sweep(&plan)?;
//! assert_eq!(sweep.jobs.len(), 6);
//! assert_eq!(engine.sweep(&plan)?.cache_hits, 6);
//! # Ok::<(), mramsim_engine::EngineError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
mod engine;
mod error;
pub mod journal;
mod params;
mod registry;
mod run;
mod scenario;
pub mod serve;
pub mod store;
mod sweep;

pub use engine::{
    Engine, JobEvent, RunOutcome, SweepJob, SweepOptions, SweepOutcome, Tier,
    DEFAULT_CACHE_CAPACITY,
};
pub use error::EngineError;
pub use journal::{JournalState, SweepJournal};
pub use params::{parse_value, ParamSet, ParamSpec, ParamValue};
pub use registry::Registry;
pub use run::Run;
pub use scenario::{Scenario, ScenarioOutput};
pub use serve::{ServeConfig, Server};
pub use store::{DiskStats, DiskStore};
pub use sweep::{SweepPlan, ValidPlan};

/// `eprint!` that drops a failed write instead of panicking when
/// stderr's reader has gone away (`mramsim run fig4a 2>&1 >/dev/null |
/// true`): a lost diagnostic must not crash a command that succeeded.
/// Every diagnostic of the engine and the `mramsim` CLI goes through it.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::write!(::std::io::stderr(), $($arg)*);
    }};
}

/// The engine's worker pool, shared with `mramsim-array`'s sweeps.
///
/// The implementation lives in `mramsim_numerics::pool` (the lowest
/// crate both can depend on); this re-export is the canonical path.
pub use mramsim_numerics::pool;
