//! [`Run`]: one journaled sweep, the single execution path behind
//! `mramsim sweep`, `mramsim campaign`, `sweep --resume`, and every
//! `mramsim serve` job.

use crate::{
    Engine, EngineError, JobEvent, SweepJournal, SweepOptions, SweepOutcome, SweepPlan, ValidPlan,
};
use std::path::Path;

/// One sweep execution over a validated plan, owning its
/// [`SweepJournal`] (and run lock) when a cache directory and a
/// disk-tier engine give it something to resume from.
#[derive(Debug)]
pub struct Run<'e> {
    engine: &'e Engine,
    plan: ValidPlan,
    run_id: String,
    journal: Option<SweepJournal>,
    journaled: usize,
}

impl<'e> Run<'e> {
    /// Opens a fresh run of `plan` (validated by `engine`), creating
    /// its journal under `cache_dir/runs/` when the run is journaled.
    ///
    /// # Errors
    ///
    /// [`SweepJournal::create`]'s: [`EngineError::Persistence`] or
    /// [`EngineError::RunInFlight`].
    pub fn open(
        engine: &'e Engine,
        plan: ValidPlan,
        cache_dir: Option<&Path>,
    ) -> Result<Self, EngineError> {
        let run_id = SweepJournal::run_id(plan.plan());
        let journal = match (cache_dir, engine.store()) {
            (Some(dir), Some(_)) => Some(SweepJournal::create(
                SweepJournal::path_for(dir, &run_id),
                plan.plan(),
            )?),
            _ => None,
        };
        Ok(Self {
            engine,
            plan,
            run_id,
            journal,
            journaled: 0,
        })
    }

    /// Reopens the journaled run `run_id` under `cache_dir`, reloading
    /// and re-validating its plan; executing it serves the journaled
    /// points from the disk tier and computes the rest.
    ///
    /// # Errors
    ///
    /// [`SweepJournal::resume`]'s, then [`Engine::validate`]'s.
    pub fn resume(engine: &'e Engine, cache_dir: &Path, run_id: &str) -> Result<Self, EngineError> {
        let (journal, state) = SweepJournal::resume(SweepJournal::path_for(cache_dir, run_id))?;
        Ok(Self {
            engine,
            plan: engine.validate(&state.plan)?,
            run_id: SweepJournal::run_id(&state.plan),
            journal: Some(journal),
            journaled: state.done.len(),
        })
    }

    /// The run id: scenario plus a content hash of the plan.
    #[must_use]
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The plan being run.
    #[must_use]
    pub fn plan(&self) -> &SweepPlan {
        self.plan.plan()
    }

    /// The journal's path (`None` for an unjournaled run).
    #[must_use]
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(SweepJournal::path)
    }

    /// Points already journaled when the run was resumed (0 if fresh).
    #[must_use]
    pub fn journaled(&self) -> usize {
        self.journaled
    }

    /// Executes the run, journaling each successful point before
    /// `options.on_done` sees it. A journal lock that a panic poisoned
    /// is reported once on stderr; the run lock is released on return.
    pub fn execute(self, options: &SweepOptions<'_>) -> SweepOutcome {
        let journal = self.journal;
        let on_done = |event: &JobEvent<'_>| {
            if let (true, Some(journal)) = (event.ok, &journal) {
                journal.record(event.index, event.key);
            }
            if let Some(on_done) = options.on_done {
                on_done(event);
            }
        };
        let options = SweepOptions {
            on_done: Some(&on_done),
            ..*options
        };
        let outcome = self.engine.sweep_valid(self.plan, &options);
        if let Some(poisoned) = journal.as_ref().and_then(SweepJournal::poison_error) {
            crate::note!("warning: {poisoned}\n");
        }
        outcome
    }
}
