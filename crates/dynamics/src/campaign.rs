//! Array write campaigns: per-cell Monte-Carlo WER ensembles packed
//! densely into lane blocks on the shared worker pool.
//!
//! A campaign runs one WER ensemble per cell of an array, each cell
//! under its own applied stray field and drive. Its replicas are laid
//! out in (cell, replica) order and cut into blocks of [`LANES`] lanes
//! regardless of cell boundaries — a lane carries its own cell's
//! coefficients, drive and stream — so only the batch's last block holds
//! padding. Any thread may claim the batch's next block from a shared
//! cursor: the caller's pool, a request that needs one of the batch's
//! ensembles ([`crate::EnsembleMemo`]), or an idle worker of the
//! caller's dispatch ([`pool::post`]). Each block reduces to one
//! switched flag per lane on the thread that ran it, summed into
//! per-cell failure counts (**streaming aggregation** — per-replica
//! outcomes never leave that thread, and nothing is allocated per
//! replica or per block).
//!
//! Determinism contract: cell `c` runs on the derived seed
//! [`cell_seed`]`(plan.seed, c)` and every replica inside it on the
//! usual [`crate::llgs::replica_rng`] stream — both FNV-1a mixes of
//! position only. The campaign is therefore **bit-identical** to
//! running [`crate::wer_monte_carlo`] per cell with the derived seed,
//! for any worker count, packing, or cell count (property-tested in
//! this module and in `tests/props.rs`).

use crate::ensemble::{run_lanes, EnsemblePlan, LaneSpec, LANES};
use crate::llgs::MacrospinParams;
use crate::mc::WerEstimate;
use mramsim_numerics::hash::Fnv1a;
use mramsim_numerics::pool::{self, Help, WorkerPool};
use mramsim_telemetry as telemetry;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One cell's operating point in a campaign: its calibrated macrospin
/// coefficients (with the cell's total stray field already applied)
/// plus the drive current through that cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDrive {
    /// Calibrated coefficients including the cell's applied field.
    pub params: MacrospinParams,
    /// Drive current through the junction \[A\].
    pub current: f64,
}

/// The deterministic ensemble seed of campaign cell `cell` under base
/// seed `seed` — an FNV-1a mix with a domain tag, so cell streams can
/// never collide with the replica streams derived inside each cell.
#[must_use]
pub fn cell_seed(seed: u64, cell: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.field(b"cell");
    h.field(&seed.to_le_bytes());
    h.update(&cell.to_le_bytes());
    h.finish()
}

/// Runs one WER ensemble per cell: `plan.trajectories` replicas each,
/// pulse length `pulse` seconds, estimates in cell order.
///
/// `plan.seed` is the campaign base seed; cell `c` runs on
/// [`cell_seed`]`(plan.seed, c)`.
///
/// # Panics
///
/// Panics when `plan.trajectories` is zero (only constructible by
/// bypassing [`EnsemblePlan::new`] with the struct-update syntax).
///
/// # Examples
///
/// ```
/// use mramsim_dynamics::{cell_seed, wer_campaign, wer_monte_carlo};
/// use mramsim_dynamics::{CellDrive, EnsemblePlan, MacrospinParams};
/// use mramsim_mtj::{presets, SwitchDirection};
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::{Kelvin, Nanometer, Oersted};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let base = MacrospinParams::from_device(
///     &device, SwitchDirection::ApToP, Kelvin::new(300.0))?;
/// let drive = 3.0 * base.critical_current();
/// let cells: Vec<CellDrive> = [0.0, -150.0]
///     .iter()
///     .map(|&hz| CellDrive {
///         params: base.clone().with_applied_hz(Oersted::new(hz)),
///         current: drive,
///     })
///     .collect();
/// let plan = EnsemblePlan::new(48, 7, 2e-12)?;
/// let pool = WorkerPool::new(2);
/// let wers = wer_campaign(&cells, 4e-9, &plan, &pool);
/// assert_eq!(wers.len(), 2);
/// // Each cell is bit-identical to a standalone ensemble on its
/// // derived seed.
/// let solo_plan = EnsemblePlan { seed: cell_seed(7, 1), ..plan };
/// let solo = wer_monte_carlo(&cells[1].params, drive, 4e-9, &solo_plan, &pool);
/// assert_eq!(wers[1], solo);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn wer_campaign(
    cells: &[CellDrive],
    pulse: f64,
    plan: &EnsemblePlan,
    pool: &WorkerPool,
) -> Vec<WerEstimate> {
    let seeds: Vec<u64> = (0..cells.len() as u64)
        .map(|c| cell_seed(plan.seed, c))
        .collect();
    wer_campaign_seeded(cells, &seeds, pulse, plan, pool)
}

/// [`wer_campaign`] with caller-supplied per-cell seeds instead of the
/// positional [`cell_seed`] derivation.
///
/// This is the sparse-campaign entry point: equivalence-class campaigns
/// seed each class from its *window content*, so identical environments
/// produce bit-identical estimates regardless of which shard, order, or
/// grid size they appear in.
///
/// # Panics
///
/// Panics when `seeds.len() != cells.len()`, or when
/// `plan.trajectories` is zero with a non-empty cell list.
#[must_use]
pub fn wer_campaign_seeded(
    cells: &[CellDrive],
    seeds: &[u64],
    pulse: f64,
    plan: &EnsemblePlan,
    pool: &WorkerPool,
) -> Vec<WerEstimate> {
    let _span = campaign_span(cells.len());
    Arc::new(Batch::new(cells.to_vec(), seeds.to_vec(), pulse, plan)).own(pool)
}

/// Opens the `wer.campaign` span of a batch of `cells` ensembles.
pub(crate) fn campaign_span(cells: usize) -> telemetry::TreeSpan {
    let cells = telemetry::Value::U64(cells as u64);
    telemetry::span_tree_with("wer.campaign", &[("cells", cells)])
}

/// A batch of ensembles in lane blocks that any thread may claim in
/// turn. Replica `g` is replica `g % n` of ensemble `g / n`; lanes past
/// the last replica repeat it and are discarded. Blocks add their
/// failures to per-ensemble sums, so no estimate depends on which
/// thread ran which block.
#[derive(Debug)]
pub(crate) struct Batch {
    cells: Vec<CellDrive>,
    seeds: Vec<u64>,
    plan: EnsemblePlan,
    steps: usize,
    blocks: usize,
    /// The owner's span context (inside its `wer.campaign` span),
    /// entered by the threads that help.
    ctx: telemetry::SpanCtx,
    tally: Mutex<Tally>,
    /// Signalled when [`Tally::settled`] turns true.
    settled: Condvar,
}

#[derive(Debug, Default)]
struct Tally {
    failures: Vec<usize>,
    /// Blocks claimed; the next claim takes block `claimed`.
    claimed: usize,
    /// Claimed blocks not yet ended.
    running: usize,
    /// Blocks ended on threads helping the owner.
    helped: u64,
    /// Set by a block's panic: no block is claimed after it.
    failed: bool,
    /// The first block panic, re-raised by the owner.
    panic: Option<Box<dyn Any + Send>>,
}

impl Tally {
    /// No block runs, and none will.
    fn settled(&self, blocks: usize) -> bool {
        self.running == 0 && (self.failed || self.claimed == blocks)
    }
}

impl Batch {
    /// The batch of `cells` on `seeds`, helped inside the current span.
    ///
    /// # Panics
    ///
    /// As [`wer_campaign_seeded`].
    pub(crate) fn new(
        cells: Vec<CellDrive>,
        seeds: Vec<u64>,
        pulse: f64,
        plan: &EnsemblePlan,
    ) -> Self {
        assert!(
            plan.trajectories > 0 || cells.is_empty(),
            "a campaign needs at least one replica per cell"
        );
        assert_eq!(
            seeds.len(),
            cells.len(),
            "one seed per campaign cell required"
        );
        Self {
            steps: plan.steps_for(pulse),
            blocks: (cells.len() * plan.trajectories).div_ceil(LANES),
            ctx: telemetry::SpanCtx::current(),
            tally: Mutex::new(Tally {
                failures: vec![0; cells.len()],
                ..Tally::default()
            }),
            settled: Condvar::new(),
            cells,
            seeds,
            plan: *plan,
        }
    }

    /// Locks the tally, recovering from poisoning: every update leaves
    /// it whole.
    fn lock(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and runs the next block; `false` when none was left. A
    /// block's panic fails the batch instead of unwinding this thread,
    /// which may be helping someone else's request.
    fn run_next(&self, helping: bool) -> bool {
        let block = {
            let mut tally = self.lock();
            if tally.failed || tally.claimed == self.blocks {
                return false;
            }
            tally.claimed += 1;
            tally.running += 1;
            tally.claimed - 1
        };
        let n = self.plan.trajectories;
        let total = self.cells.len() * n;
        let first = block * LANES;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // A helper's span ends with its block, inside the owner's.
            let _ctx = helping.then(|| self.ctx.enter());
            let _span = helping.then(|| telemetry::span_tree("wer.help"));
            let lanes = core::array::from_fn(|l| {
                let g = (first + l).min(total - 1);
                let cell = &self.cells[g / n];
                LaneSpec {
                    params: &cell.params,
                    current: cell.current,
                    seed: self.seeds[g / n],
                    index: (g % n) as u64,
                }
            });
            run_lanes(&lanes, self.steps, self.plan.dt, self.plan.thermal)
        }));
        let mut tally = self.lock();
        tally.running -= 1;
        match outcome {
            Ok(lanes) => {
                for (g, lane) in (first..total.min(first + LANES)).zip(&lanes) {
                    tally.failures[g / n] += usize::from(!lane.switched);
                }
                tally.helped += u64::from(helping);
            }
            Err(payload) => {
                tally.failed = true;
                tally.panic.get_or_insert(payload);
            }
        }
        if tally.settled(self.blocks) {
            self.settled.notify_all();
        }
        true
    }

    /// Runs the unclaimed blocks on `pool`, then waits for those other
    /// threads still run: the estimates, or `None` if the batch failed.
    /// A request that joins another's batch calls this `helping`.
    pub(crate) fn finish(&self, pool: &WorkerPool, helping: bool) -> Option<Vec<WerEstimate>> {
        let unclaimed = self.blocks - self.lock().claimed;
        pool.scoped_map(&vec![(); pool.workers().min(unclaimed)], |_, ()| {
            while self.run_next(helping) {}
        });
        let mut tally = self.lock();
        while !tally.settled(self.blocks) {
            tally = self
                .settled
                .wait(tally)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let n = self.plan.trajectories;
        (!tally.failed).then(|| {
            let counts = tally.failures.iter();
            counts.map(|&f| WerEstimate::from_counts(n, f)).collect()
        })
    }

    /// Runs the batch as its owner: posts it for the idle workers of
    /// this thread's dispatch, finishes it on `pool`, and counts its
    /// estimates, trajectories and helped blocks once.
    ///
    /// # Panics
    ///
    /// Re-raises the first block panic, on whichever thread it ran.
    pub(crate) fn own(self: &Arc<Self>, pool: &WorkerPool) -> Vec<WerEstimate> {
        pool::post(self);
        let Some(estimates) = self.finish(pool, false) else {
            let payload = self.lock().panic.take();
            resume_unwind(payload.unwrap_or_else(|| Box::new("a lane block panicked")));
        };
        // The owner is the batch producer of WER estimates — count them
        // here so `llgs.wer_estimates` / `llgs.trajectories` cover both
        // the per-cell and the standalone Monte-Carlo entry points.
        if telemetry::enabled() {
            let trajectories = self.cells.len() * self.plan.trajectories;
            telemetry::counter_add("llgs.wer_estimates", self.cells.len() as u64);
            telemetry::counter_add("llgs.trajectories", trajectories as u64);
            telemetry::counter_add("llgs.blocks_helped", self.lock().helped);
        }
        // Estimator health is the caller's to report: only it knows
        // what an entry stands for (a cell, or a window class and its
        // members).
        estimates
    }

    /// Whether a block panicked.
    pub(crate) fn failed(&self) -> bool {
        self.lock().failed
    }
}

impl Help for Batch {
    fn help(&self) -> bool {
        self.run_next(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wer_monte_carlo;
    use mramsim_mtj::{presets, SwitchDirection};
    use mramsim_units::{Kelvin, Nanometer, Oersted};

    impl Batch {
        /// Blocks ended on threads helping the owner.
        pub(crate) fn helped(&self) -> u64 {
            self.lock().helped
        }
    }

    fn base() -> MacrospinParams {
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        MacrospinParams::from_device(&device, SwitchDirection::ApToP, Kelvin::new(300.0)).unwrap()
    }

    fn cells(fields_oe: &[f64], overdrive: f64) -> Vec<CellDrive> {
        let b = base();
        let current = overdrive * b.critical_current();
        fields_oe
            .iter()
            .map(|&hz| CellDrive {
                params: b.clone().with_applied_hz(Oersted::new(hz)),
                current,
            })
            .collect()
    }

    #[test]
    fn campaign_matches_per_cell_ensembles_bit_for_bit() {
        let cells = cells(&[0.0, -200.0, 150.0], 3.0);
        let plan = EnsemblePlan::new(37, 11, 2e-12).unwrap(); // non-multiple of LANES
        let pool = WorkerPool::new(3);
        let campaign = wer_campaign(&cells, 2e-9, &plan, &pool);
        for (c, cell) in cells.iter().enumerate() {
            let solo_plan = EnsemblePlan {
                seed: cell_seed(plan.seed, c as u64),
                ..plan
            };
            let solo = wer_monte_carlo(&cell.params, cell.current, 2e-9, &solo_plan, &pool);
            assert_eq!(campaign[c], solo, "cell {c}");
        }
    }

    #[test]
    fn worker_count_does_not_change_campaign_results() {
        let cells = cells(&[0.0, -366.0], 2.5);
        let plan = EnsemblePlan::new(40, 5, 2e-12).unwrap();
        let one = wer_campaign(&cells, 1.5e-9, &plan, &WorkerPool::new(1));
        let many = wer_campaign(&cells, 1.5e-9, &plan, &WorkerPool::new(8));
        assert_eq!(one, many);
    }

    #[test]
    fn hostile_fields_raise_the_cell_wer() {
        // AP→P: a negative stray field raises Ic, so at fixed drive the
        // hostile cell must not be more reliable.
        let cells = cells(&[150.0, -400.0], 1.6);
        let plan = EnsemblePlan::new(192, 3, 2e-12).unwrap();
        let wers = wer_campaign(&cells, 3e-9, &plan, &WorkerPool::new(4));
        assert!(
            wers[1].wer >= wers[0].wer,
            "hostile {} vs helpful {}",
            wers[1].wer,
            wers[0].wer
        );
    }

    #[test]
    fn seeded_campaign_is_position_independent() {
        // The same (drive, seed) pair must give the same estimate at
        // any position, in any company — the invariant sparse
        // class-campaigns rely on.
        let all = cells(&[0.0, -200.0, 150.0], 3.0);
        let plan = EnsemblePlan::new(37, 11, 2e-12).unwrap();
        let pool = WorkerPool::new(3);
        let fwd = wer_campaign_seeded(&all, &[101, 202, 303], 2e-9, &plan, &pool);
        let rev: Vec<CellDrive> = all.iter().rev().cloned().collect();
        let bwd = wer_campaign_seeded(&rev, &[303, 202, 101], 2e-9, &plan, &pool);
        assert_eq!(fwd[0], bwd[2]);
        assert_eq!(fwd[1], bwd[1]);
        assert_eq!(fwd[2], bwd[0]);
        // And the positional wrapper is just the derived-seed case.
        let derived: Vec<u64> = (0..3).map(|c| cell_seed(plan.seed, c)).collect();
        assert_eq!(
            wer_campaign(&all, 2e-9, &plan, &pool),
            wer_campaign_seeded(&all, &derived, 2e-9, &plan, &pool)
        );
    }

    #[test]
    #[should_panic(expected = "one seed per campaign cell")]
    fn seed_count_mismatch_panics() {
        let all = cells(&[0.0], 2.0);
        let plan = EnsemblePlan::new(16, 1, 2e-12).unwrap();
        let _ = wer_campaign_seeded(&all, &[1, 2], 1e-9, &plan, &WorkerPool::new(1));
    }

    #[test]
    fn empty_campaign_is_empty() {
        let plan = EnsemblePlan::new(8, 1, 2e-12).unwrap();
        assert!(wer_campaign(&[], 1e-9, &plan, &WorkerPool::new(2)).is_empty());
    }

    #[test]
    fn cell_seeds_are_distinct_and_tagged() {
        assert_ne!(cell_seed(7, 0), cell_seed(7, 1));
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
        // The domain tag keeps cell streams off the raw base seed.
        assert_ne!(cell_seed(7, 0), 7);
    }

    #[test]
    fn an_idle_worker_helps_a_batch_bit_identically() {
        // One item of a 2-worker dispatch owns a 24-block batch on a
        // one-wide pool, the other item is trivial: its worker, out of
        // items, runs some of the batch's blocks.
        let cells = cells(&[0.0, -200.0, 150.0, -366.0], 3.0);
        let seeds = [5, 6, 7, 8];
        let plan = EnsemblePlan::new(96, 1, 2e-12).unwrap();
        let batch = Arc::new(Batch::new(cells.clone(), seeds.to_vec(), 2e-9, &plan));
        let out = WorkerPool::new(2).scoped_map(&[0, 1], |_, &item| {
            if item == 1 {
                // Out of items only once the batch is posted, as a
                // dispatch whose jobs never post lets idle workers exit.
                while batch.lock().claimed == 0 {
                    std::thread::yield_now();
                }
            }
            (item == 0).then(|| batch.own(&WorkerPool::new(1)))
        });
        assert!(batch.helped() > 0, "the idle worker ran no block");
        let alone = wer_campaign_seeded(&cells, &seeds, 2e-9, &plan, &WorkerPool::new(1));
        assert_eq!(out[0].as_deref(), Some(&alone[..]));
    }

    #[test]
    fn sub_critical_cells_saturate_instead_of_panicking() {
        // Drive below Ic: every replica fails, WER = 1, no panic.
        let cells = cells(&[0.0], 0.5);
        let plan = EnsemblePlan::new(24, 2, 2e-12).unwrap();
        let wers = wer_campaign(&cells, 1e-9, &plan, &WorkerPool::new(2));
        assert_eq!(wers[0].failures, 24);
        assert_eq!(wers[0].wer, 1.0);
    }
}
