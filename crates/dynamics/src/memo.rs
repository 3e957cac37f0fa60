//! A bounded memo of WER ensembles, keyed by the exact bits of each
//! ensemble's inputs.
//!
//! An ensemble's estimate is a pure function of its inputs: the
//! calibrated coefficients with their applied field, the drive
//! current, the seed, the pulse, and the plan's replica count, time
//! step and thermal switch. It does not depend on the batch it ran in
//! ([`wer_campaign_seeded`] is position-independent), so a stored
//! estimate is bit-identical to a rerun. Window-class campaigns repeat
//! inputs whenever a data window recurs in another shard; the memo runs
//! each of them once. The table is the workspace's one
//! [`Memo`](mramsim_numerics::memo::Memo).

use crate::campaign::{wer_campaign_seeded, CellDrive};
use crate::ensemble::EnsemblePlan;
use crate::mc::WerEstimate;
use mramsim_numerics::memo::{Memo, MemoStats};
use mramsim_numerics::pool::WorkerPool;

/// The exact inputs of one ensemble. The memo stores the whole key and
/// compares it on every hit; it never trusts a hash alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EnsembleKey {
    params: [u64; 12],
    current: u64,
    seed: u64,
    pulse: u64,
    trajectories: usize,
    dt: u64,
    thermal: bool,
}

impl EnsembleKey {
    fn new(cell: &CellDrive, seed: u64, pulse: f64, plan: &EnsemblePlan) -> Self {
        // Exhaustive on purpose: a new input fails to compile here
        // until the key covers it. The plan's own seed is replaced by
        // the per-ensemble `seed`, as in `wer_campaign_seeded`.
        let CellDrive { params, current } = cell;
        let EnsemblePlan {
            trajectories,
            seed: _,
            dt,
            thermal,
        } = *plan;
        Self {
            params: params.bit_key(),
            current: current.to_bits(),
            seed,
            pulse: pulse.to_bits(),
            trajectories,
            dt: dt.to_bits(),
            thermal,
        }
    }
}

/// A thread-safe memo of WER ensembles with a fixed capacity of
/// [`EnsembleMemo::CAPACITY`] entries and least-recently-used eviction.
///
/// There is no single flight: callers that miss on the same inputs at
/// the same time each run the ensemble and get bit-identical estimates.
///
/// # Examples
///
/// ```
/// use mramsim_dynamics::{CellDrive, EnsembleMemo, EnsemblePlan, MacrospinParams};
/// use mramsim_mtj::{presets, SwitchDirection};
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::{Kelvin, Nanometer};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let params = MacrospinParams::from_device(
///     &device, SwitchDirection::ApToP, Kelvin::new(300.0))?;
/// let cells = [CellDrive { current: 3.0 * params.critical_current(), params }];
/// let plan = EnsemblePlan::new(32, 7, 2e-12)?;
/// let (memo, pool) = (EnsembleMemo::new(), WorkerPool::new(2));
/// let first = memo.wer_campaign_seeded(&cells, &[11], 2e-9, &plan, &pool);
/// let again = memo.wer_campaign_seeded(&cells, &[11], 2e-9, &plan, &pool);
/// // The repeat is served without running, bit-identical.
/// assert_eq!((first[0].1, again[0].1), (true, false));
/// assert_eq!(first[0].0, again[0].0);
/// assert_eq!(memo.stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EnsembleMemo {
    memo: Memo<EnsembleKey, WerEstimate>,
}

impl Default for EnsembleMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl EnsembleMemo {
    /// Estimates kept at most, about 0.2 MB: ten megabit checkerboard
    /// campaigns of 98 distinct windows each.
    pub const CAPACITY: usize = 1024;

    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self {
            memo: Memo::new(Self::CAPACITY),
        }
    }

    /// [`wer_campaign_seeded`] through the memo: stored inputs are
    /// served, the rest run as one batch and are stored after it. Each
    /// estimate comes with whether it ran in this call.
    ///
    /// # Panics
    ///
    /// Same contract as [`wer_campaign_seeded`].
    #[must_use]
    pub fn wer_campaign_seeded(
        &self,
        cells: &[CellDrive],
        seeds: &[u64],
        pulse: f64,
        plan: &EnsemblePlan,
        pool: &WorkerPool,
    ) -> Vec<(WerEstimate, bool)> {
        assert_eq!(
            seeds.len(),
            cells.len(),
            "one seed per campaign cell required"
        );
        let keys: Vec<EnsembleKey> = cells
            .iter()
            .zip(seeds)
            .map(|(cell, &seed)| EnsembleKey::new(cell, seed, pulse, plan))
            .collect();
        let mut served: Vec<Option<WerEstimate>> = keys.iter().map(|k| self.memo.get(k)).collect();
        let ran: Vec<bool> = served.iter().map(Option::is_none).collect();
        let missed: Vec<usize> = (0..keys.len()).filter(|&i| ran[i]).collect();
        if !missed.is_empty() {
            let drives: Vec<CellDrive> = missed.iter().map(|&i| cells[i].clone()).collect();
            let miss_seeds: Vec<u64> = missed.iter().map(|&i| seeds[i]).collect();
            let estimates = wer_campaign_seeded(&drives, &miss_seeds, pulse, plan, pool);
            // Stored only once the whole batch is back, so a panic
            // leaves no entry behind.
            for (&i, estimate) in missed.iter().zip(estimates) {
                self.memo.insert(keys[i].clone(), estimate);
                served[i] = Some(estimate);
            }
        }
        served
            .into_iter()
            .zip(ran)
            .map(|(estimate, ran)| (estimate.expect("every ensemble served or run"), ran))
            .collect()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MacrospinParams;
    use mramsim_mtj::{presets, SwitchDirection};
    use mramsim_units::{Kelvin, Nanometer, Oersted};

    fn cell(hz: f64) -> CellDrive {
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        let params =
            MacrospinParams::from_device(&device, SwitchDirection::ApToP, Kelvin::new(300.0))
                .unwrap()
                .with_applied_hz(Oersted::new(hz));
        CellDrive {
            current: 2.5 * params.critical_current(),
            params,
        }
    }

    fn plan() -> EnsemblePlan {
        EnsemblePlan::new(16, 1, 2e-12).unwrap()
    }

    #[test]
    fn hits_are_bit_identical_to_fresh_runs() {
        let cells = [cell(0.0), cell(-150.0)];
        let pool = WorkerPool::new(2);
        let memo = EnsembleMemo::new();
        let first = memo.wer_campaign_seeded(&cells, &[3, 4], 1e-9, &plan(), &pool);
        // The second batch repeats one input in a new position.
        let second = memo.wer_campaign_seeded(&[cells[1].clone()], &[4], 1e-9, &plan(), &pool);
        assert_eq!(second, [(first[1].0, false)]);
        assert!(first.iter().all(|&(_, ran)| ran));
        let fresh = wer_campaign_seeded(&cells, &[3, 4], 1e-9, &plan(), &pool);
        let served: Vec<WerEstimate> = first.iter().map(|&(estimate, _)| estimate).collect();
        assert_eq!(served, fresh);
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 1,
                misses: 2,
                evictions: 0,
                entries: 2,
                capacity: EnsembleMemo::CAPACITY,
            }
        );
    }

    #[test]
    fn any_changed_input_misses() {
        let base = cell(-120.0);
        let pool = WorkerPool::new(1);
        let memo = EnsembleMemo::new();
        let (seed, pulse) = (9u64, 1e-9);
        let run = |cell: &CellDrive, seed: u64, pulse: f64, plan: &EnsemblePlan| {
            memo.wer_campaign_seeded(std::slice::from_ref(cell), &[seed], pulse, plan, &pool)[0].1
        };
        assert!(run(&base, seed, pulse, &plan()), "first run");
        assert!(!run(&base, seed, pulse, &plan()), "exact repeat hits");
        let one_ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        let nudged_field = cell(one_ulp(-120.0));
        assert_ne!(
            nudged_field.params.applied_field().z.to_bits(),
            base.params.applied_field().z.to_bits()
        );
        let nudged_current = CellDrive {
            current: one_ulp(base.current),
            ..base.clone()
        };
        let changed: [(&CellDrive, u64, f64, EnsemblePlan); 8] = [
            (&base, seed + 1, pulse, plan()),
            (&base, seed - 1, pulse, plan()),
            (&base, seed, 2e-9, plan()),
            (
                &base,
                seed,
                pulse,
                EnsemblePlan {
                    dt: 1e-12,
                    ..plan()
                },
            ),
            (
                &base,
                seed,
                pulse,
                EnsemblePlan {
                    trajectories: 17,
                    ..plan()
                },
            ),
            (&base, seed, pulse, plan().with_thermal(false)),
            (&nudged_current, seed, pulse, plan()),
            (&nudged_field, seed, pulse, plan()),
        ];
        for (i, (cell, seed, pulse, plan)) in changed.iter().enumerate() {
            assert!(run(cell, *seed, *pulse, plan), "change {i} must miss");
        }
        assert_eq!(memo.stats().misses, 1 + changed.len() as u64);
    }

    #[test]
    fn the_plan_seed_is_not_part_of_the_key() {
        // Per-ensemble seeds replace the plan's own, as in the batch
        // entry point, so the plan seed cannot split entries.
        let memo = EnsembleMemo::new();
        let pool = WorkerPool::new(1);
        let cells = [cell(0.0)];
        let _ = memo.wer_campaign_seeded(&cells, &[5], 1e-9, &plan(), &pool);
        let other = EnsemblePlan { seed: 99, ..plan() };
        assert!(!memo.wer_campaign_seeded(&cells, &[5], 1e-9, &other, &pool)[0].1);
    }

    #[test]
    fn the_memo_never_outgrows_its_capacity() {
        // Ensembles of one replica keep the batches cheap.
        let memo = EnsembleMemo::new();
        let pool = WorkerPool::new(2);
        let plan = EnsemblePlan::new(1, 0, 1e-10).unwrap();
        let batch = 300;
        let cells = vec![cell(0.0); batch];
        for round in 0..5u64 {
            let seeds: Vec<u64> = (0..batch as u64).map(|i| round * 1000 + i).collect();
            let _ = memo.wer_campaign_seeded(&cells, &seeds, 1e-10, &plan, &pool);
            assert!(memo.stats().entries <= EnsembleMemo::CAPACITY);
        }
        // Every estimate that ran is either held or was evicted.
        let stats = memo.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.entries as u64 + stats.evictions, 5 * batch as u64);
        // The newest batch survived whole.
        let newest: Vec<u64> = (0..batch as u64).map(|i| 4000 + i).collect();
        let again = memo.wer_campaign_seeded(&cells, &newest, 1e-10, &plan, &pool);
        assert!(again.iter().all(|&(_, ran)| !ran));
    }

    #[test]
    #[should_panic(expected = "one seed per campaign cell")]
    fn seed_count_mismatch_panics() {
        let memo = EnsembleMemo::new();
        let _ = memo.wer_campaign_seeded(&[cell(0.0)], &[1, 2], 1e-9, &plan(), &WorkerPool::new(1));
    }
}
