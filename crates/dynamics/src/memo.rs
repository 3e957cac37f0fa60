//! A bounded memo of WER ensembles, keyed by the exact bits of each
//! ensemble's inputs.
//!
//! An ensemble's estimate is a pure function of its inputs: the
//! calibrated coefficients with their applied field, the drive
//! current, the seed, the pulse, and the plan's replica count, time
//! step and thermal switch. It does not depend on the batch it ran in
//! ([`wer_campaign_seeded`](crate::wer_campaign_seeded) is
//! position-independent), so a stored
//! estimate is bit-identical to a rerun. Window-class campaigns repeat
//! inputs whenever a data window recurs in another shard; the memo runs
//! each of them once, even when shards ask for it at the same time. The
//! table is the workspace's one [`Memo`](mramsim_numerics::memo::Memo).

use crate::campaign::{campaign_span, Batch, CellDrive};
use crate::ensemble::EnsemblePlan;
use crate::mc::WerEstimate;
use mramsim_numerics::memo::{Memo, MemoStats};
use mramsim_numerics::pool::WorkerPool;
use mramsim_telemetry::TreeSpan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
/// Ensembles are single-flight. Under one lock, a request sorts each
/// input into one of three states: stored (served), in flight in a
/// batch (joined), or free (claimed). Its claimed inputs run as one
/// batch of lane blocks that the dispatch's idle workers may help with.
/// Only then does it join the batches it needs: it runs their unclaimed
/// blocks and waits for the blocks other threads are running, so it
/// never waits while holding work nobody else can start. A batch whose
/// block panics stores nothing: the owner re-raises the panic, and the
/// requests that joined it sort those inputs again.
///
/// Joining couples requests: one that needs a single window of another
/// request's batch (under `mramsim serve`, maybe another client's) runs
/// any of that batch's blocks still unclaimed and returns only once the
/// whole batch has settled, where a memo without single flight would
/// run that one ensemble again.
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
    /// Inputs a batch is running, with the batch and the input's place
    /// in it. Kept beside `memo`, not in it: its eviction could drop a
    /// running batch, and a join is a hit only once the batch succeeds.
    flights: Mutex<HashMap<EnsembleKey, (Arc<Batch>, usize)>>,
    /// Inputs served by joining a batch, counted as hits.
    joined: AtomicU64,
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
            flights: Mutex::new(HashMap::new()),
            joined: AtomicU64::new(0),
        }
    }

    /// Locks the in-flight table, recovering from poisoning: every
    /// update is one insert or one retain, and [`Claim`]'s drop runs
    /// while unwinding.
    fn flights(&self) -> MutexGuard<'_, HashMap<EnsembleKey, (Arc<Batch>, usize)>> {
        self.flights.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`wer_campaign_seeded`](crate::wer_campaign_seeded) through the
    /// memo: stored inputs are served, inputs in flight are joined, and
    /// the rest run as one batch and are stored after it (see the type
    /// docs). Each estimate comes with whether it ran in this call; an
    /// input repeated within the call runs once.
    ///
    /// # Panics
    ///
    /// Same contract as
    /// [`wer_campaign_seeded`](crate::wer_campaign_seeded).
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
        let batch_of = |claimed: &[usize]| {
            let cells = claimed.iter().map(|&i| cells[i].clone()).collect();
            Batch::new(
                cells,
                claimed.iter().map(|&i| seeds[i]).collect(),
                pulse,
                plan,
            )
        };
        let mut served = vec![None; keys.len()];
        let mut open: Vec<usize> = (0..keys.len()).collect();
        while !open.is_empty() {
            let mut joins = Vec::new();
            let claim = self.sort(&keys, &open, batch_of, &mut served, &mut joins);
            open.clear();
            if let Some(claim) = claim {
                claim.run(&keys, pool, &mut served);
            }
            for (batch, i, place) in joins {
                match batch.finish(pool, true) {
                    Some(estimates) => {
                        self.joined.fetch_add(1, Ordering::Relaxed);
                        served[i] = Some((estimates[place], false));
                    }
                    // The batch failed: its owner frees the input.
                    None => open.push(i),
                }
            }
        }
        served
            .into_iter()
            .map(|entry| entry.expect("every ensemble served, run or joined"))
            .collect()
    }

    /// Sorts the `open` entries under the in-flight lock: serves the
    /// stored ones, queues (batch, entry, place) joins for those in
    /// flight (a repeat of an entry claimed here joins this request's
    /// batch), and claims the rest as one batch from `batch_of`, its
    /// span open and its keys in flight.
    fn sort(
        &self,
        keys: &[EnsembleKey],
        open: &[usize],
        batch_of: impl FnOnce(&[usize]) -> Batch,
        served: &mut [Option<(WerEstimate, bool)>],
        joins: &mut Vec<(Arc<Batch>, usize, usize)>,
    ) -> Option<Claim<'_>> {
        let mut flights = self.flights();
        let (mut claimed, mut places, mut repeats) = (Vec::new(), HashMap::new(), Vec::new());
        for &i in open {
            let key = &keys[i];
            if let Some(&place) = places.get(key) {
                repeats.push((i, place));
            } else if let Some((batch, place)) = flights.get(key).filter(|(b, _)| !b.failed()) {
                joins.push((Arc::clone(batch), i, *place));
            } else if let Some(estimate) = self.memo.get(key) {
                served[i] = Some((estimate, false));
            } else {
                places.insert(key, claimed.len());
                claimed.push(i);
            }
        }
        if claimed.is_empty() {
            return None;
        }
        let span = campaign_span(claimed.len());
        let batch = Arc::new(batch_of(&claimed));
        for (place, &i) in claimed.iter().enumerate() {
            flights.insert(keys[i].clone(), (Arc::clone(&batch), place));
        }
        joins.extend(
            repeats
                .into_iter()
                .map(|(i, place)| (Arc::clone(&batch), i, place)),
        );
        Some(Claim {
            memo: self,
            batch,
            members: claimed,
            _span: span,
        })
    }

    /// Current counters: hits include the inputs served by joining a
    /// batch.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let stats = self.memo.stats();
        let joined = self.joined.load(Ordering::Relaxed);
        MemoStats {
            hits: stats.hits + joined,
            ..stats
        }
    }
}

/// A batch a request claimed. Its keys leave flight when it drops:
/// stored by then, or, after a panic, free for the next request.
struct Claim<'m> {
    memo: &'m EnsembleMemo,
    batch: Arc<Batch>,
    /// The request entry behind each of the batch's ensembles.
    members: Vec<usize>,
    /// The batch's `wer.campaign` span, opened before the batch so the
    /// threads that help run inside it.
    _span: TreeSpan,
}

impl Claim<'_> {
    /// Runs the batch as its owner and stores its estimates.
    fn run(
        self,
        keys: &[EnsembleKey],
        pool: &WorkerPool,
        served: &mut [Option<(WerEstimate, bool)>],
    ) {
        for (&i, estimate) in self.members.iter().zip(self.batch.own(pool)) {
            self.memo.memo.insert(keys[i].clone(), estimate);
            served[i] = Some((estimate, true));
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let batch = &self.batch;
        self.memo
            .flights()
            .retain(|_, (flight, _)| !Arc::ptr_eq(flight, batch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{wer_campaign_seeded, MacrospinParams};
    use mramsim_mtj::{presets, SwitchDirection};
    use mramsim_units::{Kelvin, Nanometer, Oersted};
    use std::panic::AssertUnwindSafe;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

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

    #[test]
    fn an_input_repeated_within_one_call_runs_once() {
        let memo = EnsembleMemo::new();
        let pool = WorkerPool::new(2);
        let cells = [cell(0.0), cell(-150.0), cell(0.0)];
        let out = memo.wer_campaign_seeded(&cells, &[1, 2, 1], 1e-9, &plan(), &pool);
        let ran: Vec<bool> = out.iter().map(|&(_, ran)| ran).collect();
        assert_eq!(ran, [true, true, false]);
        assert_eq!(out[0].0, out[2].0);
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 1, 2));
        let fresh = wer_campaign_seeded(&cells[..2], &[1, 2], 1e-9, &plan(), &pool);
        assert_eq!([out[0].0, out[1].0], fresh[..]);
    }

    #[test]
    fn a_one_window_request_that_joins_a_batch_runs_the_whole_batch() {
        // The documented coupling: an owner holds an 8-block batch it
        // has not started; a request for one of its windows joins it,
        // runs all 8 blocks and is served that window's estimate.
        let memo = EnsembleMemo::new();
        let pool = WorkerPool::new(1);
        let cells: Vec<CellDrive> = (0..8).map(|i| cell(-25.0 * f64::from(i))).collect();
        let seeds: Vec<u64> = (1..=8).collect();
        let keys: Vec<EnsembleKey> = cells
            .iter()
            .zip(&seeds)
            .map(|(c, &s)| EnsembleKey::new(c, s, 1e-9, &plan()))
            .collect();
        let (mut served, mut joins) = (vec![None; 8], Vec::new());
        let batch_of = |_: &[usize]| Batch::new(cells.clone(), seeds.clone(), 1e-9, &plan());
        let open: Vec<usize> = (0..8).collect();
        let claim = memo.sort(&keys, &open, batch_of, &mut served, &mut joins);
        let claim = claim.expect("every input is free");
        let joined = memo.wer_campaign_seeded(&cells[3..4], &seeds[3..4], 1e-9, &plan(), &pool);
        assert_eq!(claim.batch.helped(), 8, "the joiner ran every block");
        claim.run(&keys, &pool, &mut served);
        let fresh = wer_campaign_seeded(&cells, &seeds, 1e-9, &plan(), &pool);
        assert_eq!(joined, [(fresh[3], false)]);
        let owned: Vec<WerEstimate> = served.iter().map(|s| s.unwrap().0).collect();
        assert_eq!(owned, fresh);
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (8, 1, 8));
    }

    /// A cell whose first block panics: an infinite field along the
    /// initial magnetisation leaves no finite initial-angle draw.
    fn poisoned() -> CellDrive {
        let healthy = cell(0.0);
        let hz = healthy.params.initial_mz() * f64::INFINITY;
        CellDrive {
            params: healthy.params.with_applied_hz(Oersted::new(hz)),
            current: healthy.current,
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("")
    }

    #[test]
    fn a_panicked_batch_strands_no_waiter_or_helper() {
        // Mirrors `numerics::memo::tests::a_panicked_build_strands_no_waiter`.
        // The owner claims [good, poisoned] and holds the claim while a
        // second request joins it for `good`: the joiner runs both
        // blocks, the poisoned one panics, and the joiner must sort
        // `good` again and run it itself. Then the owner runs its
        // claim, re-raises the panic and frees the poisoned input. Both
        // run as items of one 2-worker dispatch, so the batch is also
        // posted for an idle worker.
        enum Role {
            Owner(Arc<Batch>, String),
            Joiner(Vec<(WerEstimate, bool)>),
        }
        let good = cell(-100.0);
        let cells = [good.clone(), poisoned()];
        let memo = Arc::new(EnsembleMemo::new());
        let dispatch = {
            let (memo, good, cells) = (Arc::clone(&memo), good.clone(), cells.clone());
            std::thread::spawn(move || {
                let (pool, plan) = (WorkerPool::new(1), plan());
                let keys = [
                    EnsembleKey::new(&cells[0], 1, 1e-9, &plan),
                    EnsembleKey::new(&cells[1], 2, 1e-9, &plan),
                ];
                let gates = (Barrier::new(2), Barrier::new(2));
                WorkerPool::new(2).scoped_map(&[0, 1], |_, &item| {
                    if item == 0 {
                        let (mut served, mut joins) = (vec![None; 2], Vec::new());
                        let batch_of =
                            |_: &[usize]| Batch::new(cells.to_vec(), vec![1, 2], 1e-9, &plan);
                        let claim = memo.sort(&keys, &[0, 1], batch_of, &mut served, &mut joins);
                        assert!(joins.is_empty());
                        let claim = claim.expect("both inputs are free");
                        let batch = Arc::clone(&claim.batch);
                        gates.0.wait();
                        gates.1.wait();
                        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            claim.run(&keys, &pool, &mut served);
                        }));
                        let payload = caught.expect_err("the owner re-raises the panic");
                        Role::Owner(batch, panic_message(&*payload).to_owned())
                    } else {
                        gates.0.wait();
                        let out = memo.wer_campaign_seeded(
                            std::slice::from_ref(&good),
                            &[1],
                            1e-9,
                            &plan,
                            &pool,
                        );
                        gates.1.wait();
                        Role::Joiner(out)
                    }
                })
            })
        };
        // A stranded waiter or helper would park forever: fail instead.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !dispatch.is_finished() {
            assert!(Instant::now() < deadline, "a thread was stranded");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut roles = dispatch.join().unwrap().into_iter();
        let (Some(Role::Owner(batch, message)), Some(Role::Joiner(joined))) =
            (roles.next(), roles.next())
        else {
            panic!("one owner and one joiner");
        };
        assert!(message.contains("delta_init"), "{message}");
        let fresh = wer_campaign_seeded(
            std::slice::from_ref(&good),
            &[1],
            1e-9,
            &plan(),
            &WorkerPool::new(1),
        );
        assert_eq!(joined, [(fresh[0], true)], "the joiner ran `good` again");
        assert!(memo.flights().is_empty(), "nothing left in flight");
        assert_eq!(
            Arc::strong_count(&batch),
            1,
            "no table, board or helper holds it"
        );
        // The failed batch stored nothing: the two misses are its claims,
        // the third is the joiner's rerun of `good`.
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 0, 1));
        // The next request is served `good` and recomputes the poisoned
        // input, which panics again and again frees it.
        let again = std::panic::catch_unwind(AssertUnwindSafe(|| {
            memo.wer_campaign_seeded(&cells, &[1, 2], 1e-9, &plan(), &WorkerPool::new(2))
        }));
        assert!(again.is_err());
        assert!(memo.flights().is_empty());
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (4, 1, 1));
    }
}
