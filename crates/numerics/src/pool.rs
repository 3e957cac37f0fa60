//! A work-stealing worker pool for embarrassingly parallel sweeps.
//!
//! This is the execution substrate of `mramsim-engine` (which re-exports
//! it as its worker pool); it lives here so lower crates like
//! `mramsim-array` can share the same scheduler without a dependency
//! cycle. The design is deliberately simple: jobs are item indices,
//! pre-dealt round-robin into one deque per worker; a worker drains its
//! own deque from the front and, when empty, steals from the back of the
//! busiest other deque. Results are keyed by item index, so the output
//! order is deterministic no matter who computed what.
//!
//! # Nested widths
//!
//! The pool also decides how wide a pool opened inside one of its jobs
//! may be. Every thread holds a width: the machine's available
//! parallelism at top level. A dispatch of `n` items on a `W`-worker
//! pool runs on `w = min(W, n)` threads, and each of them holds
//! `max(1, B / w)`, where `B` is the dispatching thread's width. An
//! inline dispatch (`w = 1`) therefore leaves the width at `B`.
//! [`WorkerPool::default`] and [`WorkerPool::with_default_parallelism`]
//! take the current thread's width, so an s-LLGS ensemble or a field
//! map run inside a sweep job uses the cores the sweep leaves idle and
//! a wide sweep does not multiply thread counts.
//!
//! # Helping on idle
//!
//! A job may [`post`] work made of pieces any thread can claim, as an
//! s-LLGS campaign posts its batch of lane blocks. Once a job of its
//! dispatch has posted, a worker out of items does not exit while the
//! dispatch has unfinished items: it runs pieces its dispatch's jobs
//! posted, and that time counts as busy (and, in a dispatch outside any
//! pool job, as `pool.help_ns`), so a sweep's last heavy job finishes
//! on every core. (A dispatch that never posts, like a field
//! map, lets its idle workers exit at once.) Help reaches no
//! further than the dispatch: a job posts on the board of the
//! multi-worker dispatch whose thread runs it (inline nested dispatches
//! included), a nested multi-worker dispatch has a board of its own, and
//! two sweeps of one server never run each other's work.
//!
//! # Examples
//!
//! ```
//! use mramsim_numerics::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.scoped_map(&[1.0f64, 2.0, 3.0], |_idx, x| x * x);
//! assert_eq!(squares, vec![1.0, 4.0, 9.0]);
//! ```

use mramsim_telemetry as telemetry;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

thread_local! {
    /// This thread's width when it is a pool worker (`None` elsewhere:
    /// the machine's width).
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    /// The board of the multi-worker dispatch this thread works for.
    static BOARD: RefCell<Option<Arc<Board>>> = const { RefCell::new(None) };
}

/// Work that idle workers may help finish: pieces any thread can claim,
/// each of which finishes without waiting on other work.
pub trait Help: Send + Sync {
    /// Claims and runs one piece; `false` when none was left to claim.
    fn help(&self) -> bool;
}

/// What one dispatch's jobs posted, and its items not yet finished.
struct Board {
    state: Mutex<BoardState>,
    /// Signalled on every post and when the last item finishes.
    changed: Condvar,
}

struct BoardState {
    /// Posted work; a posting lasts as long as its work.
    posted: Vec<Weak<dyn Help>>,
    /// Counts posts, so an idle worker can tell new work from old.
    posts: u64,
    unfinished: usize,
}

impl Board {
    /// Locks the state, recovering from poisoning: every update is one
    /// push, retain or decrement, and [`ItemDone`]'s drop must not panic.
    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Helps with posted work until every item has finished, if any job
    /// has posted; returns the time spent on pieces.
    fn help_until_done(&self) -> Duration {
        let (mut helping, mut state) = (Duration::ZERO, self.lock());
        while state.posts > 0 && state.unfinished > 0 {
            state.posted.retain(|work| work.strong_count() > 0);
            let seen = state.posts;
            let posted: Vec<Arc<dyn Help>> =
                state.posted.iter().filter_map(Weak::upgrade).collect();
            drop(state);
            let (start, mut helped) = (Instant::now(), false);
            for work in &posted {
                while work.help() {
                    helped = true;
                }
            }
            if helped {
                helping += start.elapsed();
            }
            state = self.lock();
            if !helped && state.posts == seen && state.unfinished > 0 {
                state = self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        helping
    }
}

/// Counts an item finished when dropped, by return or by panic, and
/// wakes the idle workers after the last.
struct ItemDone<'a>(&'a Board);

impl Drop for ItemDone<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.unfinished -= 1;
        if state.unfinished == 0 {
            self.0.changed.notify_all();
        }
    }
}

/// Posts `work` for the idle workers of the dispatch this thread works
/// for (see the module docs), for as long as the work lives. Outside a
/// multi-worker dispatch nobody would help, and nothing is posted.
pub fn post<W: Help + 'static>(work: &Arc<W>) {
    let work = Arc::downgrade(work);
    BOARD.with_borrow(|board| {
        if let Some(board) = board {
            let mut state = board.lock();
            state.posts += 1;
            state.posted.push(work);
            board.changed.notify_all();
        }
    });
}

/// Steals from the back of the fullest queue but `thief`'s. A victim
/// can empty between the scan and the pop (`between` runs there in the
/// tests), so the scan repeats until every other queue is empty.
fn steal(
    queues: &[Mutex<VecDeque<usize>>],
    thief: usize,
    between: impl Fn(usize),
) -> Option<usize> {
    let lock = |v: usize| queues[v].lock().expect("queue poisoned");
    loop {
        let (victim, len) = (0..queues.len())
            .filter(|&v| v != thief)
            .map(|v| (v, lock(v).len()))
            .max_by_key(|&(_, len)| len)?;
        if len == 0 {
            return None;
        }
        between(victim);
        if let Some(idx) = lock(victim).pop_back() {
            return Some(idx);
        }
    }
}

/// The width a default pool takes on this thread.
fn current_width() -> usize {
    WIDTH.get().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    })
}

/// A fixed-width scoped worker pool.
///
/// Threads are spawned per [`WorkerPool::scoped_map`] call with
/// [`std::thread::scope`], so borrowed inputs need no `'static` bound
/// and no threads linger between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with `workers` threads (clamped to at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A pool as wide as the current thread's width: the machine's
    /// available parallelism at top level, a job's share of its
    /// dispatcher's width inside a pool job (see the module docs).
    #[must_use]
    pub fn with_default_parallelism() -> Self {
        Self::new(current_width())
    }

    /// The number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item in parallel and returns the results in
    /// input order. `f` receives the item index alongside the item, and
    /// runs at width `max(1, B / min(workers, items))` for the caller's
    /// width `B`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` after the scope joins.
    pub fn scoped_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let workers = self.workers.min(items.len());

        // Snapshot the telemetry gate once per dispatch so every worker
        // agrees and the per-item path needs no further atomics when
        // telemetry is off. Instrumentation stays local to this call —
        // the pool itself remains a plain `Copy` value.
        let record = telemetry::enabled();
        if record {
            telemetry::counter_add("pool.dispatches", 1);
            telemetry::counter_add("pool.items", items.len() as u64);
            telemetry::gauge_set("pool.queue_depth", items.len() as f64);
            telemetry::gauge_set("pool.workers", workers as f64);
        }

        // An effectively serial dispatch runs inline on the caller:
        // no thread spawn, and spans opened by `f` stay on the caller's
        // lane under its current span context (nested pools hit this
        // path constantly once the outer pool is saturated). Its items
        // keep the caller's width, `B / 1`, so nothing is set here.
        if workers == 1 {
            let start = record.then(Instant::now);
            let out: Vec<R> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            if let Some(start) = start {
                let busy = start.elapsed();
                telemetry::observe("pool.worker_busy_s", busy.as_secs_f64());
                telemetry::counter_add("pool.busy_ns", busy.as_nanos() as u64);
            }
            return out;
        }

        let share = (current_width() / workers).max(1);
        // Help the workers of a dispatch outside any pool job give falls
        // outside every item's time, so it is reported on its own.
        let top_level = WIDTH.get().is_none();

        // Capture the caller's span context so jobs opened on worker
        // threads still nest under the dispatching span (e.g. every
        // `job` span under its `sweep` root) even when stolen.
        let ctx = record
            .then(telemetry::SpanCtx::current)
            .unwrap_or(telemetry::SpanCtx::none());

        // Deal item indices round-robin so contiguous expensive regions
        // spread across workers even before any stealing happens.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                Mutex::new(
                    (w..items.len())
                        .step_by(workers)
                        .collect::<VecDeque<usize>>(),
                )
            })
            .collect();

        let board = Arc::new(Board {
            state: Mutex::new(BoardState {
                posted: Vec::new(),
                posts: 0,
                unfinished: items.len(),
            }),
            changed: Condvar::new(),
        });

        let mut computed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let f = &f;
                    let board = Arc::clone(&board);
                    scope.spawn(move || {
                        WIDTH.set(Some(share));
                        BOARD.set(Some(Arc::clone(&board)));
                        // Adopt the dispatcher's span context and name
                        // this thread's trace lane after its worker
                        // slot before any job span opens.
                        let _ctx = record.then(|| ctx.enter());
                        if record {
                            telemetry::set_lane_label(&format!("worker {w}"));
                        }
                        let worker_start = record.then(Instant::now);
                        let mut busy = Duration::ZERO;
                        let mut steals = 0u64;
                        let run = |idx: usize, busy: &mut Duration| {
                            let _done = ItemDone(&board);
                            if record {
                                let t = Instant::now();
                                let r = f(idx, &items[idx]);
                                *busy += t.elapsed();
                                (idx, r)
                            } else {
                                (idx, f(idx, &items[idx]))
                            }
                        };
                        let mut out: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own work first, front-to-back …
                            let own = queues[w].lock().expect("queue poisoned").pop_front();
                            if let Some(idx) = own {
                                out.push(run(idx, &mut busy));
                                continue;
                            }
                            // … then steal from the back of the fullest
                            // other queue …
                            match steal(queues, w, |_| {}) {
                                Some(idx) => {
                                    steals += 1;
                                    out.push(run(idx, &mut busy));
                                }
                                None => break,
                            }
                        }
                        // … and, out of items, help the work this
                        // dispatch's jobs posted until the last finishes.
                        let helping = board.help_until_done();
                        busy += helping;
                        if let Some(start) = worker_start {
                            let idle = start.elapsed().saturating_sub(busy);
                            telemetry::observe("pool.worker_busy_s", busy.as_secs_f64());
                            telemetry::observe("pool.worker_idle_s", idle.as_secs_f64());
                            telemetry::counter_add("pool.busy_ns", busy.as_nanos() as u64);
                            telemetry::counter_add("pool.steals", steals);
                            if top_level {
                                telemetry::counter_add("pool.help_ns", helping.as_nanos() as u64);
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });

        computed.sort_unstable_by_key(|(idx, _)| *idx);
        debug_assert_eq!(computed.len(), items.len());
        computed.into_iter().map(|(_, r)| r).collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::with_default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order_and_length() {
        let items: Vec<usize> = (0..257).collect();
        let out = WorkerPool::new(8).scoped_map(&items, |_, &x| 2 * x);
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out = WorkerPool::new(4).scoped_map(&[] as &[u8], |_, &b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches_sequential() {
        let items = [3.0f64, 1.0, 4.0, 1.0, 5.0];
        let seq: Vec<f64> = items.iter().map(|x| x.sqrt()).collect();
        let par = WorkerPool::new(1).scoped_map(&items, |_, x| x.sqrt());
        assert_eq!(seq, par);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = WorkerPool::new(64).scoped_map(&[1, 2, 3], |i, &x| i + x);
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = WorkerPool::new(5).scoped_map(&items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out, items);
    }

    fn machine() -> usize {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    }

    #[test]
    fn jobs_default_to_their_share_of_the_callers_width() {
        let m = machine();
        assert_eq!(WorkerPool::default().workers(), m);
        for k in [1, 2, 3, 4] {
            let widths = WorkerPool::new(k).scoped_map(&vec![(); 2 * k], |_, ()| {
                WorkerPool::with_default_parallelism().workers()
            });
            assert_eq!(widths, vec![(m / k).max(1); 2 * k], "k = {k}");
        }
        assert_eq!(WorkerPool::default().workers(), m);
    }

    #[test]
    fn a_nested_dispatch_divides_its_parents_share() {
        let share = (machine() / 2).max(1);
        let nested = WorkerPool::new(2).scoped_map(&[(); 4], |_, ()| {
            let parent = WorkerPool::default().workers();
            let inner =
                WorkerPool::new(2).scoped_map(&[(); 2], |_, ()| WorkerPool::default().workers());
            (parent, inner)
        });
        for (parent, inner) in nested {
            assert_eq!(parent, share);
            assert_eq!(inner, vec![(share / 2).max(1); 2]);
        }
    }

    #[test]
    fn inline_dispatch_leaves_the_callers_width_even_when_an_item_panics() {
        let m = machine();
        let seen = WorkerPool::new(1).scoped_map(&[(); 3], |_, ()| WorkerPool::default().workers());
        assert_eq!(seen, vec![m; 3]);
        assert_eq!(WorkerPool::default().workers(), m);
        let caught = std::panic::catch_unwind(|| {
            WorkerPool::new(4).scoped_map(&[()], |_, ()| -> usize { panic!("inline item fails") })
        });
        assert!(caught.is_err());
        assert_eq!(WorkerPool::default().workers(), m);
    }

    #[test]
    fn a_thief_rescans_when_its_victim_empties_before_the_pop() {
        let queues: Vec<Mutex<VecDeque<usize>>> = [vec![], vec![1, 2], vec![3]]
            .into_iter()
            .map(|q| Mutex::new(q.into()))
            .collect();
        // The scan picks queue 1, the fullest; its owner drains it before
        // the thief pops. The thief must go on to queue 2, not give up.
        let drained = |victim: usize| {
            if victim == 1 {
                queues[1].lock().unwrap().clear();
            }
        };
        assert_eq!(steal(&queues, 0, drained), Some(3));
        assert_eq!(
            steal(&queues, 0, drained),
            None,
            "every other queue is empty"
        );
    }

    /// Work of `total` pieces that records the threads running them.
    /// Gated pieces each wait until every piece has started, so they
    /// finish only when that many threads run them at once.
    struct Pieces {
        total: usize,
        gated: bool,
        next: AtomicUsize,
        runners: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Pieces {
        fn new(total: usize, gated: bool) -> Arc<Self> {
            Arc::new(Self {
                total,
                gated,
                next: AtomicUsize::new(0),
                runners: Mutex::new(Vec::new()),
            })
        }

        fn runners(&self) -> Vec<std::thread::ThreadId> {
            self.runners.lock().unwrap().clone()
        }
    }

    impl Help for Pieces {
        fn help(&self) -> bool {
            if self.next.fetch_add(1, Ordering::SeqCst) >= self.total {
                return false;
            }
            self.runners
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            if self.gated {
                wait_until(|| self.runners().len() == self.total);
            }
            true
        }
    }

    /// Polls `done`, failing instead of hanging after ten seconds.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_workers_help_the_work_their_dispatch_posted() {
        // One item posts two gated pieces: they finish only if the
        // worker that ran the other item runs one of them once it is
        // out of items.
        let pieces = Pieces::new(2, true);
        let posted = AtomicUsize::new(0);
        WorkerPool::new(2).scoped_map(&[0, 1], |_, &item| {
            if item == 0 {
                post(&pieces);
                posted.store(1, Ordering::SeqCst);
                while pieces.help() {}
            } else {
                wait_until(|| posted.load(Ordering::SeqCst) == 1);
            }
        });
        let runners: HashSet<_> = pieces.runners().into_iter().collect();
        assert_eq!(runners.len(), 2, "both workers ran a piece");
    }

    #[test]
    fn help_stays_inside_the_dispatch_that_posted() {
        // Dispatch A posts work and keeps both its workers busy until
        // dispatch B ends; B meanwhile has an idle worker, proven idle
        // by helping B's own gated work. B must never touch A's work.
        let a_work = Pieces::new(4, false);
        let b_work = Pieces::new(2, true);
        let posted = AtomicUsize::new(0);
        let b_done = AtomicUsize::new(0);
        let (a_threads, b_threads, a_claimed_during_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                WorkerPool::new(2).scoped_map(&[0, 1], |_, &item| {
                    if item == 0 {
                        post(&a_work);
                        posted.store(1, Ordering::SeqCst);
                    }
                    wait_until(|| b_done.load(Ordering::SeqCst) == 1);
                    while a_work.help() {}
                    std::thread::current().id()
                })
            });
            let b = scope.spawn(|| {
                let threads = WorkerPool::new(2).scoped_map(&[0, 1], |_, &item| {
                    wait_until(|| posted.load(Ordering::SeqCst) >= 1);
                    if item == 1 {
                        post(&b_work);
                        posted.store(2, Ordering::SeqCst);
                        while b_work.help() {}
                    } else {
                        wait_until(|| posted.load(Ordering::SeqCst) == 2);
                    }
                    std::thread::current().id()
                });
                let claimed = a_work.next.load(Ordering::SeqCst);
                b_done.store(1, Ordering::SeqCst);
                (threads, claimed)
            });
            let (b_threads, claimed) = b.join().unwrap();
            (a.join().unwrap(), b_threads, claimed)
        });
        assert_eq!(
            a_claimed_during_b, 0,
            "B's idle worker ran none of A's work"
        );
        let b_threads: HashSet<_> = b_threads.into_iter().chain(b_work.runners()).collect();
        assert_eq!(b_threads.len(), 2, "B's idle worker helped B");
        let a_runners = a_work.runners();
        assert_eq!(a_runners.len(), 4);
        assert!(a_runners.iter().all(|id| a_threads.contains(id)));
        assert!(a_runners.iter().all(|id| !b_threads.contains(id)));
    }

    #[test]
    fn a_panicking_item_strands_no_idle_worker() {
        // Item 0 posts (work with no pieces), so item 1's worker idles
        // on the board while item 0 panics; the panic must still end the
        // dispatch instead of leaving that worker parked forever.
        let dispatch = std::thread::spawn(|| {
            let posted = AtomicUsize::new(0);
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(2).scoped_map(&[0, 1], |_, &item| {
                    if item == 0 {
                        let work = Pieces::new(0, false);
                        post(&work);
                        posted.store(1, Ordering::SeqCst);
                        wait_until(|| posted.load(Ordering::SeqCst) == 2);
                        panic!("item fails");
                    }
                    wait_until(|| posted.load(Ordering::SeqCst) == 1);
                    posted.store(2, Ordering::SeqCst);
                })
            }))
        });
        wait_until(|| dispatch.is_finished());
        assert!(dispatch.join().unwrap().is_err(), "the panic propagates");
    }

    /// Recorder installation is process-global: tests that install
    /// serialize so one test's guard cannot drop another's recorder.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn telemetry_counters_flow_from_pooled_workers() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let metrics = std::sync::Arc::new(telemetry::MetricsRecorder::new());
        let guard = telemetry::install(metrics.clone());
        let items: Vec<u64> = (0..100).collect();
        let out = WorkerPool::new(4).scoped_map(&items, |_, &x| x + 1);
        drop(guard);
        assert_eq!(out.len(), 100);
        // Sibling tests may run concurrently and emit into the same
        // recorder, so assert lower bounds, not exact equality.
        let snap = metrics.snapshot();
        assert!(snap.counter("pool.items") >= 100);
        assert!(snap.counter("pool.dispatches") >= 1);
        assert!(snap.histograms["pool.worker_busy_s"].count >= 4);
        assert!(snap.histograms["pool.worker_idle_s"].count >= 4);
    }

    type CapturedEvent = (String, Vec<(String, telemetry::Value)>);

    /// Captures events so span parentage is observable (the metrics
    /// recorder drops the event channel).
    #[derive(Default)]
    struct CaptureRecorder {
        events: Mutex<Vec<CapturedEvent>>,
    }

    impl telemetry::Recorder for CaptureRecorder {
        fn event(&self, name: &'static str, fields: &[telemetry::Field]) {
            let fields = fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect();
            self.events.lock().unwrap().push((name.to_owned(), fields));
        }
    }

    fn field_u64(fields: &[(String, telemetry::Value)], key: &str) -> Option<u64> {
        fields.iter().find_map(|(k, v)| match v {
            telemetry::Value::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    #[test]
    fn dispatch_propagates_span_context_to_every_worker() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let capture = std::sync::Arc::new(CaptureRecorder::default());
        let guard = telemetry::install(capture.clone());
        let root = telemetry::span_tree("dispatch_root");
        let root_id = root.id().unwrap();
        let items: Vec<u64> = (0..64).collect();
        // 4 workers, so jobs run on freshly spawned threads; every job
        // span must still parent under the dispatcher's root span.
        let out = WorkerPool::new(4).scoped_map(&items, |_, &x| {
            telemetry::span_tree("pool_job").finish();
            x
        });
        drop(root);
        drop(guard);
        assert_eq!(out.len(), 64);

        let events = capture.events.lock().unwrap();
        let job_parents: Vec<Option<u64>> = events
            .iter()
            .filter(|(name, fields)| {
                name == "span.begin"
                    && fields.iter().any(|(k, v)| {
                        k == "span" && *v == telemetry::Value::Text("pool_job".into())
                    })
            })
            .map(|(_, fields)| field_u64(fields, "parent"))
            .collect();
        assert_eq!(job_parents.len(), 64);
        assert!(
            job_parents.iter().all(|p| *p == Some(root_id)),
            "every pool job must nest under the dispatching span"
        );
        let labels = events.iter().filter(|(n, _)| n == "lane.label").count();
        assert!(labels >= 4, "each spawned worker labels its lane");
    }

    #[test]
    fn single_worker_dispatch_runs_inline_on_the_caller_thread() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let caller = std::thread::current().id();
        let metrics = std::sync::Arc::new(telemetry::MetricsRecorder::new());
        let guard = telemetry::install(metrics.clone());
        let out = WorkerPool::new(1).scoped_map(&[1u64, 2, 3], |_, _| std::thread::current().id());
        drop(guard);
        assert!(out.iter().all(|id| *id == caller), "no thread spawn");
        assert!(metrics.snapshot().histograms["pool.worker_busy_s"].count >= 1);
    }

    #[test]
    fn skewed_workloads_complete() {
        // The first indices are far more expensive; stealing keeps the
        // pool busy and the result order intact.
        let items: Vec<u64> = (0..48).collect();
        let out = WorkerPool::new(4).scoped_map(&items, |i, &x| {
            let spins = if i < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            let _ = acc;
            x
        });
        assert_eq!(out, items);
    }
}
