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
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

thread_local! {
    /// This thread's width when it is a pool worker (`None` elsewhere:
    /// the machine's width).
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
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

        let mut computed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let f = &f;
                    scope.spawn(move || {
                        WIDTH.set(Some(share));
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
                            // other queue.
                            let victim = (0..queues.len())
                                .filter(|&v| v != w)
                                .max_by_key(|&v| queues[v].lock().expect("queue poisoned").len());
                            let stolen = victim
                                .and_then(|v| queues[v].lock().expect("queue poisoned").pop_back());
                            match stolen {
                                Some(idx) => {
                                    steals += 1;
                                    out.push(run(idx, &mut busy));
                                }
                                None => break,
                            }
                        }
                        if let Some(start) = worker_start {
                            let idle = start.elapsed().saturating_sub(busy);
                            telemetry::observe("pool.worker_busy_s", busy.as_secs_f64());
                            telemetry::observe("pool.worker_idle_s", idle.as_secs_f64());
                            telemetry::counter_add("pool.busy_ns", busy.as_nanos() as u64);
                            telemetry::counter_add("pool.steals", steals);
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
