//! Run-scoped wall-clock reads behind a swappable [`Clock`], so
//! timing-dependent code paths (durations, rates, ETAs, progress
//! throttling) are testable deterministically, without sleeps.
//!
//! The system clock reports monotonic nanoseconds since the first read
//! in the process; the [`TestClock`] reports whatever the test set,
//! advanced manually.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The process-wide monotonic origin of [`Clock::system`] reads.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A manually advanced clock for tests.
///
/// # Examples
///
/// ```
/// use mramsim_telemetry::Clock;
/// use std::time::Duration;
///
/// let (clock, handle) = Clock::test();
/// let t0 = clock.now_nanos();
/// handle.advance(Duration::from_millis(250));
/// assert_eq!(clock.elapsed(t0), Duration::from_millis(250));
/// ```
#[derive(Debug, Default)]
pub struct TestClock {
    nanos: AtomicU64,
}

impl TestClock {
    /// Moves the clock forward by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.nanos
            .fetch_add(delta.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Sets the absolute reading, in nanoseconds.
    pub fn set_nanos(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }

    /// The current reading, in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum ClockKind {
    System,
    Test(Arc<TestClock>),
}

/// A monotonic nanosecond clock: the real one, or a deterministic test
/// double.
///
/// All readings are `u64` nanoseconds from the clock's origin
/// (process start for the system clock, zero for a fresh test clock);
/// durations are differences of readings, so swapping the clock never
/// changes the arithmetic around it.
#[derive(Debug, Clone)]
pub struct Clock {
    kind: ClockKind,
}

impl Clock {
    /// The real monotonic clock.
    #[must_use]
    pub fn system() -> Self {
        // Pin the epoch now so the first duration measured is not
        // accidentally zero-based at an arbitrary later instant.
        let _ = process_epoch();
        Self {
            kind: ClockKind::System,
        }
    }

    /// A deterministic clock starting at zero, plus the handle that
    /// advances it.
    #[must_use]
    pub fn test() -> (Self, Arc<TestClock>) {
        let handle = Arc::new(TestClock::default());
        (
            Self {
                kind: ClockKind::Test(Arc::clone(&handle)),
            },
            handle,
        )
    }

    /// The current reading, in nanoseconds since the clock's origin.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        match &self.kind {
            ClockKind::System => process_epoch().elapsed().as_nanos() as u64,
            ClockKind::Test(clock) => clock.nanos(),
        }
    }

    /// The time elapsed since the reading `start_nanos` (saturating:
    /// a reading from the future reports zero, never underflows).
    #[must_use]
    pub fn elapsed(&self, start_nanos: u64) -> Duration {
        Duration::from_nanos(self.now_nanos().saturating_sub(start_nanos))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_is_deterministic() {
        let (clock, handle) = Clock::test();
        assert_eq!(clock.now_nanos(), 0);
        let t0 = clock.now_nanos();
        handle.advance(Duration::from_secs(3));
        assert_eq!(clock.elapsed(t0), Duration::from_secs(3));
        handle.set_nanos(10);
        assert_eq!(clock.now_nanos(), 10);
        // Saturating: a "future" start never underflows.
        assert_eq!(clock.elapsed(1_000), Duration::ZERO);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = Clock::system();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
        // And measures real time, coarsely.
        let t0 = clock.now_nanos();
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock.elapsed(t0) >= Duration::from_millis(1));
    }
}
