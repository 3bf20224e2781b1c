//! Slot pacing: the absolute-deadline clock that keeps a shard's slot
//! period honest.
//!
//! The paper's guarantees are per-slot — every bound is a function of
//! what happens inside one length-`D` window — so the wall-clock
//! length of a slot matters. The naive pacing the daemon started with
//! (`sleep(interval)` *after* each slot's work) drifts: the realized
//! period is `work + interval`, so a loaded shard's slots stretch and
//! the configured rate silently erodes. [`SlotClock`] instead keeps an
//! absolute deadline `next = arm_time + k·period` and sleeps only the
//! *remaining* time, so per-slot work is absorbed rather than added —
//! and when work exceeds the period it records a deadline miss with
//! the measured lateness instead of letting errors compound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A time source the slot clock paces against.
///
/// Production uses [`MonotonicClock`]; tests use [`ManualClock`] so
/// pacing behavior (drift vs deadline-holding) is checked
/// deterministically, without real sleeps.
pub trait Clock {
    /// Monotone elapsed time since an arbitrary epoch.
    fn now(&self) -> Duration;
    /// Block (or pretend to) for `d`.
    fn sleep(&self, d: Duration);
}

/// Wall-clock time via [`Instant`], epoch at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl MonotonicClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A deterministic clock for tests: time only moves when the test (or
/// a `sleep`) advances it. Shared-state via atomics so a clone handed
/// to the code under test stays in step with the test's copy.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Move time forward by `d` (models work being done).
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// How (or whether) the worker paces its slot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPacing {
    /// Step as fast as possible (batch mode, drains, tests).
    Free,
    /// Absolute-deadline pacing: realized period = `max(work, period)`,
    /// with misses counted instead of compounding.
    Deadline(Duration),
}

impl SlotPacing {
    /// The configured slot period, if any.
    pub fn period(self) -> Option<Duration> {
        match self {
            SlotPacing::Free => None,
            SlotPacing::Deadline(d) => Some(d),
        }
    }
}

/// What [`SlotClock::pace`] observed for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotOutcome {
    /// The slot finished after its deadline.
    pub missed: bool,
    /// How far past the deadline it finished (zero when on time).
    pub lateness: Duration,
}

/// Per-worker pacing state: the next absolute deadline.
///
/// Protocol: call [`arm`](SlotClock::arm) when the shard transitions
/// idle → busy (so deadlines are anchored to when work actually
/// resumes, not to a stale epoch), then [`pace`](SlotClock::pace) once
/// after each slot's work. On a miss the clock re-anchors
/// (`next = now + period`) rather than trying to "catch up" with
/// back-to-back slots — slot count is not a contract here, period is.
#[derive(Debug)]
pub struct SlotClock<C: Clock> {
    clock: C,
    pacing: SlotPacing,
    next: Duration,
}

impl<C: Clock> SlotClock<C> {
    /// A clock for one worker. Armed immediately.
    pub fn new(clock: C, pacing: SlotPacing) -> Self {
        let mut sc = SlotClock {
            clock,
            pacing,
            next: Duration::ZERO,
        };
        sc.arm();
        sc
    }

    /// The pacing mode this clock runs.
    pub fn pacing(&self) -> SlotPacing {
        self.pacing
    }

    /// Re-anchor the deadline to `now + period`. Call on an idle → busy
    /// transition so time spent parked waiting for commands is not
    /// charged as lateness.
    pub fn arm(&mut self) {
        if let SlotPacing::Deadline(period) = self.pacing {
            self.next = self.clock.now() + period;
        }
    }

    /// Pace after one slot's work. Sleeps until the deadline (or not at
    /// all) and reports whether the deadline was missed.
    pub fn pace(&mut self) -> SlotOutcome {
        match self.pacing {
            SlotPacing::Free => SlotOutcome::default(),
            SlotPacing::Deadline(period) => {
                let now = self.clock.now();
                if now <= self.next {
                    self.clock.sleep(self.next - now);
                    self.next += period;
                    SlotOutcome::default()
                } else {
                    let lateness = now - self.next;
                    self.next = now + period;
                    SlotOutcome {
                        missed: true,
                        lateness,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Clock` view onto a shared `ManualClock`.
    #[derive(Clone)]
    struct Shared(Arc<ManualClock>);

    impl Clock for Shared {
        fn now(&self) -> Duration {
            self.0.now()
        }
        fn sleep(&self, d: Duration) {
            self.0.sleep(d);
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn deadline_pacing_holds_the_period() {
        let clock = Arc::new(ManualClock::new());
        let mut sc = SlotClock::new(Shared(Arc::clone(&clock)), SlotPacing::Deadline(10 * MS));
        for work in [0u32, 3, 7, 1, 9] {
            let start = clock.now();
            clock.advance(work * MS);
            let out = sc.pace();
            assert!(!out.missed);
            assert_eq!(clock.now() - start, 10 * MS, "work={work}ms");
        }
    }

    #[test]
    fn overrun_records_miss_and_reanchors() {
        let clock = Arc::new(ManualClock::new());
        let mut sc = SlotClock::new(Shared(Arc::clone(&clock)), SlotPacing::Deadline(10 * MS));
        clock.advance(25 * MS); // 15ms past the 10ms deadline
        let out = sc.pace();
        assert!(out.missed);
        assert_eq!(out.lateness, 15 * MS);
        // Re-anchored: the next slot gets a full period again.
        clock.advance(4 * MS);
        let out = sc.pace();
        assert!(!out.missed);
        assert_eq!(clock.now(), Duration::from_millis(35));
    }

    #[test]
    fn arm_forgives_idle_time() {
        let clock = Arc::new(ManualClock::new());
        let mut sc = SlotClock::new(Shared(Arc::clone(&clock)), SlotPacing::Deadline(10 * MS));
        clock.advance(500 * MS); // parked idle, no work
        sc.arm();
        clock.advance(2 * MS);
        let out = sc.pace();
        assert!(!out.missed, "idle time must not count as lateness");
    }

    #[test]
    fn free_pacing_never_misses() {
        let clock = Arc::new(ManualClock::new());
        let mut free = SlotClock::new(Shared(Arc::clone(&clock)), SlotPacing::Free);
        clock.advance(1000 * MS);
        assert_eq!(free.pace(), SlotOutcome::default());
        assert_eq!(SlotPacing::Free.period(), None);
        assert_eq!(SlotPacing::Deadline(MS).period(), Some(MS));
    }
}
