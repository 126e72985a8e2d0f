//! Open-loop load generation: a fixed release schedule and the wait that
//! follows it.
//!
//! Event `i` of the paced stretch is *due* at `i / rate` seconds after the
//! stretch starts — a function of `i` alone. A stall in the system under test
//! therefore never moves a later due time (no coordinated omission): the
//! events that queued up behind the stall are released back to back and
//! carry the wait in their latency, and how late the generator ran is
//! recorded per event.
//!
//! The generator and the system under test share a thread (the sequential
//! processor runs inside `process_into`; the runtime's facade batches and
//! broadcasts inside `process_all_into`), so an event can be late for two
//! reasons that are recorded apart: the thread was still *busy* with earlier
//! events when it came due (`backlog` — queueing, already charged to match
//! latency, no fault of the generator), or the thread was *waiting* and
//! noticed the due time late (`overshoot` — the generator's own error, e.g.
//! the spin was preempted). `lateness` is both together.

use std::time::Instant;

/// The release schedule of one paced region.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: f64,
    /// Stream index of the region's first event (edge ids are stream
    /// indices, the schedule counts from the region start).
    first_index: u64,
}

impl Schedule {
    /// A schedule releasing `rate_eps` events per second, starting now, whose
    /// event 0 is stream index `first_index`.
    pub fn starting_now(rate_eps: f64, first_index: u64) -> Self {
        assert!(rate_eps > 0.0, "offered rate must be positive");
        Self {
            start: Instant::now(),
            period_ns: 1e9 / rate_eps,
            first_index,
        }
    }

    /// Nanoseconds after the region start at which stream index `index` is
    /// due. Indices before the region (warm-up edges) are due at 0.
    #[inline]
    pub fn due_ns(&self, index: u64) -> u64 {
        (self.offset(index) as f64 * self.period_ns) as u64
    }

    /// Events between the region's first and stream index `index` (0 for an
    /// index before the region).
    #[inline]
    pub fn offset(&self, index: u64) -> u64 {
        index.saturating_sub(self.first_index)
    }

    /// Nanoseconds since the region start.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Waits out a [`Schedule`] and records generator lateness.
pub struct Pacer {
    schedule: Schedule,
    /// `true`: give the core away while waiting (`yield_now`) — for the
    /// runtime workload, whose worker threads need it. `false`: busy-spin,
    /// the most punctual wait when the other core is idle anyway.
    yield_while_waiting: bool,
    /// Release time − due time of every event, in nanoseconds (saturating).
    pub lateness: Vec<u32>,
    /// The same, only for events the pacer had to wait for.
    pub overshoot: Vec<u32>,
    /// Events that came due while the thread was still busy.
    pub backlog: u64,
}

impl Pacer {
    /// A pacer over `schedule`.
    pub fn new(schedule: Schedule, yield_while_waiting: bool) -> Self {
        Self {
            schedule,
            yield_while_waiting,
            lateness: Vec::new(),
            overshoot: Vec::new(),
            backlog: 0,
        }
    }

    /// Blocks until stream index `index` is due, then records how late the
    /// release is. Returns immediately (recording the lateness) when the due
    /// time has already passed.
    #[inline]
    pub fn wait_for(&mut self, index: u64) {
        let schedule = self.schedule;
        let yield_while_waiting = self.yield_while_waiting;
        let (late, waited) = release(
            schedule.due_ns(index),
            || schedule.now_ns(),
            || {
                if yield_while_waiting {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            },
        );
        let late = u32::try_from(late).unwrap_or(u32::MAX);
        self.lateness.push(late);
        if waited {
            self.overshoot.push(late);
        } else {
            self.backlog += 1;
        }
    }
}

/// The wait itself, over an abstract clock so tests can drive it: polls
/// `now` until it reaches `due`, calling `idle` between polls, and returns
/// the lateness `now − due` at release and whether it had to wait at all.
#[inline]
fn release(due: u64, mut now: impl FnMut() -> u64, mut idle: impl FnMut()) -> (u64, bool) {
    let mut waited = false;
    loop {
        let t = now();
        if t >= due {
            return (t - due, waited);
        }
        waited = true;
        idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn due_times_are_a_function_of_the_index_alone() {
        let s = Schedule::starting_now(1_000.0, 500);
        assert_eq!(s.due_ns(500), 0);
        assert_eq!(s.due_ns(501), 1_000_000);
        assert_eq!(s.due_ns(1_500), 1_000_000_000);
        // Warm-up edges (before the region) are never in the future.
        assert_eq!(s.due_ns(3), 0);
    }

    #[test]
    fn a_stall_is_charged_as_lateness_and_does_not_shift_the_schedule() {
        // Fake clock: each poll advances 100 ns; the system "stalls" for
        // 5 µs while event 2 is processed (period 1 µs).
        let clock = Cell::new(0u64);
        let period = 1_000u64;
        let mut released_at = Vec::new();
        let mut lateness = Vec::new();
        let mut waited = Vec::new();
        for i in 0..10u64 {
            let (late, idle) = release(
                i * period,
                || {
                    clock.set(clock.get() + 100);
                    clock.get()
                },
                || {},
            );
            released_at.push(clock.get());
            lateness.push(late);
            waited.push(idle);
            if i == 2 {
                clock.set(clock.get() + 5_000);
            }
        }
        // Before the stall releases are punctual (within one poll).
        assert!(lateness[..3].iter().all(|&l| l < 200), "{lateness:?}");
        // Event 3 was due at 3 µs but the stall ended at ~7 µs: it is late by
        // the stall, not re-timed from the previous send.
        assert!(lateness[3] >= 4_000, "{lateness:?}");
        // The backlog drains back to back and lateness shrinks by about one
        // period per event — due times stayed on the original grid.
        assert!(lateness[4] < lateness[3] && lateness[5] < lateness[4]);
        assert!(released_at[4] - released_at[3] < period);
        // Once caught up the grid is the original one: event 8 at 8 µs.
        assert!(lateness[8] < 200 && released_at[8] >= 8 * period);
        // Backlogged events are told apart from ones the pacer waited for.
        assert!(waited[1] && waited[2] && !waited[3] && !waited[7] && waited[8]);
    }

    #[test]
    fn pacer_reports_lateness_for_every_event() {
        let mut p = Pacer::new(Schedule::starting_now(200_000.0, 0), false);
        for i in 0..50 {
            p.wait_for(i);
        }
        assert_eq!(p.lateness.len(), 50);
        assert_eq!(p.overshoot.len() as u64 + p.backlog, 50);
        // 50 events at 200k/s take at least 245 µs on the schedule.
        assert!(p.schedule.now_ns() >= 245_000);
    }
}
