//! Process-wide monotonic clock for arrival timestamps.
//!
//! Detection latency (edge arrival → match emission) needs one time base
//! that is valid across threads: the facade reads each event's ingest
//! instant and the runtime workers read the clock again at emission, so
//! both sides must measure against the same epoch. [`monotonic_nanos`]
//! provides that — nanoseconds since the first call in this process, from
//! the OS monotonic clock (never affected by wall-clock adjustments).
//!
//! The stream's own [`Timestamp`](crate::Timestamp)s are *logical* dataset
//! time and keep driving window expiry; arrival nanos are purely an
//! observability axis alongside them.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed on the monotonic clock since the first call in this
/// process. The first call returns 0; the value is comparable across
/// threads. Saturates at `u64::MAX` (after ~584 years).
#[inline]
pub fn monotonic_nanos() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_shared_across_threads() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
        let c = std::thread::spawn(monotonic_nanos).join().unwrap();
        assert!(c >= a);
    }
}
