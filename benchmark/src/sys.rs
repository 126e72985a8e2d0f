//! Process-level measurements: CPU time over all threads (the process CPU
//! clock) and the resident-set high-water mark (`/proc/self/status`).
//! 64-bit Linux only; a failed read is an error so a metric is never
//! silently 0.

use std::fs;
use std::io;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds (user + system) this process has consumed so far, over
/// all its threads, living or exited. One system call, so it can be read
/// around every slice of a measured stretch.
pub fn process_cpu_ns() -> io::Result<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit words on
    // the 64-bit Linux targets this benchmark runs on), which is all
    // `clock_gettime` requires of its pointer; the clock id is a constant.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Peak resident set size of this process so far (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or_else(|| invalid("no VmHWM in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ns().unwrap();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        // 20M dependent multiply-adds take milliseconds on any machine.
        assert!(process_cpu_ns().unwrap() - before > 1_000_000);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
