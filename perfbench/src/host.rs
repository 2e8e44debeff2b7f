//! What the benchmark asks of the operating system: the process CPU
//! clock, the peak resident set, and one CPU to itself.
//!
//! The standard library offers none of the three, and the repo vendors no
//! `libc` crate, so the two clocks-and-affinity calls are declared here
//! against the C library the standard library already links. Off 64-bit
//! Linux the clock reads zero and nothing is pinned.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::time::Duration;

    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>`.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// `cpu_set_t` is 1024 bits.
    const CPU_SET_WORDS: usize = 16;

    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }

    pub fn cpu_time() -> Option<Duration> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` of this ABI's
        // layout; the call writes it and keeps no pointer.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u64; CPU_SET_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes; pid 0 is the calling thread; nothing is retained.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|&w| w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; CPU_SET_WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the
        // call only reads.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::time::Duration;

    pub fn cpu_time() -> Option<Duration> {
        None
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

/// User + system CPU time of this process, all threads, exited ones
/// included. Zero where the platform has no process clock.
pub fn cpu_time() -> Duration {
    sys::cpu_time().unwrap_or_default()
}

/// Restrict this thread — and every thread the engine spawns from it —
/// to the highest CPU it may run on (interrupts and housekeeping favour
/// the low ones); that CPU's index, or `None` where the platform cannot.
///
/// On a small shared host the second virtual CPU comes and goes with the
/// neighbours: waking it for a channel hand-off costs anything from
/// microseconds to milliseconds, and the wall clock of the threaded arms
/// moved by 30–40% between identical runs. On one CPU the arms time-slice
/// — which the 2-core reference host made them do anyway — and their wall
/// clock measures their work and hand-offs, not the hypervisor.
pub fn pin_to_one_cpu() -> Option<usize> {
    sys::pin_to_one_cpu()
}

/// Peak resident set (`VmHWM`) in MB. 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_clock_advances_with_work() {
        if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            return;
        }
        let before = cpu_time();
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0);
        }
        assert!(cpu_time() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
