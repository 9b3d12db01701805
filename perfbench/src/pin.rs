//! Pinning the benchmark process to one CPU.
//!
//! On a virtual machine whose vCPUs the host time-shares (10–40% steal
//! time was measured on a 2-vCPU guest), every wire op on a socket
//! backend crosses several threads (client, reactor, dispatch worker),
//! and a wake-up aimed at a descheduled vCPU waits for the host. On two
//! vCPUs the TCP medians of five seeded runs spread by 35–75% of their
//! median, both with threads left to the scheduler and with the
//! generators on one CPU and the deployment's threads on the other;
//! pinned to one CPU, where the same hand-offs are plain context
//! switches and steal only dilates time, ten-run spreads were 5–17%.
//! The figures are therefore those of a single-core deployment: a change
//! that uses a second core does not show as a gain.

use std::io;
use std::sync::OnceLock;

/// CPU mask words passed to the kernel (room for 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may run on, read on first use. Call it before
/// pinning: it reads the calling thread's mask.
pub fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and the kernel writes at most that many bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// CPUs the process could run on before it was pinned (at least 1).
pub fn cores() -> usize {
    allowed_cpus().len().max(1)
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to the first allowed CPU. Returns that CPU.
pub fn pin_to_first_cpu() -> io::Result<usize> {
    let &cpu = allowed_cpus()
        .first()
        .ok_or_else(|| io::Error::other("cannot read the CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_sees_one_cpu_and_the_core_count_stays() {
        let before = cores();
        // A fresh thread, so the test harness's other threads keep
        // their affinity.
        std::thread::spawn(move || {
            let cpu = pin_to_first_cpu().expect("pinning succeeds");
            assert!(allowed_cpus().contains(&cpu));
            let n = std::thread::available_parallelism().expect("known").get();
            assert_eq!(n, 1);
            // Read once, so pinning does not shrink it.
            assert_eq!(cores(), before);
        })
        .join()
        .expect("pinned thread");
    }
}
