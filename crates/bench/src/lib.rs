//! Shared helpers for the OpenFLAME experiment harness binaries.
//!
//! Each `src/bin/e*.rs` binary regenerates one experiment from
//! EXPERIMENTS.md and prints its table(s). The helpers here keep the
//! output format consistent so EXPERIMENTS.md can quote it directly.

/// Prints an experiment header.
pub fn header(id: &str, claim: &str) {
    println!("==================================================================");
    println!("{id}: {claim}");
    println!("==================================================================");
}

/// Prints a table row of right-aligned columns with a fixed width.
pub fn row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Convenience for building a row from display values.
#[macro_export]
macro_rules! trow {
    ($($v:expr),* $(,)?) => {
        $crate::row(&[$(format!("{}", $v)),*])
    };
}

/// Percentile of a sorted-or-unsorted sample (p in [0, 100]).
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (values.len() - 1) as f64).round() as usize;
    values[rank.min(values.len() - 1)]
}

/// CPU time this process has used so far, all threads, in
/// microseconds (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, which
/// counts nanoseconds where `/proc` counts 10 ms ticks).
pub fn process_cpu_us() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, correctly laid out `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available");
    ts.sec as u64 * 1_000_000 + ts.nsec as u64 / 1_000
}

/// Mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let t0 = process_cpu_us();
        let mut x = 0u64;
        while process_cpu_us() < t0 + 2_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
