//! Sample summaries, process CPU time and the result line.

/// The `q`-quantile (0..=1) of `samples` by nearest rank, or `None`
/// when there are no samples. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// The median of `samples` (0 when empty). Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// User plus system CPU time of this process, microseconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks).
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; fields after it
    // start past the last ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    let ticks: u64 = fields[11..=12]
        .iter()
        .map(|f| f.parse::<u64>().expect("numeric tick count"))
        .sum();
    ticks * 1_000_000 / TICKS_PER_SEC
}

/// Linux reports `/proc` CPU times in USER_HZ, which is 100 on every
/// supported architecture.
const TICKS_PER_SEC: u64 = 100;

/// Steal time of the whole machine so far, microseconds summed over
/// CPUs: time a virtual machine's CPUs were ready but the host ran
/// something else (field 9 of the `cpu` line of `/proc/stat`).
pub fn machine_steal_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("procfs is mounted");
    let line = stat
        .lines()
        .next()
        .expect("/proc/stat starts with the cpu line");
    let ticks: u64 = line
        .split_whitespace()
        .nth(8)
        .map_or(0, |f| f.parse().expect("numeric tick count"));
    ticks * 1_000_000 / TICKS_PER_SEC
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The last line of the benchmark's output: one JSON object with
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number (non-finite values, which JSON cannot carry,
/// become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_carries_correct_attempted_failed_and_metrics() {
        let line = result_line(true, 10, 0, &[Metric::new("setup_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn cpu_time_is_monotonic() {
        let a = process_cpu_us();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_us() >= a);
    }
}
