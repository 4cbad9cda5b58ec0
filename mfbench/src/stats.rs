//! Sample statistics and process resource readings.

use std::time::Instant;

/// Nearest-rank quantile of `samples` (`0 < q <= 1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Largest sample; 0 when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// User + system CPU seconds consumed so far by every thread of this
/// process (`/proc/self/stat` fields 14 and 15, in 1/100 s ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')' the fields start at 3 (state), so utime (14) is index 11.
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f` `reps` times and returns the median duration in seconds
/// together with the last result.
pub fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(secs(t));
    }
    (median(&times), last.expect("at least one repetition"))
}
