//! Order statistics, process counters and the heap-counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// Fewest samples that must lie strictly beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of `samples`.
///
/// Refuses (`Err`) when fewer than [`MIN_BEYOND`] samples lie beyond the
/// requested rank: a p99 over 200 samples is two samples, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = ((n as f64) * (100.0 - p) / 100.0).floor() as usize;
    if n == 0 || (p > 50.0 && beyond < MIN_BEYOND) {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Ok(sorted[rank.min(n) - 1])
}

/// Median (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let q = quartiles(samples);
    q[1]
}

/// First quartile, median and third quartile with the same "exclusive"
/// interpolation as Python's `statistics.quantiles(values, n=4)`, so the
/// spreads this tool reports match the ones computed from its output.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return [f64::NAN; 3];
    }
    if n == 1 {
        return [s[0]; 3];
    }
    let at = |k: usize| -> f64 {
        // statistics.quantiles, method="exclusive": position k*(n+1)/4,
        // index clamped to 1..n-1, interpolation weight not clamped.
        let m = (n + 1) * k;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Least-squares slope of `ln y` over `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `VmRSS`, `Threads`).
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Live thread count of this process.
pub fn threads_now() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

/// `System` plus a live-heap byte counter that runs only while
/// [`HeapCounter::enable`] is in force, so untraced runs pay one relaxed
/// load per allocation and nothing else.
pub struct HeapCounter;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

impl HeapCounter {
    /// Start counting (traced runs only).
    pub fn enable() {
        COUNTING.store(true, Ordering::Relaxed);
    }

    /// Bytes allocated minus bytes freed since counting started. Frees of
    /// blocks allocated before [`HeapCounter::enable`] make this an
    /// under-count, so callers only difference two readings.
    pub fn live_bytes() -> i64 {
        LIVE.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for HeapCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
        assert_eq!(percentile(&thousand, 50.0), Ok(500.0));
        // 999 samples leave only 9 beyond p99.
        assert!(percentile(&thousand[..999], 99.0).is_err());
        // A median needs no tail.
        assert!(percentile(&[3.0], 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // Two samples: the outer quartiles extrapolate, as Python does.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = (1..6)
            .map(|i| (f64::from(i), f64::from(i).powi(2)))
            .collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-12);
    }
}
