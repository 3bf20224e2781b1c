//! Window-scoped quantiles and small order statistics.
//!
//! The daemon keeps lifetime histograms. A quantile read straight off
//! one mixes admission and settle slots into the measurement window;
//! [`window`] subtracts the histogram taken at the window's start from
//! the one taken at its end, bucket by bucket. Buckets only grow, so
//! the difference is exactly the histogram of the window's own samples.

use std::time::{Duration, Instant};

use rts_obs::LogHistogram;

/// Fewest samples that must lie beyond a percentile before it is
/// reported; below that the percentile is a single outlier.
pub const MIN_BEYOND: u64 = 10;

/// Sub-window length. Window metrics are the median over the window's
/// sub-windows, so a host-noise episode shorter than half the window
/// does not move them.
pub const INTERVAL: Duration = Duration::from_secs(1);

/// Time a workload runs before its window opens, so caches fill and
/// lazy set-up finishes before anything is timed.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Sleeps through a window of `seconds` starting at `start`, calling
/// `sample` at the start, at every whole [`INTERVAL`], and at the end.
pub fn sample_window<T>(
    start: Instant,
    seconds: f64,
    sample: impl FnMut() -> T,
) -> Vec<(Instant, T)> {
    sample_window_with(start, seconds, INTERVAL, || {}, sample)
}

/// [`sample_window`] that also calls `between` every `gap` inside the
/// window.
pub fn sample_window_with<T>(
    start: Instant,
    seconds: f64,
    gap: Duration,
    mut between: impl FnMut(),
    mut sample: impl FnMut() -> T,
) -> Vec<(Instant, T)> {
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let mut out = vec![(Instant::now(), sample())];
    let mut next = start + INTERVAL;
    loop {
        let at = next.min(end);
        loop {
            let now = Instant::now();
            if now + gap >= at {
                std::thread::sleep(at.saturating_duration_since(now));
                break;
            }
            std::thread::sleep(gap);
            between();
        }
        out.push((Instant::now(), sample()));
        if at >= end {
            return out;
        }
        next += INTERVAL;
    }
}

/// The histogram of the samples recorded between two snapshots of one
/// monotone histogram. `min`/`max` of the window are not recoverable
/// from buckets, so they are the bounds of the outermost occupied
/// buckets (within one bucket of the true extremes).
pub fn window(start: &LogHistogram, end: &LogHistogram) -> LogHistogram {
    let buckets: Vec<u64> = end
        .buckets()
        .iter()
        .enumerate()
        .map(|(i, &c)| c - start.buckets().get(i).copied().unwrap_or(0))
        .collect();
    let count: u64 = buckets.iter().sum();
    let first = buckets.iter().position(|&c| c > 0);
    let last = buckets.iter().rposition(|&c| c > 0);
    let (Some(first), Some(last)) = (first, last) else {
        return LogHistogram::new();
    };
    let min = LogHistogram::bucket_bounds(first).0;
    let max = LogHistogram::bucket_bounds(last).1.min(end.max());
    LogHistogram::from_parts(buckets, count, end.sum() - start.sum(), min, max)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: u64, q: f64) -> u64 {
    let rank = ((q * n as f64).ceil() as u64).max(1);
    n.saturating_sub(rank)
}

/// The `q` percentile of a histogram, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> Option<u64> {
    (beyond(h.count(), q) >= MIN_BEYOND).then(|| h.quantile(q))
}

/// The `q` percentile of a histogram with linear interpolation inside
/// the bucket holding it (samples assumed spread evenly across the
/// bucket), so the estimate moves smoothly instead of in bucket-sized
/// steps; `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn interp_quantile(h: &LogHistogram, q: f64) -> Option<f64> {
    let n = h.count();
    if beyond(n, q) < MIN_BEYOND {
        return None;
    }
    let rank = (q * n as f64).max(1.0);
    let mut seen = 0u64;
    for (idx, &c) in h.buckets().iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= rank {
            let (low, high) = LogHistogram::bucket_bounds(idx);
            let frac = (rank - seen as f64) / c as f64;
            return Some(low as f64 + frac * (high - low + 1) as f64);
        }
        seen += c;
    }
    Some(h.max() as f64)
}

/// Nearest-rank `q` percentile of exact samples, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn sample_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len() as u64;
    if beyond(n, q) < MIN_BEYOND {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// `p50 / p99 / max` line with the sample count, for diagnostics.
pub fn describe_samples(label: &str, sorted: &[u64], scale: f64, unit: &str) -> String {
    let fmt = |q: Option<u64>| match q {
        Some(v) => format!("{:.1}", v as f64 / scale),
        None => "n/a".to_string(),
    };
    format!(
        "{label}: n={} p50={} p90={} p99={} max={} {unit} (p99 needs >= {} samples beyond it)",
        sorted.len(),
        fmt(sample_quantile(sorted, 0.5)),
        fmt(sample_quantile(sorted, 0.9)),
        fmt(sample_quantile(sorted, 0.99)),
        sorted
            .last()
            .map_or("n/a".into(), |&m| format!("{:.1}", m as f64 / scale)),
        MIN_BEYOND,
    )
}

/// The histogram counterpart of [`describe_samples`].
pub fn describe_hist(label: &str, h: &LogHistogram, scale: f64, unit: &str) -> String {
    let fmt = |q: Option<u64>| match q {
        Some(v) => format!("{:.1}", v as f64 / scale),
        None => "n/a".to_string(),
    };
    format!(
        "{label}: n={} p50={} p90={} p99={} max={:.1} {unit} (window-scoped; p99 needs >= {} samples beyond it)",
        h.count(),
        fmt(hist_quantile(h, 0.5)),
        fmt(hist_quantile(h, 0.9)),
        fmt(hist_quantile(h, 0.99)),
        h.max() as f64 / scale,
        MIN_BEYOND,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn window_diff_equals_histogram_of_window_samples() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut lifetime = LogHistogram::new();
        // Settle phase: a few huge samples, like admission slots.
        for _ in 0..50 {
            lifetime.record(8_000_000_000 + xorshift(&mut state) % 1000);
        }
        let start = lifetime.clone();
        let mut own = LogHistogram::new();
        for _ in 0..5000 {
            let v = 5_000_000 + xorshift(&mut state) % 2_000_000;
            lifetime.record(v);
            own.record(v);
        }
        let w = window(&start, &lifetime);
        assert_eq!(w.buckets(), own.buckets());
        assert_eq!(w.count(), own.count());
        assert_eq!(w.sum(), own.sum());
        // Quantiles land in the same bucket; only the clamp to the exact
        // extremes, which buckets cannot carry, may differ.
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(
                LogHistogram::bucket_of(w.quantile(q)),
                LogHistogram::bucket_of(own.quantile(q)),
                "q={q}"
            );
        }
        // The lifetime histogram's p99 is polluted by the settle phase;
        // the window's is not.
        assert!(lifetime.quantile(0.999) > 1_000_000_000);
        assert!(w.quantile(0.99) < 8_000_000);
    }

    #[test]
    fn empty_window_is_empty() {
        let mut h = LogHistogram::new();
        h.record(7);
        assert_eq!(window(&h, &h).count(), 0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let few: Vec<u64> = (1..=100).collect();
        assert!(sample_quantile(&few, 0.9).is_some());
        assert!(sample_quantile(&few, 0.99).is_none());
        let many: Vec<u64> = (1..=1000).collect();
        assert_eq!(sample_quantile(&many, 0.99), Some(990));
        let mut h = LogHistogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert!(hist_quantile(&h, 0.99).is_none());
        assert!(hist_quantile(&h, 0.5).is_some());
    }

    #[test]
    fn interpolated_quantile_stays_in_its_bucket_and_is_smooth() {
        let mut h = LogHistogram::new();
        for v in 1_000..3_000u64 {
            h.record(v);
        }
        for q in [0.25, 0.5, 0.9] {
            let exact = 1_000.0 + q * 2_000.0;
            let est = interp_quantile(&h, q).unwrap();
            assert_eq!(
                LogHistogram::bucket_of(est as u64),
                LogHistogram::bucket_of(h.quantile(q)),
                "q={q}"
            );
            assert!(
                (est - exact).abs() / exact < 0.01,
                "q={q}: {est} vs {exact}"
            );
        }
        assert!(interp_quantile(&h, 0.999).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
