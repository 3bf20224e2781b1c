//! Lossless smoothing baselines.
//!
//! The related work the paper positions itself against (Salehi et al.,
//! Zhao et al., Sen et al.) studies *lossless* smoothing: how much link
//! rate does a stream need if nothing may be dropped, given a smoothing
//! delay budget? With buffer `B = R·D`, the generic algorithm is
//! lossless **iff** the whole stream is `(σ = R·D, ρ = R)` leaky-bucket
//! conformant — for every interval `I`,
//! `A(I) ≤ R · (|I| + D)` — so the minimal lossless rate and the
//! minimal lossless delay have closed forms over the interval maxima.
//!
//! These functions power the rate–delay frontier experiment
//! (`cargo run -p rts-bench --bin lossless`): the paper's introductory
//! claim that "one can significantly reduce the peak bandwidth using
//! only a relatively modest amount of space" becomes a measured curve.

use rts_stream::{Bytes, Frame, InputStream, Time};

/// The peak rate: the minimal lossless link rate with no smoothing at
/// all (`D = 0`, cut-through). Equals the largest single-step arrival.
pub fn peak_rate(stream: &InputStream) -> Bytes {
    stream.frames().map(|f| f.bytes()).max().unwrap_or(0)
}

/// The minimal link rate that delivers every byte of `stream` with
/// smoothing delay `delay` and the balanced buffer `B = R·D`:
///
/// ```text
/// R*(D) = max over intervals I of ceil( A(I) / (|I| + D) )
/// ```
///
/// Monotone non-increasing in `delay`; `peak_rate` at `delay = 0` and
/// approaching the average rate as `delay → ∞`.
pub fn min_lossless_rate(stream: &InputStream, delay: Time) -> Bytes {
    let frames: Vec<Frame<'_>> = stream.frames().collect();
    let mut best: Bytes = if stream.total_bytes() > 0 { 1 } else { 0 };
    for i in 0..frames.len() {
        let mut sum: Bytes = 0;
        for f in &frames[i..] {
            sum += f.bytes();
            let len = f.time - frames[i].time + 1;
            let needed = sum.div_ceil(len + delay);
            best = best.max(needed);
        }
    }
    best
}

/// The minimal smoothing delay that delivers every byte of `stream`
/// over a link of rate `rate` with the balanced buffer `B = R·D`:
///
/// ```text
/// D*(R) = max over intervals I of ceil( (A(I) − R·|I|) / R )
/// ```
///
/// Returns `None` if `rate` is below the long-run requirement (some
/// suffix average exceeds it, so no finite delay suffices — formally,
/// the needed delay grows with the horizon; we report `None` when the
/// final cumulative deficit is positive and still growing).
///
/// # Panics
///
/// Panics if `rate == 0` while the stream is non-empty.
pub fn min_lossless_delay(stream: &InputStream, rate: Bytes) -> Option<Time> {
    if stream.total_bytes() == 0 {
        return Some(0);
    }
    assert!(
        rate > 0,
        "link rate must be positive for a non-empty stream"
    );
    let frames: Vec<Frame<'_>> = stream.frames().collect();
    let mut best: Time = 0;
    for i in 0..frames.len() {
        let mut sum: Bytes = 0;
        for f in &frames[i..] {
            sum += f.bytes();
            let len = f.time - frames[i].time + 1;
            let served = rate.saturating_mul(len);
            if sum > served {
                best = best.max((sum - served).div_ceil(rate));
            }
        }
    }
    // A delay computed this way is always sufficient for the *given*
    // finite stream; report it. (An infinite stream with average rate
    // above `rate` would need unbounded delay; finite traces always
    // admit one.)
    Some(best)
}

/// The lossless rate–delay frontier: `(delay, R*(delay))` for each
/// requested delay.
pub fn rate_delay_frontier(stream: &InputStream, delays: &[Time]) -> Vec<(Time, Bytes)> {
    delays
        .iter()
        .map(|&d| (d, min_lossless_rate(stream, d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{InputStream, SliceSpec};

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn peak_rate_is_largest_frame() {
        let s = unit_frames(&[3, 9, 1]);
        assert_eq!(peak_rate(&s), 9);
        assert_eq!(peak_rate(&InputStream::default()), 0);
    }

    #[test]
    fn zero_delay_needs_peak_rate() {
        let s = unit_frames(&[3, 9, 1]);
        assert_eq!(min_lossless_rate(&s, 0), 9);
    }

    #[test]
    fn delay_reduces_required_rate() {
        // One burst of 10 then quiet: D=4 spreads it over 5 steps.
        let s = unit_frames(&[10, 0, 0, 0, 0]);
        assert_eq!(min_lossless_rate(&s, 0), 10);
        assert_eq!(min_lossless_rate(&s, 1), 5);
        assert_eq!(min_lossless_rate(&s, 4), 2);
        assert_eq!(min_lossless_rate(&s, 9), 1);
    }

    #[test]
    fn rate_never_below_one_for_nonempty() {
        let s = unit_frames(&[1]);
        assert_eq!(min_lossless_rate(&s, 1_000_000), 1);
    }

    #[test]
    fn min_delay_inverts_min_rate() {
        let s = unit_frames(&[10, 0, 4, 4, 0, 12, 0, 0]);
        for d in 0..12 {
            let r = min_lossless_rate(&s, d);
            let back = min_lossless_delay(&s, r).unwrap();
            assert!(back <= d, "delay {back} should be at most {d} at rate {r}");
            // And the rate really is minimal: R-1 needs more delay.
            if r > 1 {
                let worse = min_lossless_delay(&s, r - 1).unwrap();
                assert!(worse > d, "rate {} should not suffice at delay {d}", r - 1);
            }
        }
    }

    #[test]
    fn min_delay_zero_for_smooth_streams() {
        let s = unit_frames(&[2, 2, 2]);
        assert_eq!(min_lossless_delay(&s, 2), Some(0));
        assert_eq!(min_lossless_delay(&s, 1), Some(3));
    }

    #[test]
    fn empty_stream_needs_nothing() {
        let s = InputStream::default();
        assert_eq!(min_lossless_rate(&s, 0), 0);
        assert_eq!(min_lossless_delay(&s, 1), Some(0));
    }

    #[test]
    fn frontier_is_monotone() {
        let s = unit_frames(&[10, 0, 7, 0, 0, 9]);
        let frontier = rate_delay_frontier(&s, &[0, 1, 2, 4, 8]);
        for w in frontier.windows(2) {
            assert!(w[1].1 <= w[0].1, "rate increased with delay: {frontier:?}");
        }
    }

    #[test]
    fn sparse_times_use_true_interval_lengths() {
        let mut b = InputStream::builder();
        b.frame(0, vec![SliceSpec::unit(); 6]);
        b.frame(5, vec![SliceSpec::unit(); 6]);
        let s = b.build();
        // Interval [0,0]: 6/(1+D); interval [0,5]: 12/(6+D).
        assert_eq!(min_lossless_rate(&s, 0), 6);
        assert_eq!(min_lossless_rate(&s, 2), 2);
    }
}
