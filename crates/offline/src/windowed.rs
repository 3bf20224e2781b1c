//! Windowed streaming approximation of the unit-slice optimum, with a
//! provable additive gap bound.
//!
//! For production-length traces the exact chain solver is already a
//! single forward pass, but it needs the whole stream resident; the
//! windowed estimator instead cuts time into fixed windows of `w`
//! steps and solves each window as a *standalone* instance (empty
//! buffer at the window start, the usual ≤ `B` end drain). Each window
//! is therefore computable as its frames stream in and the memory high
//! water mark is one window, not one trace.
//!
//! **Gap bound.** The estimate is a certified sandwich:
//!
//! ```text
//! exact ≤ windowed ≤ exact + seams · B · w_max
//! ```
//!
//! *Lower side (windowed never undershoots):* restrict the exact
//! optimal set to one window. Its work-conserving drain from an empty
//! buffer keeps a backlog no larger than the same slices' backlog in
//! the global schedule (which serves them at a shared rate while also
//! holding carried-in slices), so the restriction is feasible for the
//! standalone window instance; each window optimum therefore weighs at
//! least the exact set's share of that window.
//!
//! *Upper side:* concatenating the standalone window schedules is
//! globally infeasible only through the seams — each window's free end
//! drain lets at most `B` slices (weight ≤ `w_max` each) finish after
//! the boundary. Removing those per seam restores feasibility, so the
//! windowed sum exceeds the exact optimum by at most `B · w_max` per
//! seam.
//!
//! With `B = 0` the windows decouple exactly and the estimator equals
//! the optimum. The `windowed-gap` rts-check invariant verifies the
//! sandwich (and the `B = 0` equality) on seeded random instances
//! against the exact solver.

use rts_stream::{Bytes, Frame, InputStream, Weight};

use crate::chain;
use crate::error::OfflineError;

/// The result of a windowed solve: the benefit estimate and the
/// certified distance to the exact optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedOptimal {
    /// Sum of the per-window optima.
    pub benefit: Weight,
    /// Certified additive gap: `|benefit − exact| ≤ gap_bound`.
    pub gap_bound: Weight,
    /// Number of windows that contained at least one frame.
    pub windows: usize,
    /// The window length in time steps, as requested.
    pub window: u64,
}

/// Approximates [`optimal_unit_benefit`](crate::optimal_unit_benefit)
/// by solving `window`-step time windows independently; see the module
/// docs for the `seams · B · w_max` gap bound.
///
/// # Errors
///
/// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1.
///
/// # Panics
///
/// Panics if `rate == 0` or `window == 0`.
pub fn optimal_unit_windowed(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
    window: u64,
) -> Result<WindowedOptimal, OfflineError> {
    assert!(rate > 0, "link rate must be positive");
    assert!(window > 0, "window must span at least one step");
    chain::validate_unit(stream)?;
    let frames: Vec<Frame<'_>> = stream.frames().collect();
    let mut benefit: Weight = 0;
    let mut windows = 0usize;
    let mut start = 0usize;
    while start < frames.len() {
        let index = frames[start].time / window;
        let end = start
            + frames[start..]
                .iter()
                .take_while(|f| f.time / window == index)
                .count();
        benefit += chain::benefit_of_frames(&frames[start..end], buffer, rate);
        windows += 1;
        start = end;
    }
    let w_max = stream.slices().iter().map(|s| s.weight).max().unwrap_or(0);
    let seams = windows.saturating_sub(1) as u64;
    Ok(WindowedOptimal {
        benefit,
        gap_bound: seams.saturating_mul(buffer).saturating_mul(w_max),
        windows,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal_unit_benefit;
    use rts_stream::rng::SplitMix64;
    use rts_stream::{FrameKind, SliceSpec};

    fn random_unit_stream(rng: &mut SplitMix64, steps: u64, max_per: u64) -> InputStream {
        InputStream::from_frames((0..steps).map(|_| {
            (0..rng.range_u64(0, max_per))
                .map(|_| SliceSpec::new(1, rng.range_u64(0, 10), FrameKind::Generic))
                .collect::<Vec<_>>()
        }))
    }

    #[test]
    fn single_window_is_exact() {
        let stream = random_unit_stream(&mut SplitMix64::new(3), 8, 4);
        let exact = optimal_unit_benefit(&stream, 2, 1).unwrap();
        let w = optimal_unit_windowed(&stream, 2, 1, 100).unwrap();
        assert_eq!(w.benefit, exact);
        assert_eq!(w.windows, 1);
        assert_eq!(w.gap_bound, 0);
    }

    #[test]
    fn zero_buffer_decouples_windows_exactly() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..20 {
            let stream = random_unit_stream(&mut rng, 12, 3);
            let exact = optimal_unit_benefit(&stream, 0, 2).unwrap();
            for window in [1, 2, 5] {
                let w = optimal_unit_windowed(&stream, 0, 2, window).unwrap();
                assert_eq!(w.benefit, exact, "window {window}");
                assert_eq!(w.gap_bound, 0);
            }
        }
    }

    #[test]
    fn gap_bound_holds_on_random_instances() {
        let mut rng = SplitMix64::new(0xabc);
        for trial in 0..60 {
            let steps = rng.range_u64(1, 16);
            let stream = random_unit_stream(&mut rng, steps, 4);
            let b = rng.range_u64(0, 5);
            let r = rng.range_u64(1, 3);
            let window = rng.range_u64(1, 6);
            let exact = optimal_unit_benefit(&stream, b, r).unwrap();
            let w = optimal_unit_windowed(&stream, b, r, window).unwrap();
            let gap = w.benefit.abs_diff(exact);
            assert!(
                gap <= w.gap_bound,
                "trial {trial}: gap {gap} exceeds bound {} (B={b} R={r} window={window})",
                w.gap_bound
            );
        }
    }

    #[test]
    fn empty_stream() {
        let w = optimal_unit_windowed(&InputStream::builder().build(), 3, 1, 4).unwrap();
        assert_eq!(w.benefit, 0);
        assert_eq!(w.windows, 0);
        assert_eq!(w.gap_bound, 0);
    }

    #[test]
    fn rejects_non_unit_slices() {
        let s = InputStream::from_frames([[SliceSpec::new(4, 1, FrameKind::Generic)]]);
        assert!(optimal_unit_windowed(&s, 1, 1, 2).is_err());
    }
}
