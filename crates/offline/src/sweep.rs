//! Warm-started offline-optimal sweeps over `B` and `R`.
//!
//! Regret curves evaluate the offline optimum at dozens of `(B, R)`
//! points over the *same* stream. A cold call to
//! [`optimal_unit_benefit`](crate::optimal_unit_benefit) re-validates
//! slice sizes, re-walks the frame structure, and re-derives the
//! weight levels on every call; [`OptimalSweep`] does all of that once
//! and keeps two warm representations:
//!
//! * **level tables** — per distinct weight `w_j` (descending), the
//!   per-frame count of slices with weight ≥ `w_j`. By the matroid
//!   threshold decomposition, `benefit(B, R) = Σ_j (w_j − w_{j+1}) ·
//!   rank_j(B, R)` where each rank is a pure counting pass
//!   ([`chain::rank_count`](crate::chain)) — `O(levels · frames)` per
//!   sweep point, no heap, no allocation;
//! * **a flat weight layout** — contiguous `(frame offsets, weights)`
//!   arrays driving the push-out pool when the stream has more than
//!   [`LEVEL_CAP`](crate::chain) distinct weights (level tables would
//!   then cost more than they save).
//!
//! Both paths are exact and bit-identical to the cold solver; the
//! `sweep-warm-vs-cold` rts-check oracle pins that across random
//! streams, grids, and both representations.

use rts_stream::{Bytes, InputStream, Time, Weight};

use crate::chain::{self, LEVEL_CAP};
use crate::error::OfflineError;

/// Per-level warm tables: distinct weights descending, and for each
/// level the per-frame cumulative count of slices at least that heavy.
#[derive(Debug, Clone)]
struct LevelTable {
    /// Distinct nonzero weights, descending.
    weights: Vec<Weight>,
    /// `counts[j][i]` = slices of weight ≥ `weights[j]` in frame `i`.
    counts: Vec<Vec<u64>>,
}

/// A reusable offline-optimal evaluator for one stream.
///
/// # Example
///
/// ```
/// use rts_offline::{optimal_unit_benefit, OptimalSweep};
/// use rts_stream::{FrameKind, InputStream, SliceSpec};
///
/// let stream = InputStream::from_frames([vec![
///     SliceSpec::new(1, 9, FrameKind::I),
///     SliceSpec::new(1, 1, FrameKind::B),
///     SliceSpec::new(1, 8, FrameKind::P),
/// ]]);
/// let sweep = OptimalSweep::new(&stream).unwrap();
/// for b in 0..4 {
///     assert_eq!(sweep.benefit(b, 1), optimal_unit_benefit(&stream, b, 1).unwrap());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct OptimalSweep {
    /// Frame arrival times, strictly increasing.
    times: Vec<Time>,
    /// Frame `i` owns `weights[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Nonzero slice weights, frame-grouped (zero-weight slices are
    /// never accepted, so they only appear in `slice_counts`).
    weights: Vec<Weight>,
    /// All slices per frame (including zero-weight), for throughput.
    slice_counts: Vec<u64>,
    /// Level tables when the stream has ≤ `level_cap` distinct weights.
    levels: Option<LevelTable>,
}

impl OptimalSweep {
    /// Validates and preprocesses `stream` for warm solves.
    ///
    /// # Errors
    ///
    /// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1.
    pub fn new(stream: &InputStream) -> Result<Self, OfflineError> {
        Self::with_level_cap(stream, LEVEL_CAP)
    }

    /// [`new`](Self::new) with an explicit distinct-weight ceiling for
    /// the level tables (0 forces the push-out fallback; used by the
    /// differential tests to cover both warm paths).
    pub fn with_level_cap(stream: &InputStream, level_cap: u64) -> Result<Self, OfflineError> {
        chain::validate_unit(stream)?;
        let frames = stream.frames();
        let mut times = Vec::with_capacity(frames.len());
        let mut offsets = Vec::with_capacity(frames.len() + 1);
        let mut weights = Vec::new();
        let mut slice_counts = Vec::with_capacity(frames.len());
        offsets.push(0);
        for f in frames {
            times.push(f.time);
            weights.extend(f.slices.iter().map(|s| s.weight).filter(|&w| w > 0));
            offsets.push(weights.len());
            slice_counts.push(f.slices.len() as u64);
        }
        let mut distinct = weights.clone();
        distinct.sort_unstable_by(|a, b| b.cmp(a));
        distinct.dedup();
        let levels = (distinct.len() as u64 <= level_cap).then(|| {
            let mut counts: Vec<Vec<u64>> = Vec::with_capacity(distinct.len());
            let mut running = vec![0u64; times.len()];
            for &w in &distinct {
                for (i, c) in running.iter_mut().enumerate() {
                    *c += weights[offsets[i]..offsets[i + 1]]
                        .iter()
                        .filter(|&&x| x == w)
                        .count() as u64;
                }
                counts.push(running.clone());
            }
            LevelTable {
                weights: distinct,
                counts,
            }
        });
        Ok(OptimalSweep {
            times,
            offsets,
            weights,
            slice_counts,
            levels,
        })
    }

    /// Number of frames in the preprocessed stream.
    pub fn frames(&self) -> usize {
        self.times.len()
    }

    /// Whether warm solves run on level tables (`true`) or the
    /// push-out pool fallback.
    pub fn uses_levels(&self) -> bool {
        self.levels.is_some()
    }

    /// Exact optimal benefit at `(buffer, rate)` — identical to
    /// [`optimal_unit_benefit`](crate::optimal_unit_benefit) on the
    /// preprocessed stream.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn benefit(&self, buffer: Bytes, rate: Bytes) -> Weight {
        assert!(rate > 0, "link rate must be positive");
        match &self.levels {
            Some(table) => {
                let mut benefit: Weight = 0;
                for (j, &w) in table.weights.iter().enumerate() {
                    let step = w - table.weights.get(j + 1).copied().unwrap_or(0);
                    benefit +=
                        step * chain::rank_count(&self.times, &table.counts[j], buffer, rate);
                }
                benefit
            }
            None => chain::pushout_benefit(
                (0..self.times.len()).map(|i| {
                    (
                        self.times[i],
                        &self.weights[self.offsets[i]..self.offsets[i + 1]],
                    )
                }),
                buffer,
                rate,
            ),
        }
    }

    /// Exact unweighted optimum (every slice counted as 1) — identical
    /// to [`optimal_unit_throughput`](crate::optimal_unit_throughput).
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn throughput(&self, buffer: Bytes, rate: Bytes) -> u64 {
        assert!(rate > 0, "link rate must be positive");
        chain::rank_count(&self.times, &self.slice_counts, buffer, rate)
    }

    /// Benefits across a buffer sweep at fixed `rate`, in the order
    /// given.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn sweep_buffers(&self, rate: Bytes, buffers: &[Bytes]) -> Vec<Weight> {
        buffers.iter().map(|&b| self.benefit(b, rate)).collect()
    }

    /// Benefits across a rate sweep at fixed `buffer`, in the order
    /// given.
    ///
    /// # Panics
    ///
    /// Panics if any rate is 0.
    pub fn sweep_rates(&self, buffer: Bytes, rates: &[Bytes]) -> Vec<Weight> {
        rates.iter().map(|&r| self.benefit(buffer, r)).collect()
    }
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
                .map(|_| SliceSpec::new(1, rng.range_u64(0, 13), FrameKind::Generic))
                .collect::<Vec<_>>()
        }))
    }

    #[test]
    fn warm_equals_cold_on_random_grids() {
        let mut rng = SplitMix64::new(0x5eed_5eed);
        for _ in 0..40 {
            let steps = rng.range_u64(1, 10);
            let stream = random_unit_stream(&mut rng, steps, 5);
            let levels = OptimalSweep::new(&stream).unwrap();
            let pushout = OptimalSweep::with_level_cap(&stream, 0).unwrap();
            assert!(levels.uses_levels());
            // Cap 0 forces the push-out path unless the stream has no
            // weighted slices at all (an empty table still fits).
            let weighted = stream.slices().iter().any(|s| s.weight > 0);
            assert_eq!(pushout.uses_levels(), !weighted);
            for b in [0, 1, 2, 5, 11] {
                for r in [1, 2, 3] {
                    let cold = optimal_unit_benefit(&stream, b, r).unwrap();
                    assert_eq!(levels.benefit(b, r), cold, "levels b={b} r={r}");
                    assert_eq!(pushout.benefit(b, r), cold, "pushout b={b} r={r}");
                }
            }
        }
    }

    #[test]
    fn sweep_orders_follow_the_request() {
        let stream = random_unit_stream(&mut SplitMix64::new(7), 6, 4);
        let sweep = OptimalSweep::new(&stream).unwrap();
        let buffers = [4, 0, 2];
        let out = sweep.sweep_buffers(2, &buffers);
        for (i, &b) in buffers.iter().enumerate() {
            assert_eq!(out[i], sweep.benefit(b, 2));
        }
        let rates = [3, 1];
        let out = sweep.sweep_rates(1, &rates);
        for (i, &r) in rates.iter().enumerate() {
            assert_eq!(out[i], sweep.benefit(1, r));
        }
    }

    #[test]
    fn throughput_counts_zero_weight_slices() {
        let stream = InputStream::from_frames([vec![
            SliceSpec::new(1, 0, FrameKind::Generic),
            SliceSpec::new(1, 5, FrameKind::Generic),
        ]]);
        let sweep = OptimalSweep::new(&stream).unwrap();
        assert_eq!(sweep.throughput(1, 1), 2);
        assert_eq!(sweep.benefit(1, 1), 5);
    }

    #[test]
    fn rejects_non_unit_slices() {
        let stream = InputStream::from_frames([[SliceSpec::new(2, 1, FrameKind::Generic)]]);
        assert!(matches!(
            OptimalSweep::new(&stream),
            Err(OfflineError::NonUnitSlice { size: 2, .. })
        ));
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let sweep = OptimalSweep::new(&InputStream::builder().build()).unwrap();
        assert_eq!(sweep.benefit(3, 2), 0);
        assert_eq!(sweep.throughput(3, 2), 0);
        assert_eq!(sweep.frames(), 0);
    }
}
