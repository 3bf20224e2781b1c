//! Offline optimal benefit for **arbitrary** slice sizes, via a
//! per-frame knapsack composed with the occupancy DP.
//!
//! The flow optimum requires unit slices; the frame DP requires one
//! slice per frame. The general case — many variable-size slices per
//! frame — combines both ideas:
//!
//! * within a frame, only the *total size* and *total weight* of the
//!   accepted subset matter (a 0/1 knapsack per frame yields, for every
//!   achievable subset size, the maximum achievable weight);
//! * across frames, buffer occupancy is again a sufficient state (the
//!   argument of [`optimal_frame_benefit`](crate::optimal_frame_benefit)
//!   verbatim).
//!
//! Complexity: `O(Σ_f n_f · C + T · B · C)` with `C = B + R` — exact and
//! polynomial, unlike the exponential brute force, and validated against
//! it on small instances. This closes the last gap in the paper's
//! "Optimal" comparator: Figures 2–6 use the two slicing extremes, and
//! the granularity experiment can now show the true optimum at every
//! chunk size in between.

use std::collections::HashSet;

use rts_stream::{Bytes, InputStream, SliceId, Weight};

/// Computes the maximum total weight deliverable from `stream` —
/// arbitrary slice sizes, any number of slices per frame — through a
/// buffer of size `buffer` drained at `rate`.
///
/// # Panics
///
/// Panics if `rate == 0`, or if `buffer + rate` does not fit in memory
/// as a table dimension (astronomically large parameters).
pub fn optimal_mixed_benefit(stream: &InputStream, buffer: Bytes, rate: Bytes) -> Weight {
    solve(stream, buffer, rate, false).0
}

/// Like [`optimal_mixed_benefit`], but also returns the set of slices
/// an optimal schedule rejects on arrival — replayable through the
/// generic server via [`PlannedDrops`](rts_core::PlannedDrops), like
/// its unit-slice and whole-frame counterparts.
///
/// Memory: `O(T · B)` backtracking state on top of the benefit
/// computation; intended for moderate instances (tests, case studies),
/// not the full-scale figure sweeps.
///
/// # Panics
///
/// As [`optimal_mixed_benefit`].
pub fn optimal_mixed_plan(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> (Weight, HashSet<SliceId>) {
    let (benefit, rejected) = solve(stream, buffer, rate, true);
    (benefit, rejected.expect("plan requested"))
}

/// Backtracking record per (frame, resulting occupancy): the occupancy
/// index in the previous layer and the total accepted size this frame.
#[derive(Clone, Copy)]
struct Step {
    prev_q: u32,
    take: u32,
}

fn solve(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
    want_plan: bool,
) -> (Weight, Option<HashSet<SliceId>>) {
    assert!(rate > 0, "link rate must be positive");
    let cap = usize::try_from(buffer).expect("buffer fits in usize");
    // Within one step the buffer may transiently hold up to B + R bytes
    // (R of them leave on the link the same step).
    let step_cap = usize::try_from(buffer + rate).expect("buffer + rate fits in usize");

    // dp[q] = Some(best benefit) with occupancy exactly q after a step.
    let mut dp: Vec<Option<Weight>> = vec![None; cap + 1];
    dp[0] = Some(0);
    let mut next: Vec<Option<Weight>> = vec![None; cap + 1];
    // Knapsack scratch: best weight for an accepted subset of exactly
    // size s from the current frame.
    let mut sack: Vec<Option<Weight>> = vec![None; step_cap + 1];
    // Backtracking: one layer per frame when a plan is wanted.
    let mut layers: Vec<Vec<Step>> = Vec::new();

    let mut prev_time = None;
    for frame in stream.frames() {
        let gap = match prev_time {
            Some(p) => frame.time - p - 1,
            None => frame.time,
        };
        prev_time = Some(frame.time);
        let drain = gap.saturating_mul(rate);

        frame_knapsack(frame, step_cap, &mut sack);

        for v in next.iter_mut() {
            *v = None;
        }
        let mut steps = want_plan.then(|| vec![Step { prev_q: 0, take: 0 }; cap + 1]);
        for (q, entry) in dp.iter().enumerate() {
            let Some(benefit) = *entry else { continue };
            let qd = (q as Bytes).saturating_sub(drain);
            for (take, sack_entry) in sack.iter().enumerate() {
                let Some(w) = *sack_entry else { continue };
                let q_in = qd + take as Bytes;
                if q_in > buffer + rate {
                    break; // larger takes only grow q_in
                }
                let q_next = (q_in - q_in.min(rate)) as usize;
                let cand = benefit + w;
                if next[q_next].is_none_or(|cur| cur < cand) {
                    next[q_next] = Some(cand);
                    if let Some(steps) = steps.as_mut() {
                        steps[q_next] = Step {
                            prev_q: q as u32,
                            take: take as u32,
                        };
                    }
                }
            }
        }
        std::mem::swap(&mut dp, &mut next);
        if let Some(steps) = steps {
            layers.push(steps);
        }
    }

    let (best_q, best) = dp
        .iter()
        .enumerate()
        .filter_map(|(q, v)| v.map(|b| (q, b)))
        .max_by_key(|&(q, b)| (b, std::cmp::Reverse(q)))
        .unwrap_or((0, 0));

    let rejected = want_plan.then(|| {
        // Walk the (frame, occupancy) chain backwards; for each frame,
        // re-run its knapsack with decision tracking and reconstruct the
        // accepted subset of the recorded total size.
        let mut rejected = HashSet::new();
        let mut q = best_q;
        for (frame, layer) in stream.frames().zip(&layers).rev() {
            let step = layer[q];
            let mut chosen: Vec<bool> = vec![false; frame.slices.len()];
            reconstruct_subset(frame, step_cap, step.take as usize, &mut chosen);
            for (s, &keep) in frame.slices.iter().zip(&chosen) {
                if !keep {
                    rejected.insert(s.id);
                }
            }
            q = step.prev_q as usize;
        }
        rejected
    });
    (best, rejected)
}

/// Fills `sack[s]` with the best weight of an accepted subset of the
/// frame totalling exactly `s` bytes.
fn frame_knapsack(frame: rts_stream::Frame<'_>, step_cap: usize, sack: &mut [Option<Weight>]) {
    for v in sack.iter_mut() {
        *v = None;
    }
    sack[0] = Some(0);
    for s in frame.slices {
        let size = s.size as usize;
        if size > step_cap {
            continue; // individually unacceptable
        }
        for total in (size..=step_cap).rev() {
            if let Some(base) = sack[total - size] {
                let cand = base + s.weight;
                if sack[total].is_none_or(|cur| cur < cand) {
                    sack[total] = Some(cand);
                }
            }
        }
    }
}

/// Recomputes the frame's knapsack with full decision tracking and
/// marks in `chosen` the max-weight subset totalling exactly `take`.
fn reconstruct_subset(
    frame: rts_stream::Frame<'_>,
    step_cap: usize,
    take: usize,
    chosen: &mut [bool],
) {
    // table[i][s] = best weight using the first i slices at total s.
    let n = frame.slices.len();
    let mut table: Vec<Vec<Option<Weight>>> = vec![vec![None; step_cap + 1]; n + 1];
    table[0][0] = Some(0);
    for (i, s) in frame.slices.iter().enumerate() {
        let size = s.size as usize;
        for total in 0..=step_cap {
            // Skip the slice.
            if let Some(base) = table[i][total] {
                if table[i + 1][total].is_none_or(|cur| cur < base) {
                    table[i + 1][total] = Some(base);
                }
            }
            // Accept the slice.
            if size <= total {
                if let Some(base) = table[i][total - size] {
                    let cand = base + s.weight;
                    if table[i + 1][total].is_none_or(|cur| cur < cand) {
                        table[i + 1][total] = Some(cand);
                    }
                }
            }
        }
    }
    let mut total = take;
    for i in (0..n).rev() {
        let here = table[i + 1][total].expect("take is achievable");
        let size = frame.slices[i].size as usize;
        let accepted = size <= total
            && table[i][total - size]
                .map(|base| base + frame.slices[i].weight == here)
                .unwrap_or(false);
        // Prefer acceptance when it explains the value (ties resolved
        // toward keeping the later slice — any valid choice works).
        if accepted {
            chosen[i] = true;
            total -= size;
        } else {
            chosen[i] = false;
        }
    }
    debug_assert_eq!(total, 0, "reconstruction must consume the take");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimal_brute_force, optimal_frame_benefit, optimal_unit_benefit};
    use rts_stream::rng::SplitMix64;
    use rts_stream::{FrameKind, SliceSpec};

    fn random_mixed(rng: &mut SplitMix64, steps: usize, lmax: u64) -> InputStream {
        InputStream::from_frames((0..steps).map(|_| {
            let n = rng.range_u64(0, 3) as usize;
            (0..n)
                .map(|_| {
                    SliceSpec::new(
                        rng.range_u64(1, lmax),
                        rng.range_u64(0, 30),
                        FrameKind::Generic,
                    )
                })
                .collect::<Vec<_>>()
        }))
    }

    #[test]
    fn matches_brute_force_on_random_mixed_streams() {
        let mut rng = SplitMix64::new(900);
        for trial in 0..120 {
            let stream = random_mixed(&mut rng, 6, 4);
            if stream.slice_count() > 13 {
                continue;
            }
            let b = rng.range_u64(0, 8);
            let r = rng.range_u64(1, 3);
            assert_eq!(
                optimal_mixed_benefit(&stream, b, r),
                optimal_brute_force(&stream, b, r),
                "trial {trial}: B={b}, R={r}"
            );
        }
    }

    #[test]
    fn matches_flow_on_unit_streams() {
        let mut rng = SplitMix64::new(901);
        for _ in 0..60 {
            let stream = random_mixed(&mut rng, 10, 1);
            let b = rng.range_u64(0, 6);
            let r = rng.range_u64(1, 3);
            assert_eq!(
                optimal_mixed_benefit(&stream, b, r),
                optimal_unit_benefit(&stream, b, r).unwrap()
            );
        }
    }

    #[test]
    fn matches_frame_dp_on_whole_frame_streams() {
        let mut rng = SplitMix64::new(902);
        for _ in 0..60 {
            let stream = InputStream::from_frames((0..10).map(|_| {
                if rng.chance(0.7) {
                    vec![SliceSpec::new(
                        rng.range_u64(1, 5),
                        rng.range_u64(1, 40),
                        FrameKind::Generic,
                    )]
                } else {
                    vec![]
                }
            }));
            let b = rng.range_u64(0, 9);
            let r = rng.range_u64(1, 4);
            assert_eq!(
                optimal_mixed_benefit(&stream, b, r),
                optimal_frame_benefit(&stream, b, r).unwrap()
            );
        }
    }

    #[test]
    fn finer_slicing_never_hurts_the_optimum() {
        use rts_stream::slicing::{FrameSizeTrace, Slicing};
        use rts_stream::weight::WeightAssignment;
        let mut rng = SplitMix64::new(903);
        for _ in 0..20 {
            let frames: Vec<(FrameKind, u64)> = (0..8)
                .map(|_| (FrameKind::Generic, rng.range_u64(0, 12)))
                .collect();
            let trace = FrameSizeTrace::new(frames);
            let w = WeightAssignment::BySize;
            let b = rng.range_u64(2, 10);
            let r = rng.range_u64(1, 3);
            let coarse = optimal_mixed_benefit(&trace.materialize(Slicing::WholeFrame, w), b, r);
            let mid = optimal_mixed_benefit(&trace.materialize(Slicing::Chunks(3), w), b, r);
            let fine = optimal_mixed_benefit(&trace.materialize(Slicing::PerByte, w), b, r);
            assert!(coarse <= mid && mid <= fine, "{coarse} <= {mid} <= {fine}");
        }
    }

    #[test]
    fn plan_is_feasible_and_accounts_for_the_benefit() {
        use crate::feasible::is_feasible_subset;
        let mut rng = SplitMix64::new(904);
        for trial in 0..80 {
            let stream = random_mixed(&mut rng, 8, 4);
            let b = rng.range_u64(0, 9);
            let r = rng.range_u64(1, 3);
            let (benefit, rejected) = optimal_mixed_plan(&stream, b, r);
            assert_eq!(
                benefit,
                optimal_mixed_benefit(&stream, b, r),
                "trial {trial}"
            );
            let accepted: std::collections::HashSet<_> = stream
                .slices()
                .iter()
                .map(|s| s.id)
                .filter(|id| !rejected.contains(id))
                .collect();
            assert!(
                is_feasible_subset(&stream, &accepted, b, r),
                "trial {trial}: plan not schedulable (B={b}, R={r})"
            );
            let weight: Weight = stream
                .slices()
                .iter()
                .filter(|s| accepted.contains(&s.id))
                .map(|s| s.weight)
                .sum();
            assert_eq!(weight, benefit, "trial {trial}: plan weight mismatch");
        }
    }

    #[test]
    fn plan_on_sparse_streams() {
        let mut b = InputStream::builder();
        b.frame(
            0,
            [
                SliceSpec::new(3, 5, FrameKind::Generic),
                SliceSpec::new(2, 9, FrameKind::Generic),
            ],
        );
        b.frame(9, [SliceSpec::new(4, 7, FrameKind::Generic)]);
        let stream = b.build();
        let (benefit, rejected) = optimal_mixed_plan(&stream, 4, 1);
        assert_eq!(benefit, 21);
        assert!(rejected.is_empty());
    }

    #[test]
    fn sparse_streams_drain_between_frames() {
        let mut b = InputStream::builder();
        b.frame(
            0,
            [
                SliceSpec::new(3, 5, FrameKind::Generic),
                SliceSpec::new(2, 9, FrameKind::Generic),
            ],
        );
        b.frame(7, [SliceSpec::new(4, 7, FrameKind::Generic)]);
        let stream = b.build();
        // B=4, R=1: at t=0 accept both (5 bytes = B + R), drain fully by
        // t=5, then the third fits too.
        assert_eq!(optimal_mixed_benefit(&stream, 4, 1), 21);
    }

    #[test]
    fn empty_stream_is_zero() {
        assert_eq!(optimal_mixed_benefit(&InputStream::default(), 5, 2), 0);
    }

    #[test]
    fn oversized_slices_are_rejected() {
        let stream = InputStream::from_frames([vec![
            SliceSpec::new(100, 1000, FrameKind::Generic),
            SliceSpec::new(1, 1, FrameKind::Generic),
        ]]);
        assert_eq!(optimal_mixed_benefit(&stream, 3, 2), 1);
    }
}
