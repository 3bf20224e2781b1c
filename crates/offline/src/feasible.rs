//! Feasibility of accepted subsets: the leaky-bucket characterization.
//!
//! A set `S` of slices can be delivered through a buffer of size `B`
//! drained at rate `R` (accepting members at arrival, dropping the rest)
//! if and only if the work-conserving simulation never exceeds `B` after
//! its send — equivalently, iff `S` is `(σ = B, ρ = R)` leaky-bucket
//! conformant:
//!
//! ```text
//! for every interval I:   bytes of S arriving in I  ≤  B + R · |I|
//! ```
//!
//! Necessity is Lemma 4.6's "leaky bucket nature of the buffer"; the
//! sufficiency direction is the busy-period argument used in Lemma 3.6.
//! Property tests in this crate's test suite exercise the equivalence on
//! random subsets.

use std::collections::HashSet;

use rts_stream::{Bytes, InputStream, SliceId};

/// Simulates the work-conserving drain of the accepted subset; returns
/// `true` iff the end-of-step occupancy never exceeds `buffer`.
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn is_feasible_subset(
    stream: &InputStream,
    accepted: &HashSet<SliceId>,
    buffer: Bytes,
    rate: Bytes,
) -> bool {
    assert!(rate > 0, "link rate must be positive");
    let mut occupancy: Bytes = 0;
    let mut prev_time = None;
    for frame in stream.frames() {
        // Idle steps between sparse frames drain the buffer.
        if let Some(p) = prev_time {
            let idle: u64 = frame.time - p - 1;
            occupancy = occupancy.saturating_sub(idle.saturating_mul(rate));
        }
        prev_time = Some(frame.time);
        let arriving: Bytes = frame
            .slices
            .iter()
            .filter(|s| accepted.contains(&s.id))
            .map(|s| s.size)
            .sum();
        occupancy += arriving;
        occupancy -= occupancy.min(rate);
        if occupancy > buffer {
            return false;
        }
    }
    true
}

/// Checks the interval (leaky-bucket) characterization directly:
/// for all `t1 ≤ t2`, accepted bytes arriving in `[t1, t2]` must be at
/// most `B + R · (t2 − t1 + 1)`. Quadratic in the number of frames;
/// intended for tests and small instances.
pub fn satisfies_interval_bounds(
    stream: &InputStream,
    accepted: &HashSet<SliceId>,
    buffer: Bytes,
    rate: Bytes,
) -> bool {
    let per_frame: Vec<(u64, Bytes)> = stream
        .frames()
        .map(|f| {
            (
                f.time,
                f.slices
                    .iter()
                    .filter(|s| accepted.contains(&s.id))
                    .map(|s| s.size)
                    .sum(),
            )
        })
        .collect();
    for i in 0..per_frame.len() {
        let mut total: Bytes = 0;
        for (t2, bytes) in per_frame.iter().skip(i) {
            total += bytes;
            let len = t2 - per_frame[i].0 + 1;
            if total > buffer + rate.saturating_mul(len) {
                return false;
            }
        }
    }
    true
}

/// Returns whether the simulation predicate and the interval
/// characterization agree on this input (they always should; the
/// property tests drive this over random subsets).
#[doc(hidden)]
pub fn predicates_agree(
    stream: &InputStream,
    accepted: &HashSet<SliceId>,
    buffer: Bytes,
    rate: Bytes,
) -> bool {
    is_feasible_subset(stream, accepted, buffer, rate)
        == satisfies_interval_bounds(stream, accepted, buffer, rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::rng::SplitMix64;
    use rts_stream::{SliceSpec, StreamBuilder};

    fn unit_stream(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    fn all_ids(stream: &InputStream) -> HashSet<SliceId> {
        stream.slices().iter().map(|s| s.id).collect()
    }

    #[test]
    fn whole_stream_feasible_when_smooth() {
        let s = unit_stream(&[2, 2, 2]);
        assert!(is_feasible_subset(&s, &all_ids(&s), 0, 2));
        assert!(satisfies_interval_bounds(&s, &all_ids(&s), 0, 2));
    }

    #[test]
    fn burst_exceeding_b_plus_r_infeasible() {
        let s = unit_stream(&[5]);
        assert!(!is_feasible_subset(&s, &all_ids(&s), 2, 1));
        assert!(!satisfies_interval_bounds(&s, &all_ids(&s), 2, 1));
        // Dropping two slices makes it feasible.
        let keep: HashSet<SliceId> = (0..3).map(SliceId).collect();
        assert!(is_feasible_subset(&s, &keep, 2, 1));
        assert!(satisfies_interval_bounds(&s, &keep, 2, 1));
    }

    #[test]
    fn cumulative_pressure_over_long_window() {
        // Each step fits alone, but the long window overflows: 3 per
        // step against R=2, B=3 fails after 4 steps.
        let s = unit_stream(&[3, 3, 3, 3, 3]);
        assert!(!is_feasible_subset(&s, &all_ids(&s), 3, 2));
        assert!(!satisfies_interval_bounds(&s, &all_ids(&s), 3, 2));
    }

    #[test]
    fn empty_subset_always_feasible() {
        let s = unit_stream(&[100]);
        assert!(is_feasible_subset(&s, &HashSet::new(), 0, 1));
        assert!(satisfies_interval_bounds(&s, &HashSet::new(), 0, 1));
    }

    #[test]
    fn predicates_agree_on_random_subsets() {
        let mut rng = SplitMix64::new(2024);
        for trial in 0..200 {
            // Random small stream with variable sizes.
            let steps = 1 + (rng.next_u64() % 6) as usize;
            let mut b = StreamBuilder::new();
            for t in 0..steps {
                let n = (rng.next_u64() % 4) as usize;
                b.frame(
                    t as u64,
                    (0..n)
                        .map(|_| SliceSpec::new(1 + rng.next_u64() % 3, 1, Default::default()))
                        .collect::<Vec<_>>(),
                );
            }
            let s = b.build();
            let accepted: HashSet<SliceId> = s
                .slices()
                .iter()
                .filter(|_| rng.chance(0.6))
                .map(|sl| sl.id)
                .collect();
            let buffer = rng.next_u64() % 5;
            let rate = 1 + rng.next_u64() % 3;
            assert!(
                predicates_agree(&s, &accepted, buffer, rate),
                "trial {trial}: simulation and interval bound disagree"
            );
        }
    }
}
