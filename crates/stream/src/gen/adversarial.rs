//! Adversarial arrival patterns from the paper's lower-bound proofs.
//!
//! * [`buffer_ratio_tightness`] — the batch pattern showing Lemma 3.6 is
//!   tight: the small buffer loses exactly `B2 − B1` of every `B2`-burst
//!   while the large buffer loses nothing.
//! * [`greedy_lower_bound_stream`] — the Theorem 4.7 stream on which the
//!   optimal schedule beats Greedy by a factor approaching 2.
//! * [`two_scenario_adversary`] — the Theorem 4.8 construction proving no
//!   deterministic online algorithm is better than 1.2287-competitive
//!   (1.28197 with the Lotker/Sviridenko weight ratio α ≈ 4.015).
//!
//! All patterns use unit-size slices and a link rate of `R = 1`, exactly
//! as in the proofs. Weights are integers; a real ratio α is encoded as
//! the integer pair `(w_low, w_high)` with `α = w_high / w_low`.

use crate::{FrameKind, InputStream, SliceSpec, StreamBuilder, Time, Weight};

fn unit(weight: Weight) -> SliceSpec {
    SliceSpec::new(1, weight, FrameKind::Generic)
}

/// The Lemma 3.6 tightness pattern: `repeats` batches, each a burst of
/// `b2` unit slices followed by `b2 − 1` empty steps.
///
/// Run through the generic algorithm with rate 1: a buffer of size `b2`
/// delivers everything, while a buffer of size `b1 ≤ b2` delivers exactly
/// the fraction `b1 / b2` (it drops `b2 − b1` slices of every burst).
///
/// # Panics
///
/// Panics if `b2 == 0` or `repeats == 0`.
pub fn buffer_ratio_tightness(b2: u64, repeats: u64) -> InputStream {
    assert!(b2 > 0, "burst size must be positive");
    assert!(repeats > 0, "need at least one batch");
    let mut b = StreamBuilder::new();
    for rep in 0..repeats {
        let t0 = rep * b2;
        b.frame(t0, (0..b2).map(|_| unit(1)));
        for dt in 1..b2 {
            b.frame(t0 + dt, []);
        }
    }
    b.build()
}

/// The Theorem 4.7 stream (link rate 1, buffer `b`, unit slices):
///
/// * time 0 — `b + 1` slices of weight `w_low`;
/// * times `1 ..= b` — a single slice of weight `w_high` each;
/// * time `b + 1` — `b + 1` slices of weight `w_high`.
///
/// Greedy earns `(b + 1)(w_low + w_high)` while the optimal schedule earns
/// `w_low + (2b + 1) · w_high`, for a ratio approaching 2 as `b` and
/// `α = w_high / w_low` grow.
///
/// # Panics
///
/// Panics if `w_high <= w_low` (the construction needs α > 1).
pub fn greedy_lower_bound_stream(b: u64, w_low: Weight, w_high: Weight) -> InputStream {
    assert!(w_high > w_low, "construction requires w_high > w_low");
    let mut sb = StreamBuilder::new();
    sb.frame(0, (0..=b).map(|_| unit(w_low)));
    for t in 1..=b {
        sb.frame(t, [unit(w_high)]);
    }
    sb.frame(b + 1, (0..=b).map(|_| unit(w_high)));
    sb.build()
}

/// Which of the two Theorem 4.8 adversary endings to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Scenario 1: the stream simply ends after time `t1`.
    EndAtT1,
    /// Scenario 2: at time `t1 + 1`, a burst of `b + 1` heavy slices
    /// arrives.
    BurstAfterT1,
}

/// The Theorem 4.8 two-scenario adversary (link rate 1, buffer `b`):
///
/// * time 0 — `b + 1` slices of weight `w_low`;
/// * times `1 ..= t1` — one slice of weight `w_high` each;
/// * [`Scenario::BurstAfterT1`] additionally delivers `b + 1` slices of
///   weight `w_high` at time `t1 + 1`.
///
/// The adversary observes the last time `t1` at which the online algorithm
/// sends a `w_low` slice and picks whichever ending hurts more; with
/// `α = 2` and `t1/b ≈ 1/1.6861` the worse ratio is ≈ 1.2287 for *every*
/// deterministic online algorithm.
///
/// # Panics
///
/// Panics if `w_high <= w_low`.
pub fn two_scenario_adversary(
    b: u64,
    t1: Time,
    w_low: Weight,
    w_high: Weight,
    scenario: Scenario,
) -> InputStream {
    assert!(w_high > w_low, "construction requires w_high > w_low");
    let mut sb = StreamBuilder::new();
    sb.frame(0, (0..=b).map(|_| unit(w_low)));
    for t in 1..=t1 {
        sb.frame(t, [unit(w_high)]);
    }
    if scenario == Scenario::BurstAfterT1 {
        sb.frame(t1 + 1, (0..=b).map(|_| unit(w_high)));
    }
    sb.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tightness_pattern_shape() {
        let s = buffer_ratio_tightness(4, 3);
        assert_eq!(s.total_bytes(), 12);
        assert_eq!(s.frame_count(), 12); // 3 batches of 4 steps each
        assert_eq!(s.frame(0).slices.len(), 4);
        assert!(s.frame(1).is_empty());
        assert_eq!(s.frame(4).slices.len(), 4);
        assert_eq!(s.frame(4).time, 4);
    }

    #[test]
    fn tightness_single_burst() {
        let s = buffer_ratio_tightness(1, 2);
        assert_eq!(s.frame_count(), 2);
        assert!(s.frames().all(|f| f.slices.len() == 1));
    }

    #[test]
    fn thm47_stream_shape() {
        let b = 5;
        let s = greedy_lower_bound_stream(b, 1, 7);
        // b+1 low + b singles + b+1 high = 2b+2+b slices.
        assert_eq!(s.slice_count() as u64, 3 * b + 2);
        assert_eq!(s.total_weight(), (b + 1) + b * 7 + (b + 1) * 7);
        assert_eq!(s.frame(0).slices.len() as u64, b + 1);
        assert!(s.frame(0).slices.iter().all(|x| x.weight == 1));
        assert_eq!(s.frame((b + 1) as usize).time, b + 1);
        assert!(s
            .frame((b + 1) as usize)
            .slices
            .iter()
            .all(|x| x.weight == 7));
    }

    #[test]
    #[should_panic(expected = "w_high > w_low")]
    fn thm47_requires_alpha_above_one() {
        greedy_lower_bound_stream(3, 2, 2);
    }

    #[test]
    fn thm48_scenarios_differ_only_in_final_burst() {
        let a = two_scenario_adversary(4, 6, 1, 2, Scenario::EndAtT1);
        let b = two_scenario_adversary(4, 6, 1, 2, Scenario::BurstAfterT1);
        assert_eq!(a.frame_count() + 1, b.frame_count());
        assert_eq!(
            a.total_weight() + 5 * 2,
            b.total_weight(),
            "burst adds (b+1) heavy slices"
        );
        // Common prefix is identical (sizes/weights/times).
        for (fa, fb) in a.frames().zip(b.frames()) {
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn thm48_with_t1_zero_has_no_singles() {
        let s = two_scenario_adversary(2, 0, 1, 3, Scenario::BurstAfterT1);
        assert_eq!(s.frame_count(), 2);
        assert_eq!(s.frame(1).time, 1);
    }
}
