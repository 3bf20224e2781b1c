//! The three offline optimizers agree wherever their domains overlap,
//! and each agrees with the brute-force oracle on its own domain.

use realtime_smoothing::{
    optimal_brute_force, optimal_frame_benefit, optimal_unit_benefit, InputStream, SliceSpec,
};
use rts_offline::feasible::{is_feasible_subset, satisfies_interval_bounds};
use rts_stream::rng::SplitMix64;
use rts_stream::{FrameKind, SliceId};

fn random_unit_weighted(rng: &mut SplitMix64, steps: usize) -> InputStream {
    InputStream::from_frames((0..steps).map(|_| {
        let n = rng.range_u64(0, 3) as usize;
        (0..n)
            .map(|_| SliceSpec::new(1, rng.range_u64(0, 30), FrameKind::Generic))
            .collect::<Vec<_>>()
    }))
}

fn random_whole_frame(rng: &mut SplitMix64, steps: usize, max_size: u64) -> InputStream {
    InputStream::from_frames((0..steps).map(|_| {
        if rng.chance(0.75) {
            vec![SliceSpec::new(
                rng.range_u64(1, max_size),
                rng.range_u64(1, 40),
                FrameKind::Generic,
            )]
        } else {
            vec![]
        }
    }))
}

#[test]
fn flow_matches_brute_force_on_random_unit_streams() {
    let mut rng = SplitMix64::new(100);
    for trial in 0..120 {
        let stream = random_unit_weighted(&mut rng, 6);
        if stream.slice_count() > 14 {
            continue;
        }
        let b = rng.range_u64(0, 5);
        let r = rng.range_u64(1, 3);
        let flow = optimal_unit_benefit(&stream, b, r).expect("unit slices");
        let brute = optimal_brute_force(&stream, b, r);
        assert_eq!(flow, brute, "trial {trial}: B={b}, R={r}");
    }
}

#[test]
fn dp_matches_brute_force_on_random_frame_streams() {
    let mut rng = SplitMix64::new(101);
    for trial in 0..120 {
        let stream = random_whole_frame(&mut rng, 8, 5);
        let b = rng.range_u64(0, 9);
        let r = rng.range_u64(1, 4);
        let dp = optimal_frame_benefit(&stream, b, r).expect("whole frames");
        let brute = optimal_brute_force(&stream, b, r);
        assert_eq!(dp, brute, "trial {trial}: B={b}, R={r}");
    }
}

#[test]
fn flow_and_dp_agree_on_unit_whole_frame_streams() {
    // Streams with at most one unit slice per frame sit in both domains.
    let mut rng = SplitMix64::new(102);
    for trial in 0..60 {
        let stream = random_whole_frame(&mut rng, 12, 1);
        let b = rng.range_u64(0, 4);
        let r = rng.range_u64(1, 2);
        let flow = optimal_unit_benefit(&stream, b, r).expect("unit");
        let dp = optimal_frame_benefit(&stream, b, r).expect("frames");
        assert_eq!(flow, dp, "trial {trial}: B={b}, R={r}");
    }
}

#[test]
fn dp_never_exceeds_flow_under_finer_slicing() {
    // Splitting frames into bytes can only help: the whole-frame optimum
    // is at most the per-byte optimum of the same trace.
    let mut rng = SplitMix64::new(103);
    for _ in 0..30 {
        let frames: Vec<(FrameKind, u64)> = (0..10)
            .map(|_| (FrameKind::Generic, rng.range_u64(1, 6)))
            .collect();
        let trace = rts_stream::slicing::FrameSizeTrace::new(frames);
        let w = rts_stream::weight::WeightAssignment::BySize;
        let by_frame = trace.materialize(rts_stream::slicing::Slicing::WholeFrame, w);
        let by_byte = trace.materialize(rts_stream::slicing::Slicing::PerByte, w);
        let b = rng.range_u64(0, 8);
        let r = rng.range_u64(1, 4);
        let frame_opt = optimal_frame_benefit(&by_frame, b, r).expect("frames");
        let byte_opt = optimal_unit_benefit(&by_byte, b, r).expect("unit");
        assert!(
            frame_opt <= byte_opt,
            "whole-frame optimum {frame_opt} exceeds per-byte optimum {byte_opt} \
             (B={b}, R={r})"
        );
    }
}

#[test]
fn feasibility_predicates_agree_on_brute_force_witnesses() {
    // For every subset the brute force inspects, the simulation and the
    // leaky-bucket interval characterization must agree.
    let mut rng = SplitMix64::new(104);
    for _ in 0..40 {
        let stream = random_whole_frame(&mut rng, 6, 4);
        let n = stream.slice_count();
        if n > 12 {
            continue;
        }
        let b = rng.range_u64(0, 6);
        let r = rng.range_u64(1, 3);
        let ids: Vec<SliceId> = stream.slices().iter().map(|s| s.id).collect();
        for mask in 0u32..(1 << n) {
            let subset: std::collections::HashSet<SliceId> = ids
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &id)| id)
                .collect();
            assert_eq!(
                is_feasible_subset(&stream, &subset, b, r),
                satisfies_interval_bounds(&stream, &subset, b, r),
                "mask {mask:#b}, B={b}, R={r}"
            );
        }
    }
}

#[test]
fn optimal_benefit_is_monotone_in_buffer_and_rate() {
    let mut rng = SplitMix64::new(105);
    let stream = random_unit_weighted(&mut rng, 15);
    let mut prev = 0;
    for b in 0..10 {
        let v = optimal_unit_benefit(&stream, b, 2).expect("unit");
        assert!(v >= prev, "optimum decreased at B={b}");
        prev = v;
    }
    let mut prev = 0;
    for r in 1..8 {
        let v = optimal_unit_benefit(&stream, 3, r).expect("unit");
        assert!(v >= prev, "optimum decreased at R={r}");
        prev = v;
    }
}
