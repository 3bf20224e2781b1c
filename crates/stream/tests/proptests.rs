//! Crate-local randomized tests for the stream model, driven by the
//! crate's own deterministic `SplitMix64` PRNG so they run with no
//! external test-framework dependency.

use rts_stream::gen::{markov_onoff, MarkovOnOffConfig};
use rts_stream::rng::SplitMix64;
use rts_stream::slicing::{FrameSizeTrace, Slicing};
use rts_stream::weight::WeightAssignment;
use rts_stream::{merge, textio, FrameKind, InputStream, SliceSpec};

const CASES: u64 = 128;

fn random_trace(rng: &mut SplitMix64) -> FrameSizeTrace {
    let n = rng.range_u64(0, 39);
    FrameSizeTrace::new(
        (0..n)
            .map(|_| (FrameKind::Generic, rng.range_u64(0, 199)))
            .collect(),
    )
}

/// Every slicing policy partitions the frame exactly.
#[test]
fn slicing_partitions_exactly() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for case in 0..CASES {
        let size = rng.range_u64(0, 499);
        let chunk = rng.range_u64(1, 63);
        for slicing in [Slicing::PerByte, Slicing::WholeFrame, Slicing::Chunks(chunk)] {
            let parts = slicing.split(size);
            assert_eq!(parts.iter().sum::<u64>(), size, "case {case}");
            assert!(parts.iter().all(|&p| p >= 1), "case {case}");
            if let Slicing::Chunks(c) = slicing {
                assert!(parts.iter().all(|&p| p <= c), "case {case}");
            }
        }
    }
}

/// Materializing preserves total bytes at every granularity, and
/// per-kind-byte weights make total weight granularity-invariant.
#[test]
fn materialize_invariants() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let chunk = rng.range_u64(1, 31);
        let w = WeightAssignment::MPEG_12_8_1;
        let a = trace.materialize(Slicing::PerByte, w);
        let b = trace.materialize(Slicing::WholeFrame, w);
        let c = trace.materialize(Slicing::Chunks(chunk), w);
        assert_eq!(a.total_bytes(), trace.total_bytes(), "case {case}");
        assert_eq!(b.total_bytes(), trace.total_bytes(), "case {case}");
        assert_eq!(c.total_bytes(), trace.total_bytes(), "case {case}");
        assert_eq!(a.total_weight(), b.total_weight(), "case {case}");
        assert_eq!(a.total_weight(), c.total_weight(), "case {case}");
    }
}

/// Trace transforms compose sanely.
#[test]
fn transforms_preserve_counts() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let times = rng.range_u64(0, 3) as usize;
        let repeated = trace.repeated(times);
        assert_eq!(repeated.len(), trace.len() * times, "case {case}");
        assert_eq!(
            repeated.total_bytes(),
            trace.total_bytes() * times as u64,
            "case {case}"
        );
        let windowed = trace.window(1, 5);
        assert!(windowed.len() <= 5, "case {case}");
        let doubled = trace.scaled(2, 1);
        assert_eq!(doubled.total_bytes(), trace.total_bytes() * 2, "case {case}");
    }
}

/// Merging preserves bytes, weight, and per-origin slice counts.
#[test]
fn merge_preserves_everything() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for case in 0..CASES {
        let a = random_trace(&mut rng);
        let b = random_trace(&mut rng);
        let sa = a.materialize(Slicing::WholeFrame, WeightAssignment::BySize);
        let sb = b.materialize(Slicing::WholeFrame, WeightAssignment::BySize);
        let m = merge(&[sa.clone(), sb.clone()]);
        assert_eq!(
            m.stream.total_bytes(),
            sa.total_bytes() + sb.total_bytes(),
            "case {case}"
        );
        assert_eq!(
            m.stream.total_weight(),
            sa.total_weight() + sb.total_weight(),
            "case {case}"
        );
        let from_a = m.origin.iter().filter(|&&o| o == 0).count();
        assert_eq!(from_a, sa.slice_count(), "case {case}");
    }
}

/// Both text formats round-trip arbitrary content.
#[test]
fn both_text_formats_roundtrip() {
    let mut rng = SplitMix64::new(0x5EED_0005);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let sizes_text = textio::write_frame_sizes(&trace);
        assert_eq!(
            &textio::parse_frame_sizes(&sizes_text).unwrap(),
            &trace,
            "case {case}"
        );
        let stream = trace.materialize(Slicing::Chunks(7), WeightAssignment::MPEG_12_8_1);
        let stream_text = textio::write_stream(&stream);
        assert_eq!(textio::parse_stream(&stream_text).unwrap(), stream, "case {case}");
    }
}

/// SplitMix64 ranges are honest for arbitrary bounds.
#[test]
fn rng_range_bounds() {
    let mut meta = SplitMix64::new(0x5EED_0006);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let lo = meta.range_u64(0, 999);
        let hi = lo + meta.range_u64(0, 999);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let v = rng.range_u64(lo, hi);
            assert!((lo..=hi).contains(&v), "case {case}");
        }
    }
}

/// The Markov source only emits its two configured sizes and is
/// reproducible.
#[test]
fn markov_emits_two_sizes() {
    let mut meta = SplitMix64::new(0x5EED_0007);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let n = meta.range_u64(1, 199) as usize;
        let cfg = MarkovOnOffConfig {
            on_size: 9,
            off_size: 2,
            p_on_to_off: 0.2,
            p_off_to_on: 0.1,
        };
        let t1 = markov_onoff(cfg, n, seed);
        let t2 = markov_onoff(cfg, n, seed);
        assert_eq!(&t1, &t2, "case {case}");
        assert!(
            t1.frames().iter().all(|&(_, s)| s == 9 || s == 2),
            "case {case}"
        );
    }
}

/// The slice column and its frame views agree for arbitrary frame
/// shapes, including empty frames and time gaps: builder ids are dense
/// and index the column, the frames tile it in order from either end,
/// and every lookup and total matches its per-frame definition.
#[test]
fn frames_are_spans_of_the_slice_column() {
    let mut rng = SplitMix64::new(0x5EED_0008);
    for case in 0..CASES {
        let mut b = InputStream::builder();
        let mut t = 0;
        // Per frame: its time and its slices' (size, weight).
        let mut model: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        for _ in 0..rng.range_u64(0, 12) {
            t += rng.range_u64(1, 4);
            let specs: Vec<(u64, u64)> = (0..rng.range_u64(0, 5))
                .map(|_| (rng.range_u64(1, 6), rng.range_u64(0, 9)))
                .collect();
            b.frame(
                t,
                specs
                    .iter()
                    .map(|&(size, weight)| SliceSpec::new(size, weight, FrameKind::Generic)),
            );
            model.push((t, specs));
        }
        let stream = b.build();
        let slices = stream.slices();
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.id.index(), i, "case {case}");
        }

        assert_eq!(stream.frame_count(), model.len(), "case {case}");
        assert_eq!(stream.frames().len(), model.len(), "case {case}");
        let concat: Vec<_> = stream.frames().flat_map(|f| f.slices).copied().collect();
        assert_eq!(concat, slices, "case {case}");
        let forward: Vec<_> = stream.frames().collect();
        let mut backward: Vec<_> = stream.frames().rev().collect();
        backward.reverse();
        assert_eq!(forward, backward, "case {case}");
        for (i, ((time, specs), f)) in model.iter().zip(&forward).enumerate() {
            assert_eq!(stream.frame(i), *f, "case {case}");
            assert_eq!((f.index, f.time), (i as u64, *time), "case {case}");
            let got: Vec<_> = f.slices.iter().map(|s| (s.size, s.weight)).collect();
            assert_eq!(&got, specs, "case {case}");
            assert!(f.slices.iter().all(|s| s.arrival == *time), "case {case}");
        }

        for id in 0..slices.len() as u64 + 3 {
            let id = rts_stream::SliceId(id);
            let linear = stream.frames().flat_map(|f| f.slices).find(|s| s.id == id);
            assert_eq!(stream.slice(id), linear, "case {case}");
        }
        let count: usize = stream.frames().map(|f| f.len()).sum();
        let bytes: u64 = stream.frames().map(|f| f.bytes()).sum();
        let weight: u64 = stream.frames().map(|f| f.weight()).sum();
        assert_eq!(stream.slice_count(), count, "case {case}");
        assert_eq!(stream.total_bytes(), bytes, "case {case}");
        assert_eq!(stream.total_weight(), weight, "case {case}");
    }
}
