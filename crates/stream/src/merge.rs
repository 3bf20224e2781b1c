//! Merging streams: the substrate for multiplexing experiments.
//!
//! The paper's introduction lists *statistical multiplexing* as the
//! classical alternative to smoothing. Merging `K` independent streams
//! into one (their frames interleaved step by step) lets the
//! experiments measure the multiplexing gain directly: the merged
//! stream is burst-wise smoother than its parts, so smoothing the
//! aggregate needs less total rate than smoothing each part alone.

use crate::{InputStream, SliceId, SliceSpec, StreamBuilder, Time};

/// The result of merging several streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Merged {
    /// The merged stream (slice ids reassigned).
    pub stream: InputStream,
    /// For every merged slice id (dense), the index of the input stream
    /// it came from.
    pub origin: Vec<usize>,
}

impl Merged {
    /// The input-stream index a merged slice came from.
    pub fn origin_of(&self, id: SliceId) -> usize {
        self.origin[id.index()]
    }
}

/// Merges streams by aligning their time axes: the merged frame at time
/// `t` is the concatenation of every input's frame at `t` (inputs
/// listed in order).
///
/// Weights, sizes and kinds are preserved; slice ids are reassigned
/// densely (see [`Merged::origin`] to recover provenance).
pub fn merge(streams: &[InputStream]) -> Merged {
    let horizon: Time = streams.iter().map(|s| s.horizon()).max().unwrap_or(0);
    let mut builder = StreamBuilder::new();
    let mut origin = Vec::new();

    // Per-input cursor over its frames.
    let mut cursors: Vec<std::iter::Peekable<_>> =
        streams.iter().map(|s| s.frames().peekable()).collect();

    for t in 0..horizon {
        let mut specs: Vec<SliceSpec> = Vec::new();
        for (idx, cursor) in cursors.iter_mut().enumerate() {
            if let Some(f) = cursor.peek() {
                if f.time == t {
                    let f = cursor.next().expect("peeked");
                    for s in f.slices {
                        specs.push(SliceSpec::new(s.size, s.weight, s.kind));
                        origin.push(idx);
                    }
                }
            }
        }
        builder.frame(t, specs);
    }

    Merged {
        stream: builder.build(),
        origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameKind, InputStream};

    fn stream(frames: &[&[(u64, u64)]]) -> InputStream {
        InputStream::from_frames(frames.iter().map(|fs| {
            fs.iter()
                .map(|&(size, weight)| SliceSpec::new(size, weight, FrameKind::Generic))
                .collect::<Vec<_>>()
        }))
    }

    #[test]
    fn merge_preserves_totals() {
        let a = stream(&[&[(2, 5)], &[(1, 1)]]);
        let b = stream(&[&[(3, 9)], &[], &[(1, 2)]]);
        let m = merge(&[a.clone(), b.clone()]);
        assert_eq!(m.stream.total_bytes(), a.total_bytes() + b.total_bytes());
        assert_eq!(m.stream.total_weight(), a.total_weight() + b.total_weight());
        assert_eq!(m.stream.horizon(), 3);
    }

    #[test]
    fn merge_tracks_origins() {
        let a = stream(&[&[(1, 1)]]);
        let b = stream(&[&[(1, 2), (1, 3)]]);
        let m = merge(&[a, b]);
        let origins: Vec<usize> = m
            .stream
            .slices()
            .iter()
            .map(|s| m.origin_of(s.id))
            .collect();
        assert_eq!(origins, vec![0, 1, 1]);
    }

    #[test]
    fn merge_orders_inputs_within_a_frame() {
        let a = stream(&[&[(1, 10)]]);
        let b = stream(&[&[(1, 20)]]);
        let m = merge(&[a, b]);
        let weights: Vec<u64> = m.stream.slices().iter().map(|s| s.weight).collect();
        assert_eq!(weights, vec![10, 20]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let m = merge(&[]);
        assert_eq!(m.stream.total_bytes(), 0);
        assert!(m.origin.is_empty());
    }

    #[test]
    fn merge_single_stream_is_identity_up_to_padding() {
        let a = stream(&[&[(2, 5)], &[], &[(1, 1)]]);
        let m = merge(std::slice::from_ref(&a));
        assert_eq!(m.stream.total_bytes(), a.total_bytes());
        assert_eq!(m.stream.slice_count(), a.slice_count());
        // Same per-slice data in the same order.
        for (x, y) in a.slices().iter().zip(m.stream.slices()) {
            assert_eq!((x.size, x.weight, x.arrival), (y.size, y.weight, y.arrival));
        }
    }

    #[test]
    fn merged_aggregate_is_smoother_than_parts() {
        // Two complementary on/off streams: each has peak 10, the
        // merged stream is perfectly flat at 10.
        let a = stream(&[&[(10, 10)], &[], &[(10, 10)], &[]]);
        let b = stream(&[&[], &[(10, 10)], &[], &[(10, 10)]]);
        let m = merge(&[a, b]);
        let sizes: Vec<u64> = m.stream.frames().map(|f| f.bytes()).collect();
        assert_eq!(sizes, vec![10, 10, 10, 10]);
    }
}
