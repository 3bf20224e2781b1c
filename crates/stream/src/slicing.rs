//! Slicing policies: how a frame of raw bytes is partitioned into slices.
//!
//! Section 5 of the paper evaluates "two extremes for the slice size: on
//! one extreme, each byte is an individual slice; and on the other
//! extreme, each frame is an individual slice". [`Slicing`] captures both
//! plus a fixed-size middle ground (e.g. network packets).

use crate::weight::WeightAssignment;
use crate::{Bytes, FrameKind, InputStream, SliceSpec, StreamBuilder, Time};

/// How frame payloads are partitioned into individually droppable slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Slicing {
    /// Each byte is an individual slice (`Lmax = 1`; the model in which
    /// the generic algorithm is loss-optimal, Theorem 3.5).
    #[default]
    PerByte,
    /// Each frame is a single slice (`Lmax` = largest frame).
    WholeFrame,
    /// Frames are cut into chunks of at most the given size; the last
    /// chunk of a frame may be smaller.
    Chunks(Bytes),
}

impl Slicing {
    /// Splits one frame of `size` bytes into slice sizes.
    ///
    /// # Panics
    ///
    /// Panics if `Chunks(0)` is used.
    pub fn split(&self, size: Bytes) -> Vec<Bytes> {
        self.sizes(size).collect()
    }

    /// The slice sizes of one frame of `size` bytes, in order: every
    /// policy cuts chunks of one size, the last possibly smaller.
    fn sizes(&self, size: Bytes) -> impl Iterator<Item = Bytes> {
        let chunk = self.chunk(size);
        (0..size.div_ceil(chunk)).map(move |i| chunk.min(size - i * chunk))
    }

    /// How many slices one frame of `size` bytes splits into.
    fn count(&self, size: Bytes) -> Bytes {
        size.div_ceil(self.chunk(size))
    }

    /// The chunk size this policy cuts a frame of `size` bytes into.
    fn chunk(&self, size: Bytes) -> Bytes {
        match *self {
            Slicing::PerByte => 1,
            Slicing::WholeFrame => size.max(1),
            Slicing::Chunks(chunk) => {
                assert!(chunk > 0, "chunk size must be positive");
                chunk
            }
        }
    }

    /// The largest slice this policy can produce from frames of at most
    /// `max_frame` bytes (the paper's `Lmax`).
    pub fn lmax(&self, max_frame: Bytes) -> Bytes {
        match *self {
            Slicing::PerByte => 1,
            Slicing::WholeFrame => max_frame.max(1),
            Slicing::Chunks(chunk) => chunk.min(max_frame.max(1)),
        }
    }
}

/// A sequence of raw frames — `(kind, size)` per time step — prior to
/// slicing and weighting. This is what trace generators produce; applying
/// a [`Slicing`] and a [`WeightAssignment`] yields an [`InputStream`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameSizeTrace {
    frames: Vec<(FrameKind, Bytes)>,
}

impl FrameSizeTrace {
    /// Creates a trace from per-step `(kind, size)` pairs; step `i`
    /// arrives at time `i`.
    pub fn new(frames: Vec<(FrameKind, Bytes)>) -> Self {
        FrameSizeTrace { frames }
    }

    /// The raw `(kind, size)` records.
    pub fn frames(&self) -> &[(FrameKind, Bytes)] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the trace has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total bytes across all frames.
    pub fn total_bytes(&self) -> Bytes {
        self.frames.iter().map(|&(_, b)| b).sum()
    }

    /// Largest frame in bytes.
    pub fn max_frame_bytes(&self) -> Bytes {
        self.frames.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }

    /// Average bytes per frame.
    pub fn average_rate(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.frames.len() as f64
        }
    }

    /// Materializes the trace into an [`InputStream`] under a slicing
    /// policy and weight assignment.
    ///
    /// With [`WeightAssignment::PerKindByte`] the *total* weight offered is
    /// independent of the slicing granularity, which is what makes the
    /// byte-slice and frame-slice curves of Figures 5–6 comparable.
    pub fn materialize(&self, slicing: Slicing, weights: WeightAssignment) -> InputStream {
        let slices: Bytes = self
            .frames
            .iter()
            .map(|&(_, size)| slicing.count(size))
            .sum();
        let mut b = StreamBuilder::with_capacity(self.frames.len(), slices as usize);
        for (t, &(kind, size)) in self.frames.iter().enumerate() {
            let specs = slicing
                .sizes(size)
                .map(|sz| SliceSpec::new(sz, weights.weight_of(kind, sz), kind));
            b.frame(t as Time, specs);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_byte_split() {
        assert_eq!(Slicing::PerByte.split(3), vec![1, 1, 1]);
        assert_eq!(Slicing::PerByte.split(0), Vec::<Bytes>::new());
    }

    #[test]
    fn whole_frame_split() {
        assert_eq!(Slicing::WholeFrame.split(7), vec![7]);
        assert_eq!(Slicing::WholeFrame.split(0), Vec::<Bytes>::new());
    }

    #[test]
    fn chunk_split_with_remainder() {
        assert_eq!(Slicing::Chunks(3).split(8), vec![3, 3, 2]);
        assert_eq!(Slicing::Chunks(10).split(8), vec![8]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        Slicing::Chunks(0).split(5);
    }

    #[test]
    fn lmax_per_policy() {
        assert_eq!(Slicing::PerByte.lmax(120), 1);
        assert_eq!(Slicing::WholeFrame.lmax(120), 120);
        assert_eq!(Slicing::Chunks(16).lmax(120), 16);
        assert_eq!(Slicing::Chunks(16).lmax(4), 4);
    }

    #[test]
    fn materialize_preserves_totals_across_granularity() {
        let trace = FrameSizeTrace::new(vec![
            (FrameKind::I, 5),
            (FrameKind::B, 3),
            (FrameKind::P, 4),
        ]);
        let w = WeightAssignment::MPEG_12_8_1;
        let by_byte = trace.materialize(Slicing::PerByte, w);
        let by_frame = trace.materialize(Slicing::WholeFrame, w);
        assert_eq!(by_byte.total_bytes(), by_frame.total_bytes());
        assert_eq!(by_byte.total_weight(), by_frame.total_weight());
        assert_eq!(by_byte.slice_count(), 12);
        assert_eq!(by_frame.slice_count(), 3);
    }

    #[test]
    fn materialize_timing() {
        let trace = FrameSizeTrace::new(vec![(FrameKind::Generic, 2), (FrameKind::Generic, 1)]);
        let s = trace.materialize(Slicing::WholeFrame, WeightAssignment::BySize);
        assert_eq!(s.frame(0).time, 0);
        assert_eq!(s.frame(1).time, 1);
        assert_eq!(s.frame(1).slices[0].weight, 1);
    }

    #[test]
    fn trace_stats() {
        let trace = FrameSizeTrace::new(vec![(FrameKind::I, 10), (FrameKind::B, 2)]);
        assert_eq!(trace.total_bytes(), 12);
        assert_eq!(trace.max_frame_bytes(), 10);
        assert!((trace.average_rate() - 6.0).abs() < 1e-12);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert!(FrameSizeTrace::default().is_empty());
    }
}
