use std::collections::BTreeMap;

use crate::{Bytes, FrameKind, InputStream, Weight};

/// Descriptive statistics of an input stream.
///
/// The experiments of Section 5 parameterize link rate and buffer size
/// relative to the stream's *average rate* (total bytes divided by the
/// number of frames) and *maximum frame size*; this type computes both,
/// plus the per-kind composition used to validate the synthetic MPEG
/// generator against the paper's reported clip statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Number of frames (time steps that carry a frame record).
    pub frame_count: u64,
    /// Number of slices.
    pub slice_count: u64,
    /// Total bytes offered.
    pub total_bytes: Bytes,
    /// Total weight offered.
    pub total_weight: Weight,
    /// Largest single frame, in bytes.
    pub max_frame_bytes: Bytes,
    /// Largest single slice, in bytes (the paper's `Lmax`).
    pub max_slice_bytes: Bytes,
    /// Average rate: total bytes / frame count (0 for an empty stream).
    pub average_rate: f64,
    /// Mean frame size in bytes (same as `average_rate` when one frame
    /// arrives per step).
    pub mean_frame_bytes: f64,
    /// Frame counts per kind, determined by the majority kind of each
    /// frame's slices.
    pub frames_by_kind: BTreeMap<FrameKind, u64>,
    /// Bytes per kind.
    pub bytes_by_kind: BTreeMap<FrameKind, Bytes>,
    /// Weight per kind.
    pub weight_by_kind: BTreeMap<FrameKind, Weight>,
}

impl StreamStats {
    /// Computes statistics for `stream`.
    pub fn of(stream: &InputStream) -> StreamStats {
        let mut s = StreamStats {
            frame_count: stream.frame_count() as u64,
            slice_count: stream.slice_count() as u64,
            total_bytes: stream.total_bytes(),
            total_weight: stream.total_weight(),
            max_frame_bytes: 0,
            max_slice_bytes: 0,
            average_rate: 0.0,
            mean_frame_bytes: 0.0,
            frames_by_kind: BTreeMap::new(),
            bytes_by_kind: BTreeMap::new(),
            weight_by_kind: BTreeMap::new(),
        };
        for frame in stream.frames() {
            let fb = frame.bytes();
            s.max_frame_bytes = s.max_frame_bytes.max(fb);
            let mut kind_bytes: BTreeMap<FrameKind, Bytes> = BTreeMap::new();
            for slice in frame.slices {
                s.max_slice_bytes = s.max_slice_bytes.max(slice.size);
                *s.bytes_by_kind.entry(slice.kind).or_default() += slice.size;
                *s.weight_by_kind.entry(slice.kind).or_default() += slice.weight;
                *kind_bytes.entry(slice.kind).or_default() += slice.size;
            }
            if let Some((&kind, _)) = kind_bytes.iter().max_by_key(|&(_, &b)| b) {
                *s.frames_by_kind.entry(kind).or_default() += 1;
            }
        }
        if s.frame_count > 0 {
            s.average_rate = s.total_bytes as f64 / s.frame_count as f64;
            s.mean_frame_bytes = s.average_rate;
        }
        s
    }

    /// Fraction of frames of the given kind, in `[0, 1]`.
    pub fn frame_fraction(&self, kind: FrameKind) -> f64 {
        if self.frame_count == 0 {
            return 0.0;
        }
        *self.frames_by_kind.get(&kind).unwrap_or(&0) as f64 / self.frame_count as f64
    }

    /// A link rate equal to `factor` times the average stream rate,
    /// rounded to the nearest positive integer — the parameterization used
    /// throughout Section 5 ("10% above the average rate" etc.).
    pub fn rate_at(&self, factor: f64) -> Bytes {
        (self.average_rate * factor).round().max(1.0) as Bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceSpec;

    fn stream() -> InputStream {
        InputStream::from_frames([
            vec![
                SliceSpec::new(6, 12, FrameKind::I),
                SliceSpec::new(2, 1, FrameKind::B),
            ],
            vec![SliceSpec::new(4, 8, FrameKind::P)],
            vec![SliceSpec::new(2, 1, FrameKind::B)],
        ])
    }

    #[test]
    fn totals_and_maxima() {
        let st = stream().stats();
        assert_eq!(st.frame_count, 3);
        assert_eq!(st.slice_count, 4);
        assert_eq!(st.total_bytes, 14);
        assert_eq!(st.total_weight, 22);
        assert_eq!(st.max_frame_bytes, 8);
        assert_eq!(st.max_slice_bytes, 6);
    }

    #[test]
    fn average_rate_and_rate_at() {
        let st = stream().stats();
        assert!((st.average_rate - 14.0 / 3.0).abs() < 1e-12);
        assert_eq!(st.rate_at(1.0), 5); // 4.67 rounds to 5
        assert_eq!(st.rate_at(0.0), 1); // clamped to a positive rate
    }

    #[test]
    fn per_kind_accounting_uses_majority_kind() {
        let st = stream().stats();
        // Frame 0 is majority-I (6 of 8 bytes).
        assert_eq!(st.frames_by_kind[&FrameKind::I], 1);
        assert_eq!(st.frames_by_kind[&FrameKind::P], 1);
        assert_eq!(st.frames_by_kind[&FrameKind::B], 1);
        assert_eq!(st.bytes_by_kind[&FrameKind::B], 4);
        assert_eq!(st.weight_by_kind[&FrameKind::I], 12);
        assert!((st.frame_fraction(FrameKind::I) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_stats() {
        let st = InputStream::default().stats();
        assert_eq!(st.frame_count, 0);
        assert_eq!(st.average_rate, 0.0);
        assert_eq!(st.frame_fraction(FrameKind::I), 0.0);
    }
}
