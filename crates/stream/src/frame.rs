use crate::{Bytes, Slice, Time, Weight};

/// A frame: the set of slices generated by the source in one time step
/// (the paper's `A(t)`, Definition 2.3).
///
/// A frame is a view: its slices are a span of the stream's one
/// id-ordered slice column ([`InputStream::slices`]), so a frame costs
/// nothing to produce or copy.
///
/// [`InputStream::slices`]: crate::InputStream::slices
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Position of the frame within the stream (0-based).
    pub index: u64,
    /// The time step at which every slice of this frame arrives.
    pub time: Time,
    /// The slices of the frame, in declaration (= id) order.
    pub slices: &'a [Slice],
}

impl Frame<'_> {
    /// Total size of the frame in bytes (`|A(t)|`).
    pub fn bytes(&self) -> Bytes {
        self.slices.iter().map(|s| s.size).sum()
    }

    /// Total weight of the frame.
    pub fn weight(&self) -> Weight {
        self.slices.iter().map(|s| s.weight).sum()
    }

    /// Number of slices in the frame.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the frame carries no slices (an empty arrival step).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameKind, SliceId};

    fn slices(sizes_weights: &[(Bytes, Weight)]) -> Vec<Slice> {
        sizes_weights
            .iter()
            .enumerate()
            .map(|(i, &(size, weight))| Slice {
                id: SliceId(i as u64),
                arrival: 3,
                size,
                weight,
                kind: FrameKind::Generic,
            })
            .collect()
    }

    fn mk(slices: &[Slice]) -> Frame<'_> {
        Frame {
            index: 0,
            time: 3,
            slices,
        }
    }

    #[test]
    fn aggregates() {
        let s = slices(&[(2, 5), (3, 7)]);
        let f = mk(&s);
        assert_eq!(f.bytes(), 5);
        assert_eq!(f.weight(), 12);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn empty_frame() {
        let f = mk(&[]);
        assert_eq!(f.bytes(), 0);
        assert_eq!(f.weight(), 0);
        assert!(f.is_empty());
    }
}
