use crate::stats::StreamStats;
use crate::{Bytes, Frame, FrameKind, Slice, SliceId, StreamError, Time, Weight};

/// Declarative description of one slice, used with [`StreamBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSpec {
    /// Size in bytes (must be at least 1).
    pub size: Bytes,
    /// Local weight.
    pub weight: Weight,
    /// Frame kind.
    pub kind: FrameKind,
}

impl SliceSpec {
    /// Creates a slice specification.
    pub fn new(size: Bytes, weight: Weight, kind: FrameKind) -> Self {
        SliceSpec { size, weight, kind }
    }

    /// A unit-size slice whose weight equals 1 (the unweighted model of
    /// Section 3, where only slice counts matter).
    pub fn unit() -> Self {
        SliceSpec::new(1, 1, FrameKind::Generic)
    }

    /// A slice whose weight equals its size, so that benefit equals
    /// throughput (the remark after Definition 2.6).
    pub fn sized(size: Bytes, kind: FrameKind) -> Self {
        SliceSpec::new(size, size, kind)
    }
}

/// Incremental builder for [`InputStream`]; see
/// [`InputStream::builder`].
#[derive(Debug, Clone, Default)]
pub struct StreamBuilder {
    stream: InputStream,
}

impl StreamBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `frames` frames and `slices`
    /// slices, so a caller that knows the stream's size up front fills
    /// both columns without reallocating.
    pub(crate) fn with_capacity(frames: usize, slices: usize) -> Self {
        StreamBuilder {
            stream: InputStream {
                slices: Vec::with_capacity(slices),
                frames: Vec::with_capacity(frames),
            },
        }
    }

    /// Appends a frame arriving at `time` with the given slices.
    ///
    /// Empty frames are allowed (a step with no arrivals) and may be used
    /// to extend the stream horizon.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not strictly greater than the previous frame's
    /// time, or if any slice has size 0. Use [`try_frame`](Self::try_frame)
    /// for a fallible variant.
    pub fn frame<I>(&mut self, time: Time, slices: I) -> &mut Self
    where
        I: IntoIterator<Item = SliceSpec>,
    {
        self.try_frame(time, slices)
            .expect("invalid frame passed to StreamBuilder::frame");
        self
    }

    /// Fallible variant of [`frame`](Self::frame). On error the builder
    /// is left as it was.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NonMonotonicTime`] if `time` does not exceed
    /// the previous frame's time, or [`StreamError::EmptySlice`] if any
    /// slice has size 0.
    pub fn try_frame<I>(&mut self, time: Time, slices: I) -> Result<&mut Self, StreamError>
    where
        I: IntoIterator<Item = SliceSpec>,
    {
        let stream = &mut self.stream;
        if let Some(last) = stream.frames.last() {
            if time <= last.time {
                return Err(StreamError::NonMonotonicTime {
                    previous: last.time,
                    offending: time,
                });
            }
        }
        let start = stream.slices.len();
        for spec in slices {
            if spec.size == 0 {
                stream.slices.truncate(start);
                return Err(StreamError::EmptySlice { time });
            }
            stream.slices.push(Slice {
                id: SliceId(stream.slices.len() as u64),
                arrival: time,
                size: spec.size,
                weight: spec.weight,
                kind: spec.kind,
            });
        }
        stream.frames.push(Span {
            time,
            end: stream.slices.len(),
        });
        Ok(self)
    }

    /// Finishes the builder and produces the stream.
    pub fn build(self) -> InputStream {
        self.stream
    }
}

/// One frame's place in the slice column: its arrival time and the end
/// of its slices (the frame starts where the previous one ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    time: Time,
    end: usize,
}

/// The `i`-th frame of a stream whose columns are `slices` and `spans`.
fn frame_at<'a>(slices: &'a [Slice], spans: &[Span], i: usize) -> Frame<'a> {
    let start = if i == 0 { 0 } else { spans[i - 1].end };
    let span = spans[i];
    Frame {
        index: i as u64,
        time: span.time,
        slices: &slices[start..span.end],
    }
}

/// An input stream: a set of slices with arrival times (Definition 2.1),
/// organized into frames.
///
/// The slices are stored once, as one column in id order; each frame is
/// a span of that column plus its arrival time, handed out as a
/// borrowed [`Frame`] view. The stream is immutable once built; this
/// guarantees that every algorithm, the offline optimum, and the
/// validators all see exactly the same arrival sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InputStream {
    slices: Vec<Slice>,
    frames: Vec<Span>,
}

impl InputStream {
    /// Starts building a stream frame by frame.
    pub fn builder() -> StreamBuilder {
        StreamBuilder::new()
    }

    /// Builds a stream with one frame per time step `0, 1, 2, …`, each
    /// frame given as a list of slice specs.
    ///
    /// # Panics
    ///
    /// Panics if any slice has size 0.
    pub fn from_frames<I, F>(frames: I) -> Self
    where
        I: IntoIterator<Item = F>,
        F: IntoIterator<Item = SliceSpec>,
    {
        let mut b = StreamBuilder::new();
        for (t, f) in frames.into_iter().enumerate() {
            b.frame(t as Time, f);
        }
        b.build()
    }

    /// The frames of the stream, in arrival order.
    pub fn frames(&self) -> Frames<'_> {
        Frames {
            slices: &self.slices,
            spans: &self.frames,
            front: 0,
            back: self.frames.len(),
        }
    }

    /// The frame at position `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.frame_count()`.
    pub fn frame(&self, i: usize) -> Frame<'_> {
        frame_at(&self.slices, &self.frames, i)
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Every slice in arrival (= id) order: `slices()[i].id == SliceId(i)`.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Total number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total size of the stream in bytes (`|B|` of Definition 2.1).
    pub fn total_bytes(&self) -> Bytes {
        self.slices.iter().map(|s| s.size).sum()
    }

    /// Total weight of the stream (the maximum possible benefit).
    pub fn total_weight(&self) -> Weight {
        self.slices.iter().map(|s| s.weight).sum()
    }

    /// The arrival time of the last frame, or `None` for an empty stream.
    pub fn last_arrival(&self) -> Option<Time> {
        self.frames.last().map(|f| f.time)
    }

    /// Number of time steps spanned: `last_arrival + 1`, or 0 if empty.
    pub fn horizon(&self) -> Time {
        self.last_arrival().map_or(0, |t| t + 1)
    }

    /// Computes descriptive statistics over the stream.
    pub fn stats(&self) -> StreamStats {
        StreamStats::of(self)
    }

    /// Looks up a slice by id.
    ///
    /// Ids are dense in arrival order, so this is a direct index.
    pub fn slice(&self, id: SliceId) -> Option<&Slice> {
        usize::try_from(id.0).ok().and_then(|i| self.slices.get(i))
    }
}

/// Iterator over the frames of an [`InputStream`]; see
/// [`InputStream::frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    slices: &'a [Slice],
    spans: &'a [Span],
    /// Next frame from the front.
    front: usize,
    /// One past the next frame from the back.
    back: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        if self.front == self.back {
            return None;
        }
        let f = frame_at(self.slices, self.spans, self.front);
        self.front += 1;
        Some(f)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Frames<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        Some(frame_at(self.slices, self.spans, self.back))
    }
}

impl ExactSizeIterator for Frames<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InputStream {
        let mut b = InputStream::builder();
        b.frame(
            0,
            [
                SliceSpec::new(3, 12, FrameKind::I),
                SliceSpec::new(1, 1, FrameKind::B),
            ],
        );
        b.frame(2, []);
        b.frame(5, [SliceSpec::new(2, 8, FrameKind::P)]);
        b.build()
    }

    #[test]
    fn builder_assigns_dense_ids_in_arrival_order() {
        let s = sample();
        let ids: Vec<u64> = s.slices().iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(s.slice_count(), 3);
    }

    #[test]
    fn totals() {
        let s = sample();
        assert_eq!(s.total_bytes(), 6);
        assert_eq!(s.total_weight(), 21);
        assert_eq!(s.last_arrival(), Some(5));
        assert_eq!(s.horizon(), 6);
    }

    #[test]
    fn empty_stream() {
        let s = InputStream::builder().build();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.horizon(), 0);
        assert_eq!(s.last_arrival(), None);
        assert_eq!(s.slice(SliceId(0)), None);
    }

    #[test]
    fn slice_lookup_by_id() {
        let s = sample();
        assert_eq!(s.slice(SliceId(0)).unwrap().size, 3);
        assert_eq!(s.slice(SliceId(2)).unwrap().arrival, 5);
        assert_eq!(s.slice(SliceId(99)), None);
    }

    #[test]
    fn slice_lookup_with_many_empty_frames() {
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::unit()]);
        for t in 1..10 {
            b.frame(t, []);
        }
        b.frame(10, [SliceSpec::unit(), SliceSpec::unit()]);
        let s = b.build();
        assert_eq!(s.slice(SliceId(2)).unwrap().arrival, 10);
        assert_eq!(s.slice(SliceId(0)).unwrap().arrival, 0);
    }

    #[test]
    fn non_monotonic_time_rejected() {
        let mut b = InputStream::builder();
        b.frame(3, [SliceSpec::unit()]);
        let err = b.try_frame(3, [SliceSpec::unit()]).unwrap_err();
        assert_eq!(
            err,
            StreamError::NonMonotonicTime {
                previous: 3,
                offending: 3
            }
        );
    }

    #[test]
    fn zero_size_slice_rejected() {
        let mut b = InputStream::builder();
        let err = b
            .try_frame(0, [SliceSpec::new(0, 5, FrameKind::Generic)])
            .unwrap_err();
        assert_eq!(err, StreamError::EmptySlice { time: 0 });
    }

    #[test]
    fn from_frames_uses_consecutive_times() {
        let s = InputStream::from_frames([
            vec![SliceSpec::unit()],
            vec![],
            vec![SliceSpec::unit(), SliceSpec::unit()],
        ]);
        let times: Vec<Time> = s.frames().map(|f| f.time).collect();
        assert_eq!(times, vec![0, 1, 2]);
        assert_eq!(s.slice_count(), 3);
    }

    #[test]
    fn spec_helpers() {
        assert_eq!(SliceSpec::unit(), SliceSpec::new(1, 1, FrameKind::Generic));
        let s = SliceSpec::sized(7, FrameKind::P);
        assert_eq!((s.size, s.weight), (7, 7));
    }

    #[test]
    fn failed_frame_leaves_the_builder_unchanged() {
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::unit()]);
        let before = b.clone().build();
        let bad = [SliceSpec::unit(), SliceSpec::new(0, 1, FrameKind::B)];
        assert!(b.try_frame(1, bad).is_err());
        assert_eq!(b.clone().build(), before);
        b.frame(1, [SliceSpec::unit()]);
        assert_eq!(b.build().slice(SliceId(1)).unwrap().arrival, 1);
    }

    #[test]
    fn frames_are_views_of_the_slice_column() {
        let s = sample();
        assert_eq!(s.frame_count(), 3);
        assert_eq!(s.frames().len(), 3);
        assert_eq!(s.frame(1).time, 2);
        assert!(s.frame(1).is_empty());
        assert_eq!(s.frame(2).slices, &s.slices()[2..]);
        let back: Vec<Time> = s.frames().rev().map(|f| f.time).collect();
        assert_eq!(back, vec![5, 2, 0]);
        assert_eq!(s.frames().nth(2), Some(s.frame(2)));
        assert_eq!(s.frames().nth(3), None);
    }
}
