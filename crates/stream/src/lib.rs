//! Input-stream model for real-time smoothing schedules.
//!
//! This crate provides the data model of Mansour, Patt-Shamir and Lapid,
//! *"Optimal smoothing schedules for real-time streams"* (PODC 2000):
//! an input stream is a set of [`Slice`]s, each a block of abstract
//! equal-size "bytes" with an arrival time and a non-negative integer
//! weight (Definition 2.1 / 2.6 of the paper). Slices are grouped into
//! [`Frame`]s — the set of slices generated in one time step.
//!
//! Besides the model itself the crate ships:
//!
//! * [`gen`] — trace generators: a synthetic MPEG-like VBR source
//!   calibrated to the clip statistics reported in Section 5 of the paper,
//!   elementary sources (CBR, on/off bursts, uniform noise), and the
//!   adversarial arrival patterns used in Lemma 3.6 and Theorems 4.7/4.8;
//! * [`rng`] — a small deterministic PRNG (SplitMix64) so every generated
//!   trace is exactly reproducible from a `u64` seed;
//! * [`textio`] — a plain-text trace format for persisting streams;
//! * [`StreamStats`] — descriptive statistics (average rate, peak rate,
//!   largest frame/slice, per-kind histograms) used to parameterize the
//!   experiments.
//!
//! # Example
//!
//! ```
//! use rts_stream::{FrameKind, InputStream, SliceSpec};
//!
//! // Two frames: one at t=0 with two slices, one at t=1 with one slice.
//! let mut b = InputStream::builder();
//! b.frame(0, [SliceSpec::new(3, 12, FrameKind::I), SliceSpec::new(1, 1, FrameKind::B)]);
//! b.frame(1, [SliceSpec::new(2, 8, FrameKind::P)]);
//! let stream = b.build();
//!
//! assert_eq!(stream.total_bytes(), 6);
//! assert_eq!(stream.total_weight(), 21);
//! assert_eq!(stream.stats().max_frame_bytes, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
mod merge;
mod slice;
mod stats;
mod stream;
mod traceops;

pub mod gen;
pub mod rng;
pub mod slicing;
pub mod textio;
pub mod weight;

pub use error::StreamError;
pub use frame::Frame;
pub use merge::{merge, Merged};
pub use slice::{byte_value_cmp, FrameKind, Slice, SliceId};
pub use stats::StreamStats;
pub use stream::{Frames, InputStream, SliceSpec, StreamBuilder};
pub use weight::WeightAssignment;

/// Discrete time step (the paper's slotted-time model).
pub type Time = u64;

/// A count of abstract equal-size data units ("bytes" in the paper's
/// terminology; the experiments use 1 unit ≈ 1 KB).
pub type Bytes = u64;

/// A non-negative integer slice weight (the paper's local value function,
/// Definition 2.6). Real-valued weights can always be scaled to integers;
/// integer weights keep every algorithmic comparison exact.
pub type Weight = u64;
