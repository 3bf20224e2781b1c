//! The core smoothing library: the paper's primary contribution.
//!
//! This crate implements Sections 3 and 4 of Mansour, Patt-Shamir and
//! Lapid, *"Optimal smoothing schedules for real-time streams"* (PODC
//! 2000 / Distributed Computing 2004):
//!
//! * [`Server`] — the **generic algorithm**'s server side (Section 3.1.1):
//!   a pushout FIFO buffer drained at the maximal rate, with overflow
//!   drops delegated to a pluggable [`DropPolicy`]. Equations (2)–(3) of
//!   the paper are implemented verbatim; slices are never preempted once
//!   their transmission has started.
//! * [`Client`] — the client side (Section 3.1.2): a timer-based playout
//!   algorithm that needs no clock synchronization and makes no drop
//!   decisions beyond discarding data that missed its deadline.
//!
//!   Server and client only report their steps: each returns a
//!   [`ServerStep`] or [`ClientStep`] holding the Definition 2.2
//!   moments of that slot (sends, drops, playouts). The crate has no
//!   tracing; `rts_sim::events` builds the observability events from
//!   these records.
//! * [`policy`] — the drop policies evaluated in the paper: the
//!   under-specified *arbitrary* drop of the generic algorithm
//!   ([`TailDrop`], [`HeadDrop`], [`RandomDrop`]) and the weighted
//!   [`GreedyByteValue`] policy of Section 4.1.
//! * [`tradeoff`] — the **B = R · D** identity (Theorem 3.5) as a
//!   parameter solver, plus the Section 3.3 classification of wasteful
//!   configurations.
//! * [`bounds`] — every closed-form bound in the paper: the
//!   `4B/(B − 2(Lmax − 1))` competitive upper bound for Greedy
//!   (Theorem 4.1), the `(B − Lmax + 1)/B` throughput guarantee
//!   (Theorem 3.9), the Greedy lower bound (Theorem 4.7), and the
//!   deterministic online lower bound 1.2287 / 1.28197 (Theorem 4.8 and
//!   the Lotker–Sviridenko remark).
//!
//! # Quick start
//!
//! ```
//! use rts_core::{Client, GreedyByteValue, Server};
//! use rts_core::tradeoff::SmoothingParams;
//! use rts_stream::{FrameKind, InputStream, SliceSpec};
//!
//! // A bursty two-frame stream smoothed over a rate-2 link.
//! let stream = InputStream::from_frames([
//!     vec![SliceSpec::new(1, 5, FrameKind::Generic); 4],
//!     vec![],
//! ]);
//!
//! let params = SmoothingParams::balanced_from_rate_delay(2, 1, 0);
//! let mut server = Server::new(params.buffer, params.rate, GreedyByteValue::new());
//! let mut client = Client::new(params.buffer, params.delay, params.link_delay);
//!
//! let mut played = 0;
//! for t in 0..8 {
//!     let arrivals: &[_] = stream
//!         .frames()
//!         .get(t as usize)
//!         .map(|f| f.slices.as_slice())
//!         .unwrap_or(&[]);
//!     let step = server.step(t, arrivals);
//!     let delivered = step.sent; // link delay 0: delivered immediately
//!     played += client.step(t, &delivered).played.len();
//! }
//! assert_eq!(played, 4); // B = R*D = 2 buffered + 2 sent in step 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod buffer;
mod client;
pub mod policy;
mod server;
pub mod tradeoff;

pub use buffer::{BufferedSlice, Seq, ServerBuffer};
pub use client::{Client, ClientDrop, ClientDropReason, ClientStep, ClockDrift, ResyncPolicy};
pub use policy::{
    DropPolicy, EarlyValueDrop, GreedyByteValue, GreedyRescan, HeadDrop, PlannedDrops, RandomDrop,
    TailDrop,
};
pub use server::{SentChunk, Server, ServerStep};
