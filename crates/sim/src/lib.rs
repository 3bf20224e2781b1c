//! End-to-end slotted-time simulator for real-time smoothing schedules.
//!
//! Wires the components of [`rts_core`] into the full system of the
//! paper's Figure 1 — source → server buffer → constant-delay FIFO link →
//! client buffer → playout device — and records the complete schedule
//! (the `ST`/`RT`/`PT`/`DT` functions of Definition 2.2) so that the
//! model's invariants can be checked mechanically.
//!
//! * [`simulate`] — run the generic algorithm with any drop policy;
//! * [`ScheduleRecord`] / [`Metrics`] — the per-slice record and the
//!   aggregate measures of Definition 2.4 and Section 5;
//! * [`validate()`](validate()) — Definitions 2.2–2.5 and Lemmas 3.2–3.4 as assertions;
//! * [`events`] — the slice events of a traced run, built from each
//!   stage's step record;
//! * [`parallel_map`] — fan parameter sweeps out over threads.
//!
//! # Example
//!
//! ```
//! use rts_core::policy::{GreedyByteValue, TailDrop};
//! use rts_core::tradeoff::SmoothingParams;
//! use rts_sim::{simulate, validate, SimConfig};
//! use rts_stream::gen::{MpegConfig, MpegSource};
//! use rts_stream::slicing::Slicing;
//! use rts_stream::weight::WeightAssignment;
//!
//! let trace = MpegSource::new(MpegConfig::cnn_like(), 1).frames(100);
//! let stream = trace.materialize(Slicing::WholeFrame, WeightAssignment::MPEG_12_8_1);
//!
//! // Link at the average stream rate, 4 steps of smoothing delay.
//! let rate = stream.stats().rate_at(1.0);
//! let params = SmoothingParams::balanced_from_rate_delay(rate, 4, 2);
//!
//! let greedy = simulate(&stream, SimConfig::new(params), GreedyByteValue::new());
//! let tail = simulate(&stream, SimConfig::new(params), TailDrop::new());
//! validate(&greedy).unwrap();
//! validate(&tail).unwrap();
//! // Greedy never delivers less weight than Tail-Drop on MPEG traces.
//! assert!(greedy.metrics.benefit >= tail.metrics.benefit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod events;
pub mod jitter;
mod link;
mod metrics;
mod record;
mod server_only;
mod summary;
mod sweep;
pub mod tandem;
pub mod validate;

pub use engine::{
    simulate, simulate_probed, simulate_with_link, simulate_with_link_probed, SimConfig, SimReport,
};
pub use jitter::{JitterControl, JitteredLink};
pub use link::{Link, LinkModel};
pub use metrics::{ConservationError, Metrics};
pub use record::{Fate, ScheduleRecord, SliceRecord, StepSample};
pub use server_only::{
    run_server_only, run_server_only_probed, run_server_with_rate_schedule, ServerRun,
};
pub use summary::Percentiles;
pub use sweep::parallel_map;
pub use tandem::{
    simulate_tandem, simulate_tandem_probed, simulate_tandem_with_links,
    simulate_tandem_with_links_probed, tandem_delay, HopConfig, TandemReport,
};
pub use validate::validate;
