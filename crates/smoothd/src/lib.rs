//! `smoothd`: a sharded, long-running smoothing daemon.
//!
//! The batch layers of this workspace (`rts-sim`, `rts-mux`) answer
//! "what does one run of the paper's algorithm do?". This crate
//! answers the systems question the paper's Section 6 gestures at: how
//! many concurrent smoothing sessions can one box sustain in real
//! time? It scales the same per-session machinery — server with a drop
//! policy, constant-delay link, deadline playout, the `B = R·D`
//! admission identity of Theorem 3.5 — to a million resident sessions
//! by sharding them across per-core workers:
//!
//! * [`Shard`] — a disjoint session set plus one admission-guarded
//!   link, stepped slot-by-slot with zero steady-state allocation
//!   (shard-owned scratch, ring-buffer playout clients).
//! * [`Daemon`] — spawns one worker thread per shard, places each
//!   admission on the shard with the widest residual bookable rate (a
//!   mirror of committed rate the control plane books itself), applies
//!   backpressure with typed reject reasons when a shard's command
//!   queue fills, and merges per-shard reports at shutdown.
//! * the frame codec — the length-prefixed ingest protocol
//!   ([`decode_frame`] / [`encode_frame`]), total over arbitrary
//!   bytes: every malformed input is a typed [`FrameError`], never a
//!   panic.
//! * ingest — TCP (and Unix-socket) listeners ([`serve_tcp`]) speaking
//!   the frame protocol, plus [`replay_sessions`] to feed recorded
//!   `rts-obs` traces back through the daemon.
//!
//! Session churn — admit, drain, evict — is first-class: every session
//! ledger satisfies exact byte conservation
//! (`offered = played + dropped + evicted + in-flight`), checked by
//! the `rts-check` catalog under randomized churn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod frame;
mod ingest;
mod replay;
mod session;
mod shard;
mod snapshot;

pub use daemon::{
    BatchAdmission, Daemon, DaemonConfig, DaemonReport, RebalanceConfig, ShardReport,
};
pub use frame::{
    decode_frame, encode_frame, AdmitRequest, Frame, FrameError, FrameReader, HistSummary,
    ShardRow, StatsDetail, StatsSnapshot, WirePolicy, MAGIC, MAX_FRAME, MAX_SNAPSHOT_CHUNK,
    MAX_STATS_SHARDS, PROTOCOL_VERSION,
};
pub use rts_telemetry::SlotPacing;
#[cfg(unix)]
pub use ingest::{serve_uds, serve_uds_with};
pub use ingest::{serve_tcp, serve_tcp_with, IngestConfig, IngestServer, DEFAULT_INGEST_THREADS};
pub use replay::{replay_sessions, ReplaySession};
pub use session::{
    ArrivalSource, LiveSession, PlayoutRing, QueuedSlice, SessionCounters, SessionId, SlotDelta,
};
pub use shard::{Retirement, Shard, ShardStats};
pub use snapshot::{
    crc32, read_snapshot, SnapshotError, SnapshotWriter, SNAPSHOT_HEADER, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
