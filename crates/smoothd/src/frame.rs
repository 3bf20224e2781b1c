//! Length-prefixed ingest frames for the smoothing daemon.
//!
//! The wire format is deliberately minimal: every frame is
//!
//! ```text
//! [len: u32 LE] [kind: u8] [payload: len-1 bytes]
//! ```
//!
//! where `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME`]. All multi-byte integers are little-endian. The codec
//! is total: [`decode_frame`] never panics on arbitrary bytes — every
//! malformed input maps to a typed [`FrameError`], and incomplete input
//! maps to [`FrameError::Incomplete`] with the number of buffered bytes
//! that would make progress possible (so stream readers know when to
//! ask the socket for more).
//!
//! A connection opens with [`Frame::Hello`] (carrying [`MAGIC`] and a
//! protocol version) and is answered with [`Frame::Welcome`]. After
//! that the client admits sessions, feeds externally-sourced sessions
//! with [`Frame::Data`], and retires them with [`Frame::Drain`] /
//! [`Frame::Evict`]. The daemon answers admissions with
//! [`Frame::Admitted`] or [`Frame::Rejected`] (a typed
//! [`RejectReason`]).

use std::fmt;

use rts_obs::RejectReason;
use rts_stream::{Bytes, Time, Weight};

/// Magic number carried by [`Frame::Hello`]: the ASCII bytes `SMO1`
/// read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SMO1");

/// Wire protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 1;

/// Maximum frame body (kind byte + payload) in bytes. Anything larger
/// is rejected before buffering, bounding per-connection memory.
pub const MAX_FRAME: usize = 4096;

const K_HELLO: u8 = 0x01;
const K_ADMIT: u8 = 0x02;
const K_DATA: u8 = 0x03;
const K_DRAIN: u8 = 0x04;
const K_EVICT: u8 = 0x05;
const K_STATS: u8 = 0x06;
const K_GOODBYE: u8 = 0x07;
const K_STATS_DETAIL: u8 = 0x08;
const K_ADMIT_BATCH: u8 = 0x09;
const K_SNAPSHOT: u8 = 0x0a;
const K_WELCOME: u8 = 0x81;
const K_ADMITTED: u8 = 0x82;
const K_REJECTED: u8 = 0x83;
const K_STATS_REPLY: u8 = 0x84;
const K_BYE: u8 = 0x85;
const K_STATS_DETAIL_REPLY: u8 = 0x86;
const K_ADMITTED_BATCH: u8 = 0x87;
const K_SNAPSHOT_CHUNK: u8 = 0x88;
const K_SNAPSHOT_ACK: u8 = 0x89;

/// Drop policy selector on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WirePolicy {
    /// Tail-drop: reject the newest arrival.
    Tail,
    /// Head-drop: drop the oldest buffered slice.
    Head,
    /// Greedy byte-value drop (Section 4 of the paper).
    Greedy,
}

impl WirePolicy {
    /// Wire code for this policy.
    pub fn code(self) -> u8 {
        match self {
            WirePolicy::Tail => 0,
            WirePolicy::Head => 1,
            WirePolicy::Greedy => 2,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<WirePolicy> {
        match code {
            0 => Some(WirePolicy::Tail),
            1 => Some(WirePolicy::Head),
            2 => Some(WirePolicy::Greedy),
            _ => None,
        }
    }
}

/// Everything the daemon needs to admit one session.
///
/// `buffer == 0` asks for the balanced `B = R·D` configuration
/// (Equation 1); a nonzero buffer is checked against the tradeoff and
/// rejected as infeasible when `B > R·D`. `per_slot == 0` declares an
/// externally-fed session (slices arrive via [`Frame::Data`]); a
/// nonzero value declares a constant-bitrate source generated inside
/// the daemon, with `lifetime == 0` meaning "until drained".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdmitRequest {
    /// Reserved link rate `R` in bytes per slot.
    pub rate: Bytes,
    /// Smoothing delay `D` in slots.
    pub delay: Time,
    /// Link propagation delay `P` in slots.
    pub link_delay: Time,
    /// Buffer space `B`; 0 selects the balanced `R·D`.
    pub buffer: Bytes,
    /// Scheduling weight of the session.
    pub weight: Weight,
    /// Server drop policy.
    pub policy: WirePolicy,
    /// CBR arrivals per slot (bytes); 0 = externally fed.
    pub per_slot: u32,
    /// Size of each generated slice for CBR sources.
    pub slice_size: u32,
    /// CBR lifetime in slots; 0 = unbounded (drain to stop).
    pub lifetime: u64,
}

/// Aggregate counters returned by [`Frame::StatsReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct StatsSnapshot {
    /// Live sessions across all shards.
    pub sessions: u64,
    /// Cumulative slices played to clients.
    pub slices_played: u64,
    /// Maximum slot count across shards (daemon logical time).
    pub slots: u64,
    /// Cumulative sessions retired (completed, drained, or evicted).
    pub retired: u64,
}

/// Fixed quantile digest of one latency histogram, as carried on the
/// wire (40 bytes: five `u64`s). Quantiles follow the telemetry
/// exposition's summary set (p50/p90/p99); an empty histogram is all
/// zeros with `count == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median (ns).
    pub p50: u64,
    /// 90th percentile (ns).
    pub p90: u64,
    /// 99th percentile (ns).
    pub p99: u64,
    /// Exact maximum (ns).
    pub max: u64,
}

impl HistSummary {
    /// Digest a full histogram down to the wire quantile set.
    pub fn from_histogram(h: &rts_obs::LogHistogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

/// Per-shard row of a [`Frame::StatsDetailReply`] (100 bytes on the
/// wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ShardRow {
    /// Shard index.
    pub shard: u32,
    /// Resident sessions.
    pub sessions: u64,
    /// Slots stepped since start.
    pub slots: u64,
    /// Slices delivered to playout since start.
    pub played: u64,
    /// Bytes sent over the shard link since start.
    pub sent_bytes: u64,
    /// Slots that finished past their deadline.
    pub deadline_misses: u64,
    /// Slots whose work alone exceeded the period.
    pub slot_overruns: u64,
    /// Rebalancer cost-over-mean gauge (milli-units; 1000 = mean).
    pub imbalance_milli: u64,
    /// `process_slot` latency digest (ns).
    pub latency: HistSummary,
}

/// Detailed telemetry returned by [`Frame::StatsDetailReply`]:
/// daemon-wide counters plus one [`ShardRow`] per shard.
///
/// `stages` digests the four self-profiling timers in
/// ingest-decode / admit / process / retire order (the
/// `rts_telemetry::STAGES` ordering); `rejects` counts ingest
/// rejections in [`RejectReason::ALL`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsDetail {
    /// Sessions fully retired and harvested.
    pub retired: u64,
    /// Sessions migrated between shards by the rebalancer.
    pub migrations: u64,
    /// Donor shard of the most recent migration, or `u32::MAX` if no
    /// migration has happened yet.
    pub last_migration_from: u32,
    /// Receiver shard of the most recent migration, or `u32::MAX`.
    pub last_migration_to: u32,
    /// Per-reason reject counts, [`RejectReason::ALL`] order.
    pub rejects: [u64; 6],
    /// Cumulative bytes written by snapshots since start.
    pub snapshot_bytes: u64,
    /// Cumulative wall time spent taking snapshots (ns).
    pub snapshot_duration_ns: u64,
    /// Sessions restored from a snapshot at startup.
    pub restored_sessions: u64,
    /// Deadline lateness digest (ns), merged across shards.
    pub lateness: HistSummary,
    /// Stage timer digests: ingest-decode, admit, process, retire.
    pub stages: [HistSummary; 4],
    /// Per-shard rows, shard 0 first. At most
    /// [`MAX_STATS_SHARDS`] rows fit one frame; the daemon truncates
    /// (it never has that many shards on real hardware).
    pub shards: Vec<ShardRow>,
}

/// Most shard rows one [`Frame::StatsDetailReply`] can carry without
/// exceeding [`MAX_FRAME`]: `1 + 298 + 100·n ≤ 4096 ⇒ n ≤ 37`.
pub const MAX_STATS_SHARDS: usize = 37;

/// Most payload bytes one [`Frame::SnapshotChunk`] can carry:
/// `MAX_FRAME` minus the kind byte and the `u16` chunk length.
pub const MAX_SNAPSHOT_CHUNK: usize = MAX_FRAME - 3;

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client opening handshake (magic + version).
    Hello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Admit a new session.
    Admit(AdmitRequest),
    /// Admit `count` identical sessions in one round trip (the batched
    /// admission fast path; answered by [`Frame::AdmittedBatch`] or
    /// [`Frame::Rejected`]).
    AdmitBatch {
        /// Number of sessions to admit (must be nonzero).
        count: u32,
        /// Parameters shared by every session in the batch.
        req: AdmitRequest,
    },
    /// Feed slices to an externally-sourced session.
    Data {
        /// Daemon-assigned session id.
        session: u64,
        /// `(size, weight)` per slice, in arrival order.
        slices: Vec<(Bytes, Weight)>,
    },
    /// Stop arrivals and let the pipeline empty gracefully.
    Drain {
        /// Session to drain.
        session: u64,
    },
    /// Remove a session immediately, discarding in-flight bytes.
    Evict {
        /// Session to evict.
        session: u64,
    },
    /// Request a [`Frame::StatsReply`].
    Stats,
    /// Request a [`Frame::StatsDetailReply`].
    StatsDetail,
    /// Ask the daemon to checkpoint every resident session. Answered
    /// by a run of [`Frame::SnapshotChunk`]s carrying the snapshot
    /// bytes, terminated by one [`Frame::SnapshotAck`].
    Snapshot,
    /// Client is closing the connection.
    Goodbye,
    /// Server handshake answer.
    Welcome {
        /// Protocol version the server speaks.
        version: u16,
    },
    /// Admission succeeded.
    Admitted {
        /// Assigned session id.
        session: u64,
        /// Shard the session landed on.
        shard: u32,
    },
    /// Batch admission succeeded: ids are `first_session ..
    /// first_session + count` (contiguous), spread across shards chunk
    /// by chunk, each chunk on the shard with the widest residual
    /// bookable rate.
    AdmittedBatch {
        /// First assigned session id.
        first_session: u64,
        /// Number of sessions admitted (may be less than requested
        /// when capacity ran out mid-batch).
        count: u32,
    },
    /// Admission (or another per-session request) was refused.
    Rejected {
        /// Session the rejection refers to (0 for admissions).
        session: u64,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// Aggregate counters.
    StatsReply(StatsSnapshot),
    /// Detailed live telemetry (per-shard rows + stage digests).
    StatsDetailReply(Box<StatsDetail>),
    /// One slab of snapshot bytes, at most [`MAX_SNAPSHOT_CHUNK`] per
    /// frame; the snapshot file is the concatenation of every chunk's
    /// `data` in arrival order.
    SnapshotChunk {
        /// Raw snapshot bytes carried by this chunk.
        data: Vec<u8>,
    },
    /// Terminates a snapshot chunk run.
    SnapshotAck {
        /// Sessions captured in the snapshot.
        sessions: u64,
        /// Total snapshot size in bytes (sum of all chunk payloads).
        bytes: u64,
    },
    /// Server is closing the connection.
    Bye,
}

/// Typed decoding failure. Only [`FrameError::Incomplete`] is
/// recoverable by reading more bytes; everything else is a protocol
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough buffered bytes yet; `need` is the total buffer length
    /// at which decoding can make progress.
    Incomplete {
        /// Total bytes the buffer must hold.
        need: usize,
    },
    /// Declared length of zero (a frame always has a kind byte).
    Empty,
    /// Declared length exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared body length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
        /// Kind byte of the offending frame.
        kind: u8,
    },
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Payload too short for the declared kind.
    Truncated {
        /// Kind whose payload was short.
        kind: u8,
    },
    /// Payload longer than the declared kind consumes.
    TrailingBytes {
        /// Kind with extra payload.
        kind: u8,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// Hello carried the wrong magic number.
    BadMagic(u32),
    /// Unknown drop-policy code in an admit request.
    BadPolicy(u8),
    /// Unknown reject-reason code.
    BadReject(u8),
    /// A data frame declared a slice of zero bytes.
    ZeroSlice,
}

impl FrameError {
    /// True when reading more bytes can resolve the error.
    pub fn is_incomplete(&self) -> bool {
        matches!(self, FrameError::Incomplete { .. })
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Incomplete { need } => write!(f, "incomplete frame: need {need} bytes"),
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::Oversized { len, max, kind } => {
                write!(f, "frame kind {kind:#04x} body of {len} bytes exceeds cap {max}")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Truncated { kind } => {
                write!(f, "payload truncated for frame kind {kind:#04x}")
            }
            FrameError::TrailingBytes { kind, extra } => {
                write!(f, "{extra} trailing payload bytes after frame kind {kind:#04x}")
            }
            FrameError::BadMagic(m) => write!(f, "bad hello magic {m:#010x}"),
            FrameError::BadPolicy(p) => write!(f, "unknown policy code {p}"),
            FrameError::BadReject(r) => write!(f, "unknown reject-reason code {r}"),
            FrameError::ZeroSlice => write!(f, "data frame declares a zero-byte slice"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Bounds-checked little-endian reader over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u8,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], kind: u8) -> Self {
        Reader { buf, pos: 0, kind }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::Truncated { kind: self.kind })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(self) -> Result<(), FrameError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes {
                kind: self.kind,
                extra,
            })
        }
    }
}

fn read_admit_request(r: &mut Reader<'_>) -> Result<AdmitRequest, FrameError> {
    let rate = r.u32()? as Bytes;
    let delay = r.u32()? as Time;
    let link_delay = r.u32()? as Time;
    let buffer = r.u32()? as Bytes;
    let weight = r.u32()? as Weight;
    let policy_code = r.u8()?;
    let policy = WirePolicy::from_code(policy_code).ok_or(FrameError::BadPolicy(policy_code))?;
    let per_slot = r.u32()?;
    let slice_size = r.u32()?;
    let lifetime = r.u64()?;
    Ok(AdmitRequest {
        rate,
        delay,
        link_delay,
        buffer,
        weight,
        policy,
        per_slot,
        slice_size,
        lifetime,
    })
}

fn write_admit_request(body: &mut Vec<u8>, req: &AdmitRequest) {
    body.extend_from_slice(&u32::try_from(req.rate).expect("rate fits u32").to_le_bytes());
    body.extend_from_slice(&u32::try_from(req.delay).expect("delay fits u32").to_le_bytes());
    body.extend_from_slice(
        &u32::try_from(req.link_delay)
            .expect("link delay fits u32")
            .to_le_bytes(),
    );
    body.extend_from_slice(&u32::try_from(req.buffer).expect("buffer fits u32").to_le_bytes());
    body.extend_from_slice(&u32::try_from(req.weight).expect("weight fits u32").to_le_bytes());
    body.push(req.policy.code());
    body.extend_from_slice(&req.per_slot.to_le_bytes());
    body.extend_from_slice(&req.slice_size.to_le_bytes());
    body.extend_from_slice(&req.lifetime.to_le_bytes());
}

fn read_hist_summary(r: &mut Reader<'_>) -> Result<HistSummary, FrameError> {
    Ok(HistSummary {
        count: r.u64()?,
        p50: r.u64()?,
        p90: r.u64()?,
        p99: r.u64()?,
        max: r.u64()?,
    })
}

fn write_hist_summary(body: &mut Vec<u8>, h: &HistSummary) {
    body.extend_from_slice(&h.count.to_le_bytes());
    body.extend_from_slice(&h.p50.to_le_bytes());
    body.extend_from_slice(&h.p90.to_le_bytes());
    body.extend_from_slice(&h.p99.to_le_bytes());
    body.extend_from_slice(&h.max.to_le_bytes());
}

fn reject_code(reason: RejectReason) -> u8 {
    RejectReason::ALL
        .iter()
        .position(|r| *r == reason)
        .expect("RejectReason::ALL is exhaustive") as u8
}

fn reject_from_code(code: u8) -> Result<RejectReason, FrameError> {
    RejectReason::ALL
        .get(code as usize)
        .copied()
        .ok_or(FrameError::BadReject(code))
}

/// Decodes the first frame in `buf`, returning it together with the
/// number of bytes consumed. Never panics; see [`FrameError`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Incomplete { need: 4 });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME {
        // Name the offending kind in the error; its byte always
        // directly follows the length prefix, so wait for it if the
        // read stopped exactly on the boundary.
        if buf.len() < 5 {
            return Err(FrameError::Incomplete { need: 5 });
        }
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
            kind: buf[4],
        });
    }
    let total = 4 + len;
    if buf.len() < total {
        return Err(FrameError::Incomplete { need: total });
    }
    let kind = buf[4];
    let mut r = Reader::new(&buf[5..total], kind);
    let frame = match kind {
        K_HELLO => {
            let magic = r.u32()?;
            let version = r.u16()?;
            if magic != MAGIC {
                return Err(FrameError::BadMagic(magic));
            }
            Frame::Hello { version }
        }
        K_ADMIT => Frame::Admit(read_admit_request(&mut r)?),
        K_ADMIT_BATCH => {
            let count = r.u32()?;
            let req = read_admit_request(&mut r)?;
            Frame::AdmitBatch { count, req }
        }
        K_DATA => {
            let session = r.u64()?;
            let count = r.u16()? as usize;
            let mut slices = Vec::with_capacity(count);
            for _ in 0..count {
                let size = r.u32()? as Bytes;
                let weight = r.u32()? as Weight;
                if size == 0 {
                    return Err(FrameError::ZeroSlice);
                }
                slices.push((size, weight));
            }
            Frame::Data { session, slices }
        }
        K_DRAIN => Frame::Drain { session: r.u64()? },
        K_EVICT => Frame::Evict { session: r.u64()? },
        K_STATS => Frame::Stats,
        K_STATS_DETAIL => Frame::StatsDetail,
        K_SNAPSHOT => Frame::Snapshot,
        K_GOODBYE => Frame::Goodbye,
        K_WELCOME => Frame::Welcome { version: r.u16()? },
        K_ADMITTED => Frame::Admitted {
            session: r.u64()?,
            shard: r.u32()?,
        },
        K_ADMITTED_BATCH => Frame::AdmittedBatch {
            first_session: r.u64()?,
            count: r.u32()?,
        },
        K_REJECTED => {
            let session = r.u64()?;
            let code = r.u8()?;
            Frame::Rejected {
                session,
                reason: reject_from_code(code)?,
            }
        }
        K_STATS_REPLY => Frame::StatsReply(StatsSnapshot {
            sessions: r.u64()?,
            slices_played: r.u64()?,
            slots: r.u64()?,
            retired: r.u64()?,
        }),
        K_STATS_DETAIL_REPLY => {
            let retired = r.u64()?;
            let migrations = r.u64()?;
            let last_migration_from = r.u32()?;
            let last_migration_to = r.u32()?;
            let mut rejects = [0u64; 6];
            for slot in &mut rejects {
                *slot = r.u64()?;
            }
            let snapshot_bytes = r.u64()?;
            let snapshot_duration_ns = r.u64()?;
            let restored_sessions = r.u64()?;
            let lateness = read_hist_summary(&mut r)?;
            let mut stages = [HistSummary::default(); 4];
            for stage in &mut stages {
                *stage = read_hist_summary(&mut r)?;
            }
            let count = r.u16()? as usize;
            let mut shards = Vec::with_capacity(count.min(MAX_STATS_SHARDS));
            for _ in 0..count {
                shards.push(ShardRow {
                    shard: r.u32()?,
                    sessions: r.u64()?,
                    slots: r.u64()?,
                    played: r.u64()?,
                    sent_bytes: r.u64()?,
                    deadline_misses: r.u64()?,
                    slot_overruns: r.u64()?,
                    imbalance_milli: r.u64()?,
                    latency: read_hist_summary(&mut r)?,
                });
            }
            Frame::StatsDetailReply(Box::new(StatsDetail {
                retired,
                migrations,
                last_migration_from,
                last_migration_to,
                rejects,
                snapshot_bytes,
                snapshot_duration_ns,
                restored_sessions,
                lateness,
                stages,
                shards,
            }))
        }
        K_SNAPSHOT_CHUNK => {
            let count = r.u16()? as usize;
            Frame::SnapshotChunk {
                data: r.take(count)?.to_vec(),
            }
        }
        K_SNAPSHOT_ACK => Frame::SnapshotAck {
            sessions: r.u64()?,
            bytes: r.u64()?,
        },
        K_BYE => Frame::Bye,
        other => return Err(FrameError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((frame, total))
}

/// Encodes a frame into its wire bytes.
///
/// # Panics
///
/// Panics if a [`Frame::Data`] carries more than `u16::MAX` slices or a
/// field exceeds its wire width; callers build frames from validated
/// inputs.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    match frame {
        Frame::Hello { version } => {
            body.push(K_HELLO);
            body.extend_from_slice(&MAGIC.to_le_bytes());
            body.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Admit(req) => {
            body.push(K_ADMIT);
            write_admit_request(&mut body, req);
        }
        Frame::AdmitBatch { count, req } => {
            body.push(K_ADMIT_BATCH);
            body.extend_from_slice(&count.to_le_bytes());
            write_admit_request(&mut body, req);
        }
        Frame::Data { session, slices } => {
            body.push(K_DATA);
            body.extend_from_slice(&session.to_le_bytes());
            let count = u16::try_from(slices.len()).expect("data frame holds at most 2^16 slices");
            body.extend_from_slice(&count.to_le_bytes());
            for (size, weight) in slices {
                assert!(*size > 0, "slices have at least one byte");
                body.extend_from_slice(
                    &u32::try_from(*size).expect("slice size fits u32").to_le_bytes(),
                );
                body.extend_from_slice(
                    &u32::try_from(*weight).expect("weight fits u32").to_le_bytes(),
                );
            }
        }
        Frame::Drain { session } => {
            body.push(K_DRAIN);
            body.extend_from_slice(&session.to_le_bytes());
        }
        Frame::Evict { session } => {
            body.push(K_EVICT);
            body.extend_from_slice(&session.to_le_bytes());
        }
        Frame::Stats => body.push(K_STATS),
        Frame::StatsDetail => body.push(K_STATS_DETAIL),
        Frame::Snapshot => body.push(K_SNAPSHOT),
        Frame::Goodbye => body.push(K_GOODBYE),
        Frame::Welcome { version } => {
            body.push(K_WELCOME);
            body.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Admitted { session, shard } => {
            body.push(K_ADMITTED);
            body.extend_from_slice(&session.to_le_bytes());
            body.extend_from_slice(&shard.to_le_bytes());
        }
        Frame::AdmittedBatch {
            first_session,
            count,
        } => {
            body.push(K_ADMITTED_BATCH);
            body.extend_from_slice(&first_session.to_le_bytes());
            body.extend_from_slice(&count.to_le_bytes());
        }
        Frame::Rejected { session, reason } => {
            body.push(K_REJECTED);
            body.extend_from_slice(&session.to_le_bytes());
            body.push(reject_code(*reason));
        }
        Frame::StatsReply(s) => {
            body.push(K_STATS_REPLY);
            body.extend_from_slice(&s.sessions.to_le_bytes());
            body.extend_from_slice(&s.slices_played.to_le_bytes());
            body.extend_from_slice(&s.slots.to_le_bytes());
            body.extend_from_slice(&s.retired.to_le_bytes());
        }
        Frame::StatsDetailReply(d) => {
            body.push(K_STATS_DETAIL_REPLY);
            body.extend_from_slice(&d.retired.to_le_bytes());
            body.extend_from_slice(&d.migrations.to_le_bytes());
            body.extend_from_slice(&d.last_migration_from.to_le_bytes());
            body.extend_from_slice(&d.last_migration_to.to_le_bytes());
            for n in &d.rejects {
                body.extend_from_slice(&n.to_le_bytes());
            }
            body.extend_from_slice(&d.snapshot_bytes.to_le_bytes());
            body.extend_from_slice(&d.snapshot_duration_ns.to_le_bytes());
            body.extend_from_slice(&d.restored_sessions.to_le_bytes());
            write_hist_summary(&mut body, &d.lateness);
            for stage in &d.stages {
                write_hist_summary(&mut body, stage);
            }
            let count =
                u16::try_from(d.shards.len()).expect("stats reply holds at most 2^16 rows");
            assert!(
                d.shards.len() <= MAX_STATS_SHARDS,
                "stats reply holds at most MAX_STATS_SHARDS rows"
            );
            body.extend_from_slice(&count.to_le_bytes());
            for row in &d.shards {
                body.extend_from_slice(&row.shard.to_le_bytes());
                body.extend_from_slice(&row.sessions.to_le_bytes());
                body.extend_from_slice(&row.slots.to_le_bytes());
                body.extend_from_slice(&row.played.to_le_bytes());
                body.extend_from_slice(&row.sent_bytes.to_le_bytes());
                body.extend_from_slice(&row.deadline_misses.to_le_bytes());
                body.extend_from_slice(&row.slot_overruns.to_le_bytes());
                body.extend_from_slice(&row.imbalance_milli.to_le_bytes());
                write_hist_summary(&mut body, &row.latency);
            }
        }
        Frame::SnapshotChunk { data } => {
            body.push(K_SNAPSHOT_CHUNK);
            assert!(
                data.len() <= MAX_SNAPSHOT_CHUNK,
                "snapshot chunk exceeds MAX_SNAPSHOT_CHUNK"
            );
            let count = u16::try_from(data.len()).expect("chunk length fits u16");
            body.extend_from_slice(&count.to_le_bytes());
            body.extend_from_slice(data);
        }
        Frame::SnapshotAck { sessions, bytes } => {
            body.push(K_SNAPSHOT_ACK);
            body.extend_from_slice(&sessions.to_le_bytes());
            body.extend_from_slice(&bytes.to_le_bytes());
        }
        Frame::Bye => body.push(K_BYE),
    }
    assert!(body.len() <= MAX_FRAME, "encoded frame exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Incremental frame reassembly over a byte stream.
///
/// Feed socket reads with [`extend`](FrameReader::extend) and pull
/// complete frames with [`next_frame`](FrameReader::next_frame);
/// `Ok(None)` means "wait for more bytes". Consumed bytes are
/// compacted away so the buffer stays bounded by one maximal frame
/// plus one read.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// New empty reader.
    pub fn new() -> Self {
        FrameReader { buf: Vec::new() }
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Buffered, not-yet-consumed byte count.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, if any.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match decode_frame(&self.buf) {
            Ok((frame, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(frame))
            }
            Err(e) if e.is_incomplete() => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Admit(AdmitRequest {
                rate: 4,
                delay: 8,
                link_delay: 2,
                buffer: 0,
                weight: 3,
                policy: WirePolicy::Greedy,
                per_slot: 4,
                slice_size: 2,
                lifetime: 100,
            }),
            Frame::AdmitBatch {
                count: 5000,
                req: AdmitRequest {
                    rate: 4,
                    delay: 8,
                    link_delay: 0,
                    buffer: 0,
                    weight: 1,
                    policy: WirePolicy::Tail,
                    per_slot: 4,
                    slice_size: 4,
                    lifetime: 0,
                },
            },
            Frame::Data {
                session: u64::MAX,
                slices: vec![(3, 1), (1, 7)],
            },
            Frame::Drain { session: 9 },
            Frame::Evict { session: 10 },
            Frame::Stats,
            Frame::Goodbye,
            Frame::Welcome {
                version: PROTOCOL_VERSION,
            },
            Frame::Admitted {
                session: 42,
                shard: 3,
            },
            Frame::AdmittedBatch {
                first_session: 42,
                count: 4999,
            },
            Frame::Rejected {
                session: 0,
                reason: RejectReason::Backpressure,
            },
            Frame::StatsReply(StatsSnapshot {
                sessions: 1,
                slices_played: 2,
                slots: 3,
                retired: 4,
            }),
            Frame::StatsDetail,
            Frame::StatsDetailReply(Box::new(sample_stats_detail())),
            Frame::Snapshot,
            Frame::SnapshotChunk {
                data: vec![0xab; MAX_SNAPSHOT_CHUNK],
            },
            Frame::SnapshotChunk { data: Vec::new() },
            Frame::SnapshotAck {
                sessions: 128,
                bytes: 1 << 20,
            },
            Frame::Bye,
        ]
    }

    fn sample_stats_detail() -> StatsDetail {
        let digest = |base: u64| HistSummary {
            count: base,
            p50: base * 10,
            p90: base * 20,
            p99: base * 30,
            max: base * 40,
        };
        StatsDetail {
            retired: 11,
            migrations: 12,
            last_migration_from: 0,
            last_migration_to: 1,
            rejects: [0, 1, 2, 3, 4, 5],
            snapshot_bytes: 1 << 22,
            snapshot_duration_ns: 42_000,
            restored_sessions: 77,
            lateness: digest(2),
            stages: [digest(3), digest(4), digest(5), digest(6)],
            shards: vec![
                ShardRow {
                    shard: 0,
                    sessions: 100,
                    slots: 5000,
                    played: 40000,
                    sent_bytes: 1 << 30,
                    deadline_misses: 7,
                    slot_overruns: 2,
                    imbalance_milli: 1710,
                    latency: digest(7),
                },
                ShardRow {
                    shard: 1,
                    ..ShardRow::default()
                },
            ],
        }
    }

    #[test]
    fn roundtrip_every_frame_kind() {
        for frame in sample_frames() {
            let wire = encode_frame(&frame);
            let (back, consumed) = decode_frame(&wire).expect("decodes");
            assert_eq!(back, frame);
            assert_eq!(consumed, wire.len());
        }
    }

    #[test]
    fn every_reject_reason_roundtrips() {
        for reason in RejectReason::ALL {
            let frame = Frame::Rejected { session: 7, reason };
            let (back, _) = decode_frame(&encode_frame(&frame)).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn incomplete_reports_the_needed_length() {
        let wire = encode_frame(&Frame::Drain { session: 1 });
        assert_eq!(
            decode_frame(&wire[..2]),
            Err(FrameError::Incomplete { need: 4 })
        );
        assert_eq!(
            decode_frame(&wire[..6]),
            Err(FrameError::Incomplete { need: wire.len() })
        );
    }

    #[test]
    fn typed_rejections() {
        assert_eq!(decode_frame(&0u32.to_le_bytes()), Err(FrameError::Empty));
        let mut big = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        // The length alone is not enough to report Oversized: the
        // error names the kind byte, so the decoder waits for it.
        assert_eq!(decode_frame(&big), Err(FrameError::Incomplete { need: 5 }));
        big.push(K_STATS);
        assert_eq!(
            decode_frame(&big),
            Err(FrameError::Oversized {
                len: MAX_FRAME + 1,
                max: MAX_FRAME,
                kind: K_STATS
            })
        );
        let unknown = [1, 0, 0, 0, 0x7f];
        assert_eq!(decode_frame(&unknown), Err(FrameError::UnknownKind(0x7f)));
        // Drain payload cut short *inside* the declared length.
        let short = [3, 0, 0, 0, K_DRAIN, 1, 2];
        assert_eq!(
            decode_frame(&short),
            Err(FrameError::Truncated { kind: K_DRAIN })
        );
        // Stats with payload it does not consume.
        let trailing = [2, 0, 0, 0, K_STATS, 9];
        assert_eq!(
            decode_frame(&trailing),
            Err(FrameError::TrailingBytes {
                kind: K_STATS,
                extra: 1
            })
        );
        // Hello with the wrong magic.
        let mut hello = encode_frame(&Frame::Hello { version: 1 });
        hello[5] ^= 0xff;
        assert!(matches!(decode_frame(&hello), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn stats_detail_reply_sizes_and_cap() {
        // Empty-shard reply: 1 kind + 8 retired + 8 migrations + 2·4
        // last-migration shards + 48 rejects + 3·8 snapshot counters +
        // 5·40 digests + 2 row count = 299 body bytes.
        let empty = Frame::StatsDetailReply(Box::default());
        assert_eq!(encode_frame(&empty).len() - 4, 299);
        // Each row adds 100 bytes; MAX_STATS_SHARDS rows still fit.
        let mut full = sample_stats_detail();
        full.shards = (0..MAX_STATS_SHARDS as u32)
            .map(|shard| ShardRow {
                shard,
                ..ShardRow::default()
            })
            .collect();
        let wire = encode_frame(&Frame::StatsDetailReply(Box::new(full.clone())));
        assert!(wire.len() - 4 <= MAX_FRAME, "{}", wire.len());
        assert_eq!(wire.len() - 4, 299 + 100 * MAX_STATS_SHARDS);
        let (back, _) = decode_frame(&wire).unwrap();
        assert_eq!(back, Frame::StatsDetailReply(Box::new(full)));
    }

    #[test]
    fn stats_detail_reply_truncated_rows_are_typed() {
        let wire = encode_frame(&Frame::StatsDetailReply(Box::new(sample_stats_detail())));
        // Cut inside the second shard row (keep the length header
        // honest so the failure is Truncated, not Incomplete).
        let keep = wire.len() - 40;
        let mut cut = wire[..keep].to_vec();
        let body_len = (keep - 4) as u32;
        cut[..4].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            decode_frame(&cut),
            Err(FrameError::Truncated {
                kind: K_STATS_DETAIL_REPLY
            })
        );
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut wire = Vec::new();
        let frames = sample_frames();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            reader.extend(chunk);
            while let Some(f) = reader.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.buffered(), 0);
    }
}
