//! A live daemon session: server, link, and an allocation-free playout
//! client, plus exact byte-conservation accounting.
//!
//! The daemon steps up to a million sessions per shard loop, so the
//! per-slot path through a session must not allocate. The core crate's
//! [`rts_core::Client`] is allocation-free in steady state too, but it
//! keeps every pending slice in a queue because the simulator records
//! each slice's fate. The daemon keeps no per-slice record, so
//! [`PlayoutRing`] aggregates instead: a fixed ring of `D + 1` deadline
//! buckets holding byte, weight and slice counts. The sojourn bound of
//! Lemma 3.3 makes the ring sufficient: a slice arriving at the server
//! at `a` is delivered no earlier than `a + P` and plays at exactly
//! `a + P + D`, so at any client slot `t` every resolvable deadline
//! lies in `[t, t + D]` — one bucket per residue mod `D + 1` can never
//! collide.
//!
//! Because the server transmits FIFO within a session, at most one
//! slice is partially delivered at a time; a single `Option` holds it.

use std::collections::VecDeque;

use rts_core::tradeoff::SmoothingParams;
use rts_core::{DropPolicy, SentChunk, Server, ServerStep};
use rts_obs::RetireReason;
use rts_sim::{Link, LinkModel};
use rts_stream::{Bytes, FrameKind, Slice, SliceId, Time, Weight};

use crate::frame::WirePolicy;
use crate::snapshot::{SnapReader, SnapshotError};

/// Daemon-wide session identifier (distinct from the per-run `u32`
/// tags used by the batch mux).
pub type SessionId = u64;

/// Exact per-session byte/slice ledger.
///
/// The conservation identity every session maintains (and the churn
/// checks verify) is
///
/// ```text
/// offered = played + server_dropped + client_dropped + evicted + in_flight
/// ```
///
/// where `in_flight` is the live pool (server buffer + link + client
/// ring) and is zero once the session retires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Slices admitted to the server.
    pub offered_slices: u64,
    /// Bytes admitted to the server.
    pub offered_bytes: Bytes,
    /// Slices played at their deadline.
    pub played_slices: u64,
    /// Bytes played at their deadline.
    pub played_bytes: Bytes,
    /// Weight of played slices.
    pub played_weight: Weight,
    /// Slices dropped by the server policy or overflow.
    pub server_dropped_slices: u64,
    /// Bytes dropped at the server.
    pub server_dropped_bytes: Bytes,
    /// Slices dropped at the client (late or overflow).
    pub client_dropped_slices: u64,
    /// Bytes dropped at the client.
    pub client_dropped_bytes: Bytes,
    /// Slices discarded by eviction.
    pub evicted_slices: u64,
    /// Bytes discarded by eviction (server + link + client pools).
    pub evicted_bytes: Bytes,
    /// Bytes the server put on the link.
    pub sent_bytes: Bytes,
}

impl SessionCounters {
    /// Folds another ledger into this one.
    pub fn add(&mut self, other: &SessionCounters) {
        self.offered_slices += other.offered_slices;
        self.offered_bytes += other.offered_bytes;
        self.played_slices += other.played_slices;
        self.played_bytes += other.played_bytes;
        self.played_weight += other.played_weight;
        self.server_dropped_slices += other.server_dropped_slices;
        self.server_dropped_bytes += other.server_dropped_bytes;
        self.client_dropped_slices += other.client_dropped_slices;
        self.client_dropped_bytes += other.client_dropped_bytes;
        self.evicted_slices += other.evicted_slices;
        self.evicted_bytes += other.evicted_bytes;
        self.sent_bytes += other.sent_bytes;
    }

    /// Bytes whose fate is decided (played, dropped, or evicted).
    pub fn resolved_bytes(&self) -> Bytes {
        self.played_bytes + self.server_dropped_bytes + self.client_dropped_bytes
            + self.evicted_bytes
    }

    /// Slices whose fate is decided.
    pub fn resolved_slices(&self) -> u64 {
        self.played_slices
            + self.server_dropped_slices
            + self.client_dropped_slices
            + self.evicted_slices
    }

    /// True when every offered byte and slice has a decided fate —
    /// holds exactly for retired sessions.
    pub fn conserved(&self) -> bool {
        self.offered_bytes == self.resolved_bytes() && self.offered_slices == self.resolved_slices()
    }
}

/// One scheduled arrival for a queue-fed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedSlice {
    /// Session-local slot at which the slice arrives.
    pub at: Time,
    /// Slice size in bytes (>= 1).
    pub size: Bytes,
    /// Slice weight.
    pub weight: Weight,
}

/// Where a session's slices come from.
#[derive(Debug, Clone)]
pub enum ArrivalSource {
    /// Constant-bitrate source generated inside the daemon.
    Cbr {
        /// Bytes offered per slot.
        per_slot: Bytes,
        /// Size of each generated slice.
        slice_size: Bytes,
        /// Weight of each generated slice.
        weight: Weight,
        /// Slots to emit for; `None` = until drained.
        lifetime: Option<u64>,
        /// Slots already emitted (internal).
        emitted: u64,
    },
    /// Externally fed (ingest `Data` frames or trace replay).
    Queue {
        /// Scheduled arrivals, sorted by `at`.
        pending: VecDeque<QueuedSlice>,
        /// No further pushes will come; session completes when empty.
        closed: bool,
    },
}

impl ArrivalSource {
    /// CBR source emitting `per_slot` bytes per slot in `slice_size`
    /// pieces.
    pub fn cbr(per_slot: Bytes, slice_size: Bytes, weight: Weight, lifetime: Option<u64>) -> Self {
        ArrivalSource::Cbr {
            per_slot,
            slice_size: slice_size.max(1),
            weight,
            lifetime,
            emitted: 0,
        }
    }

    /// Externally fed source, open for pushes.
    pub fn external() -> Self {
        ArrivalSource::Queue {
            pending: VecDeque::new(),
            closed: false,
        }
    }

    /// Pre-scheduled source (trace replay); closed once built.
    pub fn scheduled(mut slices: Vec<QueuedSlice>) -> Self {
        slices.sort_by_key(|s| s.at);
        ArrivalSource::Queue {
            pending: slices.into(),
            closed: true,
        }
    }

    fn done(&self) -> bool {
        match self {
            ArrivalSource::Cbr { lifetime, emitted, .. } => {
                lifetime.map(|l| *emitted >= l).unwrap_or(false)
            }
            ArrivalSource::Queue { pending, closed } => *closed && pending.is_empty(),
        }
    }

    /// Closes the source at session slot `now`: a CBR source emits no
    /// further slot, and a queue cancels the arrivals scheduled after
    /// `now` but keeps those already due, so slices fed before the
    /// drain still reach the server at the next slot.
    fn stop(&mut self, now: Time) {
        match self {
            ArrivalSource::Cbr { lifetime, emitted, .. } => *lifetime = Some(*emitted),
            ArrivalSource::Queue { pending, closed } => {
                let due = pending.partition_point(|q| q.at <= now);
                pending.truncate(due);
                *closed = true;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RingBucket {
    bytes: Bytes,
    weight: Weight,
    slices: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenSlice {
    arrival: Time,
    size: Bytes,
    received: Bytes,
}

/// Allocation-free playout client: a ring of `D + 1` deadline buckets.
///
/// See the module docs for why `D + 1` buckets suffice. Partial
/// deliveries accumulate in a single open-slice slot (FIFO transmission
/// guarantees at most one). `head` is the bucket of the current client
/// slot `t`, i.e. `t mod (D + 1)`; each slot's playout advances it, so
/// the per-slice bucket lookups are an add and a compare. It is not
/// part of the snapshot encoding: a restore re-derives it from the
/// session's local clock.
#[derive(Debug)]
pub struct PlayoutRing {
    capacity: Bytes,
    deadline_offset: Time,
    ring: Vec<RingBucket>,
    head: usize,
    occupancy: Bytes,
    open: Option<OpenSlice>,
}

impl PlayoutRing {
    /// Client with buffer `capacity`, playing each slice at
    /// `arrival + link_delay + delay`.
    pub fn new(capacity: Bytes, delay: Time, link_delay: Time) -> Self {
        PlayoutRing {
            capacity: capacity.max(1),
            deadline_offset: delay + link_delay,
            ring: vec![RingBucket::default(); delay as usize + 1],
            head: 0,
            occupancy: 0,
            open: None,
        }
    }

    /// Bytes buffered awaiting playout (fully received slices only).
    pub fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    /// All client-held bytes: buffered slices plus the partially
    /// received one. This is the client term of the conservation pool.
    pub fn pool_bytes(&self) -> Bytes {
        self.occupancy + self.open.map(|o| o.received).unwrap_or(0)
    }

    /// True when no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.occupancy == 0 && self.open.is_none()
    }

    /// Ingests one delivered chunk at client slot `t`.
    fn accept(&mut self, t: Time, chunk: &SentChunk, counters: &mut SessionCounters) {
        if chunk.completed {
            // Whole slice now in hand; any partial bytes consolidate.
            debug_assert!(self
                .open
                .map(|o| o.arrival == chunk.slice.arrival)
                .unwrap_or(true));
            self.open = None;
            self.resolve(t, &chunk.slice, counters);
        } else {
            let open = self.open.get_or_insert(OpenSlice {
                arrival: chunk.slice.arrival,
                size: chunk.slice.size,
                received: 0,
            });
            open.received += chunk.bytes;
            debug_assert!(open.received < open.size);
        }
    }

    /// Decides the fate of a fully received slice.
    fn resolve(&mut self, t: Time, slice: &Slice, counters: &mut SessionCounters) {
        debug_assert_eq!(self.head as Time, t % self.ring.len() as Time);
        let deadline = slice.arrival + self.deadline_offset;
        if deadline < t {
            // Held too long at the server; missed its playout slot.
            counters.client_dropped_slices += 1;
            counters.client_dropped_bytes += slice.size;
            return;
        }
        // Overflow is judged like the core client's: only bytes stored
        // *past* this slot count, so the bucket playing at `t` (and a
        // slice with deadline exactly `t`) never displace anything.
        let due = self.ring[self.head].bytes;
        if deadline > t && self.occupancy - due + slice.size > self.capacity {
            counters.client_dropped_slices += 1;
            counters.client_dropped_bytes += slice.size;
            return;
        }
        debug_assert!(deadline - t <= (self.ring.len() - 1) as Time);
        // head + (deadline - t) < 2·(D + 1): one conditional wrap.
        let mut idx = self.head + (deadline - t) as usize;
        if idx >= self.ring.len() {
            idx -= self.ring.len();
        }
        let bucket = &mut self.ring[idx];
        bucket.bytes += slice.size;
        bucket.weight += slice.weight;
        bucket.slices += 1;
        self.occupancy += slice.size;
    }

    /// Plays the bucket whose deadline is `t` and advances the head to
    /// `t + 1`. Returns slices played.
    fn play(&mut self, t: Time, counters: &mut SessionCounters) -> u64 {
        debug_assert_eq!(self.head as Time, t % self.ring.len() as Time);
        let bucket = std::mem::take(&mut self.ring[self.head]);
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        self.occupancy -= bucket.bytes;
        counters.played_slices += bucket.slices;
        counters.played_bytes += bucket.bytes;
        counters.played_weight += bucket.weight;
        bucket.slices
    }
}

/// What one session did in one slot (fed back to shard aggregates).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotDelta {
    /// Bytes put on the link this slot.
    pub sent: Bytes,
    /// Slices played this slot.
    pub played_slices: u64,
}

/// A session resident in a shard: server, constant-delay link, playout
/// ring, and arrival source, stepped on the session-local clock.
pub struct LiveSession {
    id: SessionId,
    params: SmoothingParams,
    weight: Weight,
    server: Server<Box<dyn DropPolicy + Send>>,
    link: Link,
    ring: PlayoutRing,
    source: ArrivalSource,
    draining: bool,
    local_t: Time,
    next_slice: u64,
    counters: SessionCounters,
}

impl std::fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSession")
            .field("id", &self.id)
            .field("params", &self.params)
            .field("local_t", &self.local_t)
            .field("draining", &self.draining)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl LiveSession {
    /// Builds a session. `params.rate` must be positive (enforced by
    /// admission before construction).
    pub fn new(
        id: SessionId,
        params: SmoothingParams,
        weight: Weight,
        policy: Box<dyn DropPolicy + Send>,
        source: ArrivalSource,
    ) -> Self {
        LiveSession {
            id,
            params,
            weight,
            server: Server::new(params.buffer, params.rate.max(1), policy),
            link: Link::new(params.link_delay),
            ring: PlayoutRing::new(params.buffer, params.delay, params.link_delay),
            source,
            draining: false,
            local_t: 0,
            next_slice: 0,
            counters: SessionCounters::default(),
        }
    }

    /// Daemon-wide id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Smoothing configuration.
    pub fn params(&self) -> &SmoothingParams {
        &self.params
    }

    /// Scheduling weight.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// Session-local slot counter.
    pub fn local_time(&self) -> Time {
        self.local_t
    }

    /// Current ledger.
    pub fn counters(&self) -> &SessionCounters {
        &self.counters
    }

    /// Bytes currently in flight: server buffer + link + client pool.
    pub fn in_flight_bytes(&self) -> Bytes {
        self.server.buffer().occupancy() + self.link.in_flight_bytes() + self.ring.pool_bytes()
    }

    /// Appends external arrivals (ingest `Data`). Returns `false` for
    /// CBR or closed sources, which cannot be fed.
    pub fn push_slices(&mut self, slices: &[(Bytes, Weight)]) -> bool {
        let at = self.local_t;
        match &mut self.source {
            ArrivalSource::Queue { pending, closed } if !*closed => {
                pending.extend(
                    slices
                        .iter()
                        .map(|&(size, weight)| QueuedSlice { at, size, weight }),
                );
                true
            }
            _ => false,
        }
    }

    /// Generates and admits this slot's arrivals. `scratch` is reused
    /// shard-owned storage.
    pub fn begin_slot(&mut self, scratch: &mut Vec<Slice>) {
        scratch.clear();
        let t = self.local_t;
        let next = &mut self.next_slice;
        let mut emit = |size: Bytes, weight: Weight| {
            scratch.push(Slice {
                id: SliceId(*next),
                frame: *next,
                arrival: t,
                size,
                weight,
                kind: FrameKind::Generic,
            });
            *next += 1;
        };
        match &mut self.source {
            ArrivalSource::Cbr {
                per_slot,
                slice_size,
                weight,
                lifetime,
                emitted,
            } => {
                if lifetime.map(|l| *emitted < l).unwrap_or(true) {
                    let mut left = *per_slot;
                    while left > 0 {
                        let size = (*slice_size).min(left);
                        emit(size, *weight);
                        left -= size;
                    }
                    *emitted += 1;
                }
            }
            ArrivalSource::Queue { pending, .. } => {
                while pending.front().map(|s| s.at <= t).unwrap_or(false) {
                    let s = pending.pop_front().expect("front checked");
                    emit(s.size, s.weight);
                }
            }
        }
        for s in scratch.iter() {
            self.counters.offered_slices += 1;
            self.counters.offered_bytes += s.size;
        }
        self.server.admit_arrivals(scratch);
    }

    /// How many bytes this session wants on the link this slot: its
    /// buffered backlog, capped at its reserved rate `R` so a granted
    /// slot never delivers more than the client ring absorbs.
    pub fn demand(&self) -> Bytes {
        self.server.buffer().occupancy().min(self.params.rate)
    }

    /// Runs transmit → deliver → play for one slot with the granted
    /// budget. `sstep` and `delivered` are shard-owned scratch; nothing
    /// allocates in the steady state.
    pub fn step(
        &mut self,
        grant: Bytes,
        sstep: &mut ServerStep,
        delivered: &mut Vec<SentChunk>,
    ) -> SlotDelta {
        let t = self.local_t;
        self.server.step_admitted_into(t, grant, sstep);
        let sent = sstep.sent_bytes();
        self.counters.sent_bytes += sent;
        self.counters.server_dropped_slices += sstep.dropped.len() as u64;
        self.counters.server_dropped_bytes += sstep.dropped_bytes();
        self.link.submit(&sstep.sent);
        delivered.clear();
        self.link.deliver_into(t, delivered);
        for chunk in delivered.iter() {
            self.ring.accept(t, chunk, &mut self.counters);
        }
        let played_slices = self.ring.play(t, &mut self.counters);
        self.local_t += 1;
        SlotDelta {
            sent,
            played_slices,
        }
    }

    /// Stops arrivals; the session retires as `Drained` once the
    /// pipeline empties. Slices already fed (due at or before the
    /// current local slot) are still offered; only arrivals scheduled
    /// for later slots are cancelled.
    pub fn drain(&mut self) {
        self.draining = true;
        self.source.stop(self.local_t);
    }

    /// True once a drain has been requested. Migration skips draining
    /// sessions when it can: they are about to retire where they are.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Why this session can retire now, if it can.
    pub fn retire_cause(&self) -> Option<RetireReason> {
        if self.source.done()
            && self.server.is_drained()
            && self.link.is_empty()
            && self.ring.is_empty()
        {
            Some(if self.draining {
                RetireReason::Drained
            } else {
                RetireReason::Completed
            })
        } else {
            None
        }
    }

    /// Consumes the session, charging every in-flight byte to the
    /// eviction ledger; the returned counters satisfy
    /// [`SessionCounters::conserved`].
    pub fn evict(mut self) -> SessionCounters {
        self.counters.evicted_bytes += self.in_flight_bytes();
        self.counters.evicted_slices +=
            self.counters.offered_slices - self.counters.resolved_slices();
        self.counters
    }

    /// Reserved link rate (for admission release).
    pub fn rate(&self) -> Bytes {
        self.params.rate
    }
}

fn frame_kind_code(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::I => 0,
        FrameKind::P => 1,
        FrameKind::B => 2,
        FrameKind::Generic => 3,
    }
}

fn frame_kind_from(code: u8) -> Result<FrameKind, SnapshotError> {
    Ok(match code {
        0 => FrameKind::I,
        1 => FrameKind::P,
        2 => FrameKind::B,
        3 => FrameKind::Generic,
        _ => return Err(SnapshotError::Malformed("frame-kind code")),
    })
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_slice(out: &mut Vec<u8>, s: &Slice) {
    put_u64(out, s.id.0);
    put_u64(out, s.frame);
    put_u64(out, s.arrival);
    put_u64(out, s.size);
    put_u64(out, s.weight);
    out.push(frame_kind_code(s.kind));
}

fn read_slice(r: &mut SnapReader<'_>) -> Result<Slice, SnapshotError> {
    let id = SliceId(r.u64()?);
    let frame = r.u64()?;
    let arrival = r.u64()?;
    let size = r.u64()?;
    let weight = r.u64()?;
    let kind = frame_kind_from(r.u8()?)?;
    if size == 0 {
        return Err(SnapshotError::Malformed("zero-byte slice"));
    }
    Ok(Slice {
        id,
        frame,
        arrival,
        size,
        weight,
        kind,
    })
}

/// Snapshot serialization: one session's complete state, encoded as
/// fixed-width little-endian fields. The payload travels inside a
/// CRC-guarded [`crate::snapshot`] record, so the decoder trusts the
/// bytes to be intact and spends its checks on structural invariants —
/// anything a corrupted-but-CRC-valid record could violate maps to a
/// typed [`SnapshotError`], never a panic.
impl LiveSession {
    /// Appends this session's state to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the session's drop policy is not one of the three
    /// wire policies; daemon admission only ever constructs those.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_u64(out, self.params.buffer);
        put_u64(out, self.params.rate);
        put_u64(out, self.params.delay);
        put_u64(out, self.params.link_delay);
        put_u64(out, self.weight);
        let policy = match self.server.policy_name() {
            "Tail-Drop" => WirePolicy::Tail,
            "Head-Drop" => WirePolicy::Head,
            "Greedy" => WirePolicy::Greedy,
            other => panic!("session policy {other:?} has no wire code"),
        };
        out.push(policy.code());
        out.push(self.draining as u8);
        put_u64(out, self.local_t);
        put_u64(out, self.next_slice);
        let c = &self.counters;
        put_u64(out, c.offered_slices);
        put_u64(out, c.offered_bytes);
        put_u64(out, c.played_slices);
        put_u64(out, c.played_bytes);
        put_u64(out, c.played_weight);
        put_u64(out, c.server_dropped_slices);
        put_u64(out, c.server_dropped_bytes);
        put_u64(out, c.client_dropped_slices);
        put_u64(out, c.client_dropped_bytes);
        put_u64(out, c.evicted_slices);
        put_u64(out, c.evicted_bytes);
        put_u64(out, c.sent_bytes);
        match &self.source {
            ArrivalSource::Cbr {
                per_slot,
                slice_size,
                weight,
                lifetime,
                emitted,
            } => {
                out.push(0);
                put_u64(out, *per_slot);
                put_u64(out, *slice_size);
                put_u64(out, *weight);
                out.push(lifetime.is_some() as u8);
                put_u64(out, lifetime.unwrap_or(0));
                put_u64(out, *emitted);
            }
            ArrivalSource::Queue { pending, closed } => {
                out.push(1);
                out.push(*closed as u8);
                let count = u32::try_from(pending.len()).expect("queue fits u32");
                out.extend_from_slice(&count.to_le_bytes());
                for q in pending {
                    put_u64(out, q.at);
                    put_u64(out, q.size);
                    put_u64(out, q.weight);
                }
            }
        }
        let buffer = self.server.buffer();
        let count = u32::try_from(buffer.len()).expect("server queue fits u32");
        out.extend_from_slice(&count.to_le_bytes());
        for entry in buffer.iter() {
            put_slice(out, &entry.slice);
            put_u64(out, entry.sent);
        }
        let chunks = self.link.in_flight().count();
        let count = u32::try_from(chunks).expect("link pipe fits u32");
        out.extend_from_slice(&count.to_le_bytes());
        for chunk in self.link.in_flight() {
            put_u64(out, chunk.time);
            put_slice(out, &chunk.slice);
            put_u64(out, chunk.bytes);
            out.push(chunk.completed as u8);
        }
        match &self.ring.open {
            Some(open) => {
                out.push(1);
                put_u64(out, open.arrival);
                put_u64(out, open.size);
                put_u64(out, open.received);
            }
            None => out.push(0),
        }
        for bucket in &self.ring.ring {
            put_u64(out, bucket.bytes);
            put_u64(out, bucket.weight);
            put_u64(out, bucket.slices);
        }
    }

    /// Rebuilds a session from [`encode_state`](Self::encode_state)
    /// bytes. Total: every malformed input yields a typed error. The
    /// decoded session re-enters the exact trajectory the original
    /// would have taken — sessions are functions of their own local
    /// clock only — and the decoder proves the conservation identity
    /// (`offered = resolved + in_flight`) before returning.
    pub(crate) fn decode_state(bytes: &[u8]) -> Result<LiveSession, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let id = r.u64()?;
        let params = SmoothingParams {
            buffer: r.u64()?,
            rate: r.u64()?,
            delay: r.u64()?,
            link_delay: r.u64()?,
        };
        if params.rate == 0 {
            return Err(SnapshotError::Malformed("zero session rate"));
        }
        let weight = r.u64()?;
        let policy_code = r.u8()?;
        let policy =
            WirePolicy::from_code(policy_code).ok_or(SnapshotError::BadPolicy(policy_code))?;
        let draining = r.flag("draining flag")?;
        let local_t = r.u64()?;
        let next_slice = r.u64()?;
        let counters = SessionCounters {
            offered_slices: r.u64()?,
            offered_bytes: r.u64()?,
            played_slices: r.u64()?,
            played_bytes: r.u64()?,
            played_weight: r.u64()?,
            server_dropped_slices: r.u64()?,
            server_dropped_bytes: r.u64()?,
            client_dropped_slices: r.u64()?,
            client_dropped_bytes: r.u64()?,
            evicted_slices: r.u64()?,
            evicted_bytes: r.u64()?,
            sent_bytes: r.u64()?,
        };
        let source = match r.u8()? {
            0 => {
                let per_slot = r.u64()?;
                let slice_size = r.u64()?;
                let sweight = r.u64()?;
                let has_lifetime = r.flag("cbr lifetime flag")?;
                let lifetime = r.u64()?;
                let emitted = r.u64()?;
                ArrivalSource::Cbr {
                    per_slot,
                    slice_size: slice_size.max(1),
                    weight: sweight,
                    lifetime: has_lifetime.then_some(lifetime),
                    emitted,
                }
            }
            1 => {
                let closed = r.flag("queue closed flag")?;
                let count = r.u32()? as usize;
                let mut pending = VecDeque::with_capacity(count.min(4096));
                for _ in 0..count {
                    let at = r.u64()?;
                    let size = r.u64()?;
                    let qweight = r.u64()?;
                    if size == 0 {
                        return Err(SnapshotError::Malformed("zero-byte queued slice"));
                    }
                    pending.push_back(QueuedSlice {
                        at,
                        size,
                        weight: qweight,
                    });
                }
                ArrivalSource::Queue { pending, closed }
            }
            t => return Err(SnapshotError::BadSourceTag(t)),
        };
        let mut server = Server::new(
            params.buffer,
            params.rate.max(1),
            crate::shard::policy_box(policy),
        );
        let count = r.u32()? as usize;
        let mut buffered: u128 = 0;
        for i in 0..count {
            let slice = read_slice(&mut r)?;
            let sent = r.u64()?;
            if sent >= slice.size {
                return Err(SnapshotError::Malformed("sent bytes reach slice size"));
            }
            if sent > 0 && i != 0 {
                return Err(SnapshotError::Malformed("transmission progress off the FIFO head"));
            }
            buffered += (slice.size - sent) as u128;
            if buffered > u64::MAX as u128 {
                return Err(SnapshotError::Malformed("server occupancy overflow"));
            }
            server.restore_slice(slice, sent);
        }
        let mut link = Link::new(params.link_delay);
        let count = r.u32()? as usize;
        let mut in_link: u128 = 0;
        let mut last_time: Time = 0;
        for i in 0..count {
            let time = r.u64()?;
            let slice = read_slice(&mut r)?;
            let chunk_bytes = r.u64()?;
            let completed = r.flag("chunk completed flag")?;
            if chunk_bytes == 0 || chunk_bytes > slice.size {
                return Err(SnapshotError::Malformed("chunk byte count"));
            }
            if i > 0 && time < last_time {
                return Err(SnapshotError::Malformed("link chunks out of FIFO order"));
            }
            // Between slots, every in-flight chunk was submitted at a
            // past slot and is still undelivered: due strictly before
            // `local_t` would already have left the pipe.
            if time >= local_t {
                return Err(SnapshotError::Malformed("link chunk from the future"));
            }
            match time.checked_add(params.link_delay) {
                Some(due) if due >= local_t => {}
                _ => return Err(SnapshotError::Malformed("overdue link chunk")),
            }
            last_time = time;
            in_link += chunk_bytes as u128;
            if in_link > u64::MAX as u128 {
                return Err(SnapshotError::Malformed("link occupancy overflow"));
            }
            link.submit(std::slice::from_ref(&SentChunk {
                time,
                slice,
                bytes: chunk_bytes,
                completed,
            }));
        }
        let open = if r.flag("open-slice flag")? {
            let arrival = r.u64()?;
            let size = r.u64()?;
            let received = r.u64()?;
            if received == 0 || received >= size {
                return Err(SnapshotError::Malformed("open-slice progress"));
            }
            Some(OpenSlice {
                arrival,
                size,
                received,
            })
        } else {
            None
        };
        // The ring holds delay+1 buckets of 24 bytes each; refuse a
        // declared geometry the remaining payload cannot back before
        // allocating it.
        let buckets = (params.delay as u128) + 1;
        if buckets * 24 > r.remaining() as u128 {
            return Err(SnapshotError::Truncated);
        }
        let mut ring = PlayoutRing::new(params.buffer, params.delay, params.link_delay);
        let mut occupancy: u128 = 0;
        for idx in 0..ring.ring.len() {
            let bucket_bytes = r.u64()?;
            let bucket_weight = r.u64()?;
            let bucket_slices = r.u64()?;
            occupancy += bucket_bytes as u128;
            if occupancy > u64::MAX as u128 {
                return Err(SnapshotError::Malformed("ring occupancy overflow"));
            }
            ring.ring[idx] = RingBucket {
                bytes: bucket_bytes,
                weight: bucket_weight,
                slices: bucket_slices,
            };
        }
        ring.occupancy = occupancy as Bytes;
        ring.open = open;
        ring.head = (local_t % ring.ring.len() as Time) as usize;
        r.finish()?;
        // The paper's mid-run identity, proven before the session may
        // rejoin a shard: every offered byte is resolved or in flight.
        let pool = buffered + in_link + occupancy + open.map(|o| o.received as u128).unwrap_or(0);
        let resolved = counters.played_bytes as u128
            + counters.server_dropped_bytes as u128
            + counters.client_dropped_bytes as u128
            + counters.evicted_bytes as u128;
        if counters.offered_bytes as u128 != resolved + pool {
            return Err(SnapshotError::Malformed("byte conservation"));
        }
        let resolved_slices = counters.played_slices as u128
            + counters.server_dropped_slices as u128
            + counters.client_dropped_slices as u128
            + counters.evicted_slices as u128;
        if resolved_slices > counters.offered_slices as u128 {
            return Err(SnapshotError::Malformed("slice conservation"));
        }
        Ok(LiveSession {
            id,
            params,
            weight,
            server,
            link,
            ring,
            source,
            draining,
            local_t,
            next_slice,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::TailDrop;

    fn session(rate: Bytes, delay: Time, link_delay: Time, source: ArrivalSource) -> LiveSession {
        let params = SmoothingParams::balanced_from_rate_delay(rate, delay, link_delay);
        LiveSession::new(1, params, 1, Box::new(TailDrop::new()), source)
    }

    fn run_to_retirement(s: &mut LiveSession, max_slots: u64) -> RetireReason {
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..max_slots {
            if let Some(cause) = s.retire_cause() {
                return cause;
            }
            s.begin_slot(&mut scratch);
            let grant = s.demand();
            s.step(grant, &mut sstep, &mut delivered);
        }
        panic!("session did not retire within {max_slots} slots");
    }

    #[test]
    fn cbr_session_plays_everything_at_full_grant() {
        let mut s = session(2, 3, 1, ArrivalSource::cbr(2, 1, 5, Some(10)));
        let cause = run_to_retirement(&mut s, 64);
        assert_eq!(cause, RetireReason::Completed);
        let c = s.counters();
        assert_eq!(c.offered_slices, 20);
        assert_eq!(c.played_slices, 20);
        assert_eq!(c.played_bytes, 20);
        assert_eq!(c.played_weight, 100);
        assert!(c.conserved());
    }

    #[test]
    fn sojourn_is_exactly_p_plus_d() {
        // One slice, rate 1: arrival at 0 must play at P + D.
        let mut s = session(
            1,
            4,
            2,
            ArrivalSource::scheduled(vec![QueuedSlice {
                at: 0,
                size: 1,
                weight: 1,
            }]),
        );
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        let mut played_at = None;
        for t in 0..16 {
            s.begin_slot(&mut scratch);
            let d = s.step(s.demand(), &mut sstep, &mut delivered);
            if d.played_slices > 0 {
                played_at = Some(t);
                break;
            }
        }
        assert_eq!(played_at, Some(6), "sojourn must be P + D = 2 + 4");
    }

    #[test]
    fn starved_session_drops_late_slices_at_client() {
        // Grant zero for longer than D, then release: the held slice
        // misses its deadline and is charged to the client ledger.
        let mut s = session(
            1,
            2,
            0,
            ArrivalSource::scheduled(vec![QueuedSlice {
                at: 0,
                size: 1,
                weight: 1,
            }]),
        );
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..4 {
            s.begin_slot(&mut scratch);
            s.step(0, &mut sstep, &mut delivered);
        }
        for _ in 0..4 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        let c = s.counters();
        assert_eq!(c.client_dropped_slices, 1);
        assert_eq!(c.played_slices, 0);
        assert!(s.retire_cause().is_some());
        assert!(c.conserved());
    }

    #[test]
    fn drain_stops_arrivals_and_retires() {
        let mut s = session(2, 2, 1, ArrivalSource::cbr(2, 2, 1, None));
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..5 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        assert!(s.retire_cause().is_none(), "unbounded CBR never retires");
        s.drain();
        let cause = run_to_retirement(&mut s, 32);
        assert_eq!(cause, RetireReason::Drained);
        assert!(s.counters().conserved());
    }

    #[test]
    fn evict_charges_the_whole_pool() {
        let mut s = session(4, 4, 2, ArrivalSource::cbr(4, 2, 1, None));
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..6 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        let offered = s.counters().offered_bytes;
        assert!(s.in_flight_bytes() > 0);
        let c = s.evict();
        assert_eq!(c.offered_bytes, offered);
        assert!(c.conserved());
        assert!(c.evicted_bytes > 0);
    }

    #[test]
    fn snapshot_roundtrip_is_canonical_and_trajectory_exact() {
        // Cut at every slot from 0 through 2·(D + 1), so a restore
        // re-derives the playout head at every ring position. From the
        // first slot on the session is mid-flight: a partially
        // transmitted head (a 1-byte grant against size-2 slices splits
        // transmissions), bytes on the link, and buffered playout.
        const D: Time = 4;
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for cut in 0..=2 * (D + 1) {
            let mut twin = session(3, D, 2, ArrivalSource::cbr(3, 2, 5, Some(12)));
            for _ in 0..cut {
                twin.begin_slot(&mut scratch);
                twin.step(1, &mut sstep, &mut delivered);
            }
            assert!(
                cut == 0 || twin.in_flight_bytes() > 0,
                "cut {cut}: mid-flight state required"
            );
            let mut bytes = Vec::new();
            twin.encode_state(&mut bytes);
            let mut restored = LiveSession::decode_state(&bytes).expect("own encoding decodes");
            let mut again = Vec::new();
            restored.encode_state(&mut again);
            assert_eq!(bytes, again, "cut {cut}: decode ∘ encode must be canonical");
            // The restored session must step in lockstep with the
            // uninterrupted twin, state for state, to the same end.
            for _ in 0..64 {
                assert_eq!(restored.retire_cause(), twin.retire_cause(), "cut {cut}");
                if twin.retire_cause().is_some() {
                    break;
                }
                for s in [&mut restored, &mut twin] {
                    s.begin_slot(&mut scratch);
                    s.step(s.demand(), &mut sstep, &mut delivered);
                }
                bytes.clear();
                again.clear();
                twin.encode_state(&mut bytes);
                restored.encode_state(&mut again);
                assert_eq!(
                    bytes, again,
                    "cut {cut}: trajectories diverge at t={}",
                    twin.local_t
                );
            }
            assert!(twin.retire_cause().is_some(), "cut {cut}: no retirement");
            assert_eq!(restored.counters(), twin.counters());
            assert!(restored.counters().conserved());
        }
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let mut s = session(2, 3, 1, ArrivalSource::cbr(2, 1, 5, Some(6)));
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..4 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        let mut bytes = Vec::new();
        s.encode_state(&mut bytes);
        // Truncation anywhere is typed, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                LiveSession::decode_state(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // A corrupted ledger breaks the conservation proof.
        let mut mangled = bytes.clone();
        // offered_bytes sits after id + 4 params + weight + policy +
        // draining + local_t + next_slice + offered_slices.
        let off = 8 * 6 + 2 + 8 * 2 + 8;
        mangled[off] ^= 0x01;
        assert!(matches!(
            LiveSession::decode_state(&mangled),
            Err(crate::snapshot::SnapshotError::Malformed("byte conservation"))
        ));
    }

    #[test]
    fn drain_keeps_slices_pushed_in_the_same_pass() {
        // A push and a drain between the same two slots (one shard
        // command pass): every pushed byte must still be offered, and
        // the retired ledger must account for all of it.
        let mut s = session(2, 2, 1, ArrivalSource::external());
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..3 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        assert!(s.push_slices(&[(1, 1), (3, 2), (2, 1)]));
        s.drain();
        assert_eq!(run_to_retirement(&mut s, 32), RetireReason::Drained);
        let c = s.counters();
        assert_eq!(
            (c.offered_slices, c.offered_bytes),
            (3, 6),
            "pushed bytes vanished"
        );
        assert!(c.conserved());
    }

    #[test]
    fn drain_cancels_only_future_scheduled_arrivals() {
        // A replay source drained at local slot 3 offers the slices due
        // by then (two before it, two at it) and none scheduled later.
        let at = [0, 1, 3, 3, 5, 7];
        let trace = at
            .iter()
            .map(|&at| QueuedSlice {
                at,
                size: 2,
                weight: 1,
            })
            .collect();
        let mut s = session(2, 3, 1, ArrivalSource::scheduled(trace));
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..3 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        assert_eq!(s.local_time(), 3);
        assert_eq!(s.counters().offered_slices, 2);
        s.drain();
        assert_eq!(run_to_retirement(&mut s, 32), RetireReason::Drained);
        let c = s.counters();
        assert_eq!((c.offered_slices, c.offered_bytes), (4, 8));
        assert!(c.conserved());
    }

    #[test]
    fn external_source_accepts_pushes_until_drained() {
        let mut s = session(2, 2, 0, ArrivalSource::external());
        assert!(s.push_slices(&[(1, 1), (2, 3)]));
        let mut sstep = ServerStep::default();
        let mut delivered = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..3 {
            s.begin_slot(&mut scratch);
            s.step(s.demand(), &mut sstep, &mut delivered);
        }
        assert!(s.retire_cause().is_none(), "open source keeps the session alive");
        s.drain();
        assert!(!s.push_slices(&[(1, 1)]), "drained sessions refuse data");
        let cause = run_to_retirement(&mut s, 32);
        assert_eq!(cause, RetireReason::Drained);
        assert_eq!(s.counters().offered_slices, 2);
        assert!(s.counters().conserved());
    }
}
