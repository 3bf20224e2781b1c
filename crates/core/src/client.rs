//! The client's algorithm (Section 3.1.2).
//!
//! "The client's algorithm is even simpler: when the first slice arrives
//! at the client's buffer, a timer is set to `D` time units. When the
//! timer expires, all available slices of the first frame are played out;
//! thereafter, at each step `t`, frame `t` is displayed." Formally:
//!
//! ```text
//! P(t) = { s : AT(s) = t − P − D, RT(s) ≤ t }
//! ```
//!
//! Because the link delay `P` is constant, setting the timer on the first
//! arrival is equivalent to playing frame `f` at time `f + P + D`. Both
//! mechanisms are provided — [`Client::new`] uses the closed form,
//! [`Client::with_timer`] the deployment-style timer (no clock
//! synchronization, Section 3.3's practical remarks) — and a property
//! test asserts they produce identical schedules.
//!
//! The client makes no algorithmic drop decisions. It only discards data
//! it cannot use: bytes that miss their playout deadline (possible only
//! when `D < B/R`, by Lemma 3.3), slices that are incomplete at their
//! deadline, and arrivals that would overflow a client buffer smaller
//! than `B` (impossible when `Bc = B = R·D`, by Lemma 3.4).
//!
//! A step reports what it did in a [`ClientStep`]: the slices played
//! (`PT`), the discards with their reasons, and any timer resyncs. The
//! client traces nothing itself; a runner that traces builds the slice
//! events from that record (`rts_sim::events`).
//!
//! # The FIFO premise
//!
//! The server transmits its buffer in slice-id order, and every link
//! model is FIFO (the `LinkModel` contract in `rts-sim`), so chunks
//! reach the client in non-decreasing id order. Ids are arrival order
//! and a deadline is `AT + const` under both clocks, so the slices the
//! client holds are sorted by deadline simply by being kept in delivery
//! order. The client therefore keeps one queue:
//!
//! * playout pops the front while its deadline has come;
//! * the overflow victim (the newest deadline) is the back;
//! * only the back can still be receiving bytes, so a late chunk
//!   discards at most the back;
//! * every chunk whose id is at or below the largest discarded id is a
//!   remainder of a discarded slice, so one watermark recognizes them
//!   all.
//!
//! A link that reordered chunks would break this premise (debug builds
//! assert it). `rts-check`'s `client-queue-vs-reference` oracle drives
//! this client and an order-agnostic map-based reference over the same
//! chunk schedules and requires identical steps.

use std::collections::VecDeque;

use rts_stream::{Bytes, Slice, SliceId, Time};

use crate::server::SentChunk;

/// Graceful-degradation policy: instead of dropping data whose deadline
/// slipped past (e.g. after a link outage), the client may *re-anchor*
/// its playout timer — pushing every subsequent deadline back by the
/// observed skew — and then catch back up at a bounded rate.
///
/// The paper's model has no faults, so the default client (no policy
/// installed) keeps the strict behaviour: anything past its deadline is
/// a [`ClientDropReason::Late`] drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncPolicy {
    /// Largest single re-anchor jump the client will absorb, in slots.
    /// Arrivals later than this are genuinely dropped as late.
    pub max_skew: Time,
    /// How many slots of accumulated offset the client claws back per
    /// step once data flows again (0 = never catch up; the added
    /// latency becomes permanent).
    pub catchup: Time,
}

impl ResyncPolicy {
    /// A policy absorbing skews up to `max_skew` and recovering
    /// `catchup` slots of latency per step.
    pub fn new(max_skew: Time, catchup: Time) -> Self {
        ResyncPolicy { max_skew, catchup }
    }
}

/// A deterministic clock-skew model: from slot `start` on, the client's
/// local clock gains or loses one slot every `period` wall slots.
///
/// A *slow* clock reads behind wall time, so frames play later than the
/// paper's `AT + P + D` schedule; a *fast* clock reads ahead, so
/// deadlines effectively arrive early and marginal slices miss them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDrift {
    /// First wall slot at which drift starts accruing.
    pub start: Time,
    /// Wall slots per accrued slot of skew. Must be ≥ 2 so a slow
    /// clock still advances (and every deadline is eventually reached).
    pub period: Time,
    /// `true` = clock runs slow (plays late); `false` = fast.
    pub slow: bool,
}

impl ClockDrift {
    /// A drift of one slot per `period` wall slots starting at `start`.
    ///
    /// # Panics
    ///
    /// If `period < 2`: a slow clock with period 1 would never advance.
    pub fn new(start: Time, period: Time, slow: bool) -> Self {
        assert!(period >= 2, "drift period must be at least 2, got {period}");
        ClockDrift { start, period, slow }
    }

    /// Accrued skew at wall slot `t`.
    pub fn skew_at(&self, t: Time) -> Time {
        t.saturating_sub(self.start) / self.period
    }

    /// The client's local clock reading at wall slot `t`.
    pub fn local(&self, t: Time) -> Time {
        let skew = self.skew_at(t);
        if self.slow {
            t.saturating_sub(skew)
        } else {
            t.saturating_add(skew)
        }
    }

    /// An upper bound on the wall slot at which the local clock reaches
    /// `local_deadline` (equals `local_deadline` for a fast clock).
    /// Used by simulation drivers to extend their drain horizon.
    pub fn wall_bound(&self, local_deadline: Time) -> Time {
        if !self.slow {
            return local_deadline;
        }
        let past = local_deadline.saturating_sub(self.start);
        self.start
            .saturating_add(past.saturating_mul(self.period) / (self.period - 1))
            .saturating_add(2)
    }
}

/// Why the client discarded a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClientDropReason {
    /// The client buffer had no room for the arriving bytes.
    Overflow,
    /// The first bytes of the slice arrived after its playout deadline.
    Late,
    /// The playout deadline passed while parts of the slice were still in
    /// transit.
    Incomplete,
}

/// A slice discarded by the client, with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientDrop {
    /// The discarded slice.
    pub slice: Slice,
    /// Why it was discarded.
    pub reason: ClientDropReason,
}

/// The outcome of one client step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientStep {
    /// Slices played out this step (`P(t)`), complete by construction.
    pub played: Vec<Slice>,
    /// Slices discarded this step.
    pub dropped: Vec<ClientDrop>,
    /// Occupancy after playout (`|Bc(t)|`).
    pub occupancy: Bytes,
    /// Peak occupancy within the step (after deliveries, before playout).
    pub peak_occupancy: Bytes,
    /// Skews absorbed by timer re-anchoring this step (empty unless a
    /// [`ResyncPolicy`] is installed and a deadline actually slipped).
    pub resyncs: Vec<Time>,
}

impl ClientStep {
    /// Resets the step for reuse, keeping the allocated capacity of its
    /// vectors (the `*_into` step methods call this before refilling).
    pub fn clear(&mut self) {
        self.played.clear();
        self.dropped.clear();
        self.resyncs.clear();
        self.occupancy = 0;
        self.peak_occupancy = 0;
    }
}

/// A slice the client holds: its playout deadline and the bytes
/// received so far.
#[derive(Debug, Clone)]
struct Pending {
    slice: Slice,
    deadline: Time,
    received: Bytes,
}

/// How the client knows *when* to play a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlayoutClock {
    /// The link delay `P` is known: frame `f` plays at `f + P + D`.
    Known { link_delay: Time },
    /// Section 3.1.2's deployment mechanism: no clock synchronization —
    /// when the first slice arrives, a timer is set to `D`; when it
    /// expires the first frame plays, and thereafter one frame per
    /// step. `origin` is `(first receive time, its frame's arrival)`.
    Timer { origin: Option<(Time, Time)> },
}

/// The client: buffer capacity `Bc`, smoothing delay `D`, link delay `P`.
///
/// # Example
///
/// ```
/// use rts_core::{Client, SentChunk};
/// use rts_stream::{FrameKind, Slice, SliceId};
///
/// let slice = Slice {
///     id: SliceId(0), arrival: 0, size: 1, weight: 1,
///     kind: FrameKind::Generic,
/// };
/// // D = 2, P = 0: a slice sent at t=0 plays at t=2.
/// let mut client = Client::new(10, 2, 0);
/// let chunk = SentChunk { time: 0, slice, bytes: 1, completed: true };
/// assert!(client.step(0, &[chunk]).played.is_empty());
/// assert!(client.step(1, &[]).played.is_empty());
/// assert_eq!(client.step(2, &[]).played.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Client {
    capacity: Bytes,
    delay: Time,
    clock: PlayoutClock,
    /// Slices being received or awaiting playout, in delivery order —
    /// hence in id and deadline order (see the module docs).
    pending: VecDeque<Pending>,
    /// The largest id discarded so far: chunks at or below it belong to
    /// discarded slices and are ignored.
    rejected_upto: Option<SliceId>,
    occupancy: Bytes,
    resync: Option<ResyncPolicy>,
    drift: Option<ClockDrift>,
    /// Slots the playout timer is currently pushed back by (0 unless a
    /// resync happened and has not yet been caught up).
    offset: Time,
}

impl Client {
    /// Creates a client with buffer capacity `capacity` (`Bc`), smoothing
    /// delay `delay` (`D`) and link delay `link_delay` (`P`).
    pub fn new(capacity: Bytes, delay: Time, link_delay: Time) -> Self {
        Client {
            capacity,
            delay,
            clock: PlayoutClock::Known { link_delay },
            pending: VecDeque::new(),
            rejected_upto: None,
            occupancy: 0,
            resync: None,
            drift: None,
            offset: 0,
        }
    }

    /// Creates a client that does **not** know the link delay: it starts
    /// a timer of `delay` steps when the first slice arrives and plays
    /// one frame per step from then on (the deployment mechanism of
    /// Section 3.1.2 — "the algorithm works without explicit clock
    /// synchronization").
    ///
    /// This is behaviourally identical to [`new`](Self::new) with the
    /// true link delay: the first transmitted chunk of any schedule is
    /// sent in the very step its slice arrived (the server is
    /// work-conserving and empty before it), so the timer origin lands
    /// exactly on `AT + P`. A property test asserts the equivalence on
    /// random schedules.
    pub fn with_timer(capacity: Bytes, delay: Time) -> Self {
        Client {
            clock: PlayoutClock::Timer { origin: None },
            ..Client::new(capacity, delay, 0)
        }
    }

    /// Installs a graceful-degradation [`ResyncPolicy`]: late arrivals
    /// within `max_skew` re-anchor the playout timer instead of being
    /// dropped. Without this, the client keeps the paper's strict
    /// semantics.
    pub fn with_resync(mut self, policy: ResyncPolicy) -> Self {
        self.resync = Some(policy);
        self
    }

    /// Installs a [`ClockDrift`] on the playout clock: deadlines are
    /// evaluated against the drifting local clock instead of wall time.
    pub fn with_drift(mut self, drift: ClockDrift) -> Self {
        self.drift = Some(drift);
        self
    }

    /// The current timer re-anchor offset in slots (0 when no resync
    /// has happened, or the catch-up has fully recovered it).
    pub fn resync_offset(&self) -> Time {
        self.offset
    }

    /// The client's effective "now" at wall slot `t`: the local clock
    /// reading (under any [`ClockDrift`]) minus the resync offset.
    /// Deadlines from [`deadline_of`](Self::deadline_of) are compared
    /// against this, so a positive offset plays everything later.
    fn virtual_now(&self, t: Time) -> Time {
        let local = match self.drift {
            Some(d) => d.local(t),
            None => t,
        };
        local.saturating_sub(self.offset)
    }

    /// Buffer capacity `Bc`.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Smoothing delay `D`.
    pub fn delay(&self) -> Time {
        self.delay
    }

    /// The playout deadline of a slice: `AT(s) + P + D`.
    ///
    /// For a timer-based client ([`with_timer`](Self::with_timer)) this
    /// is `None` until the first slice has arrived and anchored the
    /// timer.
    pub fn deadline_of(&self, slice: &Slice) -> Option<Time> {
        match self.clock {
            PlayoutClock::Known { link_delay } => Some(slice.arrival + link_delay + self.delay),
            PlayoutClock::Timer { origin } => origin
                .map(|(first_rt, first_at)| first_rt + self.delay + (slice.arrival - first_at)),
        }
    }

    /// Current occupancy in bytes.
    pub fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    /// Whether all stored data has been played or discarded.
    pub fn is_drained(&self) -> bool {
        self.occupancy == 0
    }

    /// Executes one client step at time `t`: absorbs the chunks delivered
    /// by the link this step (their bytes' `RT` equals `t`), plays out
    /// the frame due at `t`, then enforces the buffer capacity on the
    /// end-of-step state.
    ///
    /// Capacity applies to `|Bc(t)|`, the data stored *between* steps —
    /// bytes played in the same step they arrive never occupy the buffer
    /// (this is what makes `Bc = B` sufficient in Lemma 3.4).
    pub fn step(&mut self, t: Time, delivered: &[SentChunk]) -> ClientStep {
        let mut out = ClientStep::default();
        self.step_into(t, delivered, &mut out);
        out
    }

    /// [`step`](Self::step) writing into a caller-held [`ClientStep`]
    /// (cleared and refilled), so a driving loop can reuse one step
    /// across slots without per-slot allocation.
    pub fn step_into(&mut self, t: Time, delivered: &[SentChunk], out: &mut ClientStep) {
        out.clear();

        for chunk in delivered {
            self.receive(t, chunk, out);
        }
        out.peak_occupancy = self.occupancy;

        // Playout: every slice whose deadline is (or has passed) the
        // effective now — wall time for the default client, shifted by
        // clock drift and any un-recovered resync offset otherwise.
        // Deadlines earlier than that can linger only if no step() call
        // happened at the exact slot; processing them here keeps the
        // client robust to sparse stepping. The queue is deadline-sorted,
        // so the due slices are a prefix of it.
        let now = self.virtual_now(t);
        while let Some(p) = self.pending.front() {
            if p.deadline > now {
                break;
            }
            let p = self.pending.pop_front().expect("front checked");
            self.occupancy -= p.received;
            if p.received == p.slice.size {
                out.played.push(p.slice);
            } else {
                self.reject(p.slice.id);
                out.dropped.push(ClientDrop {
                    slice: p.slice,
                    reason: ClientDropReason::Incomplete,
                });
            }
        }

        // Client overflow: if the data that must be stored past this
        // step exceeds the capacity, whole slices are discarded. The
        // paper leaves the victim unspecified (with Bc = B = R·D
        // overflow never occurs, Lemma 3.4); we discard the data that
        // would be played *last* — the newest deadlines first, i.e. the
        // back of the queue — which preserves the most imminent frames.
        while self.occupancy > self.capacity {
            let p = self
                .pending
                .pop_back()
                .expect("positive occupancy implies pending slices");
            self.occupancy -= p.received;
            self.reject(p.slice.id);
            out.dropped.push(ClientDrop {
                slice: p.slice,
                reason: ClientDropReason::Overflow,
            });
        }

        // Bounded catch-up: claw back some of the re-anchor offset so
        // the extra latency decays once delivery recovers. Slices that
        // cannot keep pace with the accelerated deadlines are dropped
        // (and accounted) through the ordinary Late/Incomplete paths.
        if let Some(policy) = self.resync {
            self.offset = self.offset.saturating_sub(policy.catchup);
        }

        out.occupancy = self.occupancy;
    }

    fn receive(&mut self, t: Time, chunk: &SentChunk, out: &mut ClientStep) {
        let id = chunk.slice.id;
        if self.rejected_upto.is_some_and(|r| id <= r) {
            return; // remainder of an already-discarded slice
        }
        debug_assert!(
            self.pending.back().is_none_or(|p| p.slice.id <= id),
            "chunks must reach the client in slice-id order (FIFO premise)"
        );
        // First arrival anchors the timer-based clock.
        if let PlayoutClock::Timer {
            origin: origin @ None,
        } = &mut self.clock
        {
            *origin = Some((t, chunk.slice.arrival));
        }
        let deadline = self
            .deadline_of(&chunk.slice)
            .expect("clock is anchored by the arrival being processed");
        let now = self.virtual_now(t);
        if now > deadline {
            // The deadline already slipped past. With a resync policy
            // and a skew within bounds, re-anchor the playout timer so
            // this slice's deadline becomes "now" and the rest of the
            // stream shifts with it; otherwise the data is too late to
            // ever play — free anything stored and reject the rest.
            let skew = now - deadline;
            match self.resync {
                Some(policy) if skew <= policy.max_skew => {
                    self.offset += skew;
                    out.resyncs.push(skew);
                }
                _ => {
                    // Only the newest slice can hold earlier bytes.
                    if self.pending.back().is_some_and(|p| p.slice.id == id) {
                        let p = self.pending.pop_back().expect("back checked");
                        self.occupancy -= p.received;
                    }
                    self.reject(id);
                    out.dropped.push(ClientDrop {
                        slice: chunk.slice,
                        reason: ClientDropReason::Late,
                    });
                    return;
                }
            }
        }
        match self.pending.back_mut() {
            Some(p) if p.slice.id == id => p.received += chunk.bytes,
            back => {
                debug_assert!(
                    back.is_none_or(|p| p.deadline <= deadline),
                    "slice ids must be in arrival order"
                );
                self.pending.push_back(Pending {
                    slice: chunk.slice,
                    deadline,
                    received: chunk.bytes,
                });
            }
        }
        self.occupancy += chunk.bytes;
        debug_assert!(
            self.pending
                .back()
                .is_some_and(|p| p.received <= p.slice.size),
            "received more bytes than the slice holds"
        );
    }

    /// Marks `id` discarded. The watermark keeps the *largest* such id:
    /// one overflow pass can discard an incomplete newest slice and
    /// then older complete ones, and the newest one's remaining bytes
    /// must still be ignored.
    fn reject(&mut self, id: SliceId) {
        self.rejected_upto = Some(self.rejected_upto.map_or(id, |r| r.max(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::FrameKind;

    fn slice(id: u64, arrival: Time, size: Bytes) -> Slice {
        Slice {
            id: SliceId(id),
            arrival,
            size,
            weight: size,
            kind: FrameKind::Generic,
        }
    }

    fn chunk(s: Slice, time: Time, bytes: Bytes, completed: bool) -> SentChunk {
        SentChunk {
            time,
            slice: s,
            bytes,
            completed,
        }
    }

    #[test]
    fn plays_at_arrival_plus_p_plus_d() {
        let mut c = Client::new(100, 3, 2);
        let s = slice(0, 0, 2);
        // Sent at t=0, delivered at t=2 (P=2), played at t=5 (D=3).
        assert!(c.step(2, &[chunk(s, 0, 2, true)]).played.is_empty());
        assert!(c.step(3, &[]).played.is_empty());
        assert!(c.step(4, &[]).played.is_empty());
        let st = c.step(5, &[]);
        assert_eq!(st.played, vec![s]);
        assert!(c.is_drained());
    }

    #[test]
    fn chunk_arriving_exactly_at_deadline_still_plays() {
        // P(t) requires RT(s) <= t: equality is on time.
        let mut c = Client::new(100, 1, 0);
        let s = slice(0, 0, 2);
        let st0 = c.step(0, &[chunk(s, 0, 1, false)]);
        assert!(st0.played.is_empty());
        let st1 = c.step(1, &[chunk(s, 1, 1, true)]);
        assert_eq!(st1.played, vec![s]);
        assert!(st1.dropped.is_empty());
    }

    #[test]
    fn incomplete_slice_discarded_at_deadline() {
        let mut c = Client::new(100, 1, 0);
        let s = slice(0, 0, 3);
        c.step(0, &[chunk(s, 0, 1, false)]);
        let st = c.step(1, &[]);
        assert!(st.played.is_empty());
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].reason, ClientDropReason::Incomplete);
        assert_eq!(st.occupancy, 0, "incomplete bytes are freed");
        // The straggler byte is ignored silently (already recorded).
        let st2 = c.step(2, &[chunk(s, 2, 1, false)]);
        assert!(st2.dropped.is_empty());
        assert_eq!(st2.occupancy, 0);
    }

    #[test]
    fn fully_late_slice_recorded_once() {
        let mut c = Client::new(100, 0, 0);
        let s = slice(0, 0, 2);
        // Deadline is t=0; bytes arrive at t=3 and t=4.
        let st3 = c.step(3, &[chunk(s, 3, 1, false)]);
        assert_eq!(st3.dropped.len(), 1);
        assert_eq!(st3.dropped[0].reason, ClientDropReason::Late);
        let st4 = c.step(4, &[chunk(s, 4, 1, true)]);
        assert!(st4.dropped.is_empty());
    }

    #[test]
    fn overflow_drops_arriving_slice_and_keeps_old_data() {
        let mut c = Client::new(2, 5, 0);
        let a = slice(0, 0, 2);
        let b = slice(1, 0, 1);
        let st = c.step(0, &[chunk(a, 0, 2, true), chunk(b, 0, 1, true)]);
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].slice.id, SliceId(1));
        assert_eq!(st.dropped[0].reason, ClientDropReason::Overflow);
        assert_eq!(st.occupancy, 2);
        // The stored slice still plays at its deadline.
        for t in 1..5 {
            assert!(c.step(t, &[]).played.is_empty());
        }
        assert_eq!(c.step(5, &[]).played, vec![a]);
    }

    #[test]
    fn overflow_of_partial_slice_frees_its_stored_bytes() {
        let mut c = Client::new(2, 5, 0);
        let a = slice(0, 0, 3);
        c.step(0, &[chunk(a, 0, 2, false)]);
        assert_eq!(c.occupancy(), 2);
        // Third byte overflows; the whole slice is discarded.
        let st = c.step(1, &[chunk(a, 1, 1, true)]);
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].reason, ClientDropReason::Overflow);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn one_overflow_pass_discards_the_partial_newest_then_older_slices() {
        let mut c = Client::new(1, 5, 0);
        let a = slice(0, 0, 2);
        let b = slice(1, 0, 3);
        // a complete, b two bytes in: 4 bytes against a capacity of 1.
        let st = c.step(0, &[chunk(a, 0, 2, true), chunk(b, 0, 2, false)]);
        let dropped: Vec<_> = st.dropped.iter().map(|d| (d.slice.id, d.reason)).collect();
        assert_eq!(
            dropped,
            vec![
                (SliceId(1), ClientDropReason::Overflow),
                (SliceId(0), ClientDropReason::Overflow),
            ],
            "newest first, then the older complete slice"
        );
        assert_eq!(st.occupancy, 0);
        // b's last byte is ignored although a (the last discard) is
        // older: the watermark is the largest discarded id.
        let next = slice(2, 1, 1);
        let st = c.step(1, &[chunk(b, 1, 1, true), chunk(next, 1, 1, true)]);
        assert!(st.dropped.is_empty());
        assert_eq!(st.occupancy, 1, "only the next slice is stored");
        for t in 2..6 {
            assert!(c.step(t, &[]).played.is_empty());
        }
        assert_eq!(c.step(6, &[]).played, vec![next]);
        assert!(c.is_drained());
    }

    #[test]
    fn late_first_chunk_behind_stored_slices_leaves_them_alone() {
        let mut c = Client::new(100, 1, 0);
        let a = slice(0, 0, 2);
        let b = slice(1, 1, 1);
        c.step(0, &[chunk(a, 0, 2, true)]);
        // Sparse stepping: the next step is t=5, past both deadlines.
        // b's first chunk is late; a is stored ahead of it and plays.
        let st = c.step(5, &[chunk(b, 5, 1, true)]);
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].slice, b);
        assert_eq!(st.dropped[0].reason, ClientDropReason::Late);
        assert_eq!(st.played, vec![a]);
        assert_eq!(st.peak_occupancy, 2, "the late byte is never stored");
        assert!(c.is_drained());
    }

    #[test]
    fn incomplete_head_does_not_block_newer_complete_slices() {
        let mut c = Client::new(100, 1, 0);
        let a = slice(0, 0, 3);
        let b = slice(1, 0, 1);
        let later = slice(2, 1, 2);
        // a's remaining bytes never come (the sender gave up on it).
        c.step(0, &[chunk(a, 0, 1, false), chunk(b, 0, 1, true)]);
        let st = c.step(1, &[chunk(later, 1, 2, true)]);
        assert_eq!(st.played, vec![b]);
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].slice, a);
        assert_eq!(st.dropped[0].reason, ClientDropReason::Incomplete);
        assert_eq!(st.occupancy, 2, "the newer slice stays stored");
        assert_eq!(c.step(2, &[]).played, vec![later]);
        assert!(c.is_drained());
    }

    #[test]
    fn peak_occupancy_sees_pre_playout_level() {
        let mut c = Client::new(100, 0, 0);
        let s = slice(0, 0, 4);
        // D=0, P=0: deadline == arrival; delivered and played in step 0.
        let st = c.step(0, &[chunk(s, 0, 4, true)]);
        assert_eq!(st.peak_occupancy, 4);
        assert_eq!(st.occupancy, 0);
        assert_eq!(st.played, vec![s]);
    }

    #[test]
    fn multiple_slices_same_deadline() {
        let mut c = Client::new(100, 1, 0);
        let a = slice(0, 0, 1);
        let b = slice(1, 0, 2);
        c.step(0, &[chunk(a, 0, 1, true), chunk(b, 0, 2, true)]);
        let st = c.step(1, &[]);
        assert_eq!(st.played.len(), 2);
    }

    #[test]
    fn sparse_stepping_catches_up_on_old_deadlines() {
        let mut c = Client::new(100, 1, 0);
        let s = slice(0, 0, 1);
        c.step(0, &[chunk(s, 0, 1, true)]);
        // Jump straight to t=9: the deadline-1 playout happens now.
        let st = c.step(9, &[]);
        assert_eq!(st.played, vec![s]);
    }

    #[test]
    fn accessors() {
        let c = Client::new(7, 3, 2);
        assert_eq!(c.capacity(), 7);
        assert_eq!(c.delay(), 3);
        assert_eq!(c.deadline_of(&slice(0, 10, 1)), Some(15));
        assert!(c.is_drained());
        assert_eq!(c.resync_offset(), 0);
    }

    #[test]
    fn resync_absorbs_a_late_arrival_and_plays_it() {
        // Deadline is t=0 (D=0, P=0); the slice arrives 3 slots late.
        // With resync the timer re-anchors and the slice still plays.
        let mut c = Client::new(100, 0, 0).with_resync(ResyncPolicy::new(5, 0));
        let s = slice(0, 0, 2);
        let st = c.step(3, &[chunk(s, 3, 2, true)]);
        assert_eq!(st.resyncs, vec![3]);
        assert_eq!(st.played, vec![s], "re-anchored slice plays this step");
        assert!(st.dropped.is_empty());
        assert_eq!(c.resync_offset(), 3, "catchup 0 keeps the offset");

        // The next slice (nominal deadline t=4) now plays at t=7.
        let s2 = slice(1, 4, 1);
        c.step(4, &[chunk(s2, 4, 1, true)]);
        assert!(c.step(6, &[]).played.is_empty());
        assert_eq!(c.step(7, &[]).played, vec![s2]);
    }

    #[test]
    fn resync_skew_beyond_max_is_still_a_late_drop() {
        let mut c = Client::new(100, 0, 0).with_resync(ResyncPolicy::new(2, 0));
        let s = slice(0, 0, 1);
        let st = c.step(3, &[chunk(s, 3, 1, true)]);
        assert!(st.resyncs.is_empty());
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].reason, ClientDropReason::Late);
        assert_eq!(c.resync_offset(), 0);
    }

    #[test]
    fn catchup_recovers_the_offset_at_a_bounded_rate() {
        let mut c = Client::new(100, 0, 0).with_resync(ResyncPolicy::new(10, 1));
        let s = slice(0, 0, 1);
        c.step(4, &[chunk(s, 4, 1, true)]);
        // Skew 4 absorbed, then 1 slot clawed back per step.
        assert_eq!(c.resync_offset(), 3);
        c.step(5, &[]);
        assert_eq!(c.resync_offset(), 2);
        c.step(6, &[]);
        c.step(7, &[]);
        c.step(8, &[]);
        assert_eq!(c.resync_offset(), 0, "offset decays to zero, not below");
    }

    #[test]
    fn slow_drift_plays_later_fast_drift_drops_marginal_slices() {
        // Slow clock, 1 slot behind every 2 slots from t=0: a slice with
        // nominal deadline 5 plays when local(t) = t - t/2 reaches 5,
        // i.e. at wall slot 9.
        let drift = ClockDrift::new(0, 2, true);
        let mut c = Client::new(100, 5, 0).with_drift(drift);
        let s = slice(0, 0, 1);
        c.step(0, &[chunk(s, 0, 1, true)]);
        for t in 1..9 {
            assert!(c.step(t, &[]).played.is_empty(), "t={t} too early");
        }
        assert_eq!(c.step(9, &[]).played, vec![s]);
        assert!(drift.wall_bound(5) >= 9, "horizon bound covers the real play time");

        // Fast clock: local time runs ahead, so an arrival exactly at
        // its nominal deadline is already late.
        let mut fast = Client::new(100, 5, 0).with_drift(ClockDrift::new(0, 2, false));
        let s2 = slice(1, 0, 1);
        let st = fast.step(5, &[chunk(s2, 5, 1, true)]);
        assert_eq!(st.dropped.len(), 1);
        assert_eq!(st.dropped[0].reason, ClientDropReason::Late);
    }

    #[test]
    fn drift_helpers_and_validation() {
        let d = ClockDrift::new(10, 3, true);
        assert_eq!(d.skew_at(9), 0);
        assert_eq!(d.skew_at(10), 0);
        assert_eq!(d.skew_at(13), 1);
        assert_eq!(d.local(16), 14);
        let fast = ClockDrift::new(0, 4, false);
        assert_eq!(fast.local(8), 10);
        assert_eq!(fast.wall_bound(100), 100, "fast clocks never extend the horizon");
        // wall_bound is a genuine bound: local(wall_bound(L)) >= L.
        for l in [0u64, 5, 11, 100, 1_000] {
            assert!(d.local(d.wall_bound(l)) >= l, "bound too tight for {l}");
        }
        assert!(std::panic::catch_unwind(|| ClockDrift::new(0, 1, true)).is_err());
    }
}
