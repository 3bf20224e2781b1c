//! An order-agnostic, map-based client: the reference for the
//! `client-queue-vs-reference` oracle.
//!
//! It indexes pending slices by id, keeps a `BTreeMap` from playout
//! deadline to the ids due then, and remembers every discarded id in a
//! set, so it makes no assumption about the order in which chunks
//! arrive. `rts_core::Client` instead relies on the FIFO premise (the
//! server sends in id order and every link is FIFO) to keep one
//! deadline-sorted queue; the oracle drives both over the same chunk
//! schedules and requires identical steps.

use std::collections::{BTreeMap, HashMap, HashSet};

use rts_core::{ClientDrop, ClientDropReason, ClientStep, ClockDrift, ResyncPolicy, SentChunk};
use rts_stream::{Bytes, Slice, SliceId, Time};

#[derive(Debug, Clone)]
struct Pending {
    slice: Slice,
    received: Bytes,
}

/// How the client knows *when* to play a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlayoutClock {
    /// The link delay `P` is known: frame `f` plays at `f + P + D`.
    Known { link_delay: Time },
    /// Timer set to `D` on the first arrival; `origin` is `(first
    /// receive time, its frame's arrival)`.
    Timer { origin: Option<(Time, Time)> },
}

/// The reference client: buffer capacity `Bc`, smoothing delay `D`,
/// link delay `P`.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceClient {
    capacity: Bytes,
    delay: Time,
    clock: PlayoutClock,
    pending: HashMap<SliceId, Pending>,
    deadlines: BTreeMap<Time, Vec<SliceId>>,
    rejected: HashSet<SliceId>,
    occupancy: Bytes,
    resync: Option<ResyncPolicy>,
    drift: Option<ClockDrift>,
    /// Slots the playout timer is currently pushed back by.
    offset: Time,
}

impl ReferenceClient {
    /// Mirrors `Client::new`.
    pub(crate) fn new(capacity: Bytes, delay: Time, link_delay: Time) -> Self {
        ReferenceClient {
            capacity,
            delay,
            clock: PlayoutClock::Known { link_delay },
            pending: HashMap::new(),
            deadlines: BTreeMap::new(),
            rejected: HashSet::new(),
            occupancy: 0,
            resync: None,
            drift: None,
            offset: 0,
        }
    }

    /// Mirrors `Client::with_timer`.
    pub(crate) fn with_timer(capacity: Bytes, delay: Time) -> Self {
        ReferenceClient {
            clock: PlayoutClock::Timer { origin: None },
            ..ReferenceClient::new(capacity, delay, 0)
        }
    }

    /// Mirrors `Client::with_resync`.
    pub(crate) fn with_resync(mut self, policy: ResyncPolicy) -> Self {
        self.resync = Some(policy);
        self
    }

    /// Mirrors `Client::with_drift`.
    pub(crate) fn with_drift(mut self, drift: ClockDrift) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Mirrors `Client::resync_offset`.
    pub(crate) fn resync_offset(&self) -> Time {
        self.offset
    }

    /// Mirrors `Client::occupancy`.
    pub(crate) fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    fn virtual_now(&self, t: Time) -> Time {
        let local = match self.drift {
            Some(d) => d.local(t),
            None => t,
        };
        local.saturating_sub(self.offset)
    }

    fn deadline_of(&self, slice: &Slice) -> Option<Time> {
        match self.clock {
            PlayoutClock::Known { link_delay } => Some(slice.arrival + link_delay + self.delay),
            PlayoutClock::Timer { origin } => origin
                .map(|(first_rt, first_at)| first_rt + self.delay + (slice.arrival - first_at)),
        }
    }

    /// Mirrors `Client::step_into`.
    pub(crate) fn step_into(&mut self, t: Time, delivered: &[SentChunk], out: &mut ClientStep) {
        out.clear();

        for chunk in delivered {
            self.receive(t, chunk, out);
        }
        out.peak_occupancy = self.occupancy;

        let now = self.virtual_now(t);
        while let Some((&due, _)) = self.deadlines.first_key_value() {
            if due > now {
                break;
            }
            let (_, ids) = self.deadlines.pop_first().expect("checked non-empty");
            for id in ids {
                let Some(p) = self.pending.remove(&id) else {
                    continue; // already discarded (overflow)
                };
                self.occupancy -= p.received;
                if p.received == p.slice.size {
                    out.played.push(p.slice);
                } else {
                    self.rejected.insert(id);
                    out.dropped.push(ClientDrop {
                        slice: p.slice,
                        reason: ClientDropReason::Incomplete,
                    });
                }
            }
        }

        // Overflow: discard the newest deadlines first.
        while self.occupancy > self.capacity {
            let Some(mut last) = self.deadlines.last_entry() else {
                unreachable!("positive occupancy implies registered pending slices");
            };
            let ids = last.get_mut();
            let victim = ids.pop();
            if ids.is_empty() {
                last.remove();
            }
            if let Some(id) = victim {
                if let Some(p) = self.pending.get(&id) {
                    let slice = p.slice;
                    self.discard(id, slice, ClientDropReason::Overflow, out);
                }
            }
        }

        if let Some(policy) = self.resync {
            self.offset = self.offset.saturating_sub(policy.catchup);
        }

        out.occupancy = self.occupancy;
    }

    fn receive(&mut self, t: Time, chunk: &SentChunk, out: &mut ClientStep) {
        let id = chunk.slice.id;
        if self.rejected.contains(&id) {
            return; // remainder of an already-discarded slice
        }
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
            let skew = now - deadline;
            match self.resync {
                Some(policy) if skew <= policy.max_skew => {
                    self.offset += skew;
                    out.resyncs.push(skew);
                }
                _ => {
                    self.discard(id, chunk.slice, ClientDropReason::Late, out);
                    return;
                }
            }
        }
        let entry = self.pending.entry(id).or_insert_with(|| {
            self.deadlines.entry(deadline).or_default().push(id);
            Pending {
                slice: chunk.slice,
                received: 0,
            }
        });
        entry.received += chunk.bytes;
        self.occupancy += chunk.bytes;
        debug_assert!(
            entry.received <= entry.slice.size,
            "received more bytes than the slice holds"
        );
    }

    fn discard(
        &mut self,
        id: SliceId,
        slice: Slice,
        reason: ClientDropReason,
        out: &mut ClientStep,
    ) {
        if let Some(p) = self.pending.remove(&id) {
            self.occupancy -= p.received;
        }
        self.rejected.insert(id);
        out.dropped.push(ClientDrop { slice, reason });
    }
}
