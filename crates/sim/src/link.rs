//! The communication link: lossless, FIFO, constant per-byte delay `P`
//! (the 0-jitter abstraction of Section 2.2).
//!
//! Bytes submitted by the server at step `t` are delivered to the client
//! at step `t + P`: `R(t) = S(t − P)` (Lemma 3.3's premise).

use std::collections::VecDeque;

use rts_core::SentChunk;
use rts_obs::FaultKind;
use rts_stream::{Bytes, Time};

/// A communication channel between the server and the client.
///
/// The engine drives any `LinkModel` identically: chunks are submitted
/// in the step they leave the server and handed to the client in the
/// step [`deliver`](Self::deliver) releases them. Implementations must
/// preserve FIFO order (the paper's channels never reorder).
pub trait LinkModel {
    /// Accepts the chunks the server submitted this step, in FIFO
    /// order.
    fn submit(&mut self, chunks: &[SentChunk]);

    /// Releases every chunk due at time `t`, preserving FIFO order.
    fn deliver(&mut self, t: Time) -> Vec<SentChunk>;

    /// [`deliver`](Self::deliver) appending into a caller-held scratch
    /// vector instead of allocating. The default forwards to `deliver`;
    /// allocation-sensitive implementations should override it (the sim
    /// engines call this in their per-slot loop).
    fn deliver_into(&mut self, t: Time, out: &mut Vec<SentChunk>) {
        out.extend(self.deliver(t));
    }

    /// Bytes currently in flight.
    fn in_flight_bytes(&self) -> Bytes;

    /// Whether no data is in flight.
    fn is_empty(&self) -> bool;

    /// An upper bound on the per-chunk delay (used to size the
    /// simulation horizon and the client's playout point).
    fn worst_case_delay(&self) -> Time;

    /// Fault windows *opening* at slot `t`, for observability. The
    /// paper's ideal links never fault, so the default is none; a
    /// fault-injecting wrapper (`rts-faults`) overrides this and the
    /// engine forwards each kind as an
    /// [`Event::LinkFault`](rts_obs::Event::LinkFault).
    fn fault_events(&self, t: Time) -> Vec<FaultKind> {
        let _ = t;
        Vec::new()
    }
}

/// A constant-delay FIFO link.
#[derive(Debug, Clone)]
pub struct Link {
    delay: Time,
    in_flight: VecDeque<SentChunk>,
    in_flight_bytes: Bytes,
}

impl Link {
    /// Creates a link with propagation delay `delay` (`P`).
    pub fn new(delay: Time) -> Self {
        Link {
            delay,
            in_flight: VecDeque::new(),
            in_flight_bytes: 0,
        }
    }

    /// Propagation delay `P`.
    pub fn delay(&self) -> Time {
        self.delay
    }

    /// The chunks currently in flight, in FIFO submission order. A
    /// checkpoint walks this to serialize the pipe; restoring re-submits
    /// the same chunks with their original times.
    pub fn in_flight(&self) -> impl Iterator<Item = &SentChunk> {
        self.in_flight.iter()
    }
}

impl LinkModel for Link {
    /// Accepts the chunks the server submitted this step. Chunks must be
    /// submitted in non-decreasing `time` order (FIFO).
    fn submit(&mut self, chunks: &[SentChunk]) {
        for c in chunks {
            debug_assert!(
                self.in_flight.back().is_none_or(|b| b.time <= c.time),
                "link submissions must be FIFO in time"
            );
            self.in_flight_bytes += c.bytes;
            self.in_flight.push_back(*c);
        }
    }

    /// Delivers every chunk whose send time is `t − P`, preserving FIFO
    /// order.
    fn deliver(&mut self, t: Time) -> Vec<SentChunk> {
        let mut out = Vec::new();
        self.deliver_into(t, &mut out);
        out
    }

    fn deliver_into(&mut self, t: Time, out: &mut Vec<SentChunk>) {
        while let Some(front) = self.in_flight.front() {
            if front.time + self.delay > t {
                break;
            }
            debug_assert!(
                front.time + self.delay == t,
                "a chunk missed its delivery step (sent {}, delay {}, now {t})",
                front.time,
                self.delay
            );
            let c = self.in_flight.pop_front().expect("checked non-empty");
            self.in_flight_bytes -= c.bytes;
            out.push(c);
        }
    }

    fn in_flight_bytes(&self) -> Bytes {
        self.in_flight_bytes
    }

    fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    fn worst_case_delay(&self) -> Time {
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, Slice, SliceId};

    fn chunk(id: u64, time: Time, bytes: Bytes) -> SentChunk {
        SentChunk {
            time,
            slice: Slice {
                id: SliceId(id),
                arrival: 0,
                size: bytes,
                weight: 1,
                kind: FrameKind::Generic,
            },
            bytes,
            completed: true,
        }
    }

    #[test]
    fn delivers_after_exactly_p_steps() {
        let mut link = Link::new(3);
        link.submit(&[chunk(0, 5, 2)]);
        assert!(link.deliver(6).is_empty());
        assert!(link.deliver(7).is_empty());
        let got = link.deliver(8);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].slice.id, SliceId(0));
        assert!(link.is_empty());
    }

    #[test]
    fn zero_delay_delivers_same_step() {
        let mut link = Link::new(0);
        link.submit(&[chunk(0, 2, 1)]);
        assert_eq!(link.deliver(2).len(), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut link = Link::new(1);
        link.submit(&[chunk(0, 0, 1), chunk(1, 0, 1)]);
        link.submit(&[chunk(2, 1, 1)]);
        let first = link.deliver(1);
        assert_eq!(
            first.iter().map(|c| c.slice.id.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let second = link.deliver(2);
        assert_eq!(second[0].slice.id, SliceId(2));
    }

    #[test]
    fn in_flight_accounting() {
        let mut link = Link::new(2);
        link.submit(&[chunk(0, 0, 3), chunk(1, 0, 4)]);
        assert_eq!(link.in_flight_bytes(), 7);
        link.deliver(2);
        assert_eq!(link.in_flight_bytes(), 0);
    }
}
