//! A map-backed server: the reference for the `ring-vs-map` and
//! `greedy-index-vs-rescan` oracles, `tests/buffer_diff.rs` and the
//! `server/map-reference` hotpath benchmark.
//!
//! [`MapBuffer`] is the `BTreeMap` counterpart of the product's ring
//! store: O(log n) per operation, no tombstones, no FIFO-index
//! arithmetic.
//! [`ReferenceServer`] steps it by Equations 2–3 of the paper (admit,
//! drop whole slices down to `B + R`, transmit up to `R` bytes in FIFO
//! order with partial progress) and picks victims by
//! [`ReferencePolicy`], a rule-by-rule restatement of the four
//! generated policies that shares no code with `rts_core::policy`.
//! [`first_divergence`] drives a product server and a reference side by
//! side and reports the first slot whose [`ServerStep`]s differ.

use std::collections::BTreeMap;

use rts_core::{BufferedSlice, DropPolicy, SentChunk, Seq, Server, ServerStep};
use rts_stream::rng::SplitMix64;
use rts_stream::{byte_value_cmp, Bytes, InputStream, Slice, Time};

use crate::gen::PolicyCase;

/// The pushout FIFO buffer as an ordered map from [`Seq`] to slice.
#[derive(Debug, Clone, Default)]
pub struct MapBuffer {
    map: BTreeMap<Seq, BufferedSlice>,
    occupancy: Bytes,
    next_seq: u64,
}

impl MapBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes stored and not yet sent.
    pub fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    /// Number of stored slices.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no slice is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Stores `slice` under the next sequence number.
    pub fn admit(&mut self, slice: Slice) -> Seq {
        let seq = Seq(self.next_seq);
        self.next_seq += 1;
        self.occupancy += slice.size;
        self.map.insert(
            seq,
            BufferedSlice {
                seq,
                slice,
                sent: 0,
            },
        );
        seq
    }

    /// The oldest stored slice.
    pub fn head(&self) -> Option<&BufferedSlice> {
        self.map.values().next()
    }

    /// The newest stored slice.
    pub fn tail(&self) -> Option<&BufferedSlice> {
        self.map.values().next_back()
    }

    /// The head, if part of it is already on the wire.
    pub fn protected(&self) -> Option<Seq> {
        self.head().filter(|b| b.sent > 0).map(|b| b.seq)
    }

    /// Stored slices in FIFO order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &BufferedSlice> {
        self.map.values()
    }

    /// Removes a stored, untransmitted slice.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not stored or is in transmission.
    pub fn drop_slice(&mut self, seq: Seq) -> Slice {
        let entry = self
            .map
            .remove(&seq)
            .unwrap_or_else(|| panic!("drop of {seq} which is not stored"));
        assert!(
            entry.sent == 0,
            "attempt to preempt {seq} after transmission started"
        );
        self.occupancy -= entry.slice.size;
        entry.slice
    }

    /// Sends up to `rate` bytes from the head in FIFO order, returning
    /// `(seq, slice, bytes, completed)` per slice touched.
    pub fn transmit(&mut self, rate: Bytes) -> Vec<(Seq, Slice, Bytes, bool)> {
        let mut out = Vec::new();
        let mut left = rate;
        while left > 0 {
            let Some(mut head) = self.map.first_entry() else {
                break;
            };
            let entry = head.get_mut();
            let take = (entry.slice.size - entry.sent).min(left);
            entry.sent += take;
            let completed = entry.sent == entry.slice.size;
            out.push((entry.seq, entry.slice, take, completed));
            if completed {
                head.remove();
            }
            self.occupancy -= take;
            left -= take;
        }
        out
    }
}

/// The victim rules of the four [`PolicyCase`] policies.
#[derive(Debug, Clone)]
pub enum ReferencePolicy {
    /// The newest slice, unless it is the protected head.
    Tail,
    /// The oldest slice that is not protected.
    Head,
    /// The lowest byte value by full rescan, newest first on ties.
    Greedy,
    /// A SplitMix64 draw over the alive list, kept in admission order
    /// with swap-removal, redrawn while it lands on the protected head.
    Random {
        /// The victim PRNG.
        rng: SplitMix64,
        /// Stored sequence numbers.
        alive: Vec<Seq>,
    },
}

impl ReferencePolicy {
    /// The reference rule for a generated policy.
    pub fn new(case: PolicyCase) -> Self {
        match case {
            PolicyCase::Tail => ReferencePolicy::Tail,
            PolicyCase::Head => ReferencePolicy::Head,
            PolicyCase::Greedy => ReferencePolicy::Greedy,
            PolicyCase::Random(seed) => ReferencePolicy::Random {
                rng: SplitMix64::new(seed),
                alive: Vec::new(),
            },
        }
    }

    fn admitted(&mut self, seq: Seq) {
        if let ReferencePolicy::Random { alive, .. } = self {
            alive.push(seq);
        }
    }

    fn removed(&mut self, seq: Seq) {
        if let ReferencePolicy::Random { alive, .. } = self {
            let at = alive.iter().position(|&s| s == seq).expect("alive");
            alive.swap_remove(at);
        }
    }

    fn victim(&mut self, buffer: &MapBuffer) -> Option<Seq> {
        let protected = buffer.protected();
        let droppable = |b: &&BufferedSlice| Some(b.seq) != protected;
        match self {
            ReferencePolicy::Tail => buffer.tail().filter(droppable).map(|b| b.seq),
            ReferencePolicy::Head => buffer.iter().find(droppable).map(|b| b.seq),
            ReferencePolicy::Greedy => {
                let mut best: Option<&BufferedSlice> = None;
                for b in buffer.iter().filter(droppable) {
                    // `<=` walks ties forward in FIFO order, so the
                    // newest of the lowest value wins.
                    if best.is_none_or(|x| {
                        byte_value_cmp(b.slice.weight, b.slice.size, x.slice.weight, x.slice.size)
                            .is_le()
                    }) {
                        best = Some(b);
                    }
                }
                best.map(|b| b.seq)
            }
            ReferencePolicy::Random { rng, alive } => {
                if alive.is_empty() || (alive.len() == 1 && Some(alive[0]) == protected) {
                    return None;
                }
                loop {
                    let seq = alive[rng.range_u64(0, alive.len() as u64 - 1) as usize];
                    if Some(seq) != protected {
                        return Some(seq);
                    }
                }
            }
        }
    }
}

/// The generic algorithm's server over [`MapBuffer`].
#[derive(Debug, Clone)]
pub struct ReferenceServer {
    buffer: MapBuffer,
    policy: ReferencePolicy,
    capacity: Bytes,
    rate: Bytes,
}

impl ReferenceServer {
    /// A server with buffer `capacity` (B), link `rate` (R) and `policy`.
    pub fn new(capacity: Bytes, rate: Bytes, policy: ReferencePolicy) -> Self {
        ReferenceServer {
            buffer: MapBuffer::new(),
            policy,
            capacity,
            rate,
        }
    }
}

/// A server [`first_divergence`] can step: the product [`Server`] or
/// the [`ReferenceServer`].
pub trait Lockstep {
    /// Steps one slot at the full rate into `out` (cleared first) and
    /// returns whether the buffer is empty afterwards.
    fn step_slot(&mut self, time: Time, arrivals: &[Slice], out: &mut ServerStep) -> bool;
}

impl<P: DropPolicy> Lockstep for Server<P> {
    fn step_slot(&mut self, time: Time, arrivals: &[Slice], out: &mut ServerStep) -> bool {
        self.step_into(time, arrivals, out);
        self.is_drained()
    }
}

/// One slot by Eqs. 2–3 at the full rate `R`.
///
/// # Panics
///
/// Panics if the policy finds no victim while the buffer overflows.
impl Lockstep for ReferenceServer {
    fn step_slot(&mut self, time: Time, arrivals: &[Slice], out: &mut ServerStep) -> bool {
        out.clear();
        for &slice in arrivals {
            let seq = self.buffer.admit(slice);
            self.policy.admitted(seq);
        }
        // Eq. 3: whole slices go until what stays after sending R fits B.
        while self.buffer.occupancy() > self.capacity + self.rate {
            let victim = self
                .policy
                .victim(&self.buffer)
                .expect("an overflow has a victim");
            out.dropped.push(self.buffer.drop_slice(victim));
            self.policy.removed(victim);
        }
        // Eq. 2: FIFO transmission at rate R.
        for (seq, slice, bytes, completed) in self.buffer.transmit(self.rate) {
            if completed {
                self.policy.removed(seq);
            }
            out.sent.push(SentChunk {
                time,
                slice,
                bytes,
                completed,
            });
        }
        out.occupancy = self.buffer.occupancy();
        self.buffer.is_empty()
    }
}

/// Steps two servers over `stream` from slot 0 until both have drained
/// after the last arrival, and describes the first slot whose steps
/// differ (the dropped slices in order, the sent chunks, the
/// occupancy), or a server that never drains. `None` means every slot
/// agreed.
pub fn first_divergence(
    stream: &InputStream,
    left: &mut impl Lockstep,
    right: &mut impl Lockstep,
) -> Option<String> {
    let (mut a, mut b) = (ServerStep::default(), ServerStep::default());
    let mut frames = stream.frames().peekable();
    // A work-conserving server sends at least a byte per busy slot.
    let horizon = stream.last_arrival().unwrap_or(0) + stream.total_bytes() + 1;
    for t in 0..=horizon {
        let arrivals: &[Slice] = match frames.next_if(|f| f.time == t) {
            Some(f) => f.slices,
            None => &[],
        };
        let drained = (
            left.step_slot(t, arrivals, &mut a),
            right.step_slot(t, arrivals, &mut b),
        );
        if a != b {
            return Some(format!(
                "steps diverge at t={t}:\n  left:  {a:?}\n  right: {b:?}"
            ));
        }
        if frames.peek().is_none() && drained.0 && drained.1 {
            return None;
        }
    }
    Some(format!("servers still hold data at t={horizon}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::ServerBuffer;
    use rts_stream::{FrameKind, SliceId};

    fn slice(id: u64, size: Bytes, weight: u64) -> Slice {
        Slice {
            id: SliceId(id),
            arrival: 0,
            size,
            weight,
            kind: FrameKind::Generic,
        }
    }

    #[test]
    fn ring_and_map_agree_on_random_operation_streams() {
        // Differential fuzz at the buffer level: identical random
        // admit/drop/transmit traffic must leave the product ring and
        // the map in observably identical states after every operation.
        let mut rng = SplitMix64::new(0x5eed_cafe);
        let mut ring = ServerBuffer::new();
        let mut map = MapBuffer::new();
        let mut alive: Vec<Seq> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..4000 {
            match rng.range_u64(0, 9) {
                0..=3 => {
                    let size = rng.range_u64(1, 6);
                    let weight = rng.range_u64(1, 9);
                    let s = slice(next_id, size, weight);
                    next_id += 1;
                    let a = ring.admit(s);
                    let b = map.admit(s);
                    assert_eq!(a, b);
                    alive.push(a);
                }
                4..=6 => {
                    if alive.is_empty() {
                        continue;
                    }
                    let idx = rng.range_u64(0, alive.len() as u64 - 1) as usize;
                    let victim = alive[idx];
                    if ring.protected() == Some(victim) {
                        continue;
                    }
                    alive.remove(idx);
                    assert_eq!(ring.drop_slice(victim), map.drop_slice(victim));
                }
                _ => {
                    let rate = rng.range_u64(0, 7);
                    let a = ring.transmit(rate);
                    let b = map.transmit(rate);
                    assert_eq!(a, b);
                    alive.retain(|s| ring.contains(*s));
                }
            }
            assert_eq!(ring.occupancy(), map.occupancy());
            assert_eq!(ring.len(), map.len());
            assert_eq!(ring.head(), map.head());
            assert_eq!(ring.tail(), map.tail());
            assert_eq!(ring.protected(), map.protected());
            assert!(ring.iter().eq(map.iter()));
        }
    }

    #[test]
    fn reference_greedy_takes_the_newest_of_the_lowest_value() {
        let mut buf = MapBuffer::new();
        let mut policy = ReferencePolicy::Greedy;
        // Byte values 1/2, 3, 2/4 (= 1/2), 1.
        for s in [
            slice(0, 2, 1),
            slice(1, 1, 3),
            slice(2, 4, 2),
            slice(3, 1, 1),
        ] {
            buf.admit(s);
        }
        assert_eq!(policy.victim(&buf), Some(Seq(2)));
        buf.drop_slice(Seq(2));
        assert_eq!(policy.victim(&buf), Some(Seq(0)));
        buf.transmit(1); // the head is now protected
        assert_eq!(policy.victim(&buf), Some(Seq(3)));
    }

    #[test]
    fn reference_server_follows_equations_2_and_3() {
        // B = 2, R = 1, five unit slices: send 1, keep 2, drop 2 newest.
        let mut server = ReferenceServer::new(2, 1, ReferencePolicy::Tail);
        let arrivals: Vec<Slice> = (0..5).map(|i| slice(i, 1, 1)).collect();
        let mut step = ServerStep::default();
        assert!(!server.step_slot(0, &arrivals, &mut step));
        assert_eq!(step.sent_bytes(), 1);
        let dropped: Vec<u64> = step.dropped.iter().map(|s| s.id.0).collect();
        assert_eq!(dropped, vec![4, 3]);
        assert_eq!(step.occupancy, 2);
        assert!(
            !server.step_slot(1, &[], &mut step),
            "one byte still stored"
        );
        assert!(server.step_slot(2, &[], &mut step));
    }
}
