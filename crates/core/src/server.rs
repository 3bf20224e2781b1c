//! The generic algorithm's server (Section 3.1.1).
//!
//! "The server's job is extremely simple: whenever the server's buffer is
//! non-empty, its contents is transmitted, in FIFO order, to the client
//! at the maximal possible rate", with overflow drops restoring the
//! occupancy constraint. Formally, per step `t` (Equations 2–3):
//!
//! ```text
//! |S(t)| = min(R, |Bs(t-1)| + |A(t)|)
//! |D(t)| = max(0, |Bs(t-1)| + |A(t)| - |S(t)| - B)
//! ```
//!
//! The identity of the dropped slices is unrestricted (any stored,
//! not-in-transmission slice); a [`DropPolicy`](crate::DropPolicy)
//! supplies the choice. With variable slice sizes, whole slices are
//! dropped until the surviving data fits, which is where the
//! `(B - Lmax + 1)/B` degradation of Theorem 3.9 comes from.
//!
//! A step reports what it did in a [`ServerStep`]: the chunks sent
//! (`ST`), the slices dropped (`D(t)`, proactive ones first) and the
//! occupancy left. The server traces nothing itself; a runner that
//! traces builds the slice events from that record (`rts_sim::events`).

use rts_stream::{Bytes, Slice, Time};

use crate::buffer::{Seq, ServerBuffer};
use crate::policy::DropPolicy;

/// A contiguous group of bytes of one slice submitted to the link in one
/// step. Bytes of a large slice may span several chunks across steps; the
/// link preserves FIFO order, so the client reassembles by slice id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentChunk {
    /// Step at which the chunk entered the link (`ST` of these bytes).
    pub time: Time,
    /// The slice the bytes belong to.
    pub slice: Slice,
    /// Number of bytes submitted in this step.
    pub bytes: Bytes,
    /// Whether this chunk completes the slice's transmission.
    pub completed: bool,
}

/// The outcome of one server step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStep {
    /// Bytes submitted to the link this step, in FIFO order (`S(t)`).
    pub sent: Vec<SentChunk>,
    /// Slices dropped this step (`D(t)`), proactive drops first.
    pub dropped: Vec<Slice>,
    /// How many leading entries of `dropped` the policy discarded
    /// proactively (Section 2.1's early drops); the rest are overflow
    /// drops (Equation 3).
    pub early_dropped: usize,
    /// Buffer occupancy after the step (`|Bs(t)|`).
    pub occupancy: Bytes,
}

impl ServerStep {
    /// Total bytes submitted this step (`|S(t)|`).
    pub fn sent_bytes(&self) -> Bytes {
        self.sent.iter().map(|c| c.bytes).sum()
    }

    /// Total bytes dropped this step (`|D(t)|`).
    pub fn dropped_bytes(&self) -> Bytes {
        self.dropped.iter().map(|s| s.size).sum()
    }

    /// Empties the step in place, keeping the allocations. The `*_into`
    /// step methods call this on entry, so a caller-held `ServerStep`
    /// can be reused across slots without per-slot allocation.
    pub fn clear(&mut self) {
        self.sent.clear();
        self.dropped.clear();
        self.early_dropped = 0;
        self.occupancy = 0;
    }
}

/// The generic algorithm's server: buffer capacity `B`, link rate `R`,
/// and a drop policy resolving overflows.
///
/// # Example
///
/// ```
/// use rts_core::{Server, TailDrop};
/// use rts_stream::{FrameKind, InputStream, SliceSpec};
///
/// let stream = InputStream::from_frames([vec![SliceSpec::unit(); 5]]);
/// let mut server = Server::new(2, 1, TailDrop::new());
/// let step = server.step(0, &stream.frames()[0].slices);
/// // Rate 1 sends one byte; capacity 2 keeps two; the rest is dropped.
/// assert_eq!(step.sent_bytes(), 1);
/// assert_eq!(step.dropped.len(), 2);
/// assert_eq!(step.occupancy, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Server<P> {
    buffer: ServerBuffer,
    policy: P,
    capacity: Bytes,
    rate: Bytes,
}

impl<P: DropPolicy> Server<P> {
    /// Creates a server with buffer capacity `capacity` (the paper's
    /// `B`), link rate `rate` (`R`), and the given drop policy.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0` (the link could never drain).
    pub fn new(capacity: Bytes, rate: Bytes, policy: P) -> Self {
        assert!(rate > 0, "link rate must be positive");
        Server {
            buffer: ServerBuffer::new(),
            policy,
            capacity,
            rate,
        }
    }

    /// Buffer capacity `B`.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Link rate `R`.
    pub fn rate(&self) -> Bytes {
        self.rate
    }

    /// Changes the link rate from the next step on (a renegotiation
    /// event — the dynamic-allocation alternative of the paper's
    /// introduction, reference \[9\]). Takes effect for subsequent
    /// [`step`](Self::step) calls; the buffer and its contents are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn set_rate(&mut self, rate: Bytes) {
        assert!(rate > 0, "link rate must be positive");
        self.rate = rate;
    }

    /// Access to the underlying buffer (for inspection).
    pub fn buffer(&self) -> &ServerBuffer {
        &self.buffer
    }

    /// Access to the drop policy (for inspection, e.g. index-size
    /// assertions in memory-regression tests).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether the server still holds data to transmit.
    pub fn is_drained(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Executes one time step: admit `arrivals`, resolve overflows via
    /// the drop policy, then transmit up to `R` bytes in FIFO order.
    ///
    /// Following Equations (2)–(3), drops restore
    /// `|Bs| + |A| − |S| ≤ B`: since `|S| = min(R, |Bs| + |A|)`, whole
    /// slices are dropped until the occupancy is at most `B + R` (when
    /// above `R`), so that after transmission at most `B` bytes remain.
    ///
    /// # Panics
    ///
    /// Panics if the drop policy fails to produce a victim while
    /// droppable slices remain (a policy bug).
    pub fn step(&mut self, time: Time, arrivals: &[Slice]) -> ServerStep {
        let mut out = ServerStep::default();
        self.step_into(time, arrivals, &mut out);
        out
    }

    /// [`step`](Self::step) writing into a caller-held [`ServerStep`]
    /// (cleared and refilled), so a driving loop can reuse one step
    /// across slots without per-slot allocation.
    pub fn step_into(&mut self, time: Time, arrivals: &[Slice], out: &mut ServerStep) {
        self.admit_arrivals(arrivals);
        self.step_admitted_into(time, self.rate, out);
    }

    /// Phase 1 of a step: arrivals join the buffer (and the policy's
    /// index). Splitting admission from
    /// [`step_admitted_into`](Self::step_admitted_into) lets a link
    /// scheduler look at every session's post-arrival demand before
    /// deciding the per-session transmission budgets.
    pub fn admit_arrivals(&mut self, arrivals: &[Slice]) {
        for slice in arrivals {
            debug_assert!(slice.size > 0, "streams validate slice sizes");
            let seq = self.buffer.admit(*slice);
            self.policy.on_admit(seq, slice);
        }
    }

    /// Re-admits one checkpointed slice during a restore, preserving
    /// `sent` bytes of transmission progress. Call in FIFO order
    /// starting from an empty buffer; only the first restored slice
    /// (the old head) may carry progress. The policy index rebuilds
    /// through the same [`DropPolicy::on_admit`] path as live
    /// admission, and a restored head is protected from victim
    /// selection exactly as a live mid-transmission head is.
    pub fn restore_slice(&mut self, slice: Slice, sent: Bytes) {
        debug_assert!(slice.size > 0, "streams validate slice sizes");
        let seq = self.buffer.admit_in_progress(slice, sent);
        self.policy.on_admit(seq, &slice);
    }

    /// Phases 2–3 of a step, writing into a caller-held [`ServerStep`]
    /// (cleared and refilled): early drops, overflow resolution against
    /// a droppable threshold of `B + budget`, then transmission of up
    /// to `budget` bytes in FIFO order. Arrivals must already have been
    /// admitted via [`admit_arrivals`](Self::admit_arrivals).
    ///
    /// This is the shared-link building block: a multiplexer grants
    /// each session a per-slot share of one link, possibly zero, and
    /// the overflow threshold scales with the grant so the post-step
    /// occupancy still never exceeds `B`. With `budget == R` this is
    /// exactly the dedicated-link step.
    pub fn step_admitted_into(&mut self, time: Time, budget: Bytes, out: &mut ServerStep) {
        out.clear();

        // 2a. Early drops, if the policy is proactive (Section 2.1).
        while let Some(victim) = self.policy.early_victim(&self.buffer) {
            self.validate_victim(victim);
            let slice = self.buffer.drop_slice(victim);
            self.policy.on_remove(victim, &slice);
            out.dropped.push(slice);
        }
        out.early_dropped = out.dropped.len();

        // 2b. Overflow resolution. After sending min(budget, occ) bytes
        // the residue must fit in B, so the droppable threshold is
        // B + budget (drops are whole-slice, transmission is
        // byte-granular).
        while self.buffer.occupancy() > self.capacity + budget {
            let victim = self.policy.next_victim(&self.buffer).unwrap_or_else(|| {
                panic!(
                    "policy {} returned no victim at occupancy {} (capacity {}, budget {})",
                    self.policy.name(),
                    self.buffer.occupancy(),
                    self.capacity,
                    budget
                )
            });
            self.validate_victim(victim);
            let slice = self.buffer.drop_slice(victim);
            self.policy.on_remove(victim, &slice);
            out.dropped.push(slice);
        }

        // 3. Transmission at the maximal granted rate, FIFO order: each
        // chunk cut off the head goes straight into `out.sent`.
        let mut left = budget;
        while let Some((seq, slice, bytes, completed)) = self.buffer.transmit_chunk(left) {
            left -= bytes;
            if completed {
                self.policy.on_remove(seq, &slice);
            }
            out.sent.push(SentChunk {
                time,
                slice,
                bytes,
                completed,
            });
        }

        debug_assert!(
            self.buffer.occupancy() <= self.capacity,
            "post-step occupancy {} exceeds capacity {}",
            self.buffer.occupancy(),
            self.capacity
        );

        out.occupancy = self.buffer.occupancy();
    }

    fn validate_victim(&self, victim: Seq) {
        assert!(
            self.buffer.contains(victim),
            "policy {} chose victim {victim} which is not stored",
            self.policy.name()
        );
        assert!(
            self.buffer.protected() != Some(victim),
            "policy {} chose the in-transmission slice {victim}",
            self.policy.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyByteValue, HeadDrop, TailDrop};
    use rts_stream::{FrameKind, InputStream, SliceSpec};

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    /// Steps `server` with no arrivals from slot `from` until its buffer
    /// empties, returning each slot's step.
    fn drain<P: DropPolicy>(server: &mut Server<P>, mut from: Time) -> Vec<ServerStep> {
        let mut steps = Vec::new();
        while !server.is_drained() {
            steps.push(server.step(from, &[]));
            from += 1;
        }
        steps
    }

    fn run_throughput<P: DropPolicy>(server: &mut Server<P>, stream: &InputStream) -> Bytes {
        let mut sent = 0;
        for frame in stream.frames() {
            sent += server.step(frame.time, &frame.slices).sent_bytes();
        }
        let last = stream.last_arrival().unwrap_or(0);
        sent + drain(server, last + 1)
            .iter()
            .map(ServerStep::sent_bytes)
            .sum::<Bytes>()
    }

    #[test]
    fn eq2_eq3_unit_slices() {
        // B=2, R=1: burst of 5 at t=0 → send 1, keep 2, drop 2.
        let stream = unit_frames(&[5]);
        let mut server = Server::new(2, 1, TailDrop::new());
        let step = server.step(0, &stream.frames()[0].slices);
        assert_eq!(step.sent_bytes(), 1);
        assert_eq!(step.dropped_bytes(), 2);
        assert_eq!(step.occupancy, 2);
    }

    #[test]
    fn no_drop_when_burst_fits_b_plus_r() {
        // B=2, R=2: burst of 4 → send 2, keep 2, drop 0.
        let stream = unit_frames(&[4]);
        let mut server = Server::new(2, 2, TailDrop::new());
        let step = server.step(0, &stream.frames()[0].slices);
        assert_eq!(step.sent_bytes(), 2);
        assert_eq!(step.dropped_bytes(), 0);
        assert_eq!(step.occupancy, 2);
    }

    #[test]
    fn server_is_work_conserving() {
        // Arrivals 3,0,0 with R=1: sends exactly one byte per step while
        // non-empty (Lemma 3.1's greedy property).
        let stream = unit_frames(&[3, 0, 0]);
        let mut server = Server::new(10, 1, TailDrop::new());
        for frame in stream.frames() {
            let step = server.step(frame.time, &frame.slices);
            assert_eq!(step.sent_bytes(), 1);
        }
    }

    #[test]
    fn buffer_requirement_is_b() {
        // Lemma 3.2: occupancy never exceeds B.
        let stream = unit_frames(&[9, 9, 9, 0, 9]);
        let mut server = Server::new(3, 2, TailDrop::new());
        for frame in stream.frames() {
            let step = server.step(frame.time, &frame.slices);
            assert!(step.occupancy <= 3);
        }
    }

    #[test]
    fn fifo_transmission_order() {
        let stream = unit_frames(&[2, 2]);
        let mut server = Server::new(10, 1, TailDrop::new());
        let mut ids = Vec::new();
        for frame in stream.frames() {
            for c in server.step(frame.time, &frame.slices).sent {
                ids.push(c.slice.id.0);
            }
        }
        for s in drain(&mut server, 2) {
            for c in s.sent {
                ids.push(c.slice.id.0);
            }
        }
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn variable_size_no_preemption() {
        // A 4-byte slice with R=2 takes two steps; mid-transmission a
        // burst forces drops, which must spare the transmitting slice.
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::new(4, 100, FrameKind::Generic)]);
        b.frame(1, vec![SliceSpec::new(1, 1, FrameKind::Generic); 8]);
        let stream = b.build();

        let mut server = Server::new(2, 2, GreedyByteValue::new());
        let s0 = server.step(0, &stream.frames()[0].slices);
        assert_eq!(s0.sent_bytes(), 2); // half the big slice
        let s1 = server.step(1, &stream.frames()[1].slices);
        // Occupancy before drops: 2 (big remainder) + 8 = 10 > B+R = 4;
        // greedy drops 1-weight units, never the transmitting slice.
        assert!(s1.dropped.iter().all(|s| s.weight == 1));
        assert_eq!(s1.sent_bytes(), 2); // big slice completes
        assert!(s1.sent.iter().any(|c| c.completed && c.slice.size == 4));
    }

    #[test]
    fn oversized_slice_is_eventually_dropped() {
        // A slice larger than B + R cannot fit; the tail-drop policy
        // must discard it (it is the only droppable slice).
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::new(10, 1, FrameKind::Generic)]);
        let stream = b.build();
        let mut server = Server::new(2, 1, TailDrop::new());
        let step = server.step(0, &stream.frames()[0].slices);
        assert_eq!(step.dropped_bytes(), 10);
        assert_eq!(step.sent_bytes(), 0);
    }

    #[test]
    fn drain_flushes_everything() {
        let stream = unit_frames(&[5]);
        let mut server = Server::new(10, 2, TailDrop::new());
        let first = server.step(0, &stream.frames()[0].slices);
        assert_eq!(first.sent_bytes(), 2);
        let rest = drain(&mut server, 1);
        let drained: Bytes = rest.iter().map(ServerStep::sent_bytes).sum();
        assert_eq!(drained, 3);
        assert!(server.is_drained());
        assert_eq!(rest.len(), 2); // 2 + 1 bytes over two steps
    }

    #[test]
    fn throughput_independent_of_policy_for_unit_slices() {
        // Theorem 3.5's under-specification: with unit slices every
        // policy loses the same number of slices.
        let stream = unit_frames(&[7, 0, 9, 1, 0, 0, 12]);
        let t_tail = run_throughput(&mut Server::new(3, 2, TailDrop::new()), &stream);
        let t_head = run_throughput(&mut Server::new(3, 2, HeadDrop::new()), &stream);
        let t_greedy = run_throughput(&mut Server::new(3, 2, GreedyByteValue::new()), &stream);
        assert_eq!(t_tail, t_head);
        assert_eq!(t_tail, t_greedy);
    }

    #[test]
    fn policy_accessors() {
        let server = Server::new(4, 2, TailDrop::new());
        assert_eq!(server.capacity(), 4);
        assert_eq!(server.rate(), 2);
        assert_eq!(server.policy_name(), "Tail-Drop");
        assert!(server.is_drained());
        assert_eq!(server.buffer().occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Server::new(4, 0, TailDrop::new());
    }

    #[test]
    fn zero_budget_step_transmits_nothing() {
        // A multiplexer may grant a session no link share this slot; the
        // buffer must hold (and overflow against B alone).
        let stream = unit_frames(&[3]);
        let mut server = Server::new(2, 5, TailDrop::new());
        let mut step = ServerStep::default();
        server.admit_arrivals(&stream.frames()[0].slices);
        server.step_admitted_into(0, 0, &mut step);
        assert_eq!(step.sent_bytes(), 0);
        assert_eq!(step.dropped_bytes(), 1); // 3 arrivals, B = 2, grant 0
        assert_eq!(step.occupancy, 2);
    }

    #[test]
    fn full_budget_step_equals_dedicated_step() {
        // Admitting first and then stepping with a budget of R is
        // exactly the one-call dedicated-link step.
        let stream = unit_frames(&[5, 2, 0, 7]);
        let mut dedicated = Server::new(3, 2, GreedyByteValue::new());
        let mut split = Server::new(3, 2, GreedyByteValue::new());
        let mut granted = ServerStep::default();
        for frame in stream.frames() {
            let whole = dedicated.step(frame.time, &frame.slices);
            split.admit_arrivals(&frame.slices);
            split.step_admitted_into(frame.time, 2, &mut granted);
            assert_eq!(whole, granted);
        }
    }

    #[test]
    fn boxed_policy_delegates() {
        let stream = unit_frames(&[5]);
        let boxed: Box<dyn DropPolicy> = Box::new(TailDrop::new());
        let mut server = Server::new(2, 1, boxed);
        assert_eq!(server.policy_name(), "Tail-Drop");
        let step = server.step(0, &stream.frames()[0].slices);
        assert_eq!(step.sent_bytes(), 1);
        assert_eq!(step.dropped_bytes(), 2);
    }

    #[test]
    fn early_drops_lead_the_drop_list() {
        // B=4, R=1; occupancy above B/2 early-drops slices of byte
        // value below 2. The two 1-weight slices go proactively (newest
        // first), then Eq. 3 overflows the newest 5-weight slice.
        use crate::policy::EarlyValueDrop;
        let mut b = InputStream::builder();
        b.frame(
            0,
            [1, 1, 5, 5, 5, 5, 5, 5].map(|w| SliceSpec::new(1, w, FrameKind::Generic)),
        );
        let stream = b.build();
        let mut server = Server::new(4, 1, EarlyValueDrop::new(4, 1, 2, 2));
        let step = server.step(0, &stream.frames()[0].slices);
        let dropped: Vec<u64> = step.dropped.iter().map(|s| s.id.0).collect();
        assert_eq!(dropped, vec![1, 0, 7]);
        assert_eq!(step.early_dropped, 2);
        assert_eq!(step.sent_bytes(), 1);
    }

    #[test]
    fn zero_capacity_buffer_is_cut_through() {
        // B=0, R=2: at most R bytes pass per step, nothing is stored.
        let stream = unit_frames(&[3, 3]);
        let mut server = Server::new(0, 2, TailDrop::new());
        let s0 = server.step(0, &stream.frames()[0].slices);
        assert_eq!(s0.sent_bytes(), 2);
        assert_eq!(s0.dropped_bytes(), 1);
        assert_eq!(s0.occupancy, 0);
    }

    #[test]
    fn step_into_matches_step_and_reuses_the_scratch() {
        let stream = unit_frames(&[5, 0, 9, 2, 0, 0, 4]);
        let mut plain = Server::new(3, 2, GreedyByteValue::new());
        let mut reused = Server::new(3, 2, GreedyByteValue::new());
        let mut scratch = ServerStep::default();
        for frame in stream.frames() {
            let a = plain.step(frame.time, &frame.slices);
            reused.step_into(frame.time, &frame.slices, &mut scratch);
            assert_eq!(a, scratch);
        }
    }

    #[test]
    fn greedy_index_stays_bounded_on_a_long_drop_free_run() {
        // Memory regression for the Greedy index: a drop-free run never
        // calls next_victim, so every removal is a finished
        // transmission. The index must still hold exactly the live
        // slices, never one entry per transmitted slice (~80_000 here).
        use rts_stream::{FrameKind, SliceId};
        let unit = |id: u64| Slice {
            id: SliceId(id),
            frame: 0,
            arrival: 0,
            size: 1,
            weight: 1,
            kind: FrameKind::Generic,
        };
        let mut server = Server::new(8, 4, GreedyByteValue::new());
        let mut scratch = ServerStep::default();
        for t in 0..20_000u64 {
            let arrivals: Vec<Slice> = (0..4).map(|i| unit(4 * t + i)).collect();
            server.step_into(t, &arrivals, &mut scratch);
            assert!(scratch.dropped.is_empty(), "run must stay drop-free");
            assert_eq!(
                server.policy().index_len(),
                server.buffer().len(),
                "index drifted from the buffer at t={t}"
            );
        }
    }
}
