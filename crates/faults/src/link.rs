//! A fault-injecting wrapper around any [`LinkModel`].
//!
//! [`FaultyLink`] sits at the egress of an inner link: chunks travel
//! the inner link normally and, on the slot they would nominally
//! arrive, pass through the plan's fault gauntlet — an active
//! [`Fault::JitterBurst`](crate::Fault::JitterBurst) adds a seeded
//! random delay, an active [`Fault::Outage`](crate::Fault::Outage)
//! holds everything, and an active
//! [`Fault::RateDip`](crate::Fault::RateDip) throttles the slot's
//! release to a byte budget, splitting the head chunk byte-accurately
//! when it straddles the budget. FIFO order is always preserved, no
//! byte is ever silently lost (held data flushes when the window
//! closes), and every draw comes from a [`SplitMix64`] seeded by the
//! plan — identical seeds give identical schedules.
//!
//! When the plan has no link faults every call forwards straight to
//! the inner link, so a `FaultyLink` wrapping an idle plan costs one
//! branch per call (the no-overhead bench pair pins this).

use std::collections::VecDeque;

use rts_core::SentChunk;
use rts_obs::FaultKind;
use rts_sim::LinkModel;
use rts_stream::rng::SplitMix64;
use rts_stream::{Bytes, Time};

use crate::plan::FaultPlan;

/// A [`LinkModel`] that degrades an inner link according to a
/// [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultyLink<L> {
    inner: L,
    plan: FaultPlan,
    rng: SplitMix64,
    /// Chunks that left the inner link but are gated at the egress,
    /// with their jitter-adjusted release slots (monotone: FIFO).
    egress: VecDeque<(Time, SentChunk)>,
    egress_bytes: Bytes,
    last_release: Time,
    /// Fast path: true when the plan has no link faults at all.
    passthrough: bool,
    /// Reusable scratch for draining the inner link during absorb.
    absorb_scratch: Vec<SentChunk>,
}

impl<L: LinkModel> FaultyLink<L> {
    /// Wraps `inner` with the faults of `plan` (the plan's seed drives
    /// every jitter draw).
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed());
        let passthrough = !plan.has_link_faults();
        FaultyLink {
            inner,
            plan,
            rng,
            egress: VecDeque::new(),
            egress_bytes: 0,
            last_release: 0,
            passthrough,
            absorb_scratch: Vec::new(),
        }
    }

    /// The installed fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Moves the inner link's deliveries of slot `t` into the egress
    /// queue, applying any active jitter burst.
    fn absorb(&mut self, t: Time) {
        let jmax = self.plan.jitter_bound(t);
        // The scratch is taken (not borrowed) so the inner link and the
        // egress queue can be touched while it is filled/drained.
        let mut scratch = std::mem::take(&mut self.absorb_scratch);
        scratch.clear();
        self.inner.deliver_into(t, &mut scratch);
        for &c in &scratch {
            let extra = if jmax == 0 { 0 } else { self.rng.range_u64(0, jmax) };
            // A FIFO channel cannot reorder: a chunk never overtakes
            // its predecessor's release slot.
            let due = (t + extra).max(self.last_release);
            self.last_release = due;
            self.egress_bytes += c.bytes;
            self.egress.push_back((due, c));
        }
        self.absorb_scratch = scratch;
    }

    /// Releases everything due at `t` that fits the slot's fault
    /// budget, splitting the head chunk when the budget cuts it.
    /// Appends into `out` so the caller's scratch vector is reused.
    fn release_into(&mut self, t: Time, out: &mut Vec<SentChunk>) {
        let mut budget = self.plan.egress_budget(t);
        while let Some(&(due, _)) = self.egress.front() {
            if due > t || budget == Some(0) {
                break;
            }
            let (due, mut c) = self.egress.pop_front().expect("checked non-empty");
            if let Some(b) = budget {
                if c.bytes > b {
                    // Deliver the first `b` bytes now; the remainder
                    // stays at the head of the queue (same due slot)
                    // and keeps the chunk's completion marker.
                    let mut head = c;
                    head.bytes = b;
                    head.completed = false;
                    c.bytes -= b;
                    self.egress.push_front((due, c));
                    self.egress_bytes -= b;
                    out.push(head);
                    budget = Some(0);
                    continue;
                }
                budget = Some(b - c.bytes);
            }
            self.egress_bytes -= c.bytes;
            out.push(c);
        }
    }
}

impl<L: LinkModel> LinkModel for FaultyLink<L> {
    fn submit(&mut self, chunks: &[SentChunk]) {
        self.inner.submit(chunks);
    }

    fn deliver(&mut self, t: Time) -> Vec<SentChunk> {
        let mut out = Vec::new();
        self.deliver_into(t, &mut out);
        out
    }

    fn deliver_into(&mut self, t: Time, out: &mut Vec<SentChunk>) {
        if self.passthrough {
            self.inner.deliver_into(t, out);
            return;
        }
        self.absorb(t);
        self.release_into(t, out);
    }

    fn in_flight_bytes(&self) -> Bytes {
        self.inner.in_flight_bytes() + self.egress_bytes
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty() && self.egress.is_empty()
    }

    fn worst_case_delay(&self) -> Time {
        self.inner
            .worst_case_delay()
            .saturating_add(self.plan.extra_delay_bound())
    }

    fn fault_events(&self, t: Time) -> Vec<FaultKind> {
        self.plan.starting_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use rts_sim::Link;
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

    fn drain(link: &mut FaultyLink<Link>, until: Time) -> Vec<(Time, u64, Bytes)> {
        (0..=until)
            .flat_map(|t| {
                link.deliver(t).into_iter().map(move |c| (t, c.slice.id.0, c.bytes))
            })
            .collect()
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let mut faulty = FaultyLink::new(Link::new(2), FaultPlan::new(1));
        let mut plain = Link::new(2);
        for i in 0..10 {
            faulty.submit(&[chunk(i, i, 1)]);
            plain.submit(&[chunk(i, i, 1)]);
        }
        for t in 0..=15 {
            assert_eq!(faulty.deliver(t), plain.deliver(t));
        }
        assert!(faulty.is_empty());
        assert_eq!(faulty.worst_case_delay(), 2);
    }

    #[test]
    fn outage_holds_and_flushes_without_loss() {
        // P = 1; chunks sent at 0..6 nominally arrive at 1..7. The
        // outage covers [2, 5): arrivals of slots 2..4 are held and
        // flush together at 5.
        let plan = FaultPlan::new(0).outage(2, 5);
        let mut link = FaultyLink::new(Link::new(1), plan);
        for i in 0..6 {
            link.submit(&[chunk(i, i, 1)]);
        }
        let got = drain(&mut link, 10);
        assert_eq!(
            got,
            vec![
                (1, 0, 1),
                (5, 1, 1),
                (5, 2, 1),
                (5, 3, 1),
                (5, 4, 1),
                (6, 5, 1),
            ]
        );
        assert!(link.is_empty(), "no byte lost");
    }

    #[test]
    fn rate_dip_throttles_and_splits_byte_accurately() {
        // One 10-byte chunk arriving at slot 3 under a 3-bytes/slot dip
        // over [3, 6): 3+3+3 trickle out, the last byte rides the
        // window's end.
        let plan = FaultPlan::new(0).rate_dip(3, 6, 3);
        let mut link = FaultyLink::new(Link::new(0), plan);
        link.submit(&[chunk(0, 3, 10)]);
        let got = drain(&mut link, 8);
        assert_eq!(got, vec![(3, 0, 3), (4, 0, 3), (5, 0, 3), (6, 0, 1)]);
        // Only the final fragment reports completion.
        assert!(link.is_empty());

        let plan = FaultPlan::new(0).rate_dip(0, 2, 2);
        let mut link = FaultyLink::new(Link::new(0), plan);
        link.submit(&[chunk(0, 0, 3)]);
        let parts: Vec<(Bytes, bool)> = (0..=2)
            .flat_map(|t| link.deliver(t).into_iter().map(|c| (c.bytes, c.completed)))
            .collect();
        assert_eq!(parts, vec![(2, false), (1, true)]);
    }

    #[test]
    fn jitter_burst_is_bounded_fifo_and_seed_deterministic() {
        let mk = |seed| {
            let mut link = FaultyLink::new(Link::new(1), FaultPlan::new(seed).jitter_burst(0, 50, 4));
            for i in 0..30 {
                link.submit(&[chunk(i, i, 1)]);
            }
            drain(&mut link, 80)
        };
        let a = mk(42);
        assert_eq!(a, mk(42), "same seed, same schedule");
        assert_ne!(a, mk(43), "different seed perturbs the schedule");
        assert_eq!(a.len(), 30, "every chunk eventually delivered");
        let mut prev = 0;
        for &(t, id, _) in &a {
            assert!(t >= prev, "monotone delivery");
            assert!(t > id && t <= id + 1 + 4, "within jitter bounds");
            prev = t;
        }
        let ids: Vec<u64> = a.iter().map(|&(_, id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "FIFO preserved");
    }

    #[test]
    fn overlapping_outage_and_dip_take_the_tighter_budget() {
        let plan = FaultPlan::new(0).rate_dip(0, 10, 5).outage(2, 4);
        let mut link = FaultyLink::new(Link::new(0), plan);
        link.submit(&[chunk(0, 0, 20)]);
        let got = drain(&mut link, 10);
        // 5 at t=0, 5 at t=1, nothing during the outage, 5+5 resume.
        assert_eq!(
            got.iter().map(|&(t, _, b)| (t, b)).collect::<Vec<_>>(),
            vec![(0, 5), (1, 5), (4, 5), (5, 5)]
        );
    }

    #[test]
    fn accounting_and_bounds() {
        let plan = FaultPlan::new(0).outage(1, 4).jitter_burst(0, 9, 2);
        let mut link = FaultyLink::new(Link::new(3), plan);
        link.submit(&[chunk(0, 0, 4)]);
        assert_eq!(link.in_flight_bytes(), 4);
        link.deliver(3); // absorbed into egress (outage active)
        assert_eq!(link.in_flight_bytes(), 4, "egress bytes still count");
        assert!(!link.is_empty());
        assert_eq!(link.worst_case_delay(), 3 + 3 + 2);
        assert_eq!(link.fault_events(0), vec![FaultKind::JitterBurst]);
        assert_eq!(link.fault_events(1), vec![FaultKind::Outage]);
        assert!(link.fault_events(2).is_empty());
        assert_eq!(link.plan().faults().len(), 2);
        assert_eq!(link.inner().delay(), 3);
    }
}
