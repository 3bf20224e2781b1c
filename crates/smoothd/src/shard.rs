//! A shard: the unit of parallelism in the daemon.
//!
//! Each shard owns a disjoint set of sessions, an
//! [`AdmissionController`] guarding its share of link capacity
//! (`B = R·D` per session, Theorem 3.5), and all the scratch buffers
//! the per-slot loop needs. [`Shard::process_slot`] is allocation-free
//! in the steady state: arrivals, demands, grants, server steps, and
//! deliveries all reuse shard-owned storage, and sessions' playout
//! clients are fixed rings ([`crate::PlayoutRing`]). Only churn
//! (admit / retire) touches the allocator.
//!
//! A slot touches each session once. A session's demand is its backlog
//! capped at its reserved rate, so the demands of a slot sum to at most
//! the committed rate; while that is within the link rate (always, at
//! 1:1 overbooking) the link is never contended and the fair split
//! grants every demand in full. The slot then runs arrivals, demand,
//! step and the retirement check for each session in one pass.
//!
//! Only a shard overbooked past its link (committed > link rate) needs
//! arbitration. It first collects every session's post-arrival demand,
//! then splits the link max-min fair with byte granularity — the same
//! discipline as the batch mux's `RoundRobin`, reimplemented over
//! parallel index arrays so the grant loop borrows no session state —
//! and steps each session with its grant through the same per-session
//! body. On either path the retirement sweep runs only in a slot in
//! which some session reported itself ready to retire.

use std::collections::HashMap;

use rts_core::tradeoff::SmoothingParams;
use rts_core::{DropPolicy, GreedyByteValue, HeadDrop, SentChunk, ServerStep, TailDrop};
use rts_mux::{AdmissionController, AdmissionError};
use rts_obs::{LogHistogram, RejectReason, RetireReason};
use rts_stream::{Bytes, Slice, Time, Weight};

use crate::frame::{AdmitRequest, WirePolicy};
use crate::session::{ArrivalSource, LiveSession, SessionCounters, SessionId};

/// Cumulative per-shard aggregates.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Slots processed.
    pub slots: u64,
    /// Slices played across all sessions.
    pub played_slices: u64,
    /// Bytes put on the shard link.
    pub sent_bytes: Bytes,
    /// Largest per-slot byte total ever sent (must stay <= link rate).
    pub max_slot_sent: Bytes,
    /// Most sessions ever resident at once.
    pub peak_sessions: usize,
    /// Per-slot wall-clock latency in nanoseconds (recorded by the
    /// worker loop, not by [`Shard::process_slot`] itself, so the hot
    /// path never grows histogram buckets).
    pub latency: LogHistogram,
}

/// Record of one session leaving a shard.
#[derive(Debug, Clone, Copy)]
pub struct Retirement {
    /// The session that left.
    pub session: SessionId,
    /// Shard it lived on.
    pub shard: u32,
    /// Shard slot at which it left.
    pub slot: Time,
    /// Why it left.
    pub cause: RetireReason,
    /// Link rate it had reserved (released at retirement).
    pub rate: Bytes,
    /// Its final, conserved ledger.
    pub counters: SessionCounters,
}

/// Max-min fair byte allocation, equal-share floors then byte-by-byte
/// from a rotating cursor. `out[i] <= pending[i]` always, and
/// `sum(out) <= capacity`.
fn fair_grants(
    pending: &[Bytes],
    capacity: Bytes,
    cursor: &mut usize,
    active: &mut Vec<usize>,
    out: &mut Vec<Bytes>,
) {
    out.clear();
    out.resize(pending.len(), 0);
    active.clear();
    active.extend((0..pending.len()).filter(|&i| pending[i] > 0));
    let mut remaining = capacity;
    loop {
        if active.is_empty() || remaining == 0 {
            return;
        }
        let share = remaining / active.len() as Bytes;
        if share == 0 {
            break;
        }
        let mut kept = 0;
        for k in 0..active.len() {
            let idx = active[k];
            let take = share.min(pending[idx] - out[idx]);
            out[idx] += take;
            remaining -= take;
            if out[idx] < pending[idx] {
                active[kept] = idx;
                kept += 1;
            }
        }
        active.truncate(kept);
    }
    // share == 0 here, so remaining < active.len(): one extra byte for
    // the first `remaining` unsatisfied sessions after the cursor.
    debug_assert!((remaining as usize) < active.len());
    let n = active.len();
    let start = *cursor % n;
    for j in 0..remaining as usize {
        out[active[(start + j) % n]] += 1;
    }
    *cursor = cursor.wrapping_add(remaining as usize);
}

/// What one slot did across a shard's sessions.
#[derive(Default)]
struct SlotTally {
    sent: Bytes,
    played: u64,
    /// Sessions that can retire after this slot.
    ready: usize,
}

impl SlotTally {
    /// The per-session body both slot paths share: transmit, deliver
    /// and play with `grant`, then the retirement check.
    #[inline]
    fn step(
        &mut self,
        s: &mut LiveSession,
        grant: Bytes,
        sstep: &mut ServerStep,
        delivered: &mut Vec<SentChunk>,
    ) {
        let delta = s.step(grant, sstep, delivered);
        self.sent += delta.sent;
        self.played += delta.played_slices;
        self.ready += s.retire_cause().is_some() as usize;
    }
}

/// A set of sessions sharing one link, stepped together.
#[derive(Debug)]
pub struct Shard {
    id: u32,
    admission: AdmissionController,
    sessions: Vec<LiveSession>,
    index: HashMap<SessionId, usize>,
    now: Time,
    cursor: usize,
    stats: ShardStats,
    retired_counters: SessionCounters,
    retirements: Vec<Retirement>,
    // Scratch reused every slot; never shrinks, so the steady state
    // allocates nothing.
    arrivals: Vec<Slice>,
    pending: Vec<Bytes>,
    grants: Vec<Bytes>,
    active: Vec<usize>,
    sstep: ServerStep,
    delivered: Vec<SentChunk>,
}

pub(crate) fn policy_box(policy: WirePolicy) -> Box<dyn DropPolicy + Send> {
    match policy {
        WirePolicy::Tail => Box::new(TailDrop::new()),
        WirePolicy::Head => Box::new(HeadDrop::new()),
        WirePolicy::Greedy => Box::new(GreedyByteValue::new()),
    }
}

fn reject_of(err: AdmissionError) -> RejectReason {
    match err {
        AdmissionError::ZeroRate => RejectReason::ZeroRate,
        AdmissionError::InfeasibleTradeoff { .. } => RejectReason::Infeasible,
        AdmissionError::InsufficientCapacity { .. } => RejectReason::Capacity,
    }
}

impl Shard {
    /// A shard guarding `link_rate` bytes per slot, overbooked by
    /// `overbook.0 / overbook.1`.
    pub fn new(id: u32, link_rate: Bytes, overbook: (u64, u64)) -> Self {
        Shard {
            id,
            admission: AdmissionController::with_overbooking(link_rate, overbook.0, overbook.1),
            sessions: Vec::new(),
            index: HashMap::new(),
            now: 0,
            cursor: 0,
            stats: ShardStats::default(),
            retired_counters: SessionCounters::default(),
            retirements: Vec::new(),
            arrivals: Vec::new(),
            pending: Vec::new(),
            grants: Vec::new(),
            active: Vec::new(),
            sstep: ServerStep::default(),
            delivered: Vec::new(),
        }
    }

    /// Shard id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Shard slot counter.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Resident session count.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Cumulative aggregates.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Mutable aggregates (the worker loop records slot latency here).
    pub fn stats_mut(&mut self) -> &mut ShardStats {
        &mut self.stats
    }

    /// The shard's admission state.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Builds the smoothing parameters an [`AdmitRequest`] asks for.
    pub fn params_of(req: &AdmitRequest) -> Result<SmoothingParams, RejectReason> {
        if req.rate == 0 {
            return Err(RejectReason::ZeroRate);
        }
        Ok(if req.buffer == 0 {
            SmoothingParams::balanced_from_rate_delay(req.rate, req.delay, req.link_delay)
        } else {
            SmoothingParams {
                buffer: req.buffer,
                rate: req.rate,
                delay: req.delay,
                link_delay: req.link_delay,
            }
        })
    }

    /// Admits a session described by an ingest request.
    pub fn admit(&mut self, id: SessionId, req: &AdmitRequest) -> Result<(), RejectReason> {
        let source = if req.per_slot == 0 {
            ArrivalSource::external()
        } else {
            ArrivalSource::cbr(
                req.per_slot as Bytes,
                req.slice_size.max(1) as Bytes,
                req.weight.max(1),
                (req.lifetime > 0).then_some(req.lifetime),
            )
        };
        self.admit_with_source(id, req, source)
    }

    /// Admits a session with an explicit source (trace replay).
    pub fn admit_with_source(
        &mut self,
        id: SessionId,
        req: &AdmitRequest,
        source: ArrivalSource,
    ) -> Result<(), RejectReason> {
        debug_assert!(!self.index.contains_key(&id), "session ids are unique");
        let params = Self::params_of(req)?;
        self.admission.admit(&params).map_err(reject_of)?;
        let session = LiveSession::new(
            id,
            params,
            req.weight.max(1),
            policy_box(req.policy),
            source,
        );
        self.index.insert(id, self.sessions.len());
        self.sessions.push(session);
        self.stats.peak_sessions = self.stats.peak_sessions.max(self.sessions.len());
        Ok(())
    }

    /// Feeds slices to an externally-sourced session.
    pub fn inject(
        &mut self,
        session: SessionId,
        slices: &[(Bytes, Weight)],
    ) -> Result<(), RejectReason> {
        let idx = *self
            .index
            .get(&session)
            .ok_or(RejectReason::UnknownSession)?;
        if self.sessions[idx].push_slices(slices) {
            Ok(())
        } else {
            // CBR or already-drained sessions cannot be fed.
            Err(RejectReason::Protocol)
        }
    }

    /// Requests a graceful drain; the session retires once empty.
    pub fn drain(&mut self, session: SessionId) -> Result<(), RejectReason> {
        let idx = *self
            .index
            .get(&session)
            .ok_or(RejectReason::UnknownSession)?;
        self.sessions[idx].drain();
        Ok(())
    }

    /// Drains every resident session.
    pub fn drain_all(&mut self) {
        for s in &mut self.sessions {
            s.drain();
        }
    }

    /// Evicts a session immediately, discarding its in-flight bytes.
    pub fn evict(&mut self, session: SessionId) -> Result<(), RejectReason> {
        let idx = *self
            .index
            .get(&session)
            .ok_or(RejectReason::UnknownSession)?;
        let s = self.remove_at(idx);
        let rate = s.rate();
        let params = *s.params();
        self.admission.release(&params);
        let counters = s.evict();
        self.retired_counters.add(&counters);
        self.retirements.push(Retirement {
            session,
            shard: self.id,
            slot: self.now,
            cause: RetireReason::Evicted,
            rate,
            counters,
        });
        Ok(())
    }

    /// Evicts everything (abandoning shutdown path); ledgers stay
    /// conserved because eviction charges the live pools.
    pub fn evict_all(&mut self) {
        while let Some(s) = self.sessions.last() {
            let id = s.id();
            let _ = self.evict(id);
        }
    }

    fn remove_at(&mut self, idx: usize) -> LiveSession {
        let s = self.sessions.swap_remove(idx);
        self.index.remove(&s.id());
        if idx < self.sessions.len() {
            let moved = self.sessions[idx].id();
            self.index.insert(moved, idx);
        }
        s
    }

    /// Removes a session for migration to another shard, releasing its
    /// admission reservation here. Unlike [`Shard::evict`] this charges
    /// nothing: the session leaves with its ring, ledger, and local
    /// clock intact, so byte conservation is the importer's to keep.
    pub fn export(&mut self, session: SessionId) -> Result<LiveSession, RejectReason> {
        let idx = *self
            .index
            .get(&session)
            .ok_or(RejectReason::UnknownSession)?;
        Ok(self.export_at(idx))
    }

    /// Exports, as [`Shard::export`] does, non-draining sessions whose
    /// rates fit in `budget` together (a draining session retires soon
    /// anyway, so moving it buys nothing). Empty when none fits.
    pub fn export_within(&mut self, mut budget: Bytes) -> Vec<LiveSession> {
        let mut out = Vec::new();
        // Back to front: `swap_remove` refills a slot from the already
        // visited tail, so every session is looked at once.
        for idx in (0..self.sessions.len()).rev() {
            let s = &self.sessions[idx];
            if !s.is_draining() && s.rate() <= budget {
                budget -= s.rate();
                out.push(self.export_at(idx));
            }
        }
        out
    }

    fn export_at(&mut self, idx: usize) -> LiveSession {
        let s = self.remove_at(idx);
        self.admission.release(s.params());
        s
    }

    /// Accepts a migrated session, re-reserving its rate with this
    /// shard's admission controller. On a capacity conflict the
    /// session is handed back untouched so the caller can return it
    /// whence it came.
    // The large Err IS the recovery path: the refused session travels
    // back to the donor by value, so boxing would just add a hop.
    #[allow(clippy::result_large_err)]
    pub fn import(&mut self, session: LiveSession) -> Result<(), LiveSession> {
        if self.admission.admit(session.params()).is_err() {
            return Err(session);
        }
        let id = session.id();
        debug_assert!(!self.index.contains_key(&id), "session ids are unique");
        self.index.insert(id, self.sessions.len());
        self.sessions.push(session);
        self.stats.peak_sessions = self.stats.peak_sessions.max(self.sessions.len());
        Ok(())
    }

    /// Iterates the resident sessions without disturbing them — the
    /// non-destructive walk a snapshot takes between slots. Order is
    /// the internal storage order, which is stable while no churn
    /// command runs.
    pub fn iter_sessions(&self) -> impl Iterator<Item = &LiveSession> {
        self.sessions.iter()
    }

    /// Folds an already-retired ledger into this shard's totals. Only
    /// the migration fallback path uses this: a session that could not
    /// land anywhere is evicted in place, and its counters must still
    /// appear in exactly one shard's ledger.
    pub fn absorb_retired(&mut self, counters: &SessionCounters) {
        self.retired_counters.add(counters);
    }

    /// Advances every session by one slot: arrivals, link grants,
    /// transmit/deliver/play, then the retirement sweep. Allocation-free
    /// while the session set is stable.
    ///
    /// Each session's demand is at most its reserved rate, so while the
    /// committed total fits the link every demand is granted in full
    /// and one fused pass does the slot; otherwise the max-min fair
    /// grant pre-pass splits the link first.
    pub fn process_slot(&mut self) {
        self.process_slot_via(self.admission.committed() > self.admission.link_rate());
    }

    /// [`process_slot`](Self::process_slot) on a chosen path: the fused
    /// pass (`granted == false`, exact only while committed ≤ link) or
    /// the grant pre-pass plus `fair_grants`, exact on any shard.
    fn process_slot_via(&mut self, granted: bool) {
        let mut tally = SlotTally::default();
        if granted {
            self.pending.clear();
            for s in &mut self.sessions {
                s.begin_slot(&mut self.arrivals);
                self.pending.push(s.demand());
            }
            fair_grants(
                &self.pending,
                self.admission.link_rate(),
                &mut self.cursor,
                &mut self.active,
                &mut self.grants,
            );
            for (s, &grant) in self.sessions.iter_mut().zip(&self.grants) {
                tally.step(s, grant, &mut self.sstep, &mut self.delivered);
            }
        } else {
            for s in &mut self.sessions {
                s.begin_slot(&mut self.arrivals);
                let grant = s.demand();
                tally.step(s, grant, &mut self.sstep, &mut self.delivered);
            }
        }
        debug_assert!(
            tally.sent <= self.admission.link_rate(),
            "shard link oversubscribed: sent {} > rate {}",
            tally.sent,
            self.admission.link_rate()
        );
        self.stats.sent_bytes += tally.sent;
        self.stats.max_slot_sent = self.stats.max_slot_sent.max(tally.sent);
        self.stats.played_slices += tally.played;
        if tally.ready > 0 {
            self.retire_ready();
        }
        self.now += 1;
        self.stats.slots += 1;
    }

    /// Removes every session that can retire, in storage order.
    fn retire_ready(&mut self) {
        let mut i = 0;
        while i < self.sessions.len() {
            match self.sessions[i].retire_cause() {
                Some(cause) => {
                    let s = self.remove_at(i);
                    let params = *s.params();
                    self.admission.release(&params);
                    let counters = *s.counters();
                    debug_assert!(counters.conserved());
                    self.retired_counters.add(&counters);
                    self.retirements.push(Retirement {
                        session: s.id(),
                        shard: self.id,
                        slot: self.now,
                        cause,
                        rate: s.rate(),
                        counters,
                    });
                }
                None => i += 1,
            }
        }
    }

    /// Moves accumulated retirements into `out`.
    pub fn take_retirements(&mut self, out: &mut Vec<Retirement>) {
        out.append(&mut self.retirements);
    }

    /// True when retirements are waiting to be taken.
    pub fn has_retirements(&self) -> bool {
        !self.retirements.is_empty()
    }

    /// Combined ledger: retired sessions plus every live session.
    pub fn totals(&self) -> SessionCounters {
        let mut t = self.retired_counters;
        for s in &self.sessions {
            t.add(s.counters());
        }
        t
    }

    /// Bytes currently held across all live pools (server buffers,
    /// links, client rings).
    pub fn pool_bytes(&self) -> Bytes {
        self.sessions.iter().map(|s| s.in_flight_bytes()).sum()
    }

    /// Steps until every session has retired, up to `max_slots`.
    /// Returns `true` on full drain.
    pub fn run_until_drained(&mut self, max_slots: u64) -> bool {
        for _ in 0..max_slots {
            if self.sessions.is_empty() {
                return true;
            }
            self.process_slot();
        }
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::rng::SplitMix64;

    fn cbr_request(rate: Bytes, delay: Time, lifetime: u64) -> AdmitRequest {
        AdmitRequest {
            rate,
            delay,
            link_delay: 1,
            buffer: 0,
            weight: 1,
            policy: WirePolicy::Tail,
            per_slot: rate as u32,
            slice_size: 1,
            lifetime,
        }
    }

    #[test]
    fn fair_grants_respects_pending_and_capacity() {
        let mut cursor = 0;
        let mut active = Vec::new();
        let mut out = Vec::new();
        fair_grants(&[5, 1, 3], 7, &mut cursor, &mut active, &mut out);
        assert_eq!(out.iter().sum::<Bytes>(), 7);
        assert!(out.iter().zip([5, 1, 3]).all(|(g, p)| *g <= p));
        // Capacity above total demand grants everything.
        fair_grants(&[5, 1, 3], 100, &mut cursor, &mut active, &mut out);
        assert_eq!(out, vec![5, 1, 3]);
        // Zero capacity grants nothing.
        fair_grants(&[5, 1, 3], 0, &mut cursor, &mut active, &mut out);
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn export_within_takes_non_draining_sessions_that_fit_the_budget() {
        let mut shard = Shard::new(0, 64, (1, 1));
        for (id, rate) in [(1, 4), (2, 8), (3, 4), (4, 2)] {
            shard.admit(id, &cbr_request(rate, 3, 0)).unwrap();
        }
        shard.drain(4).unwrap();
        // Back to front: 4 is draining, 3 fits (5 left), 2 does not, 1
        // fits (1 left).
        let ids: Vec<SessionId> = shard.export_within(9).iter().map(|s| s.id()).collect();
        assert_eq!(ids, vec![3, 1]);
        assert_eq!(shard.sessions(), 2);
        assert_eq!(shard.admission().committed(), 10);
        assert!(shard.export_within(1).is_empty());
    }

    #[test]
    fn admits_until_capacity_then_rejects() {
        let mut shard = Shard::new(0, 10, (1, 1));
        for i in 0..5 {
            shard.admit(i, &cbr_request(2, 2, 0)).expect("fits");
        }
        assert_eq!(
            shard.admit(99, &cbr_request(2, 2, 0)),
            Err(RejectReason::Capacity)
        );
        assert_eq!(shard.admission().committed(), 10);
        // Retiring a session frees its reservation.
        shard.drain(0).unwrap();
        assert!(!shard.run_until_drained(64)); // others are unbounded
        assert_eq!(shard.admission().committed(), 8);
        shard.admit(99, &cbr_request(2, 2, 0)).expect("fits again");
    }

    #[test]
    fn infeasible_and_zero_rate_rejections() {
        let mut shard = Shard::new(0, 10, (1, 1));
        let mut req = cbr_request(2, 2, 0);
        req.buffer = 100; // B > R*D = 4
        assert_eq!(shard.admit(1, &req), Err(RejectReason::Infeasible));
        let mut req = cbr_request(0, 2, 0);
        req.per_slot = 0;
        assert_eq!(shard.admit(2, &req), Err(RejectReason::ZeroRate));
        assert_eq!(shard.sessions(), 0);
    }

    #[test]
    fn churn_preserves_byte_conservation() {
        let mut shard = Shard::new(0, 16, (1, 1));
        for i in 0..4 {
            shard.admit(i, &cbr_request(4, 3, 0)).unwrap();
        }
        for _ in 0..10 {
            shard.process_slot();
        }
        shard.evict(1).unwrap();
        shard.drain(2).unwrap();
        for _ in 0..10 {
            shard.process_slot();
        }
        let totals = shard.totals();
        let pool = shard.pool_bytes();
        assert_eq!(
            totals.offered_bytes,
            totals.resolved_bytes() + pool,
            "offered must equal resolved plus in-flight"
        );
        // Finish everything; the ledger alone must then balance.
        shard.drain_all();
        assert!(shard.run_until_drained(128));
        assert!(shard.totals().conserved());
        assert_eq!(shard.pool_bytes(), 0);
        assert_eq!(shard.admission().committed(), 0);
    }

    #[test]
    fn link_never_oversubscribed_under_overload() {
        // Overbook 2x: 8 sessions of rate 2 on a rate-8 link. The
        // grant loop must still cap per-slot sends at the physical 8.
        let mut shard = Shard::new(0, 8, (2, 1));
        for i in 0..8 {
            shard.admit(i, &cbr_request(2, 4, 20)).unwrap();
        }
        for _ in 0..40 {
            shard.process_slot();
        }
        assert!(shard.stats().max_slot_sent <= 8);
        assert!(shard.run_until_drained(64));
        let totals = shard.totals();
        assert!(totals.conserved());
        // Overload must have cost something (drops), not silently
        // stretched the link.
        assert!(
            totals.server_dropped_bytes + totals.client_dropped_bytes > 0,
            "2x overbooking at full offered load must shed bytes"
        );
    }

    /// Requires two shards to agree on everything a slot can change:
    /// retirements (order included), aggregates, ledgers and the
    /// fair-grants cursor.
    fn assert_same_shard(a: &mut Shard, b: &mut Shard, ctx: &str) {
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        a.take_retirements(&mut ra);
        b.take_retirements(&mut rb);
        assert_eq!(ra.len(), rb.len(), "{ctx}: retirement count");
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(
                (x.session, x.shard, x.slot, x.cause, x.rate, x.counters),
                (y.session, y.shard, y.slot, y.cause, y.rate, y.counters),
                "{ctx}: retirement"
            );
        }
        let key = |s: &ShardStats| {
            (
                s.slots,
                s.played_slices,
                s.sent_bytes,
                s.max_slot_sent,
                s.peak_sessions,
            )
        };
        assert_eq!(key(a.stats()), key(b.stats()), "{ctx}: shard stats");
        assert_eq!(a.totals(), b.totals(), "{ctx}: totals");
        assert_eq!(a.cursor, b.cursor, "{ctx}: fair-grants cursor");
    }

    #[test]
    fn fused_slot_equals_grant_path_while_committed_fits_the_link() {
        // Seeded admit/feed/drain/evict/step scripts on two identical
        // 1:1 shards: one steps through `process_slot` (the fused pass),
        // the other is forced through the grant pre-pass and
        // `fair_grants`. Σ demand ≤ committed ≤ link, so the grants are
        // the demands and the two must stay identical slot for slot.
        const LINK: Bytes = 48;
        const POLICIES: [WirePolicy; 3] = [WirePolicy::Tail, WirePolicy::Head, WirePolicy::Greedy];
        fn pick(rng: &mut SplitMix64, shard: &Shard) -> Option<SessionId> {
            let i = rng.range_u64(0, (shard.sessions() as u64).saturating_sub(1));
            shard.iter_sessions().nth(i as usize).map(|s| s.id())
        }
        for seed in 0..16u64 {
            let mut rng = SplitMix64::new(seed);
            let mut fused = Shard::new(0, LINK, (1, 1));
            let mut granted = Shard::new(0, LINK, (1, 1));
            let mut next_id = 0u64;
            for slot in 0..400 {
                match rng.range_u64(0, 9) {
                    0..=2 => {
                        let rate = rng.range_u64(1, 8);
                        let req = AdmitRequest {
                            rate,
                            delay: rng.range_u64(1, 6),
                            link_delay: rng.range_u64(0, 2),
                            buffer: 0,
                            weight: rng.range_u64(1, 3),
                            policy: POLICIES[rng.range_u64(0, 2) as usize],
                            // 0 = externally fed; above `rate` overloads.
                            per_slot: rng.range_u64(0, 2 * rate) as u32,
                            slice_size: rng.range_u64(1, 4) as u32,
                            lifetime: if rng.chance(0.5) {
                                0
                            } else {
                                rng.range_u64(1, 40)
                            },
                        };
                        let id = next_id;
                        next_id += 1;
                        assert_eq!(fused.admit(id, &req), granted.admit(id, &req));
                    }
                    3..=5 => {
                        if let Some(id) = pick(&mut rng, &fused) {
                            let slices: Vec<(Bytes, Weight)> = (0..rng.range_u64(1, 6))
                                .map(|_| (rng.range_u64(1, 9), rng.range_u64(1, 5)))
                                .collect();
                            assert_eq!(fused.inject(id, &slices), granted.inject(id, &slices));
                        }
                    }
                    6 => {
                        if let Some(id) = pick(&mut rng, &fused) {
                            assert_eq!(fused.drain(id), granted.drain(id));
                        }
                    }
                    7 => {
                        if let Some(id) = pick(&mut rng, &fused) {
                            assert_eq!(fused.evict(id), granted.evict(id));
                        }
                    }
                    _ => {}
                }
                assert!(fused.admission().committed() <= LINK);
                fused.process_slot();
                granted.process_slot_via(true);
                assert_same_shard(
                    &mut fused,
                    &mut granted,
                    &format!("seed {seed} slot {slot}"),
                );
            }
            fused.drain_all();
            granted.drain_all();
            assert!(fused.run_until_drained(256));
            while granted.now() < fused.now() {
                granted.process_slot_via(true);
            }
            assert_same_shard(&mut fused, &mut granted, &format!("seed {seed} drained"));
            assert!(fused.totals().conserved());
        }
    }

    #[test]
    fn retirements_report_cause_and_conserved_ledgers() {
        let mut shard = Shard::new(0, 8, (1, 1));
        shard.admit(10, &cbr_request(2, 2, 5)).unwrap(); // completes
        shard.admit(11, &cbr_request(2, 2, 0)).unwrap(); // drained
        shard.admit(12, &cbr_request(2, 2, 0)).unwrap(); // evicted
        for _ in 0..4 {
            shard.process_slot();
        }
        shard.evict(12).unwrap();
        shard.drain(11).unwrap();
        assert!(shard.run_until_drained(64));
        let mut retirements = Vec::new();
        shard.take_retirements(&mut retirements);
        assert_eq!(retirements.len(), 3);
        for r in &retirements {
            assert!(r.counters.conserved(), "session {} leaks bytes", r.session);
        }
        let cause_of = |id| retirements.iter().find(|r| r.session == id).unwrap().cause;
        assert_eq!(cause_of(10), RetireReason::Completed);
        assert_eq!(cause_of(11), RetireReason::Drained);
        assert_eq!(cause_of(12), RetireReason::Evicted);
    }
}
