//! One multiplexed session: a smoothed stream with its own server
//! buffer, drop policy, propagation delay, and client playout deadline.

use rts_core::policy::DropPolicy;
use rts_core::tradeoff::SmoothingParams;
use rts_core::{Client, ClientStep, ClockDrift, ResyncPolicy, Server, ServerStep};
use rts_faults::{FaultPlan, FaultyLink};
use rts_obs::{Event, Probe};
use rts_sim::{events, Link, LinkModel};
use rts_stream::{Bytes, InputStream, Slice, Time, Weight};

/// Everything needed to join a session to a multiplexer: the input
/// stream, its smoothing parameters (nominal rate `R`, buffer `B`,
/// delay `D`, propagation `P`), a drop policy, and a scheduler weight.
pub struct SessionSpec {
    /// The session's input stream.
    pub stream: InputStream,
    /// Per-session smoothing parameters. `params.rate` is the *nominal*
    /// rate the session is admitted at; the link scheduler decides the
    /// actual per-slot share.
    pub params: SmoothingParams,
    /// Scheduler weight (used by `WeightedFair`; ignored by the others).
    pub weight: Weight,
    /// The session's server drop policy.
    pub policy: Box<dyn DropPolicy>,
    /// Display label for reports.
    pub label: String,
    /// Faults injected on this session's link (and, via a clock-drift
    /// fault, on its client). `None` keeps the ideal channel.
    pub faults: Option<FaultPlan>,
    /// Graceful-degradation policy for this session's client.
    pub resync: Option<ResyncPolicy>,
}

impl SessionSpec {
    /// Creates a spec with weight 1 and a label derived from the policy.
    pub fn new(stream: InputStream, params: SmoothingParams, policy: Box<dyn DropPolicy>) -> Self {
        let label = policy.name().to_string();
        SessionSpec {
            stream,
            params,
            weight: 1,
            policy,
            label,
            faults: None,
            resync: None,
        }
    }

    /// Sets the scheduler weight.
    pub fn with_weight(mut self, weight: Weight) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Installs a [`FaultPlan`] on the session's link.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a client [`ResyncPolicy`] for graceful degradation.
    pub fn with_resync(mut self, policy: ResyncPolicy) -> Self {
        self.resync = Some(policy);
        self
    }
}

/// Accumulated per-session counters, aligned with `rts-sim`'s `Metrics`
/// vocabulary so they drop straight into `Table` reporting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionMetrics {
    /// Display label of the session.
    pub label: String,
    /// Drop-policy name.
    pub policy: &'static str,
    /// The session's server buffer capacity `B` (for invariant checks).
    pub buffer_capacity: Bytes,
    /// Total bytes the stream offered.
    pub offered_bytes: Bytes,
    /// Total weight the stream offered.
    pub offered_weight: Weight,
    /// Bytes of slices played on time at the client.
    pub delivered_bytes: Bytes,
    /// Weight of slices played on time (the paper's benefit).
    pub delivered_weight: Weight,
    /// Number of slices played.
    pub played_slices: u64,
    /// Slices dropped at the server (overflow or proactive).
    pub server_dropped_slices: u64,
    /// Bytes dropped at the server.
    pub server_dropped_bytes: Bytes,
    /// Slices dropped at the client (late, overflow, incomplete).
    pub client_dropped_slices: u64,
    /// Bytes submitted to the shared link.
    pub sent_bytes: Bytes,
    /// High-water mark of the server buffer occupancy.
    pub server_occupancy_max: Bytes,
    /// High-water mark of the client buffer occupancy.
    pub client_occupancy_max: Bytes,
}

impl SessionMetrics {
    /// Weight lost anywhere in the pipeline.
    pub fn lost_weight(&self) -> Weight {
        self.offered_weight - self.delivered_weight
    }

    /// Fraction of offered weight lost (0 when nothing was offered).
    pub fn weighted_loss(&self) -> f64 {
        if self.offered_weight == 0 {
            0.0
        } else {
            self.lost_weight() as f64 / self.offered_weight as f64
        }
    }

    /// Fraction of offered bytes not played.
    pub fn byte_loss(&self) -> f64 {
        if self.offered_bytes == 0 {
            0.0
        } else {
            (self.offered_bytes - self.delivered_bytes) as f64 / self.offered_bytes as f64
        }
    }

    /// Fraction of offered weight delivered (the benefit fraction).
    pub fn benefit_fraction(&self) -> f64 {
        1.0 - self.weighted_loss()
    }
}

/// What one session did in one slot, for the engine's aggregate
/// per-slot accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotOutcome {
    /// Bytes the session put on the link.
    pub(crate) sent: Bytes,
    /// End-of-slot server buffer occupancy.
    pub(crate) server_occupancy: Bytes,
    /// End-of-slot client buffer occupancy.
    pub(crate) client_occupancy: Bytes,
}

/// A live session inside the multiplexer.
pub(crate) struct Session {
    server: Server<Box<dyn DropPolicy>>,
    client: Client,
    link: FaultyLink<Link>,
    stream: InputStream,
    next_frame: usize,
    drift: Option<ClockDrift>,
    resync: Option<ResyncPolicy>,
    pub(crate) weight: Weight,
    pub(crate) metrics: SessionMetrics,
    // Per-slot scratch, allocated once per session and reused so the
    // transmit/play path is allocation-free in steady state.
    sstep: ServerStep,
    cstep: ClientStep,
    delivered: Vec<rts_core::SentChunk>,
}

impl Session {
    pub(crate) fn start(spec: SessionSpec) -> Self {
        let SessionSpec {
            stream,
            params,
            weight,
            policy,
            label,
            faults,
            resync,
        } = spec;
        let policy_name = policy.name();
        // Nominal rate must be positive for `Server::new`; the per-slot
        // budget overrides it anyway.
        let server = Server::new(params.buffer, params.rate.max(1), policy);
        let plan = faults.unwrap_or_default();
        let drift = plan.drift();
        let mut client = Client::new(
            // As in `SimConfig`, the client provisions the same B.
            params.buffer.max(1),
            params.delay,
            params.link_delay,
        );
        if let Some(policy) = resync {
            client = client.with_resync(policy);
        }
        if let Some(d) = drift {
            client = client.with_drift(d);
        }
        let link = FaultyLink::new(Link::new(params.link_delay), plan);
        let metrics = SessionMetrics {
            label,
            policy: policy_name,
            buffer_capacity: params.buffer,
            offered_bytes: stream.total_bytes(),
            offered_weight: stream.total_weight(),
            ..SessionMetrics::default()
        };
        Session {
            server,
            client,
            link,
            stream,
            next_frame: 0,
            drift,
            resync,
            weight,
            metrics,
            sstep: ServerStep::default(),
            cstep: ClientStep::default(),
            delivered: Vec::new(),
        }
    }

    /// Admits this slot's arrivals (phase 1 of the server step),
    /// reporting them to the probe; the caller is responsible for
    /// tagging events with the session index (pass
    /// [`NoopProbe`](rts_obs::NoopProbe) to observe nothing).
    pub(crate) fn admit_probed<Pr: Probe>(&mut self, t: Time, probe: &mut Pr) {
        let frames = self.stream.frames();
        while self.next_frame < frames.len() && frames[self.next_frame].time == t {
            let arrivals: &[Slice] = &frames[self.next_frame].slices;
            self.server.admit_arrivals(arrivals);
            events::admitted(probe, arrivals);
            self.next_frame += 1;
        }
    }

    /// Post-arrival server demand, as seen by the link scheduler.
    pub(crate) fn pending(&self) -> Bytes {
        self.server.buffer().occupancy()
    }

    pub(crate) fn buffer(&self) -> &rts_core::ServerBuffer {
        self.server.buffer()
    }

    /// Runs phases 2–3 with the granted budget and feeds the client,
    /// reporting slice events to the probe (caller tags them with the
    /// session index); reports the bytes put on the link and the
    /// end-of-slot occupancies so the engine can emit one aggregate
    /// `SlotEnd` per slot.
    pub(crate) fn transmit_and_play_probed<Pr: Probe>(
        &mut self,
        t: Time,
        grant: Bytes,
        probe: &mut Pr,
    ) -> SlotOutcome {
        self.server.step_admitted_into(t, grant, &mut self.sstep);
        events::server_step(probe, t, &self.sstep);
        let sstep = &self.sstep;
        let sent = sstep.sent_bytes();
        self.metrics.sent_bytes += sent;
        self.metrics.server_dropped_slices += sstep.dropped.len() as u64;
        self.metrics.server_dropped_bytes += sstep.dropped_bytes();
        self.metrics.server_occupancy_max = self.metrics.server_occupancy_max.max(sstep.occupancy);

        self.link.submit(&sstep.sent);
        self.delivered.clear();
        self.link.deliver_into(t, &mut self.delivered);
        if probe.enabled() {
            for kind in self.link.fault_events(t) {
                probe.on_event(&Event::LinkFault { time: t, session: 0, kind });
            }
        }
        self.client.step_into(t, &self.delivered, &mut self.cstep);
        events::client_step(probe, t, &self.cstep);
        let cstep = &self.cstep;
        for played in &cstep.played {
            self.metrics.played_slices += 1;
            self.metrics.delivered_bytes += played.size;
            self.metrics.delivered_weight += played.weight;
        }
        self.metrics.client_dropped_slices += cstep.dropped.len() as u64;
        self.metrics.client_occupancy_max =
            self.metrics.client_occupancy_max.max(cstep.peak_occupancy);
        SlotOutcome {
            sent,
            server_occupancy: self.sstep.occupancy,
            client_occupancy: self.cstep.occupancy,
        }
    }

    /// Whether the session has no arrivals, buffered, in-flight, or
    /// undelivered data left.
    pub(crate) fn is_done(&self) -> bool {
        self.next_frame >= self.stream.frames().len()
            && self.server.is_drained()
            && self.link.is_empty()
            && self.client.is_drained()
    }

    /// A loose upper bound on when the session must have finished.
    pub(crate) fn horizon_bound(&self) -> Time {
        let mut bound = self.stream.last_arrival().unwrap_or(0)
            + self.link.worst_case_delay()
            + self.client.delay()
            + self.stream.total_bytes()
            + 4;
        if let Some(policy) = self.resync {
            bound = bound.saturating_add(policy.max_skew);
        }
        if let Some(drift) = self.drift {
            bound = bound.max(drift.wall_bound(bound));
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::policy::TailDrop;
    use rts_stream::SliceSpec;

    fn unit_stream(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn metrics_fractions() {
        let m = SessionMetrics {
            offered_weight: 10,
            delivered_weight: 7,
            offered_bytes: 10,
            delivered_bytes: 8,
            ..SessionMetrics::default()
        };
        assert_eq!(m.lost_weight(), 3);
        assert!((m.weighted_loss() - 0.3).abs() < 1e-12);
        assert!((m.byte_loss() - 0.2).abs() < 1e-12);
        assert!((m.benefit_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_lose_nothing() {
        let m = SessionMetrics::default();
        assert_eq!(m.weighted_loss(), 0.0);
        assert_eq!(m.byte_loss(), 0.0);
    }

    #[test]
    fn session_runs_standalone_with_full_grants() {
        let params = SmoothingParams::balanced_from_rate_delay(2, 2, 0);
        let spec = SessionSpec::new(unit_stream(&[4, 4]), params, Box::new(TailDrop::new()));
        let mut s = Session::start(spec);
        let mut t = 0;
        while !s.is_done() {
            assert!(t <= s.horizon_bound(), "runaway session");
            s.admit_probed(t, &mut rts_obs::NoopProbe);
            s.transmit_and_play_probed(t, 2, &mut rts_obs::NoopProbe);
            t += 1;
        }
        // R = 2, D = 2 → B = 4: a burst of 4 fits exactly; loss-free.
        assert_eq!(s.metrics.delivered_bytes, 8);
        assert_eq!(s.metrics.weighted_loss(), 0.0);
    }

    #[test]
    fn spec_builders() {
        let params = SmoothingParams::balanced_from_rate_delay(1, 1, 0);
        let spec = SessionSpec::new(unit_stream(&[1]), params, Box::new(TailDrop::new()))
            .with_weight(5)
            .with_label("news feed");
        assert_eq!(spec.weight, 5);
        assert_eq!(spec.label, "news feed");
    }
}
