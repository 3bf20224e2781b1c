//! The end-to-end slotted-time engine: source → server buffer → link →
//! client buffer → playout, following the event order of Section 2.2.

use rts_core::tradeoff::SmoothingParams;
use rts_core::{
    Client, ClientStep, ClockDrift, DropPolicy, ResyncPolicy, SentChunk, Server, ServerStep,
};
use rts_obs::{Event, NoopProbe, Probe};
use rts_stream::{Bytes, InputStream, Time};

use crate::events;
use crate::link::{Link, LinkModel};
use crate::metrics::Metrics;
use crate::record::{Fate, ScheduleRecord, StepSample};

/// Simulation configuration: the smoothing parameters plus an optional
/// client-capacity override (defaults to `params.buffer`, the paper's
/// `Bc = B`; override it to reproduce the client-overflow effects of
/// Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Buffer / rate / delay / link-delay parameters.
    pub params: SmoothingParams,
    /// Client buffer capacity; `None` means `params.buffer`.
    pub client_capacity: Option<Bytes>,
    /// Graceful-degradation policy for the client: re-anchor the playout
    /// timer (instead of dropping late data) after delivery slips, e.g.
    /// across an injected outage. `None` keeps the paper's strict
    /// semantics.
    pub resync: Option<ResyncPolicy>,
    /// Deterministic client clock drift. `None` keeps the paper's
    /// synchronous slotted clock.
    pub drift: Option<ClockDrift>,
}

impl SimConfig {
    /// Configuration with `Bc = B` (the paper's standard setting).
    pub fn new(params: SmoothingParams) -> Self {
        SimConfig {
            params,
            client_capacity: None,
            resync: None,
            drift: None,
        }
    }

    /// The effective client capacity.
    pub fn client_capacity(&self) -> Bytes {
        self.client_capacity.unwrap_or(self.params.buffer)
    }

    /// Returns the config with a client [`ResyncPolicy`] installed.
    pub fn with_resync(mut self, policy: ResyncPolicy) -> Self {
        self.resync = Some(policy);
        self
    }

    /// Returns the config with a client [`ClockDrift`] installed.
    pub fn with_drift(mut self, drift: ClockDrift) -> Self {
        self.drift = Some(drift);
        self
    }
}

/// The outcome of a simulation: the full schedule record and aggregate
/// metrics. The record borrows the simulated stream's slices, so a
/// report lives no longer than its stream (`'s`).
#[derive(Debug, Clone)]
pub struct SimReport<'s> {
    /// The configuration that produced this schedule.
    pub config: SimConfig,
    /// Name of the drop policy used.
    pub policy: &'static str,
    /// Per-slice and per-step record (Definition 2.2 functions).
    pub record: ScheduleRecord<'s>,
    /// Aggregate metrics.
    pub metrics: Metrics,
}

/// Runs the generic algorithm end to end on `stream`.
///
/// The simulation continues past the last arrival until the server
/// buffer, the link, and the client buffer have all drained, so every
/// slice is resolved to a [`Fate`].
///
/// # Example
///
/// ```
/// use rts_core::policy::GreedyByteValue;
/// use rts_core::tradeoff::SmoothingParams;
/// use rts_sim::{simulate, SimConfig};
/// use rts_stream::{InputStream, SliceSpec};
///
/// let stream = InputStream::from_frames([vec![SliceSpec::unit(); 6], vec![]]);
/// let params = SmoothingParams::balanced_from_rate_delay(2, 2, 1);
/// let report = simulate(&stream, SimConfig::new(params), GreedyByteValue::new());
/// // B = R*D = 4: 2 sent immediately, 4 buffered, nothing dropped.
/// assert_eq!(report.metrics.played_bytes, 6);
/// assert_eq!(report.metrics.server_dropped_slices, 0);
/// ```
///
/// # Panics
///
/// Panics if the schedule fails to drain within a generous horizon
/// (`last arrival + P + D + total bytes / R + 4` steps) — impossible for
/// a work-conserving server unless a policy misbehaves.
pub fn simulate<P: DropPolicy>(
    stream: &InputStream,
    config: SimConfig,
    policy: P,
) -> SimReport<'_> {
    let link = Link::new(config.params.link_delay);
    simulate_with_link(stream, config, link, policy)
}

/// [`simulate`] with an observability probe: the run is bracketed by
/// [`Event::RunStart`]/[`Event::RunEnd`], every slice's admission, link
/// submission, drop, and playout is emitted as it happens, and each slot
/// closes with an [`Event::SlotEnd`] state sample. With a
/// [`NoopProbe`] this is exactly [`simulate`].
pub fn simulate_probed<'s, P: DropPolicy, Pr: Probe>(
    stream: &'s InputStream,
    config: SimConfig,
    policy: P,
    probe: &mut Pr,
) -> SimReport<'s> {
    let link = Link::new(config.params.link_delay);
    simulate_with_link_probed(stream, config, link, policy, probe)
}

/// Runs the generic algorithm over an arbitrary [`LinkModel`] (e.g. a
/// [`JitteredLink`](crate::JitteredLink)).
///
/// The client's playout point is `AT + params.link_delay + D`, so
/// `params.link_delay` must be the delay bound the client assumes; with
/// a jitter-absorbing link that is `P + Jmax`
/// ([`LinkModel::worst_case_delay`]), with an uncontrolled jittery link
/// an optimistic client may assume less and lose late chunks.
///
/// # Panics
///
/// As [`simulate`]; additionally if the link's
/// [`worst_case_delay`](LinkModel::worst_case_delay) under-reports and
/// the schedule cannot drain.
pub fn simulate_with_link<P: DropPolicy, L: LinkModel>(
    stream: &InputStream,
    config: SimConfig,
    link: L,
    policy: P,
) -> SimReport<'_> {
    simulate_with_link_probed(stream, config, link, policy, &mut NoopProbe)
}

/// [`simulate_with_link`] with an observability probe (see
/// [`simulate_probed`] for the events emitted).
pub fn simulate_with_link_probed<'s, P: DropPolicy, L: LinkModel, Pr: Probe>(
    stream: &'s InputStream,
    config: SimConfig,
    mut link: L,
    policy: P,
    probe: &mut Pr,
) -> SimReport<'s> {
    let params = config.params;
    let mut server = Server::new(params.buffer, params.rate, policy);
    let mut client = Client::new(config.client_capacity(), params.delay, params.link_delay);
    if let Some(policy) = config.resync {
        client = client.with_resync(policy);
    }
    if let Some(drift) = config.drift {
        client = client.with_drift(drift);
    }
    let mut record = ScheduleRecord::for_stream(stream);
    let policy_name = server.policy_name();

    let last_arrival = stream.last_arrival().unwrap_or(0);
    let mut horizon = last_arrival
        + link.worst_case_delay().max(params.link_delay)
        + params.delay
        + stream.total_bytes() / params.rate
        + 4;
    // A resync offset delays playout by up to the absorbed skew; a slow
    // client clock stretches every deadline in wall time.
    if let Some(policy) = config.resync {
        horizon = horizon.saturating_add(policy.max_skew);
    }
    if let Some(drift) = config.drift {
        horizon = horizon.max(drift.wall_bound(horizon));
    }
    // Typical schedules drain well before the horizon; reserving the
    // drain-time estimate (not the full horizon) avoids reallocation in
    // the common case without over-committing memory.
    record.reserve_steps((last_arrival + params.delay + stream.total_bytes() / params.rate) as usize + 2);

    if probe.enabled() {
        probe.on_event(&Event::RunStart { time: 0, sessions: 1 });
    }

    let mut frames = stream.frames().peekable();
    let mut t: Time = 0;
    // Per-slot scratch, allocated once and reused across the whole run.
    let mut sstep = ServerStep::default();
    let mut cstep = ClientStep::default();
    let mut delivered: Vec<SentChunk> = Vec::new();
    loop {
        // 1. Arrivals of this step enter the server.
        let arrivals: &[_] = match frames.peek() {
            Some(f) if f.time == t => {
                let f = frames.next().expect("peeked");
                f.slices
            }
            _ => &[],
        };
        server.step_into(t, arrivals, &mut sstep);
        events::admitted(probe, arrivals);
        events::server_step(probe, t, &sstep);
        for d in &sstep.dropped {
            record.resolve(d.id, Fate::ServerDropped { time: t });
        }
        for c in &sstep.sent {
            record.note_send(c.slice.id, t, c.completed);
        }

        // 2. The link carries the submitted bytes; deliveries of step t.
        link.submit(&sstep.sent);
        delivered.clear();
        link.deliver_into(t, &mut delivered);
        if probe.enabled() {
            for kind in link.fault_events(t) {
                probe.on_event(&Event::LinkFault { time: t, session: 0, kind });
            }
        }

        // 3. The client absorbs deliveries and plays frame t - P - D.
        client.step_into(t, &delivered, &mut cstep);
        events::client_step(probe, t, &cstep);
        for s in &cstep.played {
            record.resolve(s.id, Fate::Played { playout: t });
        }
        for d in &cstep.dropped {
            record.resolve(
                d.slice.id,
                Fate::ClientDropped {
                    time: t,
                    reason: d.reason,
                },
            );
        }

        record.push_step(StepSample {
            time: t,
            server_occupancy: sstep.occupancy,
            client_occupancy: cstep.occupancy,
            client_peak: cstep.peak_occupancy,
            sent_bytes: sstep.sent_bytes(),
            link_in_flight: link.in_flight_bytes(),
        });
        if probe.enabled() {
            probe.on_event(&Event::SlotEnd {
                time: t,
                server_occupancy: sstep.occupancy,
                client_occupancy: cstep.occupancy,
                link_bytes: sstep.sent_bytes(),
            });
        }

        let done =
            t >= last_arrival && server.is_drained() && link.is_empty() && client.is_drained();
        if done {
            break;
        }
        assert!(
            t <= horizon,
            "schedule failed to drain by step {t} (horizon {horizon})"
        );
        t += 1;
    }

    if probe.enabled() {
        probe.on_event(&Event::RunEnd { time: t + 1, slots: t + 1 });
    }

    let metrics = Metrics::from_record(&record);
    SimReport {
        config,
        policy: policy_name,
        record,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::policy::{GreedyByteValue, TailDrop};
    use rts_core::ClientDropReason;
    use rts_stream::{FrameKind, SliceSpec};

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    fn balanced(rate: Bytes, delay: Time, p: Time) -> SimConfig {
        SimConfig::new(SmoothingParams::balanced_from_rate_delay(rate, delay, p))
    }

    #[test]
    fn lossless_when_buffer_suffices() {
        let stream = unit_frames(&[4, 0, 0, 0]);
        let report = simulate(&stream, balanced(1, 3, 2), TailDrop::new());
        assert_eq!(report.metrics.played_bytes, 4);
        assert_eq!(report.metrics.lost_bytes(), 0);
    }

    #[test]
    fn constant_sojourn_time_for_played_slices() {
        // Definition 2.5: a real-time schedule gives every played slice
        // the same sojourn time P + D.
        let stream = unit_frames(&[3, 5, 1, 0, 2]);
        let p = 2;
        let d = 3;
        let report = simulate(&stream, balanced(2, d, p), GreedyByteValue::new());
        for (r, playout) in report.record.played() {
            assert_eq!(playout - r.slice.arrival, p + d);
        }
        assert!(report.metrics.played_slices > 0);
    }

    #[test]
    fn overflow_losses_match_eq3() {
        // B = R*D = 2*1 = 2. Burst of 7: send 2, keep 2, drop 3.
        let stream = unit_frames(&[7]);
        let report = simulate(&stream, balanced(2, 1, 0), TailDrop::new());
        assert_eq!(report.metrics.server_dropped_slices, 3);
        assert_eq!(report.metrics.played_bytes, 4);
    }

    #[test]
    fn no_client_loss_when_balanced() {
        // Lemmas 3.3/3.4: with Bc = B = R*D the client never drops.
        let stream = unit_frames(&[9, 0, 6, 6, 0, 0, 11, 2]);
        let report = simulate(&stream, balanced(3, 2, 1), TailDrop::new());
        assert_eq!(report.metrics.client_dropped_slices, 0);
        assert!(report.metrics.client_occupancy_max <= 6);
    }

    #[test]
    fn underflow_when_delay_below_b_over_r() {
        // B=4, R=1, D=2 < B/R=4: some bytes arrive after their deadline.
        let params = SmoothingParams {
            buffer: 4,
            rate: 1,
            delay: 2,
            link_delay: 0,
        };
        let stream = unit_frames(&[4]);
        let report = simulate(&stream, SimConfig::new(params), TailDrop::new());
        let late = report
            .metrics
            .client_drop_reasons
            .get(&ClientDropReason::Late)
            .copied()
            .unwrap_or(0);
        assert!(late > 0, "expected late drops: {:?}", report.metrics);
        assert!(report.metrics.played_bytes < 4);
    }

    #[test]
    fn client_overflow_when_client_buffer_small() {
        // Server buffer ample, client buffer tiny: overflow at client.
        let params = SmoothingParams {
            buffer: 6,
            rate: 2,
            delay: 3,
            link_delay: 0,
        };
        let mut config = SimConfig::new(params);
        config.client_capacity = Some(1);
        let stream = unit_frames(&[6]);
        let report = simulate(&stream, config, TailDrop::new());
        let overflow = report
            .metrics
            .client_drop_reasons
            .get(&ClientDropReason::Overflow)
            .copied()
            .unwrap_or(0);
        assert!(overflow > 0);
    }

    #[test]
    fn every_slice_is_resolved() {
        let stream = unit_frames(&[5, 9, 0, 3, 12, 0, 0, 7]);
        let report = simulate(&stream, balanced(2, 2, 3), TailDrop::new());
        assert!(report.record.slices().all(|r| r.fate.is_some()));
        assert_eq!(
            report.metrics.played_slices
                + report.metrics.server_dropped_slices
                + report.metrics.client_dropped_slices,
            stream.slice_count() as u64
        );
    }

    #[test]
    fn variable_slices_roundtrip() {
        let stream = InputStream::from_frames([
            vec![
                SliceSpec::new(5, 60, FrameKind::I),
                SliceSpec::new(2, 2, FrameKind::B),
            ],
            vec![SliceSpec::new(3, 24, FrameKind::P)],
            vec![],
        ]);
        let report = simulate(&stream, balanced(2, 3, 1), GreedyByteValue::new());
        assert_eq!(
            report.metrics.played_bytes + report.metrics.lost_bytes(),
            stream.total_bytes()
        );
    }

    #[test]
    fn empty_stream_terminates() {
        let stream = InputStream::builder().build();
        let report = simulate(&stream, balanced(1, 1, 0), TailDrop::new());
        assert_eq!(report.metrics.played_bytes, 0);
        assert_eq!(report.record.steps().len(), 1);
    }

    #[test]
    fn probed_run_matches_unprobed_metrics() {
        use rts_obs::Collector;
        let stream = unit_frames(&[7, 0, 9, 3, 0, 0, 5, 12]);
        let config = balanced(2, 2, 1);
        let plain = simulate(&stream, config, GreedyByteValue::new());
        let mut collector = Collector::new();
        let probed = simulate_probed(&stream, config, GreedyByteValue::new(), &mut collector);
        assert_eq!(plain.metrics, probed.metrics, "probe must not perturb the run");
        assert_eq!(collector.played_bytes.get(), probed.metrics.played_bytes);
        assert_eq!(collector.played_weight.get(), probed.metrics.benefit);
        assert_eq!(collector.admitted_bytes.get(), probed.metrics.offered_bytes);
        assert_eq!(
            collector.server_occupancy_max.max(),
            probed.metrics.server_occupancy_max
        );
        assert_eq!(collector.link_rate_max.max(), probed.metrics.link_rate_max);
        assert_eq!(
            collector.slots.get() as usize,
            probed.record.steps().len(),
            "one SlotEnd per recorded step"
        );
        assert!(collector.run_end.is_some());
    }

    #[test]
    fn report_carries_policy_and_config() {
        let stream = unit_frames(&[1]);
        let config = balanced(1, 1, 0);
        let report = simulate(&stream, config, TailDrop::new());
        assert_eq!(report.policy, "Tail-Drop");
        assert_eq!(report.config, config);
    }
}
