//! Running full smoothing simulations under a fault plan.
//!
//! [`simulate_faulted`] is [`rts_sim::simulate`] with a [`FaultPlan`]
//! threaded through every layer: link faults wrap the constant-delay
//! link in a [`FaultyLink`], a clock-drift fault installs itself on the
//! client, and (optionally) a [`ResyncPolicy`] lets the client degrade
//! gracefully instead of dropping late data. The run stays a pure
//! function of `(stream, config, plan, policy)`.
//!
//! Faulted runs generally *violate* the constant-sojourn property of
//! Definition 2.5 (that is the point), so validate them with
//! [`Metrics::check_conservation`](rts_sim::Metrics::check_conservation)
//! — every offered byte is still accounted as played, dropped, or
//! residual — rather than the strict schedule validator.

use rts_core::DropPolicy;
use rts_obs::{NoopProbe, Probe};
use rts_sim::{simulate_with_link_probed, Link, SimConfig, SimReport};
use rts_stream::{Bytes, InputStream, Time};

use crate::link::FaultyLink;
use crate::plan::{Fault, FaultPlan};

/// Runs the generic algorithm end to end with `plan` injected.
///
/// Link faults act on a [`FaultyLink`] wrapping the configured
/// constant-delay link; a [`Fault::ClockDrift`] in the plan is
/// installed on the client (unless the config already carries one).
/// The client's resync policy comes from `config.resync`.
pub fn simulate_faulted<P: DropPolicy>(
    stream: &InputStream,
    config: SimConfig,
    plan: FaultPlan,
    policy: P,
) -> SimReport<'_> {
    simulate_faulted_probed(stream, config, plan, policy, &mut NoopProbe)
}

/// [`simulate_faulted`] with an observability probe: in addition to the
/// usual engine events, each fault window opening is emitted as an
/// [`Event::LinkFault`](rts_obs::Event::LinkFault) and each client
/// timer re-anchor as an
/// [`Event::ClientResync`](rts_obs::Event::ClientResync).
pub fn simulate_faulted_probed<'s, P: DropPolicy, Pr: Probe>(
    stream: &'s InputStream,
    mut config: SimConfig,
    plan: FaultPlan,
    policy: P,
    probe: &mut Pr,
) -> SimReport<'s> {
    if config.drift.is_none() {
        config.drift = plan.drift();
    }
    let link = FaultyLink::new(Link::new(config.params.link_delay), plan);
    simulate_with_link_probed(stream, config, link, policy, probe)
}

/// Translates a plan's link faults into a server rate schedule for
/// [`rts_sim::run_server_with_rate_schedule`]: the server's drain rate
/// is capped by any active dip and floored at 1 byte/slot during an
/// outage (the server model forbids a zero rate; the remaining trickle
/// is the closest server-side analogue of a dead link).
///
/// The schedule starts at slot 0, changes at every fault-window edge up
/// to `horizon`, and is strictly increasing in time as the server-only
/// runner requires.
pub fn rate_schedule_for_server(
    plan: &FaultPlan,
    nominal_rate: Bytes,
    horizon: Time,
) -> Vec<(Time, Bytes)> {
    let mut edges: Vec<Time> = vec![0];
    for f in plan.faults() {
        if let Fault::RateDip { from, until, .. } | Fault::Outage { from, until } = *f {
            if from < horizon {
                edges.push(from);
            }
            if until < horizon {
                edges.push(until);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    edges
        .into_iter()
        .map(|t| {
            let rate = match plan.egress_budget(t) {
                Some(cap) => cap.min(nominal_rate).max(1),
                None => nominal_rate,
            };
            (t, rate)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::policy::TailDrop;
    use rts_core::tradeoff::SmoothingParams;
    use rts_core::ResyncPolicy;
    use rts_stream::SliceSpec;

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts.iter().map(|&c| vec![SliceSpec::unit(); c]).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn empty_plan_matches_the_plain_engine() {
        let stream = unit_frames(&[5, 0, 7, 2, 0, 0, 3]);
        let config = SimConfig::new(SmoothingParams::balanced_from_rate_delay(2, 3, 1));
        let plain = rts_sim::simulate(&stream, config, TailDrop::new());
        let faulted = simulate_faulted(&stream, config, FaultPlan::new(9), TailDrop::new());
        assert_eq!(plain.metrics, faulted.metrics);
    }

    #[test]
    fn outage_without_resync_loses_but_conserves() {
        let stream = unit_frames(&[4, 4, 4, 4, 4, 4]);
        let config = SimConfig::new(SmoothingParams::balanced_from_rate_delay(4, 2, 1));
        let plan = FaultPlan::new(1).outage(2, 6);
        let report = simulate_faulted(&stream, config, plan, TailDrop::new());
        assert!(report.metrics.client_dropped_slices > 0, "{:?}", report.metrics);
        report.metrics.check_conservation().unwrap();
    }

    #[test]
    fn resync_rescues_what_strict_playout_drops() {
        let stream = unit_frames(&[4, 4, 4, 4, 4, 4]);
        // An ample client buffer isolates the timing effect: absorbing
        // an outage's flush costs buffer space on top of latency (the
        // same price the paper ascribes to jitter control).
        let config = SimConfig {
            client_capacity: Some(64),
            ..SimConfig::new(SmoothingParams::balanced_from_rate_delay(4, 2, 1))
        };
        let plan = FaultPlan::new(1).outage(2, 6);
        let strict = simulate_faulted(&stream, config, plan.clone(), TailDrop::new());
        let graceful = simulate_faulted(
            &stream,
            config.with_resync(ResyncPolicy::new(8, 1)),
            plan,
            TailDrop::new(),
        );
        assert!(
            graceful.metrics.played_bytes > strict.metrics.played_bytes,
            "resync must rescue bytes: {} vs {}",
            graceful.metrics.played_bytes,
            strict.metrics.played_bytes
        );
        graceful.metrics.check_conservation().unwrap();
    }

    #[test]
    fn drift_in_plan_installs_on_the_client() {
        // A fast clock gains a slot every 2: once the accrued skew
        // exceeds the smoothing slack D, arrivals start missing their
        // (accelerated) deadlines.
        let stream = unit_frames(&[2; 12]);
        let config = SimConfig::new(SmoothingParams::balanced_from_rate_delay(2, 2, 1));
        let plan = FaultPlan::parse("drift@0+1/2", 0).unwrap();
        let fast = simulate_faulted(&stream, config, plan, TailDrop::new());
        let plain = rts_sim::simulate(&stream, config, TailDrop::new());
        assert!(
            fast.metrics.played_bytes < plain.metrics.played_bytes,
            "a fast clock must cost playout: {} vs {}",
            fast.metrics.played_bytes,
            plain.metrics.played_bytes
        );
        fast.metrics.check_conservation().unwrap();
    }

    #[test]
    fn rate_schedule_translation() {
        let plan = FaultPlan::new(0).rate_dip(3, 6, 2).outage(10, 12);
        let schedule = rate_schedule_for_server(&plan, 5, 100);
        assert_eq!(schedule, vec![(0, 5), (3, 2), (6, 5), (10, 1), (12, 5)]);
        // Edges beyond the horizon are dropped.
        let clipped = rate_schedule_for_server(&plan, 5, 11);
        assert_eq!(clipped, vec![(0, 5), (3, 2), (6, 5), (10, 1)]);
        // The translated schedule actually drives the server-only runner.
        let stream = unit_frames(&[6, 6, 6, 0, 0, 0, 0, 0]);
        let run = rts_sim::run_server_with_rate_schedule(
            &stream,
            12,
            &rate_schedule_for_server(&plan, 5, 100),
            TailDrop::new(),
        );
        assert_eq!(
            run.sent_slices + run.dropped_slices,
            stream.slice_count() as u64,
            "every slice accounted under the degraded schedule"
        );
    }
}
