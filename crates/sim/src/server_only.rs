//! Single-buffer runs: the Section 4 model.
//!
//! For the weighted analysis the paper "zooms in to the server" — a
//! single limited-space FIFO buffer with a fixed drain rate; benefit is
//! the weight of the slices fully submitted to the link. With balanced
//! parameters (`B = R·D`, `Bc = B`) Theorems 3.5/3.9 and Lemmas 3.3/3.4
//! guarantee the client adds no further loss, so this is exactly the
//! benefit of the end-to-end schedule (the integration tests verify the
//! reduction against [`simulate`](crate::simulate)).

use rts_core::{DropPolicy, Server};
use rts_obs::{Event, NoopProbe, Probe};
use rts_stream::{Bytes, InputStream, Weight};

use crate::events;

/// Aggregate result of a single-buffer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerRun {
    /// Total bytes offered.
    pub offered_bytes: Bytes,
    /// Total weight offered.
    pub offered_weight: Weight,
    /// Bytes fully transmitted (server throughput).
    pub throughput: Bytes,
    /// Weight of fully transmitted slices (benefit).
    pub benefit: Weight,
    /// Slices fully transmitted.
    pub sent_slices: u64,
    /// Slices dropped at the server.
    pub dropped_slices: u64,
}

impl ServerRun {
    /// Fraction of offered weight lost, in `[0, 1]`.
    pub fn weighted_loss(&self) -> f64 {
        if self.offered_weight == 0 {
            0.0
        } else {
            (self.offered_weight - self.benefit) as f64 / self.offered_weight as f64
        }
    }

    /// Fraction of offered weight delivered, in `[0, 1]`.
    pub fn benefit_fraction(&self) -> f64 {
        if self.offered_weight == 0 {
            1.0
        } else {
            self.benefit as f64 / self.offered_weight as f64
        }
    }
}

/// Runs the generic server algorithm alone — buffer `buffer`, rate
/// `rate`, the given drop policy — over the whole stream, draining the
/// buffer after the last arrival.
///
/// # Example
///
/// ```
/// use rts_core::policy::GreedyByteValue;
/// use rts_sim::run_server_only;
/// use rts_stream::{FrameKind, InputStream, SliceSpec};
///
/// let stream = InputStream::from_frames([vec![
///     SliceSpec::new(1, 9, FrameKind::I),
///     SliceSpec::new(1, 1, FrameKind::B),
///     SliceSpec::new(1, 1, FrameKind::B),
/// ]]);
/// let run = run_server_only(&stream, 1, 1, GreedyByteValue::new());
/// // R=1 sends one slice, B=1 stores one more; greedy keeps 9 and a 1.
/// assert_eq!(run.benefit, 10);
/// assert_eq!(run.dropped_slices, 1);
/// ```
pub fn run_server_only<P: DropPolicy>(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
    policy: P,
) -> ServerRun {
    run_server_only_probed(stream, buffer, rate, policy, &mut NoopProbe)
}

/// [`run_server_only`] with an observability probe. There is no client
/// stage, so the feed has no playout events and each
/// [`Event::SlotEnd`] reports a zero client occupancy; the per-slot
/// `link_bytes` is the server's submitted bytes.
pub fn run_server_only_probed<P: DropPolicy, Pr: Probe>(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
    policy: P,
    probe: &mut Pr,
) -> ServerRun {
    let mut server = Server::new(buffer, rate, policy);
    let mut run = ServerRun {
        offered_bytes: stream.total_bytes(),
        offered_weight: stream.total_weight(),
        ..ServerRun::default()
    };
    if probe.enabled() {
        probe.on_event(&Event::RunStart { time: 0, sessions: 1 });
    }
    let mut frames = stream.frames().iter().peekable();
    let mut t = 0;
    let mut step = rts_core::ServerStep::default();
    while frames.peek().is_some() || !server.is_drained() {
        let arrivals: &[_] = match frames.next_if(|f| f.time == t) {
            Some(f) => &f.slices,
            None => &[],
        };
        server.step_into(t, arrivals, &mut step);
        events::admitted(probe, arrivals);
        events::server_step(probe, t, &step);
        for c in &step.sent {
            if c.completed {
                run.throughput += c.slice.size;
                run.benefit += c.slice.weight;
                run.sent_slices += 1;
            }
        }
        run.dropped_slices += step.dropped.len() as u64;
        if probe.enabled() {
            probe.on_event(&Event::SlotEnd {
                time: t,
                server_occupancy: step.occupancy,
                client_occupancy: 0,
                link_bytes: step.sent_bytes(),
            });
        }
        t += 1;
    }
    if probe.enabled() {
        probe.on_event(&Event::RunEnd { time: t, slots: t });
    }
    run
}

/// Like [`run_server_only`], but with a renegotiated link: `schedule`
/// lists `(from_step, rate)` changes in increasing time order (the
/// first entry must start at step 0). The drain after the last arrival
/// continues at the final scheduled rate.
///
/// # Panics
///
/// Panics if the schedule is empty, unsorted, does not start at 0, or
/// contains a zero rate.
pub fn run_server_with_rate_schedule<P: DropPolicy>(
    stream: &InputStream,
    buffer: Bytes,
    schedule: &[(u64, Bytes)],
    policy: P,
) -> ServerRun {
    assert!(!schedule.is_empty(), "rate schedule must be non-empty");
    assert_eq!(schedule[0].0, 0, "rate schedule must start at step 0");
    assert!(
        schedule.windows(2).all(|w| w[0].0 < w[1].0),
        "rate schedule must be strictly increasing in time"
    );
    let mut server = Server::new(buffer, schedule[0].1, policy);
    let mut run = ServerRun {
        offered_bytes: stream.total_bytes(),
        offered_weight: stream.total_weight(),
        ..ServerRun::default()
    };
    let absorb = |run: &mut ServerRun, step: &rts_core::ServerStep| {
        for c in &step.sent {
            if c.completed {
                run.throughput += c.slice.size;
                run.benefit += c.slice.weight;
                run.sent_slices += 1;
            }
        }
        run.dropped_slices += step.dropped.len() as u64;
    };

    let mut changes = schedule.iter().copied().peekable();
    let mut frames = stream.frames().iter().peekable();
    let mut t = 0;
    let mut step = rts_core::ServerStep::default();
    loop {
        while let Some(&(at, rate)) = changes.peek() {
            if at > t {
                break;
            }
            server.set_rate(rate);
            changes.next();
        }
        let arrivals: &[_] = match frames.peek() {
            Some(f) if f.time == t => &frames.next().expect("peeked").slices,
            _ => &[],
        };
        server.step_into(t, arrivals, &mut step);
        absorb(&mut run, &step);
        let arrivals_done = frames.peek().is_none();
        if arrivals_done && server.is_drained() && changes.peek().is_none() {
            break;
        }
        t += 1;
        // A schedule stretching far past the data would spin; once the
        // data is gone, fast-forward through pure rate changes.
        if arrivals_done && server.is_drained() {
            if let Some(&(at, _)) = changes.peek() {
                t = t.max(at);
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::policy::{GreedyByteValue, TailDrop};
    use rts_stream::SliceSpec;

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn everything_sent_when_capacity_suffices() {
        let s = unit_frames(&[3, 0, 0]);
        let run = run_server_only(&s, 2, 1, TailDrop::new());
        assert_eq!(run.throughput, 3);
        assert_eq!(run.benefit, 3);
        assert_eq!(run.dropped_slices, 0);
        assert_eq!(run.weighted_loss(), 0.0);
    }

    #[test]
    fn conservation_of_slices() {
        let s = unit_frames(&[9, 0, 4, 11]);
        let run = run_server_only(&s, 2, 2, TailDrop::new());
        assert_eq!(run.sent_slices + run.dropped_slices, 24);
        assert_eq!(run.throughput + (24 - run.sent_slices), 24);
    }

    #[test]
    fn sparse_streams_drain_during_gaps() {
        let mut b = InputStream::builder();
        b.frame(0, vec![SliceSpec::unit(); 4]);
        b.frame(6, vec![SliceSpec::unit(); 4]);
        let s = b.build();
        // B=3, R=1: first burst keeps 4 (send 1 store 3), gap drains.
        let run = run_server_only(&s, 3, 1, TailDrop::new());
        assert_eq!(run.throughput, 8);
    }

    #[test]
    fn rate_schedule_with_one_entry_matches_fixed_rate() {
        let s = unit_frames(&[7, 0, 9, 3, 0, 0, 5]);
        let fixed = run_server_only(&s, 4, 2, TailDrop::new());
        let scheduled = run_server_with_rate_schedule(&s, 4, &[(0, 2)], TailDrop::new());
        assert_eq!(fixed, scheduled);
    }

    #[test]
    fn rate_drop_mid_run_causes_loss() {
        // Rate 4 handles 4/step; dropping to 1 at t=3 overflows.
        let s = unit_frames(&[4, 4, 4, 4, 4, 4]);
        let full = run_server_with_rate_schedule(&s, 2, &[(0, 4)], TailDrop::new());
        assert_eq!(full.dropped_slices, 0);
        let choked = run_server_with_rate_schedule(&s, 2, &[(0, 4), (3, 1)], TailDrop::new());
        assert!(choked.dropped_slices > 0);
        assert_eq!(
            choked.sent_slices + choked.dropped_slices,
            s.slice_count() as u64
        );
    }

    #[test]
    fn rate_increase_rescues_a_backlog() {
        let s = unit_frames(&[6]);
        let slow = run_server_with_rate_schedule(&s, 2, &[(0, 1)], TailDrop::new());
        let boosted = run_server_with_rate_schedule(&s, 2, &[(0, 1), (1, 8)], TailDrop::new());
        assert!(boosted.throughput >= slow.throughput);
    }

    #[test]
    fn schedule_past_the_data_terminates() {
        let s = unit_frames(&[2]);
        let run = run_server_with_rate_schedule(&s, 4, &[(0, 1), (1000, 2)], TailDrop::new());
        assert_eq!(run.throughput, 2);
    }

    #[test]
    #[should_panic(expected = "start at step 0")]
    fn schedule_must_start_at_zero() {
        run_server_with_rate_schedule(&unit_frames(&[1]), 1, &[(1, 1)], TailDrop::new());
    }

    #[test]
    fn greedy_beats_taildrop_on_adversarial_weights() {
        let s = rts_stream::gen::greedy_lower_bound_stream(4, 1, 10);
        let greedy = run_server_only(&s, 4, 1, GreedyByteValue::new());
        let tail = run_server_only(&s, 4, 1, TailDrop::new());
        assert!(greedy.benefit >= tail.benefit);
        assert!(greedy.benefit_fraction() > 0.0);
    }
}
