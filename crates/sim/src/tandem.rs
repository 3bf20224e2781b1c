//! Tandem smoothing: a chain of store-and-forward hops.
//!
//! Rexford and Towsley's internetwork setting (the paper's related
//! work): the stream crosses several links, each with its own rate and
//! a smoothing buffer at its entrance. This module chains the generic
//! server through `K` hops:
//!
//! ```text
//! source → [server 0] → link 0 → [relay 1] → link 1 → … → client
//! ```
//!
//! Each relay **reassembles** arriving slices (store-and-forward: a
//! slice is eligible for forwarding once all its bytes have arrived)
//! and then runs the same generic algorithm — work-conserving FIFO
//! drain, whole-slice overflow drops via a per-hop policy. Bytes being
//! reassembled occupy a separate reassembly area whose peak is reported
//! in the result (a cut-through relay would need byte-level scheduling,
//! which the paper's single-buffer model deliberately avoids).
//!
//! The client plays frame `f` at `f + ΣP_i + D`; `D` must cover the
//! worst-case queueing of *all* hops (`Σ ⌈B_i/R_i⌉` by Lemma 3.2 per
//! hop), which [`tandem_delay`] computes.

use std::collections::HashMap;

use rts_core::{Client, DropPolicy, SentChunk, Server};
use rts_obs::{Event, NoopProbe, Probe, Tagged};
use rts_stream::{Bytes, InputStream, Slice, SliceId, Time};

use crate::events;
use crate::link::{Link, LinkModel};

/// One hop: the buffer in front of a link and the link itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopConfig {
    /// Buffer capacity at the hop's entrance.
    pub buffer: Bytes,
    /// Link rate out of the hop.
    pub rate: Bytes,
    /// Propagation delay of the hop's link.
    pub link_delay: Time,
}

/// Outcome of a tandem run.
#[derive(Debug, Clone, PartialEq)]
pub struct TandemReport {
    /// Weight of slices played on time.
    pub benefit: u64,
    /// Bytes played on time.
    pub played_bytes: Bytes,
    /// Slices played.
    pub played_slices: u64,
    /// Overflow drops per hop.
    pub hop_drops: Vec<u64>,
    /// Slices discarded by the client (late/overflow/incomplete).
    pub client_drops: u64,
    /// Peak reassembly-area occupancy per relay hop (hop 0 has none).
    pub reassembly_peak: Vec<Bytes>,
    /// Total offered weight.
    pub offered_weight: u64,
    /// Total offered bytes.
    pub offered_bytes: Bytes,
}

impl TandemReport {
    /// Fraction of offered weight lost.
    pub fn weighted_loss(&self) -> f64 {
        if self.offered_weight == 0 {
            0.0
        } else {
            (self.offered_weight - self.benefit) as f64 / self.offered_weight as f64
        }
    }
}

/// The smoothing delay needed to cover every hop's worst-case queueing
/// plus a caller-chosen slack: `Σ ⌈B_i/R_i⌉ + slack` (Lemma 3.2 applied
/// per hop; the relays' reassembly adds no delay beyond the upstream
/// link's own serialization, which the per-hop bound already covers).
pub fn tandem_delay(hops: &[HopConfig], slack: Time) -> Time {
    hops.iter()
        .map(|h| h.buffer.div_ceil(h.rate.max(1)))
        .sum::<Time>()
        + slack
}

/// A relay stage: slice reassembly in front of a generic server.
struct Relay<P> {
    server: Server<P>,
    partial: HashMap<SliceId, (Slice, Bytes)>,
    reassembly_bytes: Bytes,
    reassembly_peak: Bytes,
}

impl<P: DropPolicy> Relay<P> {
    fn new(config: HopConfig, policy: P) -> Self {
        Relay {
            server: Server::new(config.buffer, config.rate, policy),
            partial: HashMap::new(),
            reassembly_bytes: 0,
            reassembly_peak: 0,
        }
    }

    /// Absorbs upstream deliveries; appends the slices that completed
    /// reassembly this step into `ready` (in FIFO completion order).
    fn absorb_into(&mut self, delivered: &[SentChunk], ready: &mut Vec<Slice>) {
        for c in delivered {
            let entry = self.partial.entry(c.slice.id).or_insert((c.slice, 0));
            entry.1 += c.bytes;
            self.reassembly_bytes += c.bytes;
            if entry.1 == entry.0.size {
                ready.push(entry.0);
                self.reassembly_bytes -= entry.0.size;
                self.partial.remove(&c.slice.id);
            }
        }
        self.reassembly_peak = self.reassembly_peak.max(self.reassembly_bytes);
    }
}

/// Runs the stream through a chain of hops and a final client.
///
/// Hop 0 is the origin server (fed directly by the source); hops
/// `1..` are store-and-forward relays. The client budgets the sum of
/// link delays and plays with smoothing delay `delay`; its capacity is
/// the balanced `R_last · delay` (Lemma 3.4 applied to the last link).
///
/// `make_policy(hop)` constructs the drop policy for each hop.
///
/// # Panics
///
/// Panics if `hops` is empty or any rate is zero.
pub fn simulate_tandem<P, F>(
    stream: &InputStream,
    hops: &[HopConfig],
    delay: Time,
    make_policy: F,
) -> TandemReport
where
    P: DropPolicy,
    F: Fn(usize) -> P,
{
    simulate_tandem_probed(stream, hops, delay, make_policy, &mut NoopProbe)
}

/// [`simulate_tandem`] with an observability probe.
///
/// The shared probe is scoped per stage via [`Tagged`]: slice events
/// from hop `k`'s server carry session tag `k`, and the final client's
/// playouts and discards carry the last hop's tag `K−1` (the client
/// terminates that hop's link). Note that in a tandem every surviving
/// slice is admitted and sent once *per hop*, so trace-level admission
/// counts are per-stage, not per-source-slice. [`Event::SlotEnd`]
/// reports network-wide totals: summed hop occupancies, the client's
/// occupancy, and the bytes submitted to all links that slot.
pub fn simulate_tandem_probed<P, F, Pr>(
    stream: &InputStream,
    hops: &[HopConfig],
    delay: Time,
    make_policy: F,
    probe: &mut Pr,
) -> TandemReport
where
    P: DropPolicy,
    F: Fn(usize) -> P,
    Pr: Probe,
{
    let links: Vec<Link> = hops.iter().map(|h| Link::new(h.link_delay)).collect();
    simulate_tandem_with_links_probed(stream, hops, delay, make_policy, links, probe)
}

/// [`simulate_tandem`] over caller-supplied links — one [`LinkModel`]
/// per hop, in hop order. This is how fault-injecting links (the
/// `FaultyLink` wrapper of `rts-faults`) are threaded through a tandem:
/// the client still budgets the *nominal* per-hop delays, so any extra
/// delay a faulty link introduces surfaces as accounted late/incomplete
/// drops rather than silent corruption.
///
/// # Panics
///
/// Panics if `hops` is empty, or `links.len() != hops.len()`.
pub fn simulate_tandem_with_links<P, F, L>(
    stream: &InputStream,
    hops: &[HopConfig],
    delay: Time,
    make_policy: F,
    links: Vec<L>,
) -> TandemReport
where
    P: DropPolicy,
    F: Fn(usize) -> P,
    L: LinkModel,
{
    simulate_tandem_with_links_probed(stream, hops, delay, make_policy, links, &mut NoopProbe)
}

/// [`simulate_tandem_with_links`] with an observability probe (see
/// [`simulate_tandem_probed`] for tagging; additionally each link's
/// fault windows are emitted as [`Event::LinkFault`] tagged with the
/// hop index).
pub fn simulate_tandem_with_links_probed<P, F, L, Pr>(
    stream: &InputStream,
    hops: &[HopConfig],
    delay: Time,
    make_policy: F,
    mut links: Vec<L>,
    probe: &mut Pr,
) -> TandemReport
where
    P: DropPolicy,
    F: Fn(usize) -> P,
    L: LinkModel,
    Pr: Probe,
{
    assert!(!hops.is_empty(), "a tandem needs at least one hop");
    assert_eq!(links.len(), hops.len(), "one link per hop");
    let total_link_delay: Time = hops.iter().map(|h| h.link_delay).sum();

    let mut origin = Server::new(hops[0].buffer, hops[0].rate, make_policy(0));
    let mut relays: Vec<Relay<P>> = hops
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, h)| Relay::new(*h, make_policy(i)))
        .collect();
    let last_rate = hops.last().expect("non-empty").rate;
    let mut client = Client::new(last_rate * delay, delay, total_link_delay);

    let mut report = TandemReport {
        benefit: 0,
        played_bytes: 0,
        played_slices: 0,
        hop_drops: vec![0; hops.len()],
        client_drops: 0,
        reassembly_peak: vec![0; hops.len()],
        offered_weight: stream.total_weight(),
        offered_bytes: stream.total_bytes(),
    };

    let worst_link_delay: Time = links.iter().map(|l| l.worst_case_delay()).sum();
    let last_arrival = stream.last_arrival().unwrap_or(0);
    let horizon = last_arrival
        + total_link_delay.max(worst_link_delay)
        + delay
        + (stream.total_bytes() + 1) * hops.len() as u64
            / hops.iter().map(|h| h.rate).min().unwrap_or(1).max(1)
        + 8;

    if probe.enabled() {
        probe.on_event(&Event::RunStart { time: 0, sessions: hops.len() as u32 });
    }

    let mut frames = stream.frames().peekable();
    let mut t: Time = 0;
    // Per-slot scratch shared by every stage (stages run sequentially
    // within a slot), allocated once for the whole run.
    let mut step = rts_core::ServerStep::default();
    let mut cstep = rts_core::ClientStep::default();
    let mut delivered: Vec<SentChunk> = Vec::new();
    let mut ready: Vec<Slice> = Vec::new();
    loop {
        let mut slot_sent: Bytes = 0;

        // Hop 0: source arrivals.
        let arrivals: &[_] = match frames.peek() {
            Some(f) if f.time == t => frames.next().expect("peeked").slices,
            _ => &[],
        };
        origin.step_into(t, arrivals, &mut step);
        let hop0 = &mut Tagged::new(probe, 0);
        events::admitted(hop0, arrivals);
        events::server_step(hop0, t, &step);
        report.hop_drops[0] += step.dropped.len() as u64;
        slot_sent += step.sent_bytes();
        links[0].submit(&step.sent);
        if probe.enabled() {
            for (hop, link) in links.iter().enumerate() {
                for kind in link.fault_events(t) {
                    probe.on_event(&Event::LinkFault { time: t, session: hop as u32, kind });
                }
            }
        }

        // Relays: deliveries from the previous link, reassembly, send.
        for (i, relay) in relays.iter_mut().enumerate() {
            delivered.clear();
            links[i].deliver_into(t, &mut delivered);
            ready.clear();
            relay.absorb_into(&delivered, &mut ready);
            relay.server.step_into(t, &ready, &mut step);
            let hop = &mut Tagged::new(probe, i as u32 + 1);
            events::admitted(hop, &ready);
            events::server_step(hop, t, &step);
            report.hop_drops[i + 1] += step.dropped.len() as u64;
            report.reassembly_peak[i + 1] = relay.reassembly_peak;
            slot_sent += step.sent_bytes();
            links[i + 1].submit(&step.sent);
        }

        // Client: deliveries from the last link. The chunk's `time` is
        // its send time on the *last* link; the client's deadline check
        // uses the total link delay, so re-express the chunk as if it
        // had traversed one link of that total delay.
        delivered.clear();
        links
            .last_mut()
            .expect("non-empty")
            .deliver_into(t, &mut delivered);
        for c in &mut delivered {
            c.time = t - total_link_delay.min(t);
        }
        client.step_into(t, &delivered, &mut cstep);
        events::client_step(&mut Tagged::new(probe, hops.len() as u32 - 1), t, &cstep);
        for s in &cstep.played {
            report.benefit += s.weight;
            report.played_bytes += s.size;
            report.played_slices += 1;
        }
        report.client_drops += cstep.dropped.len() as u64;

        if probe.enabled() {
            let hop_occupancy = origin.buffer().occupancy()
                + relays
                    .iter()
                    .map(|r| r.server.buffer().occupancy())
                    .sum::<Bytes>();
            probe.on_event(&Event::SlotEnd {
                time: t,
                server_occupancy: hop_occupancy,
                client_occupancy: cstep.occupancy,
                link_bytes: slot_sent,
            });
        }

        let drained = t >= last_arrival
            && origin.is_drained()
            && links.iter().all(|l| l.is_empty())
            && relays
                .iter()
                .all(|r| r.server.is_drained() && r.partial.is_empty())
            && client.is_drained();
        if drained {
            break;
        }
        assert!(
            t <= horizon,
            "tandem failed to drain by {t} (horizon {horizon})"
        );
        t += 1;
    }
    if probe.enabled() {
        probe.on_event(&Event::RunEnd { time: t + 1, slots: t + 1 });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use rts_core::policy::{GreedyByteValue, TailDrop};
    use rts_core::tradeoff::SmoothingParams;
    use rts_stream::{InputStream, SliceSpec};

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn single_hop_tandem_matches_the_engine() {
        let stream = unit_frames(&[6, 0, 9, 2, 0, 0, 4]);
        let hop = HopConfig {
            buffer: 6,
            rate: 3,
            link_delay: 2,
        };
        let delay = tandem_delay(&[hop], 0);
        let tandem = simulate_tandem(&stream, &[hop], delay, |_| TailDrop::new());
        let params = SmoothingParams {
            buffer: hop.buffer,
            rate: hop.rate,
            delay,
            link_delay: hop.link_delay,
        };
        let single = simulate(&stream, SimConfig::new(params), TailDrop::new());
        assert_eq!(tandem.benefit, single.metrics.benefit);
        assert_eq!(tandem.played_bytes, single.metrics.played_bytes);
        assert_eq!(tandem.hop_drops[0], single.metrics.server_dropped_slices);
        assert_eq!(tandem.client_drops, 0);
    }

    #[test]
    fn generous_second_hop_adds_no_loss() {
        let stream = unit_frames(&[8, 0, 8, 0, 0, 8, 0, 0, 0]);
        let first = HopConfig {
            buffer: 6,
            rate: 3,
            link_delay: 1,
        };
        let second = HopConfig {
            buffer: 64,
            rate: 3, // same rate: whatever hop 0 passes, hop 1 carries
            link_delay: 2,
        };
        let delay = tandem_delay(&[first, second], 2);
        let two = simulate_tandem(&stream, &[first, second], delay, |_| TailDrop::new());
        let one = simulate_tandem(&stream, &[first], delay, |_| TailDrop::new());
        assert_eq!(two.benefit, one.benefit, "relay should be transparent");
        assert_eq!(two.hop_drops[1], 0);
        assert_eq!(two.client_drops, 0);
    }

    #[test]
    fn bottleneck_relay_drops_at_the_second_hop() {
        let stream = unit_frames(&[10, 10, 10, 10]);
        let hops = [
            HopConfig {
                buffer: 12,
                rate: 8,
                link_delay: 0,
            },
            HopConfig {
                buffer: 2,
                rate: 2,
                link_delay: 0,
            },
        ];
        let delay = tandem_delay(&hops, 2);
        let report = simulate_tandem(&stream, &hops, delay, |_| TailDrop::new());
        assert!(report.hop_drops[1] > 0, "{:?}", report.hop_drops);
        assert!(report.benefit < report.offered_weight);
    }

    #[test]
    fn conservation_across_hops() {
        let stream = unit_frames(&[9, 3, 0, 14, 0, 5]);
        let hops = [
            HopConfig {
                buffer: 5,
                rate: 3,
                link_delay: 1,
            },
            HopConfig {
                buffer: 4,
                rate: 2,
                link_delay: 2,
            },
            HopConfig {
                buffer: 4,
                rate: 2,
                link_delay: 0,
            },
        ];
        let delay = tandem_delay(&hops, 1);
        let report = simulate_tandem(&stream, &hops, delay, |_| GreedyByteValue::new());
        let accounted =
            report.played_slices + report.hop_drops.iter().sum::<u64>() + report.client_drops;
        assert_eq!(accounted, stream.slice_count() as u64);
    }

    #[test]
    fn variable_slices_reassemble_across_hops() {
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::new(5, 50, rts_stream::FrameKind::I)]);
        b.frame(1, [SliceSpec::new(3, 3, rts_stream::FrameKind::B)]);
        let stream = b.build();
        let hops = [
            HopConfig {
                buffer: 8,
                rate: 2,
                link_delay: 1,
            },
            HopConfig {
                buffer: 8,
                rate: 2,
                link_delay: 1,
            },
        ];
        let delay = tandem_delay(&hops, 4);
        let report = simulate_tandem(&stream, &hops, delay, |_| GreedyByteValue::new());
        assert_eq!(report.played_bytes, 8, "{report:?}");
        assert!(report.reassembly_peak[1] > 0, "relay must have reassembled");
    }

    #[test]
    fn tandem_delay_accounts_every_hop() {
        let hops = [
            HopConfig {
                buffer: 10,
                rate: 3,
                link_delay: 1,
            },
            HopConfig {
                buffer: 6,
                rate: 2,
                link_delay: 1,
            },
        ];
        assert_eq!(tandem_delay(&hops, 2), 4 + 3 + 2);
    }

    #[test]
    fn probed_tandem_matches_and_tags_hops() {
        use rts_obs::{Collector, Event, Tee, VecProbe};
        let stream = unit_frames(&[9, 3, 0, 14, 0, 5]);
        let hops = [
            HopConfig { buffer: 5, rate: 3, link_delay: 1 },
            HopConfig { buffer: 4, rate: 2, link_delay: 0 },
        ];
        let delay = tandem_delay(&hops, 1);
        let plain = simulate_tandem(&stream, &hops, delay, |_| TailDrop::new());
        let mut probe = Tee(Collector::new(), VecProbe::new());
        let probed =
            simulate_tandem_probed(&stream, &hops, delay, |_| TailDrop::new(), &mut probe);
        assert_eq!(plain, probed, "probe must not perturb the run");
        let (collector, events) = (probe.0, probe.1.events);
        assert_eq!(collector.played_slices.get(), probed.played_slices);
        assert_eq!(collector.sessions, 2);
        // Both hops emitted admissions under their own tag.
        for hop in [0u32, 1] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::SliceAdmitted { session, .. } if *session == hop)),
                "no admissions tagged for hop {hop}"
            );
        }
        // Playouts come from the client, tagged with the last hop.
        assert!(events
            .iter()
            .all(|e| !matches!(e, Event::SlicePlayed { session, .. } if *session != 1)));
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_tandem_rejected() {
        simulate_tandem(&unit_frames(&[1]), &[], 1, |_| TailDrop::new());
    }
}
