//! Slice events from step records: the one place a stage's step becomes
//! observability events.
//!
//! The paper's server and client ([`rts_core::Server`],
//! [`rts_core::Client`]) trace nothing. Each step returns a record of
//! what it did — Definition 2.2's `ST`/`PT` moments and drop set — and a
//! runner that traces passes that record here right after the step.
//! Called in the order admissions, server step, client step, these
//! functions emit one slot's slice events in pipeline order: admissions,
//! policy drops, overflow drops, sends; then resyncs, playouts, client
//! drops.
//!
//! Every function returns at once when the probe is disabled, so an
//! untraced run pays one inlined check per step. Events carry session
//! tag 0; wrap the probe in [`Tagged`](rts_obs::Tagged) to scope them to
//! a session or hop.

use rts_core::{ClientDropReason, ClientStep, ServerStep};
use rts_obs::{DropReason, DropSite, Event, Probe};
use rts_stream::{Slice, Time};

/// One [`Event::SliceAdmitted`] per arrival, timed at the slice's own
/// arrival slot `AT(s)`.
pub fn admitted<Pr: Probe>(probe: &mut Pr, arrivals: &[Slice]) {
    if !probe.enabled() {
        return;
    }
    for slice in arrivals {
        probe.on_event(&Event::SliceAdmitted {
            time: slice.arrival,
            session: 0,
            id: slice.id.0,
            bytes: slice.size,
            weight: slice.weight,
        });
    }
}

/// The server's events for its step at slot `t`: an
/// [`Event::SliceDropped`] per drop — [`DropReason::Policy`] for the
/// step's early drops, [`DropReason::Overflow`] for the rest — then an
/// [`Event::SliceSent`] per chunk put on the link.
pub fn server_step<Pr: Probe>(probe: &mut Pr, t: Time, step: &ServerStep) {
    if !probe.enabled() {
        return;
    }
    for (i, slice) in step.dropped.iter().enumerate() {
        let reason = if i < step.early_dropped {
            DropReason::Policy
        } else {
            DropReason::Overflow
        };
        probe.on_event(&dropped(t, slice, DropSite::Server, reason));
    }
    for chunk in &step.sent {
        probe.on_event(&Event::SliceSent {
            time: t,
            session: 0,
            id: chunk.slice.id.0,
            bytes: chunk.bytes,
            completed: chunk.completed,
        });
    }
}

/// The client's events for its step at slot `t`: an
/// [`Event::ClientResync`] per timer re-anchor, an [`Event::SlicePlayed`]
/// per playout (with its sojourn `t − AT(s)`), then an
/// [`Event::SliceDropped`] at [`DropSite::Client`] per discard.
pub fn client_step<Pr: Probe>(probe: &mut Pr, t: Time, step: &ClientStep) {
    if !probe.enabled() {
        return;
    }
    for &skew in &step.resyncs {
        probe.on_event(&Event::ClientResync {
            time: t,
            session: 0,
            skew,
        });
    }
    for slice in &step.played {
        probe.on_event(&Event::SlicePlayed {
            time: t,
            session: 0,
            id: slice.id.0,
            bytes: slice.size,
            weight: slice.weight,
            sojourn: t - slice.arrival,
        });
    }
    for drop in &step.dropped {
        let reason = match drop.reason {
            ClientDropReason::Overflow => DropReason::Overflow,
            ClientDropReason::Late => DropReason::Late,
            ClientDropReason::Incomplete => DropReason::Incomplete,
        };
        probe.on_event(&dropped(t, &drop.slice, DropSite::Client, reason));
    }
}

fn dropped(time: Time, slice: &Slice, site: DropSite, reason: DropReason) -> Event {
    Event::SliceDropped {
        time,
        session: 0,
        id: slice.id.0,
        bytes: slice.size,
        weight: slice.weight,
        site,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::{Client, ResyncPolicy, SentChunk, Server, TailDrop};
    use rts_obs::VecProbe;
    use rts_stream::{Bytes, FrameKind, InputStream, SliceId, SliceSpec};

    fn slice(id: u64, arrival: Time, size: Bytes) -> Slice {
        Slice {
            id: SliceId(id),
            frame: arrival,
            arrival,
            size,
            weight: size,
            kind: FrameKind::Generic,
        }
    }

    fn chunk(slice: Slice, time: Time) -> SentChunk {
        SentChunk {
            time,
            slice,
            bytes: slice.size,
            completed: true,
        }
    }

    #[test]
    fn server_burst_reports_admissions_overflow_drops_and_sends() {
        // B=2, R=1: a burst of 5 → 5 admitted, 2 dropped, 1 byte sent.
        let stream = InputStream::from_frames([vec![SliceSpec::unit(); 5]]);
        let arrivals = &stream.frames()[0].slices;
        let mut server = Server::new(2, 1, TailDrop::new());
        let step = server.step(0, arrivals);
        let mut probe = VecProbe::new();
        admitted(&mut probe, arrivals);
        server_step(&mut probe, 0, &step);

        let admissions = probe
            .events
            .iter()
            .filter(|e| matches!(e, Event::SliceAdmitted { .. }))
            .count();
        let drops: Vec<_> = probe
            .events
            .iter()
            .filter_map(|e| match e {
                Event::SliceDropped { site, reason, .. } => Some((*site, *reason)),
                _ => None,
            })
            .collect();
        let sent: Bytes = probe
            .events
            .iter()
            .filter_map(|e| match e {
                Event::SliceSent { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(admissions, 5);
        assert_eq!(drops, vec![(DropSite::Server, DropReason::Overflow); 2]);
        assert_eq!(sent, step.sent_bytes());
    }

    #[test]
    fn client_playout_carries_its_sojourn() {
        // D=3, P=2: sent at t=0, delivered at t=2, played at t=5.
        let mut client = Client::new(100, 3, 2);
        let mut probe = VecProbe::new();
        let s = slice(0, 0, 2);
        client_step(&mut probe, 2, &client.step(2, &[chunk(s, 0)]));
        assert!(probe.events.is_empty());
        client_step(&mut probe, 5, &client.step(5, &[]));
        assert!(
            matches!(
                probe.events[..],
                [Event::SlicePlayed {
                    time: 5,
                    id: 0,
                    bytes: 2,
                    sojourn: 5,
                    ..
                }]
            ),
            "{:?}",
            probe.events
        );
    }

    #[test]
    fn late_chunk_is_a_late_client_drop() {
        // D=0, P=0: the deadline is t=0, the chunk arrives at t=3.
        let mut client = Client::new(100, 0, 0);
        let mut probe = VecProbe::new();
        client_step(&mut probe, 3, &client.step(3, &[chunk(slice(1, 0, 1), 3)]));
        assert!(
            matches!(
                probe.events[..],
                [Event::SliceDropped {
                    time: 3,
                    id: 1,
                    site: DropSite::Client,
                    reason: DropReason::Late,
                    ..
                }]
            ),
            "{:?}",
            probe.events
        );
    }

    #[test]
    fn timer_reanchor_is_a_resync_event() {
        let mut client = Client::new(100, 0, 0).with_resync(ResyncPolicy::new(5, 0));
        let mut probe = VecProbe::new();
        client_step(&mut probe, 2, &client.step(2, &[chunk(slice(0, 0, 1), 2)]));
        assert!(
            matches!(
                probe.events[0],
                Event::ClientResync {
                    time: 2,
                    session: 0,
                    skew: 2
                }
            ),
            "{:?}",
            probe.events
        );
    }

    #[test]
    fn a_disabled_probe_sees_nothing() {
        struct Refuses;
        impl Probe for Refuses {
            fn enabled(&self) -> bool {
                false
            }
            fn on_event(&mut self, event: &Event) {
                panic!("disabled probe received {event:?}");
            }
        }
        let stream = InputStream::from_frames([vec![SliceSpec::unit(); 5]]);
        let arrivals = &stream.frames()[0].slices;
        let step = Server::new(2, 1, TailDrop::new()).step(0, arrivals);
        admitted(&mut Refuses, arrivals);
        server_step(&mut Refuses, 0, &step);
        let mut client = Client::new(100, 0, 0);
        client_step(&mut Refuses, 0, &client.step(0, &step.sent));
    }
}
