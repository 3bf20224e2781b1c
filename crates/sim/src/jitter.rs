//! Links with positive jitter, and jitter control.
//!
//! The paper's analysis assumes a 0-jitter link (constant per-byte
//! delay `P`) and justifies it by assuming "some jitter control
//! algorithm is employed", noting that "such an algorithm adds to the
//! buffer space requirement and to overall delay" and leaving the
//! jittery case as the main open problem (Section 6).
//!
//! This module makes that discussion executable:
//!
//! * [`JitteredLink`] — a FIFO link whose per-chunk delay is
//!   `P + U` with `U` uniform in `[0, Jmax]` (monotonized so FIFO
//!   order is preserved, as any real FIFO channel does);
//! * [`JitterControl::Absorb`] — the classical jitter-control
//!   construction (Zhang, 1995): hold each arrival until
//!   `send time + P + Jmax`, re-creating a *constant*-delay link with
//!   `P' = P + Jmax`. The price is exactly what the paper predicts: up
//!   to `R · Jmax` extra buffering and `Jmax` extra latency — and in
//!   exchange every Section 3 guarantee applies verbatim with `P'` in
//!   place of `P`.
//!
//! The `jitter` experiment binary quantifies both sides; the
//! integration tests check that a controlled jittered run is
//! *byte-for-byte identical* to a constant-delay run at `P' = P + Jmax`.

use std::collections::VecDeque;

use rts_core::SentChunk;
use rts_stream::rng::SplitMix64;
use rts_stream::{Bytes, Time};

use crate::link::LinkModel;

/// Whether and how jitter is compensated at the receiving side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitterControl {
    /// No compensation: chunks reach the client whenever the network
    /// delivers them; anything later than the playout point is lost.
    None,
    /// Absorb jitter in a re-timing buffer: every chunk is released at
    /// exactly `send + P + Jmax`, making the effective link constant.
    Absorb,
}

/// A FIFO link with bounded random jitter.
#[derive(Debug, Clone)]
pub struct JitteredLink {
    base_delay: Time,
    jmax: Time,
    control: JitterControl,
    rng: SplitMix64,
    /// Chunks in flight with their (monotone) delivery times.
    in_flight: VecDeque<(Time, SentChunk)>,
    in_flight_bytes: Bytes,
    last_delivery: Time,
}

impl JitteredLink {
    /// Creates a link with base propagation delay `base_delay` (`P`),
    /// jitter bound `jmax`, the given control mode, and a PRNG seed.
    pub fn new(base_delay: Time, jmax: Time, control: JitterControl, seed: u64) -> Self {
        JitteredLink {
            base_delay,
            jmax,
            control,
            rng: SplitMix64::new(seed),
            in_flight: VecDeque::new(),
            in_flight_bytes: 0,
            last_delivery: 0,
        }
    }

    /// The jitter bound `Jmax`.
    pub fn jmax(&self) -> Time {
        self.jmax
    }

    /// The control mode.
    pub fn control(&self) -> JitterControl {
        self.control
    }
}

impl LinkModel for JitteredLink {
    fn submit(&mut self, chunks: &[SentChunk]) {
        for c in chunks {
            let delivery = match self.control {
                JitterControl::Absorb => c.time + self.base_delay + self.jmax,
                JitterControl::None => {
                    let u = if self.jmax == 0 {
                        0
                    } else {
                        self.rng.range_u64(0, self.jmax)
                    };
                    // FIFO channels cannot reorder: a chunk cannot
                    // overtake its predecessor.
                    (c.time + self.base_delay + u).max(self.last_delivery)
                }
            };
            self.last_delivery = delivery;
            self.in_flight_bytes += c.bytes;
            self.in_flight.push_back((delivery, *c));
        }
    }

    fn deliver(&mut self, t: Time) -> Vec<SentChunk> {
        let mut out = Vec::new();
        while let Some(&(due, _)) = self.in_flight.front() {
            if due > t {
                break;
            }
            let (_, c) = self.in_flight.pop_front().expect("checked non-empty");
            self.in_flight_bytes -= c.bytes;
            out.push(c);
        }
        out
    }

    fn in_flight_bytes(&self) -> Bytes {
        self.in_flight_bytes
    }

    fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    fn worst_case_delay(&self) -> Time {
        self.base_delay + self.jmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, Slice, SliceId};

    fn chunk(id: u64, time: Time) -> SentChunk {
        SentChunk {
            time,
            slice: Slice {
                id: SliceId(id),
                arrival: 0,
                size: 1,
                weight: 1,
                kind: FrameKind::Generic,
            },
            bytes: 1,
            completed: true,
        }
    }

    fn drain(link: &mut JitteredLink, until: Time) -> Vec<(Time, u64)> {
        (0..=until)
            .flat_map(|t| link.deliver(t).into_iter().map(move |c| (t, c.slice.id.0)))
            .collect()
    }

    #[test]
    fn absorb_mode_is_constant_delay_p_plus_jmax() {
        let mut link = JitteredLink::new(2, 3, JitterControl::Absorb, 1);
        link.submit(&[chunk(0, 0)]);
        link.submit(&[chunk(1, 4)]);
        let got = drain(&mut link, 20);
        assert_eq!(got, vec![(5, 0), (9, 1)]);
        assert!(link.is_empty());
    }

    #[test]
    fn uncontrolled_delays_stay_within_bounds_and_fifo() {
        let mut link = JitteredLink::new(2, 5, JitterControl::None, 7);
        for i in 0..50 {
            link.submit(&[chunk(i, i)]);
        }
        let got = drain(&mut link, 100);
        assert_eq!(got.len(), 50);
        let mut prev_t = 0;
        for (idx, &(t, id)) in got.iter().enumerate() {
            assert_eq!(id, idx as u64, "FIFO order preserved");
            assert!(t >= prev_t, "delivery times monotone");
            let sent = id;
            assert!(t >= sent + 2, "below base delay");
            // FIFO monotonization can only increase a delay bounded by
            // a predecessor's, which is itself within bounds.
            assert!(t <= sent + 2 + 5, "beyond base + jmax");
            prev_t = t;
        }
    }

    #[test]
    fn zero_jitter_uncontrolled_is_constant() {
        let mut link = JitteredLink::new(3, 0, JitterControl::None, 9);
        link.submit(&[chunk(0, 1)]);
        assert_eq!(drain(&mut link, 10), vec![(4, 0)]);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = JitteredLink::new(1, 4, JitterControl::None, 42);
        let mut b = JitteredLink::new(1, 4, JitterControl::None, 42);
        for i in 0..20 {
            a.submit(&[chunk(i, i)]);
            b.submit(&[chunk(i, i)]);
        }
        assert_eq!(drain(&mut a, 40), drain(&mut b, 40));
    }

    #[test]
    fn in_flight_accounting() {
        let mut link = JitteredLink::new(2, 2, JitterControl::Absorb, 0);
        link.submit(&[chunk(0, 0), chunk(1, 0)]);
        assert_eq!(link.in_flight_bytes(), 2);
        drain(&mut link, 10);
        assert_eq!(link.in_flight_bytes(), 0);
        assert_eq!(link.worst_case_delay(), 4);
    }
}
