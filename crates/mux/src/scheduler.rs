//! Link schedulers: how one constant-rate link is shared among the
//! sessions' servers each slot.
//!
//! The scheduler sees every session's post-arrival demand and hands out
//! integer byte grants with `Σ grants ≤ C` and `grant_i ≤ pending_i`.
//! All three schedulers are work-conserving: capacity is left unused
//! only when total demand is below `C`.
//!
//! * [`RoundRobin`] — byte-granular max-min fairness with a rotating
//!   starting session;
//! * [`WeightedFair`] — progressive filling of weighted max-min shares;
//! * [`GreedyAcrossSessions`] — Section 4's drop-lowest-value greedy
//!   lifted to the link: the globally highest byte-value pending slice
//!   gets the capacity first, FIFO within each session.

use rts_core::ServerBuffer;
use rts_stream::{byte_value_cmp, Bytes, Weight};

/// What a scheduler can see of one session when dividing a slot.
pub struct SessionDemand<'a> {
    /// Post-arrival server occupancy: the most the session could send.
    pub pending: Bytes,
    /// The session's scheduler weight.
    pub weight: Weight,
    /// The session's server buffer, for value-aware schedulers.
    pub buffer: &'a ServerBuffer,
}

/// Divides each slot's link capacity among the sessions.
pub trait LinkScheduler {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Returns one grant per session with `Σ grants ≤ capacity` and
    /// `grants[i] ≤ sessions[i].pending`.
    fn grants(&mut self, sessions: &[SessionDemand<'_>], capacity: Bytes) -> Vec<Bytes>;

    /// [`grants`](Self::grants) writing into a caller-held scratch
    /// vector (cleared and refilled to `sessions.len()`), so per-slot
    /// loops can avoid allocating. The default forwards to `grants`;
    /// allocation-sensitive schedulers override it ([`RoundRobin`]'s
    /// override is allocation-free in steady state).
    fn grants_into(
        &mut self,
        sessions: &[SessionDemand<'_>],
        capacity: Bytes,
        out: &mut Vec<Bytes>,
    ) {
        out.clear();
        out.extend(self.grants(sessions, capacity));
    }
}

/// Boxed schedulers delegate, so a run can pick its scheduler at
/// runtime (`Mux<Box<dyn LinkScheduler>>`).
impl<S: LinkScheduler + ?Sized> LinkScheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn grants(&mut self, sessions: &[SessionDemand<'_>], capacity: Bytes) -> Vec<Bytes> {
        (**self).grants(sessions, capacity)
    }

    fn grants_into(
        &mut self,
        sessions: &[SessionDemand<'_>],
        capacity: Bytes,
        out: &mut Vec<Bytes>,
    ) {
        (**self).grants_into(sessions, capacity, out)
    }
}

/// Byte-granular round-robin: repeatedly hand one byte to each session
/// that still has ungranted demand, starting from a cursor that rotates
/// every slot. This computes the (unweighted) max-min fair allocation.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
    // Reusable scratch for the still-hungry index list, so
    // `grants_into` allocates nothing once its capacity has grown.
    active: Vec<usize>,
}

impl RoundRobin {
    /// Creates the scheduler.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl LinkScheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "Round-Robin"
    }

    fn grants(&mut self, sessions: &[SessionDemand<'_>], capacity: Bytes) -> Vec<Bytes> {
        let mut grants = Vec::new();
        self.grants_into(sessions, capacity, &mut grants);
        grants
    }

    fn grants_into(
        &mut self,
        sessions: &[SessionDemand<'_>],
        capacity: Bytes,
        out: &mut Vec<Bytes>,
    ) {
        let n = sessions.len();
        out.clear();
        out.resize(n, 0);
        if n == 0 {
            return;
        }
        let mut remaining = capacity;
        let start = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        // Speed up the common all-backlogged case with an equal floor,
        // then finish byte-by-byte (the floor never overshoots max-min).
        loop {
            self.active.clear();
            self.active
                .extend((0..n).filter(|&i| out[i] < sessions[i].pending));
            if self.active.is_empty() || remaining == 0 {
                break;
            }
            let floor = remaining / self.active.len() as u64;
            if floor > 0 {
                for &i in &self.active {
                    let take = floor.min(sessions[i].pending - out[i]);
                    out[i] += take;
                    remaining -= take;
                }
            } else {
                for k in 0..n {
                    let i = (start + k) % n;
                    if remaining > 0 && out[i] < sessions[i].pending {
                        out[i] += 1;
                        remaining -= 1;
                    }
                }
            }
        }
    }
}

/// Weighted max-min fairness by progressive filling: capacity is
/// repeatedly divided among still-hungry sessions in proportion to
/// their weights; a session whose demand is met drops out and frees its
/// share for the rest. Residual bytes (fewer than the active weight
/// sum) go one at a time in descending weight order, ties to the lower
/// session index, so grants are deterministic.
#[derive(Debug, Clone, Default)]
pub struct WeightedFair;

impl WeightedFair {
    /// Creates the scheduler.
    pub fn new() -> Self {
        WeightedFair
    }
}

impl LinkScheduler for WeightedFair {
    fn name(&self) -> &'static str {
        "Weighted-Fair"
    }

    fn grants(&mut self, sessions: &[SessionDemand<'_>], capacity: Bytes) -> Vec<Bytes> {
        let n = sessions.len();
        let mut grants = vec![0; n];
        let mut remaining = capacity;
        loop {
            let active: Vec<usize> = (0..n)
                .filter(|&i| grants[i] < sessions[i].pending)
                .collect();
            if active.is_empty() || remaining == 0 {
                break;
            }
            // Zero-weight sessions still progress (weight floor of 1):
            // starving them would break work conservation.
            let wsum: u64 = active.iter().map(|&i| sessions[i].weight.max(1)).sum();
            let unit = remaining / wsum;
            if unit > 0 {
                for &i in &active {
                    let share = sessions[i].weight.max(1) * unit;
                    let take = share.min(sessions[i].pending - grants[i]);
                    grants[i] += take;
                    remaining -= take;
                }
            } else {
                let mut order = active;
                order.sort_by_key(|&i| (std::cmp::Reverse(sessions[i].weight), i));
                for i in order {
                    if remaining == 0 {
                        break;
                    }
                    grants[i] += 1;
                    remaining -= 1;
                }
                break;
            }
        }
        grants
    }
}

/// The cross-session greedy: each slot, the pending slice with the
/// globally highest byte value (weight per byte, compared exactly via
/// [`byte_value_cmp`]) claims link capacity for its remaining bytes,
/// then the next highest, and so on — always FIFO *within* a session,
/// since slices cannot overtake each other on a FIFO buffer. Ties go to
/// the lower session index.
///
/// This extends Section 4's drop-lowest-value-first intuition from one
/// buffer to the link: capacity chases value, so it maximizes the
/// weight put on the wire each slot, at the price of per-session
/// fairness (a session with only low-value bytes can be starved while
/// others are busy).
#[derive(Debug, Clone, Default)]
pub struct GreedyAcrossSessions;

impl GreedyAcrossSessions {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GreedyAcrossSessions
    }
}

impl LinkScheduler for GreedyAcrossSessions {
    fn name(&self) -> &'static str {
        "Greedy-Across-Sessions"
    }

    fn grants(&mut self, sessions: &[SessionDemand<'_>], capacity: Bytes) -> Vec<Bytes> {
        let n = sessions.len();
        let mut grants = vec![0; n];
        // Per-session FIFO walk: (weight, size, remaining bytes) queues.
        let mut queues: Vec<std::collections::VecDeque<(Weight, Bytes, Bytes)>> = sessions
            .iter()
            .map(|s| {
                s.buffer
                    .iter()
                    .map(|e| (e.slice.weight, e.slice.size, e.remaining()))
                    .collect()
            })
            .collect();
        let mut remaining = capacity;
        while remaining > 0 {
            let mut best: Option<usize> = None;
            for i in 0..n {
                let Some(&(w, s, _)) = queues[i].front() else {
                    continue;
                };
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        let (bw, bs, _) = queues[b][0];
                        if byte_value_cmp(w, s, bw, bs).is_gt() {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(i) = best else { break };
            let head = queues[i].front_mut().expect("picked non-empty");
            let take = head.2.min(remaining);
            head.2 -= take;
            grants[i] += take;
            remaining -= take;
            if head.2 == 0 {
                queues[i].pop_front();
            }
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, Slice, SliceId};

    fn buffer_with(slices: &[(Bytes, Weight)]) -> ServerBuffer {
        let mut buf = ServerBuffer::new();
        for (i, &(size, weight)) in slices.iter().enumerate() {
            buf.admit(Slice {
                id: SliceId(i as u64),
                arrival: 0,
                size,
                weight,
                kind: FrameKind::Generic,
            });
        }
        buf
    }

    fn demands<'a>(buffers: &'a [ServerBuffer], weights: &[Weight]) -> Vec<SessionDemand<'a>> {
        buffers
            .iter()
            .zip(weights)
            .map(|(b, &w)| SessionDemand {
                pending: b.occupancy(),
                weight: w,
                buffer: b,
            })
            .collect()
    }

    fn check_sound(grants: &[Bytes], demands: &[SessionDemand<'_>], capacity: Bytes) {
        assert!(grants.iter().sum::<u64>() <= capacity);
        for (g, d) in grants.iter().zip(demands) {
            assert!(*g <= d.pending);
        }
    }

    #[test]
    fn round_robin_splits_evenly() {
        let bufs = [
            buffer_with(&[(10, 1)]),
            buffer_with(&[(10, 1)]),
            buffer_with(&[(10, 1)]),
        ];
        let d = demands(&bufs, &[1, 1, 1]);
        let grants = RoundRobin::new().grants(&d, 9);
        assert_eq!(grants, vec![3, 3, 3]);
        check_sound(&grants, &d, 9);
    }

    #[test]
    fn round_robin_is_max_min() {
        // Small demanders are satisfied; the big one takes the rest.
        let bufs = [
            buffer_with(&[(1, 1)]),
            buffer_with(&[(100, 1)]),
            buffer_with(&[(2, 1)]),
        ];
        let d = demands(&bufs, &[1, 1, 1]);
        let grants = RoundRobin::new().grants(&d, 10);
        assert_eq!(grants, vec![1, 7, 2]);
        check_sound(&grants, &d, 10);
    }

    #[test]
    fn round_robin_rotates_residual_bytes() {
        let bufs = [buffer_with(&[(10, 1)]), buffer_with(&[(10, 1)])];
        let d = demands(&bufs, &[1, 1]);
        let mut rr = RoundRobin::new();
        // Capacity 3 over two backlogged sessions: the odd byte must
        // alternate between slots.
        let first = rr.grants(&d, 3);
        let second = rr.grants(&d, 3);
        assert_eq!(first.iter().sum::<u64>(), 3);
        assert_eq!(second.iter().sum::<u64>(), 3);
        assert_ne!(first, second);
    }

    #[test]
    fn weighted_fair_respects_weights() {
        let bufs = [buffer_with(&[(100, 1)]), buffer_with(&[(100, 1)])];
        let d = demands(&bufs, &[3, 1]);
        let grants = WeightedFair::new().grants(&d, 8);
        assert_eq!(grants, vec![6, 2]);
        check_sound(&grants, &d, 8);
    }

    #[test]
    fn weighted_fair_reallocates_unused_share() {
        // Session 0's demand is tiny; its share flows to session 1.
        let bufs = [buffer_with(&[(1, 1)]), buffer_with(&[(100, 1)])];
        let d = demands(&bufs, &[3, 1]);
        let grants = WeightedFair::new().grants(&d, 8);
        assert_eq!(grants, vec![1, 7]);
    }

    #[test]
    fn weighted_fair_zero_weight_not_starved() {
        let bufs = [buffer_with(&[(100, 1)]), buffer_with(&[(100, 1)])];
        let d = demands(&bufs, &[0, 7]);
        let grants = WeightedFair::new().grants(&d, 16);
        assert!(grants[0] >= 1, "zero-weight session starved: {grants:?}");
        assert_eq!(grants.iter().sum::<u64>(), 16);
    }

    #[test]
    fn greedy_chases_value() {
        // Session 1's head has the higher byte value: it wins the slot.
        let bufs = [
            buffer_with(&[(4, 4)]),  // value 1/byte
            buffer_with(&[(2, 10)]), // value 5/byte
        ];
        let d = demands(&bufs, &[1, 1]);
        let grants = GreedyAcrossSessions::new().grants(&d, 4);
        assert_eq!(grants, vec![2, 2]);
        check_sound(&grants, &d, 4);
    }

    #[test]
    fn greedy_respects_fifo_within_session() {
        // Session 0 holds a low-value slice in front of a high-value
        // one; the high-value slice cannot overtake, so session 1's
        // middling head wins first.
        let bufs = [
            buffer_with(&[(2, 1), (2, 100)]), // head value 0.5
            buffer_with(&[(2, 4)]),           // head value 2
        ];
        let d = demands(&bufs, &[1, 1]);
        let grants = GreedyAcrossSessions::new().grants(&d, 2);
        assert_eq!(grants, vec![0, 2]);
    }

    #[test]
    fn greedy_is_work_conserving() {
        let bufs = [buffer_with(&[(3, 1)]), buffer_with(&[(3, 9)])];
        let d = demands(&bufs, &[1, 1]);
        let grants = GreedyAcrossSessions::new().grants(&d, 100);
        assert_eq!(grants.iter().sum::<u64>(), 6); // all demand served
    }

    #[test]
    fn grants_into_matches_grants() {
        let bufs = [
            buffer_with(&[(1, 1)]),
            buffer_with(&[(100, 1)]),
            buffer_with(&[(2, 1)]),
        ];
        let d = demands(&bufs, &[1, 1, 1]);
        let mut a = RoundRobin::new();
        let mut b = RoundRobin::new();
        let mut scratch = Vec::new();
        for capacity in [0, 3, 10, 200] {
            a.grants_into(&d, capacity, &mut scratch);
            assert_eq!(scratch, b.grants(&d, capacity), "capacity {capacity}");
        }
        // The default grants_into (WeightedFair) agrees with grants too.
        let mut w = WeightedFair::new();
        w.grants_into(&d, 10, &mut scratch);
        assert_eq!(scratch, WeightedFair::new().grants(&d, 10));
    }

    #[test]
    fn empty_sessions_get_nothing() {
        for mut s in [
            Box::new(RoundRobin::new()) as Box<dyn LinkScheduler>,
            Box::new(WeightedFair::new()),
            Box::new(GreedyAcrossSessions::new()),
        ] {
            assert!(s.grants(&[], 10).is_empty());
            let bufs = [buffer_with(&[])];
            let d = demands(&bufs, &[1]);
            assert_eq!(s.grants(&d, 10), vec![0]);
        }
    }
}
