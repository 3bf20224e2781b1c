//! Offline optimal benefit for unit-size slices.
//!
//! The paper's "Optimal" comparator (Section 5): the best benefit any
//! schedule — online or offline — can extract from a buffer of size `B`
//! drained at rate `R`. For unit slices the accepted sets are exactly the
//! `(σ = B, ρ = R)` leaky-bucket-conformant substreams (see
//! [`feasible`](crate::feasible)).
//!
//! Two solvers compute the optimum exactly:
//!
//! * the **chain solver** ([`chain`](crate::chain)) — a one-pass
//!   serve-heaviest / push-out-lightest greedy that the public API
//!   ([`optimal_unit_benefit`], [`optimal_unit_plan`],
//!   [`optimal_unit_throughput`]) runs on; `O(n log B)`;
//! * the **generic flow network** ([`optimal_unit_benefit_flow`],
//!   [`optimal_unit_plan_flow`]) — a min-cost flow over the time chain,
//!   kept as the independent reference implementation the fast path is
//!   differentially tested against (the `unit-chain-vs-flow` rts-check
//!   oracle and the tests below):
//!
//! ```text
//! source ──(count, −w)──► node_t ──(R, 0)──► sink        (transmit at t)
//!                         node_t ──(B, 0)──► node_{t+1}  (buffer carry)
//! ```
//!
//! The carry edge encodes `|Bs(t)| ≤ B` between steps; the transmit edge
//! encodes the link rate; item edges carry profit. A final drain node
//! absorbs whatever remains after the last arrival (no deadline in the
//! single-buffer model). The max-profit flow therefore *is* an admissible
//! drop schedule, and conversely every schedule induces such a flow.

use std::collections::{BTreeMap, HashSet};

use rts_stream::{Bytes, Frame, InputStream, SliceId, Weight};

use crate::chain;
use crate::error::OfflineError;
use crate::flow::MinCostFlow;

/// Computes the maximum total weight deliverable from `stream` through a
/// server buffer of size `buffer` and a link of rate `rate`.
///
/// Runs the dense chain solver; [`optimal_unit_benefit_flow`] is the
/// slower reference with identical results.
///
/// # Errors
///
/// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1 (use
/// [`optimal_frame_benefit`](crate::optimal_frame_benefit) for
/// whole-frame slices).
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn optimal_unit_benefit(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> Result<Weight, OfflineError> {
    assert!(rate > 0, "link rate must be positive");
    chain::validate_unit(stream)?;
    let frames: Vec<Frame<'_>> = stream.frames().collect();
    Ok(chain::benefit_of_frames(&frames, buffer, rate))
}

/// Like [`optimal_unit_benefit`], but also returns the set of slices an
/// optimal schedule **rejects** (drops on arrival).
///
/// Feeding the rejected set to
/// [`PlannedDrops`](rts_core::PlannedDrops) makes the generic server
/// reproduce the optimum exactly — the optimum is a real schedule, not
/// just a bound. Slices of weight 0 are always placed in the rejected
/// set (accepting them cannot add benefit). Ties within a
/// `(time, weight)` class are broken by accepting the lowest ids — the
/// plan is canonical and independent of builder insertion order.
///
/// # Errors
///
/// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1.
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn optimal_unit_plan(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> Result<(Weight, HashSet<SliceId>), OfflineError> {
    assert!(rate > 0, "link rate must be positive");
    chain::validate_unit(stream)?;
    Ok(chain::pushout_plan(stream, buffer, rate))
}

/// Reference implementation of [`optimal_unit_benefit`] on the generic
/// [`MinCostFlow`] network — exact but roughly two orders of magnitude
/// slower than the chain solver; kept for differential testing.
///
/// # Errors
///
/// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1.
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn optimal_unit_benefit_flow(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> Result<Weight, OfflineError> {
    solve_flow(stream, buffer, rate, false).map(|(benefit, _)| benefit)
}

/// Reference implementation of [`optimal_unit_plan`] on the generic
/// flow network. The returned benefit is bit-identical to the chain
/// solver's; the rejected set is *an* optimal plan with the same
/// per-class lowest-ids tie-break, which may differ from the canonical
/// chain plan only in which equal-weight **class** gives up a slice
/// (optimal plans are not unique across classes).
///
/// # Errors
///
/// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1.
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn optimal_unit_plan_flow(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> Result<(Weight, HashSet<SliceId>), OfflineError> {
    solve_flow(stream, buffer, rate, true)
        .map(|(benefit, rejected)| (benefit, rejected.expect("plan requested")))
}

#[allow(clippy::type_complexity)]
fn solve_flow(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
    want_plan: bool,
) -> Result<(Weight, Option<HashSet<SliceId>>), OfflineError> {
    assert!(rate > 0, "link rate must be positive");
    chain::validate_unit(stream)?;
    let horizon = stream.horizon() as usize;
    if horizon == 0 {
        return Ok((0, want_plan.then(HashSet::new)));
    }

    // Node layout: 0 = source, 1 = sink, 2 + t = time node, drain last.
    let source = 0usize;
    let sink = 1usize;
    let node = |t: usize| 2 + t;
    let drain = node(horizon);
    let mut net = MinCostFlow::new(drain + 1);

    // Item edges, grouped by (time, weight) class; remember the slice
    // ids of each class so the flow can be turned back into a plan.
    let mut class_edges: Vec<(usize, Vec<SliceId>)> = Vec::new();
    let mut zero_weight: Vec<SliceId> = Vec::new();
    for frame in stream.frames() {
        let mut classes: BTreeMap<Weight, Vec<SliceId>> = BTreeMap::new();
        for s in frame.slices {
            if s.weight == 0 {
                zero_weight.push(s.id); // cannot add profit: reject
            } else {
                classes.entry(s.weight).or_default().push(s.id);
            }
        }
        for (w, mut ids) in classes {
            let cost = -i64::try_from(w).expect("weights fit in i64");
            let edge = net.add_edge(source, node(frame.time as usize), ids.len() as u64, cost);
            if want_plan {
                // Builders may emit class ids out of order; the
                // documented tie-break accepts the lowest ids.
                ids.sort_unstable();
                class_edges.push((edge, ids));
            }
        }
    }
    // Time chain.
    for t in 0..horizon {
        net.add_edge(node(t), sink, rate, 0);
        let next = if t + 1 < horizon { node(t + 1) } else { drain };
        net.add_edge(node(t), next, buffer, 0);
    }
    // Whatever survives to the drain eventually goes out (≤ B bytes,
    // drained at R per step with no further arrivals — always possible).
    net.add_edge(drain, sink, buffer, 0);

    let (_, cost) = net.max_profit(source, sink);
    let benefit = u64::try_from(-cost).expect("profit is non-negative");

    let rejected = want_plan.then(|| {
        let mut rejected: HashSet<SliceId> = zero_weight.into_iter().collect();
        for (edge, ids) in class_edges {
            let accepted = net.flow_on(edge) as usize;
            for &id in &ids[accepted..] {
                rejected.insert(id);
            }
        }
        rejected
    });
    Ok((benefit, rejected))
}

/// Maximum number of unit slices deliverable (the unweighted optimum of
/// Section 3): every slice is treated as weight 1 regardless of its
/// declared weight.
///
/// By Theorem 3.5 this equals the throughput of the generic algorithm
/// with any drop policy — the integration tests verify exactly that.
/// Runs as a pure occupancy counting pass (no stream copy, no heap).
///
/// # Errors
///
/// Returns [`OfflineError::NonUnitSlice`] if any slice has size ≠ 1.
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn optimal_unit_throughput(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> Result<u64, OfflineError> {
    assert!(rate > 0, "link rate must be positive");
    chain::validate_unit(stream)?;
    let times: Vec<_> = stream.frames().map(|f| f.time).collect();
    let counts: Vec<u64> = stream.frames().map(|f| f.slices.len() as u64).collect();
    Ok(chain::rank_count(&times, &counts, buffer, rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::rng::SplitMix64;
    use rts_stream::{FrameKind, SliceSpec};

    fn units(frames: &[&[Weight]]) -> InputStream {
        InputStream::from_frames(frames.iter().map(|ws| {
            ws.iter()
                .map(|&w| SliceSpec::new(1, w, FrameKind::Generic))
                .collect::<Vec<_>>()
        }))
    }

    #[test]
    fn lossless_when_capacity_suffices() {
        let s = units(&[&[5, 5], &[5], &[]]);
        assert_eq!(optimal_unit_benefit(&s, 10, 2).unwrap(), 15);
    }

    #[test]
    fn bufferless_link_keeps_best_r_per_step() {
        // B=0, R=1: one slice per step survives; the best one.
        let s = units(&[&[1, 9, 3], &[2, 2]]);
        assert_eq!(optimal_unit_benefit(&s, 0, 1).unwrap(), 9 + 2);
    }

    #[test]
    fn buffer_defers_excess_to_quiet_steps() {
        // Burst of 4 at t=0 then silence: R=1 sends one per step, B=3
        // stores the rest; everything survives.
        let s = units(&[&[7, 7, 7, 7], &[], &[], &[]]);
        assert_eq!(optimal_unit_benefit(&s, 3, 1).unwrap(), 28);
        // With B=2 one slice must die.
        assert_eq!(optimal_unit_benefit(&s, 2, 1).unwrap(), 21);
    }

    #[test]
    fn optimal_prefers_heavy_slices_across_time() {
        // The Theorem 4.7 shape: sacrifice cheap early slices to keep
        // buffer space for the heavy burst.
        let s = units(&[&[1, 1, 1], &[9], &[9, 9, 9]]);
        // B=2, R=1: opt keeps one 1 (sent at 0), then 9 at 1, and all
        // three nines: send 9@t1? Let's trust the bound: at most R*T+B
        // in any window. Total heavy = 4*9 = 36, plus one light = 37.
        assert_eq!(optimal_unit_benefit(&s, 2, 1).unwrap(), 37);
    }

    #[test]
    fn zero_weight_slices_contribute_nothing() {
        let s = units(&[&[0, 0, 4]]);
        assert_eq!(optimal_unit_benefit(&s, 10, 1).unwrap(), 4);
    }

    #[test]
    fn empty_stream() {
        let s = InputStream::builder().build();
        assert_eq!(optimal_unit_benefit(&s, 5, 1).unwrap(), 0);
        assert_eq!(optimal_unit_benefit_flow(&s, 5, 1).unwrap(), 0);
    }

    #[test]
    fn rejects_variable_slices() {
        let s = InputStream::from_frames([[SliceSpec::new(3, 1, FrameKind::Generic)]]);
        let err = optimal_unit_benefit(&s, 5, 1).unwrap_err();
        assert!(matches!(err, OfflineError::NonUnitSlice { size: 3, .. }));
        let err = optimal_unit_benefit_flow(&s, 5, 1).unwrap_err();
        assert!(matches!(err, OfflineError::NonUnitSlice { size: 3, .. }));
    }

    #[test]
    fn throughput_ignores_weights() {
        let s = units(&[&[100, 1, 1, 1]]);
        // B=1, R=1: keep 2 of 4 regardless of weight.
        assert_eq!(optimal_unit_throughput(&s, 1, 1).unwrap(), 2);
    }

    #[test]
    fn sparse_frames_use_idle_steps() {
        // Arrivals at t=0 and t=3; the gap drains the buffer.
        let mut b = InputStream::builder();
        b.frame(0, vec![SliceSpec::unit(); 3]);
        b.frame(3, vec![SliceSpec::unit(); 3]);
        let s = b.build();
        assert_eq!(optimal_unit_benefit(&s, 2, 1).unwrap(), 6);
    }

    #[test]
    fn chain_matches_flow_on_random_streams() {
        let mut rng = SplitMix64::new(0xcafe);
        for _ in 0..60 {
            let steps = rng.range_u64(1, 10);
            let s = InputStream::from_frames((0..steps).map(|_| {
                (0..rng.range_u64(0, 5))
                    .map(|_| SliceSpec::new(1, rng.range_u64(0, 12), FrameKind::Generic))
                    .collect::<Vec<_>>()
            }));
            let b = rng.range_u64(0, 6);
            let r = rng.range_u64(1, 4);
            assert_eq!(
                optimal_unit_benefit(&s, b, r).unwrap(),
                optimal_unit_benefit_flow(&s, b, r).unwrap(),
                "B={b} R={r}"
            );
        }
    }

    #[test]
    fn chain_and_flow_plans_are_both_optimal() {
        let mut rng = SplitMix64::new(0xfeed);
        for _ in 0..30 {
            let steps = rng.range_u64(1, 8);
            let s = InputStream::from_frames((0..steps).map(|_| {
                (0..rng.range_u64(0, 4))
                    .map(|_| SliceSpec::new(1, rng.range_u64(0, 9), FrameKind::Generic))
                    .collect::<Vec<_>>()
            }));
            let b = rng.range_u64(0, 4);
            let r = rng.range_u64(1, 3);
            let (chain_benefit, chain_rej) = optimal_unit_plan(&s, b, r).unwrap();
            let (flow_benefit, flow_rej) = optimal_unit_plan_flow(&s, b, r).unwrap();
            assert_eq!(chain_benefit, flow_benefit);
            for rejected in [&chain_rej, &flow_rej] {
                let kept: Weight = s
                    .slices()
                    .iter()
                    .filter(|sl| !rejected.contains(&sl.id))
                    .map(|sl| sl.weight)
                    .sum();
                assert_eq!(kept, chain_benefit);
                let accepted: HashSet<SliceId> = s
                    .slices()
                    .iter()
                    .map(|sl| sl.id)
                    .filter(|id| !rejected.contains(id))
                    .collect();
                assert!(crate::feasible::is_feasible_subset(&s, &accepted, b, r));
            }
        }
    }

    #[test]
    fn flow_plan_sorts_class_ids_before_splitting() {
        // Build a frame whose equal-weight class ids arrive out of
        // order: interleave two weights so the id sequence within each
        // class is still ascending per builder, then check the rejected
        // ids are the *highest* of the class either way.
        let s = units(&[&[5, 5, 5, 5]]);
        let (benefit, rejected) = optimal_unit_plan_flow(&s, 1, 1).unwrap();
        assert_eq!(benefit, 10);
        let mut ids: Vec<u64> = rejected.iter().map(|id| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }
}
