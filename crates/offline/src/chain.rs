//! A dense solver for the unit-slice optimum, specialized to the
//! time-chain topology.
//!
//! The generic [`MinCostFlow`](crate::flow::MinCostFlow) network built
//! by [`optimal_unit_benefit_flow`](crate::optimal_unit_benefit_flow)
//! is a *chain*: every augmenting path runs `source → node_t → … →
//! sink`, and because the source has no incoming residual arcs, flow
//! routed onto an item arc is never revoked by a later augmentation.
//! Successive shortest paths therefore admit items strictly in weight
//! order, rerouting only *through time* (spare rate at other steps
//! reachable over carry arcs). That schedule collapses to a one-pass
//! greedy with push-out:
//!
//! * keep a pool of admitted-but-unsent slices;
//! * each step, send the `R` heaviest (they are delivered, permanently
//!   safe);
//! * if more than `B` remain, drop the lightest overflow.
//!
//! The pool is the only state, so the solver is `O(n log B)` with no
//! Bellman–Ford, no adjacency lists, and no per-call allocation beyond
//! the pool itself — in practice two orders of magnitude faster than
//! the generic network. The equivalence is pinned by the
//! `unit-chain-vs-flow` rts-check oracle and the exhaustive tests in
//! [`unit`](crate::unit).
//!
//! A second, even denser path covers the common case of few distinct
//! weights (e.g. MPEG 12:8:1): by the matroid threshold decomposition,
//! the optimal benefit is `Σ_j (w_j − w_{j+1}) · rank(E_j)` over the
//! distinct weights `w_1 > w_2 > …`, where `rank(E_j)` is the maximum
//! *count* of deliverable slices among those of weight ≥ `w_j` — an
//! unweighted quantity computable by pure occupancy counting
//! ([`rank_count`]), with no heap at all. [`OptimalSweep`]
//! (crate::OptimalSweep) builds its warm-start tables on exactly this
//! decomposition.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashSet};

use rts_stream::{Bytes, InputStream, SliceId, Time, Weight};

use crate::error::OfflineError;

/// Checks that every slice has size 1 (the chain solver's domain).
pub(crate) fn validate_unit(stream: &InputStream) -> Result<(), OfflineError> {
    for s in stream.slices() {
        if s.size != 1 {
            return Err(OfflineError::NonUnitSlice {
                id: s.id,
                size: s.size,
            });
        }
    }
    Ok(())
}

/// The admitted-but-unsent pool: ordered by `(weight, Reverse(id))` so
/// that `pop_last` yields the heaviest slice (lowest id among ties —
/// the send priority) and `pop_first` the lightest (highest id among
/// ties — the canonical drop victim).
type Pool = BTreeSet<(Weight, Reverse<u64>)>;

/// Serves up to `quota` slices from the pool, heaviest first.
fn serve(pool: &mut Pool, quota: u64) {
    for _ in 0..quota {
        if pool.pop_last().is_none() {
            break;
        }
    }
}

/// Exact optimal benefit over flat per-frame weight slices.
///
/// `frames` yields `(time, weights-of-that-frame)` with strictly
/// increasing times; zero-weight entries are skipped (accepting them
/// cannot add benefit and rejecting them frees capacity).
pub(crate) fn pushout_benefit<'a, I>(frames: I, buffer: Bytes, rate: Bytes) -> Weight
where
    I: IntoIterator<Item = (Time, &'a [Weight])>,
{
    assert!(rate > 0, "link rate must be positive");
    let mut pool = Pool::new();
    let mut benefit: Weight = 0;
    let mut tag = 0u64;
    let mut prev: Option<Time> = None;
    for (time, weights) in frames {
        if let Some(p) = prev {
            // Idle steps between sparse frames keep draining the pool.
            serve(&mut pool, (time - p - 1).saturating_mul(rate));
        }
        prev = Some(time);
        for &w in weights {
            if w > 0 {
                benefit += w;
                pool.insert((w, Reverse(tag)));
                tag += 1;
            }
        }
        serve(&mut pool, rate);
        while pool.len() as u64 > buffer {
            let (w, _) = pool.pop_first().expect("pool is non-empty");
            benefit -= w;
        }
    }
    benefit
}

/// Exact optimal benefit of a frame range of `stream` (the whole
/// stream for [`optimal_unit_benefit`](crate::optimal_unit_benefit),
/// one window for [`optimal_unit_windowed`](crate::optimal_unit_windowed)).
///
/// Chooses the threshold-decomposition path when the range has few
/// distinct weights, the push-out pool otherwise; both are exact.
pub(crate) fn benefit_of_frames(
    frames: &[rts_stream::Frame<'_>],
    buffer: Bytes,
    rate: Bytes,
) -> Weight {
    assert!(rate > 0, "link rate must be positive");
    let mut distinct: Vec<Weight> = frames
        .iter()
        .flat_map(|f| f.slices.iter())
        .map(|s| s.weight)
        .filter(|&w| w > 0)
        .collect();
    distinct.sort_unstable_by(|a, b| b.cmp(a));
    distinct.dedup();
    if distinct.len() as u64 <= LEVEL_CAP {
        let times: Vec<Time> = frames.iter().map(|f| f.time).collect();
        let mut benefit: Weight = 0;
        let mut counts = vec![0u64; frames.len()];
        for (j, &w) in distinct.iter().enumerate() {
            for (c, f) in counts.iter_mut().zip(frames) {
                *c += f.slices.iter().filter(|s| s.weight == w).count() as u64;
            }
            let step = w - distinct.get(j + 1).copied().unwrap_or(0);
            benefit += step * rank_count(&times, &counts, buffer, rate);
        }
        benefit
    } else {
        let mut flat: Vec<Weight> = Vec::new();
        let mut spans: Vec<(Time, usize, usize)> = Vec::with_capacity(frames.len());
        for f in frames {
            let start = flat.len();
            flat.extend(f.slices.iter().map(|s| s.weight));
            spans.push((f.time, start, flat.len()));
        }
        pushout_benefit(
            spans.iter().map(|&(t, a, b)| (t, &flat[a..b])),
            buffer,
            rate,
        )
    }
}

/// How many distinct weights the threshold-decomposition path will
/// handle before falling back to the push-out pool.
pub(crate) const LEVEL_CAP: u64 = 64;

/// Exact optimal benefit plus the canonical rejected set.
///
/// The canonical plan serves heaviest-first (ties: lowest id) and
/// drops lightest-first (ties: highest id), so within every
/// `(time, weight)` class the accepted slices are exactly the lowest
/// ids — the documented tie-break, independent of builder insertion
/// order. Zero-weight slices are always rejected.
pub(crate) fn pushout_plan(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> (Weight, HashSet<SliceId>) {
    assert!(rate > 0, "link rate must be positive");
    let mut pool = Pool::new();
    let mut benefit: Weight = 0;
    let mut rejected: HashSet<SliceId> = HashSet::new();
    let mut prev: Option<Time> = None;
    for frame in stream.frames() {
        if let Some(p) = prev {
            serve(&mut pool, (frame.time - p - 1).saturating_mul(rate));
        }
        prev = Some(frame.time);
        for s in frame.slices {
            if s.weight == 0 {
                rejected.insert(s.id);
            } else {
                benefit += s.weight;
                pool.insert((s.weight, Reverse(s.id.0)));
            }
        }
        serve(&mut pool, rate);
        while pool.len() as u64 > buffer {
            let (w, Reverse(id)) = pool.pop_first().expect("pool is non-empty");
            benefit -= w;
            rejected.insert(SliceId(id));
        }
    }
    (benefit, rejected)
}

/// Maximum deliverable *count* (the unweighted rank) over per-frame
/// arrival counts, by pure occupancy counting: admit everything, drop
/// only what overflows `buffer` after each step's `rate` drain.
///
/// `times` and `counts` run in lockstep over the frames; the returned
/// rank is `Σ counts − Σ overflow`.
pub(crate) fn rank_count(times: &[Time], counts: &[u64], buffer: Bytes, rate: Bytes) -> u64 {
    debug_assert_eq!(times.len(), counts.len());
    debug_assert!(rate > 0, "link rate must be positive");
    let mut occupancy: u64 = 0;
    let mut kept: u64 = 0;
    let mut prev: Option<Time> = None;
    for (&t, &a) in times.iter().zip(counts) {
        if let Some(p) = prev {
            occupancy = occupancy.saturating_sub((t - p - 1).saturating_mul(rate));
        }
        prev = Some(t);
        kept += a;
        occupancy += a;
        occupancy -= occupancy.min(rate);
        if occupancy > buffer {
            kept -= occupancy - buffer;
            occupancy = buffer;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, SliceSpec};

    fn frames(s: &InputStream) -> Vec<rts_stream::Frame<'_>> {
        s.frames().collect()
    }

    fn units(frames: &[&[Weight]]) -> InputStream {
        InputStream::from_frames(frames.iter().map(|ws| {
            ws.iter()
                .map(|&w| SliceSpec::new(1, w, FrameKind::Generic))
                .collect::<Vec<_>>()
        }))
    }

    #[test]
    fn pushout_matches_hand_examples() {
        let s = units(&[&[1, 9, 3], &[2, 2]]);
        assert_eq!(benefit_of_frames(&frames(&s), 0, 1), 9 + 2);
        let s = units(&[&[7, 7, 7, 7], &[], &[], &[]]);
        assert_eq!(benefit_of_frames(&frames(&s), 3, 1), 28);
        assert_eq!(benefit_of_frames(&frames(&s), 2, 1), 21);
    }

    #[test]
    fn plan_rejects_highest_ids_within_a_class() {
        // Four equal slices at t=0, B=1, R=1: two survive (ids 0, 1).
        let s = units(&[&[5, 5, 5, 5]]);
        let (benefit, rejected) = pushout_plan(&s, 1, 1);
        assert_eq!(benefit, 10);
        let mut ids: Vec<u64> = rejected.iter().map(|id| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn rank_count_drains_idle_gaps() {
        // 3 at t=0, 3 at t=3, B=2, R=1: nothing overflows.
        assert_eq!(rank_count(&[0, 3], &[3, 3], 2, 1), 6);
        // Same burst back-to-back: the [0,1] window admits at most
        // B + 2R = 4 of the 6 (leaky-bucket bound), and 4 is reached.
        assert_eq!(rank_count(&[0, 1], &[3, 3], 2, 1), 4);
    }

    #[test]
    fn serve_prefers_heavy_so_light_is_pushed_out() {
        // t0: {2}; t1: {9,9,9}; B=1, R=1. The 2 is sent at t0 (pool
        // empty after), so the overflow at t1 costs a 9.
        let s = units(&[&[2], &[9, 9, 9]]);
        assert_eq!(benefit_of_frames(&frames(&s), 1, 1), 2 + 18);
    }
}
