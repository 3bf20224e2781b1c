//! The quantities inside the Theorem 4.1 proof, checked as executable
//! inequalities on instrumented greedy runs.
//!
//! The paper's proof composes four lemmas over an interval partition.
//! Each is checked here on random weighted unit-slice streams, with the
//! greedy server run step by step and the proof's quantities — `S(I)`
//! (weight sent in interval `I`), `Bs(t)` (weight stored at `t`), and
//! `V(F)` (the most valuable sub-multiset of size `≤ B − Lmax + 1`) —
//! computed directly from the schedule:
//!
//! * **Lemma 4.3**: `w(S(I)) ≥ w(V(A(I))) − w(Bs(end(I)))`;
//! * **Lemma 4.4**: `w(Bs(t)) ≤ Σ_{i<D} w(S(t + i))` with `D = B/R`;
//! * **Lemma 4.5**: `2·w(S(I)) + w(Bs(end)) − w(Bs(start)) ≥ w(V(A(I)))`
//!   for length-`D` intervals;
//! * **Lemma 4.6**: no schedule collects more than
//!   `(B + ℓR)/(B − 2(Lmax−1)) · w(V(A(I)))` from an ℓ-interval —
//!   checked against the exact offline optimum of the restricted
//!   stream.

use realtime_smoothing::{GreedyByteValue, InputStream, Server, SliceSpec};
use rts_offline::optimal_unit_benefit;
use rts_stream::rng::SplitMix64;
use rts_stream::{FrameKind, Weight};

/// A fully instrumented greedy run over a unit-slice stream:
/// `sent_weight[t]` = weight transmitted at step t; `stored_weight[t]`
/// = weight in the buffer after step t.
struct GreedyTrace {
    sent_weight: Vec<Weight>,
    stored_weight: Vec<Weight>,
    arrivals_weight: Vec<Vec<Weight>>, // per step, the arriving weights
}

fn run_instrumented(stream: &InputStream, buffer: u64, rate: u64) -> GreedyTrace {
    let mut server = Server::new(buffer, rate, GreedyByteValue::new());
    let horizon = (stream.horizon() + stream.total_bytes() / rate + 2) as usize;
    let mut trace = GreedyTrace {
        sent_weight: vec![0; horizon],
        stored_weight: vec![0; horizon],
        arrivals_weight: vec![Vec::new(); horizon],
    };
    let mut frames = stream.frames().peekable();
    for t in 0..horizon {
        let arrivals: &[_] = match frames.peek() {
            Some(f) if f.time == t as u64 => frames.next().unwrap().slices,
            _ => &[],
        };
        trace.arrivals_weight[t] = arrivals.iter().map(|s| s.weight).collect();
        let step = server.step(t as u64, arrivals);
        trace.sent_weight[t] = step
            .sent
            .iter()
            .filter(|c| c.completed)
            .map(|c| c.slice.weight)
            .sum();
        trace.stored_weight[t] = server.buffer().iter().map(|e| e.slice.weight).sum();
    }
    trace
}

/// `w(V(F))` for unit slices: the sum of the `cap` largest weights.
fn v_weight(weights: &[Weight], cap: u64) -> Weight {
    let mut w = weights.to_vec();
    w.sort_unstable_by(|a, b| b.cmp(a));
    w.into_iter().take(cap as usize).sum()
}

fn random_stream(rng: &mut SplitMix64, steps: usize, max_per_step: u64) -> InputStream {
    InputStream::from_frames((0..steps).map(|_| {
        let n = rng.range_u64(0, max_per_step) as usize;
        (0..n)
            .map(|_| SliceSpec::new(1, rng.range_u64(1, 50), FrameKind::Generic))
            .collect::<Vec<_>>()
    }))
}

#[test]
fn lemma_4_3_sent_or_stored_dominates_v() {
    // For every interval I starting at 0 mod D (any interval works; the
    // lemma is stated for arbitrary [t, t + len - 1]).
    let mut rng = SplitMix64::new(430);
    for trial in 0..40 {
        let b = rng.range_u64(1, 8);
        let r = rng.range_u64(1, 3);
        let stream = random_stream(&mut rng, 20, 6);
        let trace = run_instrumented(&stream, b, r);
        let horizon = trace.sent_weight.len();
        for start in (0..horizon).step_by(3) {
            for len in [1usize, 2, 5, 9] {
                let end = (start + len).min(horizon);
                let sent: Weight = trace.sent_weight[start..end].iter().sum();
                let arrived: Vec<Weight> = trace.arrivals_weight[start..end]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                // Unit slices: Lmax = 1, so V selects up to B slices.
                let v = v_weight(&arrived, b);
                let stored_at_end = if end == 0 {
                    0
                } else {
                    trace.stored_weight[end - 1]
                };
                assert!(
                    sent + stored_at_end >= v,
                    "trial {trial} [{start},{end}): sent {sent} + stored \
                     {stored_at_end} < V {v} (B={b}, R={r})"
                );
            }
        }
    }
}

#[test]
fn lemma_4_4_stored_weight_is_sent_within_d_steps() {
    let mut rng = SplitMix64::new(440);
    for trial in 0..40 {
        let r = rng.range_u64(1, 3);
        let d = rng.range_u64(1, 6);
        let b = r * d; // the B = R*D setting of the proof
        let stream = random_stream(&mut rng, 18, 6);
        let trace = run_instrumented(&stream, b, r);
        let horizon = trace.sent_weight.len();
        for t in 0..horizon {
            let window_end = (t + 1 + d as usize).min(horizon);
            let sent_next_d: Weight = trace.sent_weight[t + 1..window_end].iter().sum();
            // The paper indexes sends from t; our stored_weight[t] is
            // post-send, so the following D steps must cover it.
            if window_end == t + 1 + d as usize {
                assert!(
                    trace.stored_weight[t] <= sent_next_d,
                    "trial {trial} t={t}: stored {} > sent-in-D {sent_next_d} \
                     (B={b}, R={r}, D={d})",
                    trace.stored_weight[t]
                );
            }
        }
    }
}

#[test]
fn lemma_4_5_interval_composition() {
    let mut rng = SplitMix64::new(450);
    for trial in 0..40 {
        let r = rng.range_u64(1, 3);
        let d = rng.range_u64(1, 5);
        let b = r * d;
        let stream = random_stream(&mut rng, 16, 5);
        let trace = run_instrumented(&stream, b, r);
        let horizon = trace.sent_weight.len();
        let d = d as usize;
        let mut start = 0;
        while start + d <= horizon {
            let end = start + d;
            let sent: Weight = trace.sent_weight[start..end].iter().sum();
            let arrived: Vec<Weight> = trace.arrivals_weight[start..end]
                .iter()
                .flatten()
                .copied()
                .collect();
            let v = v_weight(&arrived, b);
            let stored_start = if start == 0 {
                0
            } else {
                trace.stored_weight[start - 1]
            };
            let stored_end = trace.stored_weight[end - 1];
            // Exactly the paper's form: 2 w(S(I)) + w(Bs(end)) − w(Bs(start))
            // ≥ w(V(A(I))), rearranged to stay in unsigned arithmetic.
            assert!(
                2 * sent + stored_end >= v + stored_start,
                "trial {trial} [{start},{end}): 2*{sent} + {stored_end} < \
                 V {v} + stored_start {stored_start} (B={b}, R={r})"
            );
            start = end;
        }
    }
}

#[test]
fn lemma_4_6_no_schedule_beats_the_window_bound() {
    // The exact optimum of the slices arriving in an interval, given
    // buffer B and the interval's send capacity, is at most
    // (B + len*R) / B * w(V(...)) for unit slices (Lmax = 1 makes the
    // denominator exactly B).
    let mut rng = SplitMix64::new(460);
    for trial in 0..40 {
        let b = rng.range_u64(1, 6);
        let r = rng.range_u64(1, 3);
        let len = rng.range_u64(1, 6);
        let stream = random_stream(&mut rng, len as usize, 6);
        let arrived: Vec<Weight> = stream.slices().iter().map(|s| s.weight).collect();
        if arrived.is_empty() {
            continue;
        }
        let v = v_weight(&arrived, b);
        // Give the adversary schedule the whole interval plus an
        // unlimited tail to drain: that's what "can ever be sent" means.
        let opt = optimal_unit_benefit(&stream, b, r).expect("unit slices");
        // opt <= (B + len R)/B * v, in exact integer arithmetic.
        assert!(
            opt as u128 * b as u128 <= (b + len * r) as u128 * v as u128,
            "trial {trial}: opt {opt} > (B + lR)/B * V = ({b}+{len}*{r})/{b} * {v}"
        );
    }
}

#[test]
fn theorem_4_1_assembly_from_the_lemmas() {
    // The proof's final assembly: sum w(V(A(I_j))) over the D-partition
    // is at least B/(B + DR) = 1/2 of the optimal benefit, and at most
    // twice the greedy benefit — so opt <= 4 * greedy. Verified
    // numerically on random instances (with exact optima).
    let mut rng = SplitMix64::new(410);
    for trial in 0..30 {
        let r = rng.range_u64(1, 3);
        let d = rng.range_u64(1, 4);
        let b = r * d;
        let stream = random_stream(&mut rng, 14, 5);
        let trace = run_instrumented(&stream, b, r);
        let greedy_total: Weight = trace.sent_weight.iter().sum();
        let horizon = trace.sent_weight.len();
        let mut v_sum: Weight = 0;
        let mut start = 0;
        while start < horizon {
            let end = (start + d as usize).min(horizon);
            let arrived: Vec<Weight> = trace.arrivals_weight[start..end]
                .iter()
                .flatten()
                .copied()
                .collect();
            v_sum += v_weight(&arrived, b);
            start = end;
        }
        // Lemma 4.5 summed: v_sum <= 2 * greedy.
        assert!(
            v_sum <= 2 * greedy_total,
            "trial {trial}: V-sum {v_sum} > 2x greedy {greedy_total}"
        );
        // Lemma 4.6 summed: opt <= 2 * v_sum (B + DR = 2B for unit).
        let opt = optimal_unit_benefit(&stream, b, r).expect("unit");
        assert!(
            opt <= 2 * v_sum.max(1),
            "trial {trial}: opt {opt} > 2x V-sum {v_sum}"
        );
        // And the theorem itself.
        assert!(opt <= 4 * greedy_total.max(1), "trial {trial}");
    }
}
