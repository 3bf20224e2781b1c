//! Micro-benchmarks of the building blocks: buffer operations, the
//! greedy heap, the PRNG, the flow solver, and the frame DP.

use rts_bench::timing::{bb, Harness};
use rts_core::policy::{DropPolicy, EarlyValueDrop, GreedyByteValue, GreedyRescan};
use rts_core::tradeoff::SmoothingParams;
use rts_core::ServerBuffer;
use rts_faults::{simulate_faulted, FaultPlan};
use rts_obs::NoopProbe;
use rts_offline::{optimal_frame_benefit, optimal_unit_benefit};
use rts_sim::{run_server_only, simulate, simulate_probed, SimConfig};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::rng::SplitMix64;
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::{FrameKind, Slice, SliceId};

fn slice(id: u64, size: u64, weight: u64) -> Slice {
    Slice {
        id: SliceId(id),
        frame: 0,
        arrival: 0,
        size,
        weight,
        kind: FrameKind::Generic,
    }
}

fn main() {
    let mut h = Harness::from_env();

    h.bench("buffer/admit_transmit_1k", || {
        let mut buf = ServerBuffer::new();
        for i in 0..1000u64 {
            buf.admit(slice(i, 1 + i % 4, i % 13));
        }
        let mut sent = 0u64;
        while !buf.is_empty() {
            sent += buf.transmit(16).iter().map(|x| x.2).sum::<u64>();
        }
        bb(sent)
    });

    h.bench("buffer/greedy_overflow_churn", || {
        let mut buf = ServerBuffer::new();
        let mut policy = GreedyByteValue::new();
        let mut dropped = 0u64;
        for i in 0..2000u64 {
            let s = slice(i, 1, i % 97);
            let seq = buf.admit(s);
            policy.on_admit(seq, &s);
            while buf.occupancy() > 64 {
                let victim = policy.next_victim(&buf).expect("droppable");
                let slice = buf.drop_slice(victim);
                policy.on_remove(victim, &slice);
                dropped += 1;
            }
        }
        bb(dropped)
    });

    let mut rng = SplitMix64::new(1);
    h.bench("rng/splitmix_next_u64", || bb(rng.next_u64()));
    let mut rng = SplitMix64::new(1);
    h.bench("rng/lognormal", || bb(rng.lognormal(3.0, 0.3)));

    h.bench("gen/mpeg_1k_frames", || {
        let trace = MpegSource::new(MpegConfig::cnn_like(), 7).frames(1000);
        bb(trace.total_bytes())
    });

    let trace = MpegSource::new(MpegConfig::cnn_like(), 9).frames(150);
    let by_byte = trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
    let by_frame = trace.materialize(Slicing::WholeFrame, WeightAssignment::MPEG_12_8_1);
    let rate = (trace.average_rate().round() as u64).max(1);
    let buffer = 4 * trace.max_frame_bytes();

    h.bench("offline/flow_unit_150_frames", || {
        bb(optimal_unit_benefit(&by_byte, buffer, rate).unwrap())
    });
    h.bench("offline/dp_frame_150_frames", || {
        bb(optimal_frame_benefit(&by_frame, buffer, rate).unwrap())
    });

    // Ablation: the per-byte-value greedy index vs. the O(n)-per-victim
    // rescan baseline (identical schedules; the index is the design
    // choice DESIGN.md calls out).
    let trace = MpegSource::new(MpegConfig::cnn_like(), 13).frames(250);
    let stream = trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
    let rate = (trace.average_rate().round() as u64).max(1);
    let small = trace.max_frame_bytes(); // small buffer → many drops
    h.bench("greedy_index_ablation/class_index", || {
        bb(run_server_only(&stream, small, rate, GreedyByteValue::new()).benefit)
    });
    h.bench("greedy_index_ablation/full_rescan", || {
        bb(run_server_only(&stream, small, rate, GreedyRescan::new()).benefit)
    });

    // Ablation: plain greedy overflow handling vs. the proactive
    // early-dropping variant (the Section 6 "pro-active algorithms"
    // question): cost of the extra per-step check.
    let trace = MpegSource::new(MpegConfig::cnn_like(), 14).frames(250);
    let stream = trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
    let rate = (trace.average_rate().round() as u64).max(1);
    let buffer = 2 * trace.max_frame_bytes();
    h.bench("proactive_ablation/greedy", || {
        bb(run_server_only(&stream, buffer, rate, GreedyByteValue::new()).benefit)
    });
    h.bench("proactive_ablation/early_value_drop", || {
        bb(run_server_only(&stream, buffer, rate, EarlyValueDrop::new(buffer, 3, 4, 2)).benefit)
    });

    // The disabled probe must be free: the probed entry point with
    // `NoopProbe` monomorphizes to the same code as the plain one, so
    // these two should time identically.
    let trace = MpegSource::new(MpegConfig::cnn_like(), 15).frames(250);
    let stream = trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
    let rate = (trace.average_rate().round() as u64).max(1);
    let params = SmoothingParams::balanced_from_rate_delay(rate, 8, 2);
    h.bench("obs/simulate_unprobed", || {
        bb(simulate(&stream, SimConfig::new(params), GreedyByteValue::new()).metrics.benefit)
    });
    h.bench("obs/simulate_noop_probe", || {
        bb(
            simulate_probed(&stream, SimConfig::new(params), GreedyByteValue::new(), &mut NoopProbe)
                .metrics
                .benefit,
        )
    });

    // An empty FaultPlan must also be free: FaultyLink's passthrough
    // path forwards straight to the inner link, so the faulted entry
    // point with no faults should time identically to the plain one.
    h.bench("faults/simulate_plain", || {
        bb(simulate(&stream, SimConfig::new(params), GreedyByteValue::new()).metrics.benefit)
    });
    h.bench("faults/simulate_empty_plan", || {
        bb(
            simulate_faulted(&stream, SimConfig::new(params), FaultPlan::new(0), GreedyByteValue::new())
                .metrics
                .benefit,
        )
    });

    h.finish();
}
