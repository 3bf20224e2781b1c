//! Differential test of the server-buffer backings: the ring-buffer
//! fast path must produce **bit-identical** schedules to the map-backed
//! reference for every drop policy the paper evaluates, on long seeded
//! MPEG-like streams, under both slicing granularities.
//!
//! The two backings live behind `BufferBacking` in the same binary, so
//! one `SimConfig` toggle runs the exact same engine code over either
//! store; any divergence in FIFO order, victim lookup, or tombstone
//! compaction shows up as a differing `ScheduleRecord`.

use rts_core::policy::{GreedyByteValue, HeadDrop, RandomDrop, TailDrop};
use rts_core::tradeoff::SmoothingParams;
use rts_core::{BufferBacking, DropPolicy};
use rts_sim::{simulate, SimConfig, SimReport};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::InputStream;

const SEED: u64 = 0xd1ff_5eed;
const FRAMES: usize = 10_000;

fn mpeg_stream(slicing: Slicing) -> InputStream {
    MpegSource::new(MpegConfig::cnn_like(), SEED)
        .frames(FRAMES)
        .materialize(slicing, WeightAssignment::MPEG_12_8_1)
}

/// Runs the same (stream, params, policy) on both backings and asserts
/// the full schedule records are identical, slice by slice and step by
/// step. The rate sits below the stream's peak so the drop paths (and
/// hence mid-queue removals / tombstones) see real traffic.
fn assert_backings_agree<P, F>(slicing: Slicing, make_policy: F)
where
    P: DropPolicy,
    F: Fn() -> P,
{
    let stream = mpeg_stream(slicing);
    // ~95th-percentile rate: a few percent of slots overflow.
    let rate = stream.stats().rate_at(0.95).max(1);
    let params = SmoothingParams::balanced_from_rate_delay(rate, 6, 2);

    let ring: SimReport = simulate(
        &stream,
        SimConfig::new(params).with_backing(BufferBacking::Ring),
        make_policy(),
    );
    let map: SimReport = simulate(
        &stream,
        SimConfig::new(params).with_backing(BufferBacking::Map),
        make_policy(),
    );

    let policy = ring.policy;
    assert_eq!(
        ring.metrics, map.metrics,
        "{policy} under {slicing:?}: aggregate metrics diverge"
    );
    assert_eq!(
        ring.record.steps(),
        map.record.steps(),
        "{policy} under {slicing:?}: per-step series diverge"
    );
    assert_eq!(
        ring.record.slices().collect::<Vec<_>>(),
        map.record.slices().collect::<Vec<_>>(),
        "{policy} under {slicing:?}: per-slice records diverge"
    );
    // The run must actually exercise the drop machinery for the
    // comparison to mean anything.
    assert!(
        ring.metrics.server_dropped_slices > 0,
        "{policy} under {slicing:?}: no server drops — differential run too easy"
    );
}

#[test]
fn tail_drop_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_backings_agree(slicing, TailDrop::new);
    }
}

#[test]
fn head_drop_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_backings_agree(slicing, HeadDrop::new);
    }
}

#[test]
fn greedy_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_backings_agree(slicing, GreedyByteValue::new);
    }
}

#[test]
fn random_drop_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_backings_agree(slicing, || RandomDrop::new(7));
    }
}
