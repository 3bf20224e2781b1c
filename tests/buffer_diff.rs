//! Differential test of the server: the product `Server` on its
//! ring-buffer store must take **bit-identical** steps to the
//! map-backed reference server of `rts-check`, slot by slot, for every
//! drop policy the paper evaluates, on long seeded MPEG-like streams,
//! under both slicing granularities.
//!
//! Both servers see the same arrivals every slot, and each slot's
//! `ServerStep` (the dropped slices in order, the sent chunks, the
//! occupancy) must match. Any divergence in FIFO order, victim choice,
//! tombstone compaction, or the Greedy byte-value index shows up at the
//! first slot it happens. Everything downstream of the server (link,
//! client, record) is a function of these steps.

use rts_check::gen::PolicyCase;
use rts_check::reference_server::{first_divergence, Lockstep, ReferencePolicy, ReferenceServer};
use rts_core::tradeoff::SmoothingParams;
use rts_core::{Server, ServerStep};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::{InputStream, Slice, Time};

const SEED: u64 = 0xd1ff_5eed;
const FRAMES: usize = 10_000;

fn mpeg_stream(slicing: Slicing) -> InputStream {
    MpegSource::new(MpegConfig::cnn_like(), SEED)
        .frames(FRAMES)
        .materialize(slicing, WeightAssignment::MPEG_12_8_1)
}

/// A stepped server that also counts the slices it dropped.
struct CountDrops<S> {
    server: S,
    dropped: u64,
}

impl<S: Lockstep> Lockstep for CountDrops<S> {
    fn step_slot(&mut self, time: Time, arrivals: &[Slice], out: &mut ServerStep) -> bool {
        let drained = self.server.step_slot(time, arrivals, out);
        self.dropped += out.dropped.len() as u64;
        drained
    }
}

/// Steps the product server and the reference side by side on the same
/// (stream, params, policy) and asserts every slot's step is identical.
/// The rate sits below the stream's peak so the drop paths (and hence
/// mid-queue removals / tombstones) see real traffic.
fn assert_servers_agree(slicing: Slicing, policy: PolicyCase) {
    let stream = mpeg_stream(slicing);
    // ~95th-percentile rate: a few percent of slots overflow.
    let rate = stream.stats().rate_at(0.95).max(1);
    let params = SmoothingParams::balanced_from_rate_delay(rate, 6, 2);

    let mut ring = CountDrops {
        server: Server::new(params.buffer, params.rate, policy.build()),
        dropped: 0,
    };
    let mut map = ReferenceServer::new(params.buffer, params.rate, ReferencePolicy::new(policy));
    let name = policy.name();
    if let Some(why) = first_divergence(&stream, &mut ring, &mut map) {
        panic!("{name} under {slicing:?}: ring server vs map reference: {why}");
    }
    // The run must actually exercise the drop machinery for the
    // comparison to mean anything.
    assert!(
        ring.dropped > 0,
        "{name} under {slicing:?}: no server drops — differential run too easy"
    );
}

#[test]
fn tail_drop_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_servers_agree(slicing, PolicyCase::Tail);
    }
}

#[test]
fn head_drop_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_servers_agree(slicing, PolicyCase::Head);
    }
}

#[test]
fn greedy_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_servers_agree(slicing, PolicyCase::Greedy);
    }
}

#[test]
fn random_drop_schedules_are_bit_identical() {
    for slicing in [Slicing::WholeFrame, Slicing::PerByte] {
        assert_servers_agree(slicing, PolicyCase::Random(7));
    }
}
