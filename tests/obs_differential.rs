//! Differential tests of the observability layer: the streaming
//! `rts-obs` [`Collector`] must agree with the batch
//! `Metrics::from_record` path on a long MPEG-like run — exactly on
//! counts, bytes, and maxima, and within one log-bucket on quantiles —
//! and a JSONL trace replayed through a fresh collector must reproduce
//! the live one.

use rts_core::policy::{EarlyValueDrop, GreedyByteValue};
use rts_core::tradeoff::SmoothingParams;
use rts_obs::{Collector, DropReason, DropSite, Event, JsonlWriter, LogHistogram, Tee, VecProbe};
use rts_sim::{run_server_only_probed, simulate_probed, SimConfig};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::{FrameKind, InputStream, SliceSpec};

fn mpeg_10k() -> InputStream {
    MpegSource::new(MpegConfig::cnn_like(), 42)
        .frames(10_000)
        .materialize(Slicing::WholeFrame, WeightAssignment::MPEG_12_8_1)
}

/// Nearest-rank quantile of a sorted sample (the contract
/// `LogHistogram::quantile` approximates to bucket resolution).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

#[test]
fn streaming_collector_agrees_with_batch_metrics_on_10k_frames() {
    let stream = mpeg_10k();
    // Slightly under-provisioned so the drop paths see traffic too.
    let rate = stream.stats().rate_at(0.95).max(1);
    let params = SmoothingParams::balanced_from_rate_delay(rate, 6, 2);

    let mut c = Collector::new();
    let report = simulate_probed(&stream, SimConfig::new(params), GreedyByteValue::new(), &mut c);
    let m = &report.metrics;
    m.check_conservation().expect("batch metrics conserve bytes");

    // Counts and bytes agree exactly.
    assert_eq!(c.admitted_slices.get(), stream.slice_count() as u64);
    assert_eq!(c.admitted_bytes.get(), m.offered_bytes);
    assert_eq!(c.admitted_weight.get(), m.offered_weight);
    assert_eq!(c.played_slices.get(), m.played_slices);
    assert_eq!(c.played_bytes.get(), m.played_bytes);
    assert_eq!(c.played_weight.get(), m.benefit);
    let server = c.drops_at(DropSite::Server);
    assert_eq!(server.slices, m.server_dropped_slices);
    assert_eq!(server.bytes, m.server_dropped_bytes);
    let client = c.drops_at(DropSite::Client);
    assert_eq!(client.slices, m.client_dropped_slices);
    assert_eq!(client.bytes, m.client_dropped_bytes);
    assert!(
        m.server_dropped_slices > 0,
        "the run must exercise the drop path to be a meaningful differential"
    );

    // Maxima and slot counts agree exactly.
    assert_eq!(c.server_occupancy_max.max(), m.server_occupancy_max);
    assert_eq!(c.client_occupancy_max.max(), m.client_occupancy_max);
    assert_eq!(c.link_rate_max.max(), m.link_rate_max);
    assert_eq!(c.slots.get(), report.record.steps().len() as u64);

    // Balanced configuration: every played slice sojourns exactly P + D
    // (Definition 2.5), so the streaming histogram collapses to a point.
    let latency = params.playout_latency();
    assert_eq!(c.sojourn.count(), m.played_slices);
    assert_eq!(c.sojourn.min(), latency);
    assert_eq!(c.sojourn.max(), latency);

    // Histogram quantiles within one log-bucket of the exact
    // nearest-rank values computed from the full record.
    let mut server_occ: Vec<u64> = report
        .record
        .steps()
        .iter()
        .map(|s| s.server_occupancy)
        .collect();
    server_occ.sort_unstable();
    let mut link: Vec<u64> = report.record.steps().iter().map(|s| s.sent_bytes).collect();
    link.sort_unstable();
    for (name, hist, exact) in [
        ("server_occupancy", &c.server_occupancy, &server_occ),
        ("link_utilization", &c.link_utilization, &link),
    ] {
        assert_eq!(hist.count(), exact.len() as u64, "{name} sample count");
        for q in [0.5, 0.9, 0.99, 1.0] {
            let approx = hist.quantile(q);
            let want = exact_quantile(exact, q);
            assert!(
                LogHistogram::bucket_of(approx).abs_diff(LogHistogram::bucket_of(want)) <= 1,
                "{name} q={q}: streaming {approx} vs exact {want} differ by more than one bucket"
            );
        }
    }
}

#[test]
fn jsonl_trace_replay_reproduces_the_live_collector() {
    let stream = mpeg_10k();
    let rate = stream.stats().rate_at(0.95).max(1);
    let params = SmoothingParams::balanced_from_rate_delay(rate, 6, 2);

    // One run feeding both a live collector and a JSONL trace.
    let mut tee = Tee(Collector::new(), JsonlWriter::new(Vec::new()));
    simulate_probed(&stream, SimConfig::new(params), GreedyByteValue::new(), &mut tee);
    let Tee(live, writer) = tee;
    let events = writer.lines();
    let buf = writer.finish().expect("in-memory sink cannot fail");

    let mut replayed = Collector::new();
    let n = rts_obs::replay(&buf[..], &mut replayed).expect("trace replays cleanly");
    assert_eq!(n, events);
    assert_eq!(live.summary(), replayed.summary());
    assert_eq!(live.admitted_bytes.get(), replayed.admitted_bytes.get());
    assert_eq!(live.dropped_bytes(), replayed.dropped_bytes());
}

/// A proactive policy's early drops and Eq. 3's overflow drops reach the
/// trace with distinct reasons, in the server's order: admissions,
/// policy drops, overflow drops, sends.
#[test]
fn server_trace_splits_policy_from_overflow_drops() {
    // B=4, R=1; occupancy above B/2 early-drops slices of byte value
    // below 2: both 1-weight slices (newest first), then the overflow
    // takes the newest 5-weight slice and slice 2 is sent.
    let weights = [1, 1, 5, 5, 5, 5, 5, 5];
    let mut b = InputStream::builder();
    b.frame(0, weights.map(|w| SliceSpec::new(1, w, FrameKind::Generic)));
    let stream = b.build();
    let mut tape = VecProbe::new();
    run_server_only_probed(&stream, 4, 1, EarlyValueDrop::new(4, 1, 2, 2), &mut tape);

    let slot0: Vec<Event> = tape
        .events
        .iter()
        .skip_while(|e| matches!(e, Event::RunStart { .. }))
        .take_while(|e| !matches!(e, Event::SlotEnd { .. }))
        .copied()
        .collect();
    let drop = |id: u64, reason| Event::SliceDropped {
        time: 0,
        session: 0,
        id,
        bytes: 1,
        weight: weights[id as usize],
        site: DropSite::Server,
        reason,
    };
    let mut want: Vec<Event> = (0..8u64)
        .map(|id| Event::SliceAdmitted {
            time: 0,
            session: 0,
            id,
            bytes: 1,
            weight: weights[id as usize],
        })
        .collect();
    want.extend([
        drop(1, DropReason::Policy),
        drop(0, DropReason::Policy),
        drop(7, DropReason::Overflow),
        Event::SliceSent {
            time: 0,
            session: 0,
            id: 2,
            bytes: 1,
            completed: true,
        },
    ]);
    assert_eq!(slot0, want);
}
