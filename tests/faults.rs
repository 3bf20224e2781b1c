//! Cross-crate integration tests for the fault-injection layer:
//! byte conservation under every fault model, bit-determinism of
//! seeded runs, and graceful degradation via the client resync policy.

use realtime_smoothing::{
    simulate, simulate_faulted, FaultPlan, FaultyLink, Mux, ResyncPolicy, RoundRobin, SessionSpec,
    SimConfig, SmoothingParams, TailDrop,
};
use rts_sim::{simulate_tandem, simulate_tandem_with_links, HopConfig, Link};
use rts_faults::simulate_faulted_probed;
use rts_obs::{Event, VecProbe};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::InputStream;

fn mpeg_stream(seed: u64, frames: usize) -> InputStream {
    MpegSource::new(MpegConfig::cnn_like(), seed)
        .frames(frames)
        .materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1)
}

fn config_for(stream: &InputStream) -> SimConfig {
    let rate = stream.stats().rate_at(1.1).max(1);
    SimConfig::new(SmoothingParams::balanced_from_rate_delay(rate, 6, 2))
}

/// `config_for` with an effectively unbounded client buffer. A resync
/// client holds late data a strict client would drop, so comparing the
/// two fairly needs room for that backlog (graceful degradation costs
/// buffer space on top of latency — with the default B-sized client
/// buffer a sustained dip can make resync *lose* to strict via
/// overflow, which is expected and why this helper exists).
fn roomy_config_for(stream: &InputStream) -> SimConfig {
    SimConfig {
        client_capacity: Some(1 << 20),
        ..config_for(stream)
    }
}

/// One representative plan per fault model, plus a combined one. Every
/// byte must be accounted (played + dropped + residual) no matter how
/// the channel misbehaves — faults may cost loss, never corruption.
#[test]
fn conservation_holds_under_every_fault_model() {
    let stream = mpeg_stream(11, 120);
    let config = roomy_config_for(&stream);
    let specs = [
        "outage@20..35",
        "dip@10..80=7",
        "jitter@0..120+5",
        "drift@0+1/6",
        "drift@0-1/6",
        "outage@20..35,dip@40..80=7,jitter@90..140+4,drift@10-1/9",
    ];
    for spec in specs {
        let plan = FaultPlan::parse(spec, 99).unwrap();
        let strict = simulate_faulted(&stream, config, plan.clone(), TailDrop::new());
        strict
            .metrics
            .check_conservation()
            .unwrap_or_else(|e| panic!("conservation under {spec:?} (strict): {e}"));
        let graceful = simulate_faulted(
            &stream,
            config.with_resync(ResyncPolicy::new(20, 1)),
            plan,
            TailDrop::new(),
        );
        graceful
            .metrics
            .check_conservation()
            .unwrap_or_else(|e| panic!("conservation under {spec:?} (resync): {e}"));
        assert!(
            graceful.metrics.played_bytes >= strict.metrics.played_bytes,
            "resync must not lose bytes vs strict under {spec:?}: {} vs {}",
            graceful.metrics.played_bytes,
            strict.metrics.played_bytes
        );
    }
}

/// A faulted run is a pure function of `(stream, config, plan, policy)`:
/// two runs with the same seed produce identical metrics *and* an
/// identical event trace, while a different jitter seed diverges.
#[test]
fn faulted_runs_are_bit_deterministic_in_the_seed() {
    let stream = mpeg_stream(3, 100);
    let config = config_for(&stream).with_resync(ResyncPolicy::new(12, 2));
    let plan = FaultPlan::parse("jitter@0..200+6,outage@50..60", 1234).unwrap();

    let mut probe_a = VecProbe::new();
    let a = simulate_faulted_probed(&stream, config, plan.clone(), TailDrop::new(), &mut probe_a);
    let mut probe_b = VecProbe::new();
    let b = simulate_faulted_probed(&stream, config, plan.clone(), TailDrop::new(), &mut probe_b);
    assert_eq!(a.metrics, b.metrics, "same seed, same metrics");
    assert_eq!(
        probe_a.events, probe_b.events,
        "same seed, same event-for-event trace"
    );

    let mut probe_c = VecProbe::new();
    let c = simulate_faulted_probed(
        &stream,
        config,
        plan.with_seed(4321),
        TailDrop::new(),
        &mut probe_c,
    );
    assert_ne!(
        probe_a.events, probe_c.events,
        "different jitter seeds must draw different delays"
    );
    c.metrics.check_conservation().unwrap();
}

/// The headline behaviour: after an outage a resyncing client
/// re-anchors its playout timer and keeps playing, where a strict
/// client drops everything that missed its deadline.
#[test]
fn resync_degrades_gracefully_where_strict_playout_collapses() {
    let stream = mpeg_stream(7, 150);
    // Room to absorb the post-outage flush: graceful degradation costs
    // buffer space on top of latency.
    let config = roomy_config_for(&stream);
    let plan = FaultPlan::parse("outage@30..45", 5).unwrap();

    let strict = simulate_faulted(&stream, config, plan.clone(), TailDrop::new());
    let graceful = simulate_faulted(
        &stream,
        config.with_resync(ResyncPolicy::new(15, 1)),
        plan,
        TailDrop::new(),
    );
    assert!(
        strict.metrics.client_dropped_slices > 0,
        "the outage must hurt a strict client: {:?}",
        strict.metrics
    );
    assert!(
        graceful.metrics.played_bytes > strict.metrics.played_bytes,
        "resync must rescue playout: {} vs {}",
        graceful.metrics.played_bytes,
        strict.metrics.played_bytes
    );
    // The no-fault baseline bounds both from above.
    let ideal = simulate(&stream, config, TailDrop::new());
    assert!(graceful.metrics.played_bytes <= ideal.metrics.played_bytes);
}

/// Faults compose with the tandem chain: each hop takes its own
/// `FaultyLink`, and an outage on the middle hop costs playout without
/// breaking slice accounting.
#[test]
fn tandem_hops_take_independent_faulty_links() {
    let stream = mpeg_stream(21, 60);
    let rate = stream.stats().rate_at(1.3).max(1);
    let hops = [
        HopConfig { buffer: rate * 4, rate, link_delay: 1 },
        HopConfig { buffer: rate * 4, rate, link_delay: 1 },
    ];

    let clean = simulate_tandem(&stream, &hops, 4, |_| TailDrop::new());
    let faulted = simulate_tandem_with_links(
        &stream,
        &hops,
        4,
        |_| TailDrop::new(),
        vec![
            FaultyLink::new(Link::new(1), FaultPlan::new(2)),
            FaultyLink::new(Link::new(1), FaultPlan::new(2).outage(10, 25)),
        ],
    );

    assert!(
        faulted.played_bytes < clean.played_bytes,
        "a mid-chain outage must cost playout: {} vs {}",
        faulted.played_bytes,
        clean.played_bytes
    );
    let accounted = faulted.played_slices
        + faulted.hop_drops.iter().sum::<u64>()
        + faulted.client_drops;
    assert_eq!(
        accounted,
        stream.slice_count() as u64,
        "every slice accounted across the faulted chain"
    );
}

/// Per-session fault plans thread through the shared-link mux: every
/// admitted slice is still accounted per session, and only the faulted
/// session pays for its outage.
#[test]
fn mux_sessions_fail_independently_under_per_session_plans() {
    let make = |seed| mpeg_stream(seed, 80);
    let streams: Vec<InputStream> = (0..3).map(make).collect();
    let rates: Vec<u64> = streams.iter().map(|s| s.stats().rate_at(1.2).max(1)).collect();
    let link_rate: u64 = rates.iter().sum();

    let run = |faulted_session: Option<usize>| {
        let mut mux = Mux::new(link_rate, RoundRobin::new());
        for (i, (s, &r)) in streams.iter().zip(&rates).enumerate() {
            let params = SmoothingParams::balanced_from_rate_delay(r, 8, 1);
            let mut spec = SessionSpec::new(s.clone(), params, Box::new(TailDrop::new()))
                .with_label(format!("s{i}"));
            if faulted_session == Some(i) {
                spec = spec
                    .with_faults(FaultPlan::parse("outage@10..30", 7).unwrap())
                    .with_resync(ResyncPolicy::new(25, 1));
            }
            mux.admit(spec).unwrap();
        }
        mux.run()
    };

    let clean = run(None);
    let faulted = run(Some(1));
    for (i, (m, s)) in faulted.sessions.iter().zip(&streams).enumerate() {
        assert_eq!(
            m.played_slices + m.server_dropped_slices + m.client_dropped_slices,
            s.slice_count() as u64,
            "slice conservation for session {i}: {m:?}"
        );
    }
    // Untouched sessions deliver exactly what they deliver in the clean
    // run; the faulted one cannot do better.
    assert_eq!(faulted.sessions[0].delivered_bytes, clean.sessions[0].delivered_bytes);
    assert_eq!(faulted.sessions[2].delivered_bytes, clean.sessions[2].delivered_bytes);
    assert!(faulted.sessions[1].delivered_bytes <= clean.sessions[1].delivered_bytes);
}

/// ResyncPolicy x ClockDrift interaction: a fast client clock makes
/// deadlines slip repeatedly, and every slip the resync policy absorbs
/// must be within `max_skew` — across drift directions, periods, and
/// catch-up rates, with and without a concurrent outage.
#[test]
fn resync_skews_stay_bounded_under_clock_drift() {
    let stream = mpeg_stream(13, 120);
    let config = roomy_config_for(&stream);
    // (spec, max_skew, catchup, drift direction makes deadlines slip?)
    let matrix = [
        ("drift@0+1/5", 4, 1, true),
        ("drift@0+1/3", 9, 2, true),
        ("drift@10-1/4", 6, 1, false),
        ("drift@0+1/4,outage@30..40", 15, 3, true),
    ];
    for (spec, max_skew, catchup, slips) in matrix {
        let plan = FaultPlan::parse(spec, 42).unwrap();
        let mut probe = VecProbe::new();
        let report = simulate_faulted_probed(
            &stream,
            config.with_resync(ResyncPolicy::new(max_skew, catchup)),
            plan,
            TailDrop::new(),
            &mut probe,
        );
        let skews: Vec<u64> = probe
            .events
            .iter()
            .filter_map(|e| match e {
                Event::ClientResync { skew, .. } => Some(*skew),
                _ => None,
            })
            .collect();
        if slips {
            assert!(
                !skews.is_empty(),
                "{spec}: a fast clock must force timer re-anchors"
            );
        }
        for &skew in &skews {
            assert!(
                skew <= max_skew,
                "{spec}: absorbed skew {skew} > max_skew {max_skew}"
            );
        }
        report
            .metrics
            .check_conservation()
            .unwrap_or_else(|e| panic!("{spec}: conservation under drift+resync: {e}"));
        assert_eq!(
            report.metrics.residual_bytes, 0,
            "{spec}: catch-up must terminate so the run drains"
        );
    }
}

/// Catch-up terminates: after one absorbed skew the re-anchor offset is
/// clawed back at `catchup` slots per step, reaching zero, and later
/// on-time slices play strictly at their original deadlines again.
#[test]
fn resync_catchup_recovers_the_timer_offset() {
    use rts_core::{Client, SentChunk};
    use rts_stream::{FrameKind, Slice, SliceId};

    let unit = |id: u64, arrival: u64| Slice {
        id: SliceId(id),
        arrival,
        size: 1,
        weight: 1,
        kind: FrameKind::Generic,
    };
    let chunk = |time: u64, slice: Slice| SentChunk {
        time,
        slice,
        bytes: 1,
        completed: true,
    };

    let mut client = Client::new(100, 3, 0).with_resync(ResyncPolicy::new(5, 1));
    // Slice 0: deadline 3, delivered at 5 -> skew 2 absorbed.
    for t in 0..5 {
        assert!(client.step(t, &[]).resyncs.is_empty());
    }
    let st = client.step(5, &[chunk(5, unit(0, 0))]);
    assert_eq!(st.resyncs, vec![2], "the slip must be absorbed, not dropped");
    assert_eq!(st.played.len(), 1, "the late slice still plays");

    // The offset decays by catchup = 1 per step and never rebounds.
    let mut offsets = vec![client.resync_offset()];
    for t in 6..10 {
        client.step(t, &[]);
        offsets.push(client.resync_offset());
    }
    assert!(
        offsets.windows(2).all(|w| w[1] <= w[0]),
        "offset must decay monotonically: {offsets:?}"
    );
    assert_eq!(
        client.resync_offset(),
        0,
        "catch-up must fully recover the offset: {offsets:?}"
    );

    // A later on-time slice plays exactly at its own deadline again.
    let late = unit(1, 20);
    client.step(20, &[chunk(20, late)]);
    for t in 21..23 {
        assert!(client.step(t, &[]).played.is_empty(), "t={t}: too early");
    }
    let st = client.step(23, &[]);
    assert_eq!(
        st.played.len(),
        1,
        "after recovery the original timetable holds"
    );
    assert!(client.is_drained());
}

/// Drift and resync interact with the catch-up rate: a faster catch-up
/// never plays fewer bytes than a slower one under the same fast-clock
/// drift (it merely trades latency back sooner), and both stay within
/// the no-drift ideal.
#[test]
fn faster_catchup_never_costs_playout_under_drift() {
    let stream = mpeg_stream(29, 120);
    let config = roomy_config_for(&stream);
    let plan = || FaultPlan::parse("drift@0+1/4", 8).unwrap();
    let ideal = simulate(&stream, config, TailDrop::new());
    let mut played = Vec::new();
    for catchup in [1, 2, 4] {
        let report = simulate_faulted(
            &stream,
            config.with_resync(ResyncPolicy::new(10, catchup)),
            plan(),
            TailDrop::new(),
        );
        report.metrics.check_conservation().unwrap();
        assert!(
            report.metrics.played_bytes <= ideal.metrics.played_bytes,
            "catchup {catchup}: drift cannot beat the no-drift ideal"
        );
        played.push(report.metrics.played_bytes);
    }
    assert!(
        played.windows(2).all(|w| w[1] >= w[0]),
        "played bytes must not regress as catch-up accelerates: {played:?}"
    );
}
