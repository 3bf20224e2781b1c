//! Integration tests for the smoothd serving layer: the daemon
//! end-to-end, the TCP ingest path speaking real frames over a
//! loopback socket, backpressure shedding, trace replay, and the
//! session-churn conservation guarantees of ISSUE 6.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rts_obs::RejectReason;
use rts_smoothd::{
    decode_frame, encode_frame, read_snapshot, replay_sessions, serve_tcp, AdmitRequest,
    ArrivalSource, Daemon, DaemonConfig, Frame, FrameReader, Shard, SlotPacing, SnapshotWriter,
    WirePolicy, MAX_SNAPSHOT_CHUNK, PROTOCOL_VERSION, SNAPSHOT_HEADER,
};

fn cbr_request(rate: u64, lifetime: u64) -> AdmitRequest {
    AdmitRequest {
        rate,
        delay: 4,
        link_delay: 1,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: rate as u32,
        slice_size: rate as u32,
        lifetime,
    }
}

fn external_request(rate: u64) -> AdmitRequest {
    AdmitRequest {
        per_slot: 0, // externally fed
        slice_size: 0,
        lifetime: 0,
        ..cbr_request(rate, 0)
    }
}

#[test]
fn daemon_completes_cbr_sessions_and_conserves_every_byte() {
    let mut daemon = Daemon::start(DaemonConfig {
        shards: 2,
        shard_link_rate: 1 << 12,
        queue_capacity: 256,
        record_events: false,
        ..DaemonConfig::default()
    });
    for _ in 0..64 {
        daemon.admit(&cbr_request(4, 16)).expect("fits the link");
    }
    assert!(
        daemon.wait_idle(Duration::from_secs(30)),
        "finite sessions must all retire"
    );
    let report = daemon.shutdown(true);
    assert!(report.totals.conserved(), "ledger: {:?}", report.totals);
    assert_eq!(report.totals.offered_bytes, 64 * 4 * 16);
    assert_eq!(report.totals.played_bytes, report.totals.offered_bytes);
    assert_eq!(report.retired_sessions, 64);
    for shard in &report.shards {
        assert!(
            shard.max_slot_sent <= shard.link_rate,
            "shard {} oversubscribed its link: {} > {}",
            shard.id,
            shard.max_slot_sent,
            shard.link_rate
        );
    }
}

/// A tiny blocking frame client for the loopback tests.
struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, frame: &Frame) {
        self.stream.write_all(&encode_frame(frame)).expect("send");
    }

    fn recv(&mut self) -> Frame {
        let mut buf = [0u8; 1024];
        loop {
            if let Some(frame) = self.reader.next_frame().expect("well-formed reply") {
                return frame;
            }
            let n = self.stream.read(&mut buf).expect("read reply");
            assert!(n > 0, "server closed before replying");
            self.reader.extend(&buf[..n]);
        }
    }

    fn hello(&mut self) {
        self.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        match self.recv() {
            Frame::Welcome { version } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Welcome, got {other:?}"),
        }
    }
}

#[test]
fn tcp_ingest_round_trips_a_framed_session() {
    let daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 1 << 10,
        queue_capacity: 256,
        record_events: false,
        ..DaemonConfig::default()
    });
    let shared = Arc::new(Mutex::new(daemon));
    let server = serve_tcp(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("tcp listener has an address");

    let mut client = Client::connect(addr);
    client.hello();

    client.send(&Frame::Admit(external_request(8)));
    let session = match client.recv() {
        Frame::Admitted { session, .. } => session,
        other => panic!("expected Admitted, got {other:?}"),
    };

    // Three slices of 8 bytes: within B = R·D = 32, so nothing drops.
    client.send(&Frame::Data {
        session,
        slices: vec![(8, 1), (8, 1), (8, 1)],
    });
    client.send(&Frame::Drain { session });

    // Poll Stats until the session retires (the drain empties the
    // pipeline in a handful of slots).
    let deadline = Instant::now() + Duration::from_secs(20);
    let retired = loop {
        client.send(&Frame::Stats);
        match client.recv() {
            Frame::StatsReply(s) if s.retired >= 1 => break s.retired,
            Frame::StatsReply(_) => {
                assert!(Instant::now() < deadline, "session never retired");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
    };
    assert_eq!(retired, 1);

    client.send(&Frame::Goodbye);
    match client.recv() {
        Frame::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }

    server.stop();
    let daemon = Arc::try_unwrap(shared)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
    let report = daemon.shutdown(true);
    assert!(report.totals.conserved());
    assert_eq!(report.totals.offered_bytes, 24);
    assert_eq!(report.totals.played_bytes, 24, "all fed bytes must play");
}

#[test]
fn tcp_ingest_rejects_admissions_beyond_capacity_with_a_typed_reason() {
    let daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 8,
        queue_capacity: 64,
        record_events: false,
        ..DaemonConfig::default()
    });
    let shared = Arc::new(Mutex::new(daemon));
    let server = serve_tcp(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.local_addr().unwrap());
    client.hello();

    client.send(&Frame::Admit(external_request(8)));
    assert!(matches!(client.recv(), Frame::Admitted { .. }));
    client.send(&Frame::Admit(external_request(8)));
    match client.recv() {
        Frame::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Capacity),
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Unknown session ids are refused, not ignored.
    client.send(&Frame::Data {
        session: 999,
        slices: vec![(1, 1)],
    });
    match client.recv() {
        Frame::Rejected { session, reason } => {
            assert_eq!(session, 999);
            assert_eq!(reason, RejectReason::UnknownSession);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    server.stop();
    let daemon = Arc::try_unwrap(shared)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
    daemon.shutdown(true);
}

#[test]
fn tcp_ingest_answers_protocol_garbage_with_a_protocol_reject() {
    let daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 64,
        queue_capacity: 16,
        record_events: false,
        ..DaemonConfig::default()
    });
    let shared = Arc::new(Mutex::new(daemon));
    let server = serve_tcp(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.local_addr().unwrap());
    client.hello();

    // A declared length beyond MAX_FRAME is a protocol violation; the
    // server must answer with a typed reject and hang up, not panic.
    // The kind byte rides along because the oversize error names the
    // offending frame kind, so the decoder waits for it.
    let mut garbage = (1_000_000u32).to_le_bytes().to_vec();
    garbage.push(0x02);
    client.stream.write_all(&garbage).unwrap();
    match client.recv() {
        Frame::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Protocol),
        other => panic!("expected Rejected, got {other:?}"),
    }
    let mut rest = Vec::new();
    let closed = client.stream.read_to_end(&mut rest);
    assert!(closed.is_ok() && rest.is_empty(), "server must close");

    server.stop();
    let daemon = Arc::try_unwrap(shared)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
    daemon.shutdown(false);
}

#[test]
fn full_command_queues_shed_with_typed_backpressure() {
    // One slow shard: a long slot period keeps the worker parked
    // between slots while we flood its bounded queue.
    let mut daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 1 << 10,
        queue_capacity: 2,
        pacing: SlotPacing::Deadline(Duration::from_millis(50)),
        record_events: true,
        ..DaemonConfig::default()
    });
    let (id, _) = daemon.admit(&external_request(8)).expect("fits");
    let mut backpressured = 0;
    for _ in 0..2_000 {
        match daemon.inject(id, vec![(1, 1)]) {
            Ok(()) => {}
            Err(RejectReason::Backpressure) => backpressured += 1,
            Err(other) => panic!("unexpected reject {other:?}"),
        }
    }
    assert!(
        backpressured > 0,
        "a 2-deep queue against a sleeping worker must shed"
    );
    let mut events = Vec::new();
    daemon.take_events(&mut events);
    assert!(
        events.iter().any(|e| matches!(
            e,
            rts_obs::Event::IngestRejected {
                reason: RejectReason::Backpressure,
                ..
            }
        )),
        "backpressure must surface as a typed rts-obs event"
    );
    let report = daemon.shutdown(false);
    // Shed commands never entered a session, so the ledger still
    // balances over what was actually enqueued.
    assert!(report.totals.conserved(), "ledger: {:?}", report.totals);
}

#[test]
fn churn_sequences_conserve_bytes_and_never_oversubscribe_the_link() {
    // Deterministic admit/feed/drain/evict interleavings on one shard,
    // the exact loop the daemon workers run (satellite: tests/smoothd.rs
    // churn conservation).
    let link_rate = 32;
    let mut shard = Shard::new(0, link_rate, (1, 1));
    let mut live: Vec<u64> = Vec::new();
    for round in 0..6u64 {
        for k in 0..4u64 {
            let id = round * 10 + k;
            if shard.admit(id, &cbr_request(4, 12)).is_ok() {
                live.push(id);
            }
        }
        for _ in 0..5 {
            shard.process_slot();
            assert!(
                shard.stats().max_slot_sent <= link_rate,
                "slot {} oversubscribed: {} > {}",
                shard.now(),
                shard.stats().max_slot_sent,
                link_rate
            );
            let totals = shard.totals();
            assert_eq!(
                totals.offered_bytes,
                totals.resolved_bytes() + shard.pool_bytes(),
                "mid-run leak at slot {}",
                shard.now()
            );
        }
        // Churn: drain one, evict one (when present).
        if let Some(&victim) = live.first() {
            let _ = shard.drain(victim);
            live.remove(0);
        }
        if let Some(&victim) = live.first() {
            let _ = shard.evict(victim);
            live.remove(0);
        }
    }
    shard.drain_all();
    assert!(shard.run_until_drained(10_000), "drain must terminate");
    let totals = shard.totals();
    assert!(totals.conserved(), "final ledger: {totals:?}");
    assert!(totals.offered_bytes > 0, "the scenario must move bytes");
    let mut retirements = Vec::new();
    shard.take_retirements(&mut retirements);
    for r in &retirements {
        assert!(
            r.counters.conserved(),
            "session {} ledger: {:?}",
            r.session,
            r.counters
        );
    }
}

#[test]
fn recorded_traces_replay_into_the_daemon() {
    let trace = "\
{\"ev\":\"slice_admitted\",\"t\":3,\"session\":1,\"id\":0,\"bytes\":4,\"weight\":1}\n\
{\"ev\":\"slice_admitted\",\"t\":4,\"session\":1,\"id\":1,\"bytes\":4,\"weight\":1}\n\
{\"ev\":\"slice_admitted\",\"t\":3,\"session\":2,\"id\":0,\"bytes\":6,\"weight\":2}\n";
    let sessions = replay_sessions(trace.as_bytes()).expect("valid trace");
    assert_eq!(sessions.len(), 2);
    let total: u64 = sessions.iter().map(|s| s.total_bytes).sum();

    let mut daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 64,
        queue_capacity: 16,
        record_events: false,
        ..DaemonConfig::default()
    });
    for s in &sessions {
        daemon
            .admit_with_source(
                &external_request(8),
                ArrivalSource::scheduled(s.slices.clone()),
            )
            .expect("trace sessions fit");
    }
    assert!(daemon.wait_idle(Duration::from_secs(20)));
    let report = daemon.shutdown(true);
    assert!(report.totals.conserved());
    assert_eq!(report.totals.offered_bytes, total);
    assert_eq!(report.totals.played_bytes, total);
}

#[test]
fn frame_codec_agrees_with_itself_over_a_split_stream() {
    // Chunked reassembly sanity at the integration level: many frames,
    // 1-byte feeds.
    let frames = vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        Frame::Admit(cbr_request(7, 3)),
        Frame::Data {
            session: 42,
            slices: vec![(1, 1), (2, 2)],
        },
        Frame::Stats,
        Frame::Goodbye,
    ];
    let mut wire = Vec::new();
    for f in &frames {
        wire.extend_from_slice(&encode_frame(f));
    }
    let mut reader = FrameReader::new();
    let mut decoded = Vec::new();
    for byte in wire {
        reader.extend(&[byte]);
        while let Some(f) = reader.next_frame().expect("valid stream") {
            decoded.push(f);
        }
    }
    assert_eq!(decoded, frames);
    // And the one-shot decoder rejects a truncated tail with a typed,
    // non-panicking error.
    let bytes = encode_frame(&frames[1]);
    let err = decode_frame(&bytes[..bytes.len() - 1]).unwrap_err();
    assert!(err.is_incomplete());
}

/// Drives one skewed TCP run: every data-bearing session is herded
/// onto a single shard, fed a fixed byte budget, then drained after
/// the rebalancer has (or has not) had its chance. Returns the exit
/// report plus the migration count the wire reported.
fn skewed_tcp_run(rebalance: bool) -> (rts_smoothd::DaemonReport, u64) {
    const FED: usize = 10;
    const SLICES: u64 = 3;
    const RATE: u64 = 4;
    let mut cfg = DaemonConfig {
        shards: 2,
        shard_link_rate: 1 << 10,
        queue_capacity: 256,
        record_events: false,
        ..DaemonConfig::default()
    };
    cfg.rebalance.enabled = rebalance;
    let daemon = Daemon::start(cfg);
    let shared = Arc::new(Mutex::new(daemon));
    let server = serve_tcp(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.local_addr().unwrap());
    client.hello();

    // Build the skew with the pinning hook (placement would spread
    // wire admissions evenly, which is the point of it); the run
    // itself — data, stats, drains — is all wire traffic.
    let target = 0u32;
    let fed: Vec<u64> = {
        let mut d = shared.lock().expect("daemon mutex");
        (0..FED)
            .map(|_| d.admit_pinned(&external_request(RATE), target).expect("fits"))
            .collect()
    };
    let admitted_total = FED as u64;

    // A fixed byte budget per fed session, inside B = R*D.
    for &session in &fed {
        client.send(&Frame::Data {
            session,
            slices: vec![(RATE, 1); SLICES as usize],
        });
    }

    // StatsDetail polls run the daemon's control-plane poll (and so
    // the interval-gated rebalancer) server-side.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut migrations;
    let mut polls = 0;
    loop {
        client.send(&Frame::StatsDetail);
        let detail = match client.recv() {
            Frame::StatsDetailReply(d) => d,
            other => panic!("expected StatsDetailReply, got {other:?}"),
        };
        migrations = detail.migrations;
        polls += 1;
        if rebalance {
            if migrations >= 1 {
                // The skew must be read as such: donor is the loaded
                // shard, receiver the idle one.
                assert_eq!(detail.last_migration_from, target, "{detail:?}");
                break;
            }
        } else if polls >= 8 {
            break;
        }
        assert!(Instant::now() < deadline, "rebalancer never migrated");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Drain everything, once each: a drain goes to the shard the
    // directory names, and a moved session's import is queued there
    // ahead of it, so no drain can miss its session.
    for &session in &fed {
        client.send(&Frame::Drain { session });
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        client.send(&Frame::Stats);
        let retired = match client.recv() {
            Frame::StatsReply(s) => s.retired,
            other => panic!("expected StatsReply, got {other:?}"),
        };
        if retired == admitted_total {
            break;
        }
        assert!(Instant::now() < deadline, "sessions never retired");
        std::thread::sleep(Duration::from_millis(20));
    }

    client.send(&Frame::Goodbye);
    assert!(matches!(client.recv(), Frame::Bye));
    server.stop();
    let daemon = Arc::try_unwrap(shared)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
    let report = daemon.shutdown(true);
    assert!(report.totals.conserved(), "ledger: {:?}", report.totals);
    assert_eq!(report.totals.offered_bytes, FED as u64 * SLICES * RATE);
    assert_eq!(report.totals.played_bytes, report.totals.offered_bytes);
    (report, migrations)
}

// ------------------------------------------------------------------
// Snapshot/restore: crash consistency and export/import edge cases.
// ------------------------------------------------------------------

/// Builds a deterministic shard population for the snapshot tests:
/// finite CBR sessions of varying rate and lifetime plus externally-fed
/// sessions with oversized slices (so the snapshot catches a partially
/// transmitted FIFO head), warmed up a few slots with pre-snapshot
/// retirements harvested away.
fn snapshot_population(sessions: u64, warmup: u64) -> Shard {
    let mut shard = Shard::new(0, 1 << 10, (1, 1));
    for id in 1..=sessions {
        if id % 4 == 0 {
            // Externally fed; slices wider than the rate straddle slots.
            shard
                .admit(id, &external_request(2 + id % 5))
                .expect("fits the link");
            shard
                .inject(id, &[(7, 1), (5, 2), (3, 1)])
                .expect("fresh session takes data");
        } else {
            shard
                .admit(id, &cbr_request(2 + id % 5, 8 + id % 9))
                .expect("fits the link");
        }
    }
    for _ in 0..warmup {
        shard.process_slot();
    }
    let mut pre = Vec::new();
    shard.take_retirements(&mut pre);
    shard
}

/// Serializes every live session of a shard into snapshot bytes.
fn snapshot_of(shard: &Shard) -> Vec<u8> {
    let mut writer = SnapshotWriter::new();
    for s in shard.iter_sessions() {
        writer.add(s);
    }
    writer.finish()
}

/// The byte offsets where a killed snapshot writer plausibly stops:
/// after the header, after every per-session record, and at every
/// wire-chunk boundary (the snapshot travels in `MAX_SNAPSHOT_CHUNK`
/// frames, so a connection cut mid-stream lands exactly there).
fn kill_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0, SNAPSHOT_HEADER];
    let mut at = SNAPSHOT_HEADER;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len + 4; // length prefix + payload + record CRC
        offsets.push(at.min(bytes.len()));
    }
    let mut chunk = MAX_SNAPSHOT_CHUNK;
    while chunk < bytes.len() {
        offsets.push(chunk);
        chunk += MAX_SNAPSHOT_CHUNK;
    }
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

/// The crash-consistency rig of ISSUE 10: kill the snapshot writer at
/// every record and chunk boundary (plus seeded intra-record offsets),
/// restart from the truncated file, and prove detect-or-restore — a
/// torn snapshot is refused outright (and the refusing daemon admits
/// nothing, so a retry is clean), while the complete file restores a
/// shard whose every retirement matches the uninterrupted run exactly.
#[test]
fn killing_the_snapshot_writer_at_any_offset_detects_or_restores_exactly() {
    let mut original = snapshot_population(40, 5);
    let bytes = snapshot_of(&original);
    assert!(
        bytes.len() > 2 * MAX_SNAPSHOT_CHUNK,
        "population must span several wire chunks, got {} bytes",
        bytes.len()
    );

    // Every boundary cut plus seeded offsets inside records.
    let mut cuts = kill_offsets(&bytes);
    let mut rng = rts_stream::rng::SplitMix64::new(0x7ea_5eed);
    for _ in 0..64 {
        cuts.push(rng.range_u64(1, bytes.len() as u64 - 1) as usize);
    }
    cuts.sort_unstable();
    cuts.dedup();

    // One daemon serves every torn-restore probe: a refused restore
    // must leave it completely empty, so reuse proves all-or-nothing
    // at each step.
    let mut daemon = Daemon::start(DaemonConfig {
        shards: 2,
        shard_link_rate: 1 << 10,
        queue_capacity: 256,
        record_events: false,
        ..DaemonConfig::default()
    });
    for &cut in &cuts {
        assert!(cut <= bytes.len());
        if cut == bytes.len() {
            continue; // the uninterrupted file; restored below
        }
        let torn = &bytes[..cut];
        let parse = rts_smoothd::read_snapshot(torn);
        assert!(
            parse.is_err(),
            "truncation at byte {cut} of {} went undetected",
            bytes.len()
        );
        let restore = daemon.restore(torn);
        assert!(restore.is_err(), "daemon restored a torn file cut at {cut}");
        assert_eq!(
            daemon.live_sessions(),
            0,
            "refused restore (cut {cut}) must admit nothing"
        );
    }

    // The complete file restores into the same daemon the torn probes
    // failed against, and drains with a conserved ledger.
    let expected = read_snapshot(&bytes).expect("uncut snapshot decodes").len() as u64;
    assert_eq!(daemon.restore(&bytes).unwrap(), expected);
    // A draining shutdown settles everything, including the restored
    // externally-fed sessions (which never retire on their own).
    let report = daemon.shutdown(true);
    assert_eq!(report.retired_sessions, expected);
    assert!(report.totals.conserved(), "ledger: {:?}", report.totals);

    // Shard-level oracle: a restored shard's retirements match the
    // uninterrupted original's, cause for cause and byte for byte.
    let mut restored = Shard::new(0, 1 << 10, (1, 1));
    for s in read_snapshot(&bytes).unwrap() {
        restored.import(s).expect("snapshot population fits");
    }
    original.drain_all();
    restored.drain_all();
    assert!(original.run_until_drained(100_000));
    assert!(restored.run_until_drained(100_000));
    let (mut orig_ret, mut rest_ret) = (Vec::new(), Vec::new());
    original.take_retirements(&mut orig_ret);
    restored.take_retirements(&mut rest_ret);
    assert_eq!(orig_ret.len(), rest_ret.len());
    for r in &rest_ret {
        let m = orig_ret
            .iter()
            .find(|m| m.session == r.session)
            .unwrap_or_else(|| panic!("session {} retired only after restore", r.session));
        assert_eq!(r.cause, m.cause, "session {}", r.session);
        assert_eq!(r.counters, m.counters, "session {}", r.session);
        assert!(r.counters.conserved(), "session {}: {:?}", r.session, r.counters);
    }
}

#[test]
fn an_empty_shard_exports_nothing_and_snapshots_to_a_bare_header() {
    let mut shard = Shard::new(0, 64, (1, 1));
    assert!(shard.export_within(u64::MAX).is_empty(), "nothing to export");
    let bytes = snapshot_of(&shard);
    assert_eq!(bytes.len(), SNAPSHOT_HEADER, "header-only snapshot");
    assert_eq!(read_snapshot(&bytes).unwrap().len(), 0);
    // And an empty snapshot restores into a daemon as a clean no-op.
    let mut daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 64,
        queue_capacity: 16,
        record_events: false,
        ..DaemonConfig::default()
    });
    assert_eq!(daemon.restore(&bytes).unwrap(), 0);
    assert_eq!(daemon.live_sessions(), 0);
    daemon.shutdown(false);
}

#[test]
fn a_partially_drained_head_survives_export_import_mid_frame() {
    // An 11-byte slice against a rate-4 reservation takes three slots;
    // one slot in, the FIFO head is mid-frame (4 of 11 bytes sent).
    let build = || {
        let mut shard = Shard::new(0, 64, (1, 1));
        shard.admit(1, &external_request(4)).unwrap();
        shard.inject(1, &[(11, 1), (6, 1)]).unwrap();
        shard.process_slot();
        shard
    };
    let mut donor = build();
    let mut twin = build();

    let session = donor.export(1).expect("live session exports");
    assert!(
        session.in_flight_bytes() > 0,
        "the scenario must catch bytes on the wire"
    );
    let mut receiver = Shard::new(1, 64, (1, 1));
    receiver.import(session).expect("receiver has room");

    // The migrated session finishes exactly like the one that stayed.
    for shard in [&mut receiver, &mut twin] {
        shard.drain_all();
        assert!(shard.run_until_drained(10_000));
    }
    let (mut moved, mut stayed) = (Vec::new(), Vec::new());
    receiver.take_retirements(&mut moved);
    twin.take_retirements(&mut stayed);
    assert_eq!(moved.len(), 1);
    assert_eq!(moved[0].cause, stayed[0].cause);
    assert_eq!(moved[0].counters, stayed[0].counters);
    assert!(moved[0].counters.conserved(), "{:?}", moved[0].counters);
    assert_eq!(moved[0].counters.offered_bytes, 17);
}

#[test]
fn import_into_a_full_shard_rejects_without_losing_the_session() {
    let mut donor = Shard::new(0, 8, (1, 1));
    donor.admit(1, &external_request(8)).unwrap();
    donor.inject(1, &[(8, 1), (8, 1)]).unwrap();

    // The receiver's whole link is booked: the import must bounce.
    let mut full = Shard::new(1, 8, (1, 1));
    full.admit(2, &external_request(8)).unwrap();

    let session = donor.export(1).expect("live session exports");
    let bounced = match full.import(session) {
        Ok(()) => panic!("full shard accepted an import beyond its bookable rate"),
        Err(session) => session, // typed reject hands the session back
    };
    assert_eq!(bounced.id(), 1);

    // No session loss: the donor just released this reservation, so it
    // takes its own session back and every byte still drains.
    donor.import(bounced).expect("donor re-imports its own session");
    // Let the injected slices enter the smoother before draining —
    // arrivals are offered at the next slot boundary.
    donor.process_slot();
    donor.drain_all();
    assert!(donor.run_until_drained(10_000));
    let mut retirements = Vec::new();
    donor.take_retirements(&mut retirements);
    assert_eq!(retirements.len(), 1);
    assert!(retirements[0].counters.conserved());
    assert_eq!(retirements[0].counters.offered_bytes, 16);
    full.drain_all();
    assert!(full.run_until_drained(10_000));
}

#[test]
fn rebalancing_a_skewed_tcp_run_leaves_the_ledger_identical() {
    let (balanced, migrations) = skewed_tcp_run(true);
    assert!(migrations >= 1, "skewed run never migrated");
    let (unbalanced, none) = skewed_tcp_run(false);
    assert_eq!(none, 0, "rebalance off must not migrate");
    // Migration is invisible to the byte ledger: both runs end with
    // exactly the same totals.
    assert_eq!(balanced.totals, unbalanced.totals);
    assert_eq!(balanced.retired_sessions, unbalanced.retired_sessions);
}
