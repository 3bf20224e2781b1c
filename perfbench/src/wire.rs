//! `wire`: the `smoothctl → TCP ingest → shard → playout` path.
//!
//! A generator with two connections (one thread each) admits externally
//! fed sessions with one `AdmitBatch` per connection, then sends open
//! loop at a fixed frame rate whether or not the daemon keeps up: each
//! session sends one seeded MPEG-like whole frame (weighted 12:8:1 for
//! I/P/B) per period at its own seeded phase, and timed `Admit`s for
//! short-lived sessions go out at seeded phases too. An admission's
//! reply time, measured from its due time, is the join latency. A churn
//! session gets one frame once its admission is acknowledged and leaves
//! by a `Drain` sent right behind that frame; the resident sessions
//! leave when their connection says `Goodbye` right after the window.
//! Here the frame decoder, the ingest pool, the daemon mutex and the
//! command queues do the work; the shards step a small population that
//! is idle in most slots.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rts_obs::RejectReason;
use rts_smoothd::{
    encode_frame, serve_tcp, AdmitRequest, Daemon, DaemonConfig, Frame, FrameReader, IngestServer,
    RebalanceConfig, SessionId, SlotPacing, WirePolicy, PROTOCOL_VERSION,
};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::rng::SplitMix64;
use rts_stream::weight::WeightAssignment;
use rts_telemetry::{Registry, RegistrySnapshot};

use crate::host;
use crate::report::Outcome;
use crate::stats::{
    describe_samples, median, median_u64, sample_quantile, sample_window, window, INTERVAL,
    MIN_BEYOND, WARMUP,
};
use crate::trace::Tracer;

/// Generator connections, one thread each.
pub const CONNS: usize = 2;
/// Externally fed sessions each connection admits in its batch.
pub const SESSIONS_PER_CONN: u32 = 500;
/// Producer frame rate; sets the session rate `R`.
const FPS: u64 = 20;
/// One producer frame interval: every resident session sends one frame
/// per period at its own seeded phase, so a connection sends
/// `SESSIONS_PER_CONN · FPS` = 10k frames/s with independent spacing.
const PERIOD: Duration = Duration::from_millis(1000 / FPS);
/// Acks each sub-window needs: its ack p90 must have [`MIN_BEYOND`]
/// samples beyond it, which takes 100, and twice that leaves room for a
/// second in which the generator ran late. The join rate follows from
/// this measurement need, not from a measured join-to-frame ratio of a
/// real service.
const ACKS_PER_SUBWINDOW: u64 = 2 * MIN_BEYOND * 10;
/// Timed `Admit`s per connection per period, at seeded phases: 5, so
/// 200 joins/s over both connections and one frame in 101 is a join.
pub const ADMITS_PER_PERIOD: u32 = (ACKS_PER_SUBWINDOW * PERIOD.as_millis() as u64
    / INTERVAL.as_millis() as u64
    / CONNS as u64) as u32;
/// Slot period of the deadline-paced shards.
const SLOT: Duration = Duration::from_millis(1);
/// Shard workers.
const SHARDS: u32 = 2;
/// Playout delay `D`, slots: `B = R·D` holds a few average frames.
const DELAY: u64 = 200;
/// Trace units to bytes.
const SIZE_SCALE: u64 = 100;
/// Length of the frame-size trace the sessions cycle through.
const TRACE_FRAMES: usize = 4096;
/// Span of the uncounted pauses that spread set-up phases: one period
/// of the accept thread's poll.
const PHASE_SPAN: Duration = Duration::from_millis(1);
/// Longest a batch takes to become resident during set-up.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest the generator waits for outstanding replies at the end.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Set-ups per run; `setup_s` is their median. One takes a few
/// milliseconds, so a few hundred spread the median over about a
/// second instead of one host wake-up.
const SETUPS: usize = 300;
/// Command queue bound per shard: deep enough that a host stall of a
/// few hundred milliseconds does not shed the open-loop load.
const QUEUE: usize = 8192;
/// Bytes the ingest pool reads from a socket at a time.
const INGEST_READ: usize = 4096;
/// Operations the in-process replay issues (traced run only).
const REPLAY_OPS: u64 = 20_000;
/// Thread-name prefixes of the daemon's own threads.
pub const DAEMON_THREADS: [&str; 3] = ["smoothd-shard", "smoothd-ingest", "smoothd-accept"];

/// The seeded frame source every session draws from.
#[derive(Debug, Clone)]
pub struct FrameSource {
    frames: Vec<(u64, u64)>,
    /// Reserved rate per session, bytes per slot.
    pub rate: u64,
}

impl FrameSource {
    /// Frames (size, weight) from a seeded MPEG-like trace; the session
    /// rate sits at the trace's average rate.
    pub fn new(seed: u64) -> FrameSource {
        let trace = MpegSource::new(MpegConfig::cnn_like(), seed).frames(TRACE_FRAMES);
        let frames: Vec<(u64, u64)> = trace
            .frames()
            .iter()
            .map(|&(kind, units)| {
                let size = units.max(1) * SIZE_SCALE;
                (size, WeightAssignment::MPEG_12_8_1.weight_of(kind, size))
            })
            .collect();
        let avg = frames.iter().map(|f| f.0).sum::<u64>() as f64 / frames.len() as f64;
        let slots_per_frame = (1000 / FPS) as f64;
        FrameSource {
            frames,
            rate: (avg / slots_per_frame).round().max(1.0) as u64,
        }
    }

    /// Frame `n` of session `key`.
    pub fn frame(&self, key: u64, n: u64) -> (u64, u64) {
        let len = self.frames.len() as u64;
        self.frames[((key.wrapping_mul(131) + n) % len) as usize]
    }

    /// The admission request every wire session uses.
    pub fn request(&self) -> AdmitRequest {
        AdmitRequest {
            rate: self.rate,
            delay: DELAY,
            link_delay: 1,
            buffer: 0,
            weight: 1,
            policy: WirePolicy::Greedy,
            per_slot: 0,
            slice_size: 0,
            lifetime: 0,
        }
    }
}

/// One event of a connection's open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The next frame of the connection's `k`-th resident session.
    Data(u32),
    /// A timed `Admit` for a short-lived session.
    Admit,
}

/// One period of connection `conn`'s schedule: each resident session's
/// frame and each timed admission at a seeded phase, in time order.
/// Period `p`'s event `i` is due at `start + p·PERIOD + offset_i`.
pub fn schedule(seed: u64, conn: usize) -> Vec<(Duration, Event)> {
    let mut rng = SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let period = PERIOD.as_nanos() as u64;
    let mut events: Vec<(Duration, Event)> = (0..SESSIONS_PER_CONN)
        .map(Event::Data)
        .chain((0..ADMITS_PER_PERIOD).map(|_| Event::Admit))
        .map(|e| (Duration::from_nanos(rng.next_u64() % period), e))
        .collect();
    events.sort_by_key(|&(t, _)| t);
    events
}

/// What one generator connection sent, received and measured.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Each timed `Admit`'s due time and join latency (due → reply), ns.
    pub acks: Vec<(Instant, u64)>,
    /// How late each frame was sent relative to its due time, ns.
    pub lags: Vec<u64>,
    /// Timed `Admit`s sent.
    pub admits_sent: u64,
    /// `Admitted` replies.
    pub admitted: u64,
    /// Admissions refused.
    pub admit_rejected: u64,
    /// Replies that matched no outstanding request.
    pub unexpected: u64,
    /// `Data` frames sent.
    pub data_frames: u64,
    /// Slice bytes of every `Data` frame sent.
    pub data_bytes: u64,
    /// Slice bytes of the frames a drain may still find queued: each
    /// churn session's one frame, sent directly ahead of its `Drain`,
    /// and each resident session's last frame before `Goodbye`.
    pub exposed_bytes: u64,
    /// Slice bytes of `Data` frames the daemon refused.
    pub rejected_bytes: u64,
    /// Refusals of `Data`/`Drain` frames.
    pub frame_rejects: u64,
    /// Refusals that could not be tied to one frame.
    pub ambiguous_rejects: u64,
    /// Replies by reject reason, [`RejectReason::ALL`] order.
    pub rejects: [u64; 6],
    /// Drains sent.
    pub drains: u64,
    /// Every byte written during the window (traced run only).
    pub wire: Vec<u8>,
    /// Spans of this connection.
    pub tracer: Option<Tracer>,
    /// First fatal error, if any.
    pub error: Option<String>,
}

enum Go {
    Start { at: Instant, end: Instant },
    Quit,
}

/// A frame sent but not yet known to be accepted: a later reply to a
/// reply-bearing frame on the same connection confirms it (replies
/// come back in send order, and `Data`/`Drain` are answered only when
/// refused).
#[derive(Debug, Clone, Copy)]
struct Unconfirmed {
    seq: u64,
    session: SessionId,
    bytes: u64,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    buf: Vec<u8>,
    seq: u64,
}

impl Conn {
    fn send(&mut self, frame: &Frame) -> u64 {
        self.out.extend_from_slice(&encode_frame(frame));
        self.seq += 1;
        self.seq
    }

    fn flush_nonblocking(&mut self, copy: Option<&mut Vec<u8>>) -> Result<(), String> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if let Some(copy) = copy {
            copy.extend_from_slice(&self.out[..written]);
        }
        self.out.drain(..written);
        Ok(())
    }

    /// Reads whatever is available; `Ok(false)` on EOF.
    fn fill(&mut self) -> Result<bool, String> {
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Ok(false),
                Ok(n) => self.reader.extend(&self.buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Blocking request/response used at the end of the window.
    fn call(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.send(frame);
        self.flush()?;
        self.reply()
    }

    /// Writes every queued frame, blocking until it is written.
    fn flush(&mut self) -> Result<(), String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        self.out.clear();
        Ok(())
    }

    /// Blocks until the next frame arrives.
    fn reply(&mut self) -> Result<Frame, String> {
        loop {
            if let Some(f) = self.reader.next_frame().map_err(|e| format!("{e:?}"))? {
                return Ok(f);
            }
            let n = self
                .stream
                .read(&mut self.buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection during set-up".into());
            }
            self.reader.extend(&self.buf[..n]);
        }
    }
}

/// One generator connection: waits for the window, then drives it.
fn conn_thread(
    mut conn: Conn,
    first: SessionId,
    index: usize,
    source: FrameSource,
    go: mpsc::Receiver<Go>,
    plan: Vec<(Duration, Event)>,
    traced: bool,
) -> ConnReport {
    let mut rep = ConnReport::default();
    let Ok(Go::Start { at, end }) = go.recv() else {
        let _ = conn.call(&Frame::Goodbye);
        return rep;
    };
    let mut tracer = Tracer::new(traced, crate::epoch());
    let run = Run {
        index,
        first,
        source: &source,
        plan: &plan,
        at,
        end,
    };
    if let Err(e) = drive(&mut conn, &run, &mut rep, &mut tracer) {
        rep.error = Some(e);
    }
    rep.tracer = Some(tracer);
    rep
}

fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(Conn {
        stream,
        reader: FrameReader::new(),
        out: Vec::new(),
        buf: vec![0; 64 * 1024],
        seq: 0,
    })
}

/// The generator's connections, greeted and each holding its resident
/// batch. Both greet at once, the first with its batch right behind its
/// `Hello`; each later batch goes out once the previous one is
/// resident: the router prices shards on the sessions they last
/// published, so two batches in flight at once land on one shard in
/// some runs and split in others.
fn open_conns(
    addr: std::net::SocketAddr,
    source: &FrameSource,
    reg: &Registry,
) -> Result<Vec<(Conn, SessionId)>, String> {
    let mut conns = (0..CONNS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let batch = Frame::AdmitBatch {
        count: SESSIONS_PER_CONN,
        req: source.request(),
    };
    for (i, c) in conns.iter_mut().enumerate() {
        c.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        if i == 0 {
            c.send(&batch);
        }
        c.flush()?;
    }
    for c in &mut conns {
        match c.reply()? {
            Frame::Welcome { .. } => {}
            other => return Err(format!("handshake answered {other:?}")),
        }
    }
    let mut out = Vec::new();
    for (i, mut c) in conns.into_iter().enumerate() {
        if i > 0 {
            c.send(&batch);
            c.flush()?;
        }
        let first = match c.reply()? {
            Frame::AdmittedBatch {
                first_session,
                count,
            } if count == SESSIONS_PER_CONN => first_session,
            other => return Err(format!("batch admission answered {other:?}")),
        };
        wait_resident(reg, (i as u64 + 1) * SESSIONS_PER_CONN as u64)?;
        out.push((c, first));
    }
    Ok(out)
}

/// What one connection's window runs: its sessions, schedule and clock.
struct Run<'a> {
    index: usize,
    first: SessionId,
    source: &'a FrameSource,
    plan: &'a [(Duration, Event)],
    at: Instant,
    end: Instant,
}

impl Run<'_> {
    fn due(&self, event: u64) -> Instant {
        let n = self.plan.len() as u64;
        self.at + PERIOD * (event / n) as u32 + self.plan[(event % n) as usize].0
    }
}

fn drive(
    conn: &mut Conn,
    run: &Run<'_>,
    rep: &mut ConnReport,
    tr: &mut Tracer,
) -> Result<(), String> {
    let (end, source) = (run.end, run.source);
    conn.stream
        .set_nonblocking(true)
        .map_err(|e| e.to_string())?;
    let churn_req = source.request();
    let mut pending_admits: VecDeque<(u64, Instant, u64)> = VecDeque::new();
    let mut unconfirmed: VecDeque<Unconfirmed> = VecDeque::new();
    // Bytes of each resident session's latest frame.
    let mut last_frame = vec![0u64; SESSIONS_PER_CONN as usize];
    let mut event = 0u64;
    let mut marker: Option<u64> = None;
    let mut wire = std::mem::take(&mut rep.wire);
    let mut capture = tr.on();
    let req_base = (run.index as u64 + 1) << 40;
    let mut tail_started: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let generating = now < end;
        // Open loop: every event whose due time has passed is sent now.
        loop {
            let due = run.due(event);
            if due > now || due >= end {
                break;
            }
            rep.lags.push((now - due).as_nanos() as u64);
            let n = run.plan.len() as u64;
            if let Event::Data(k) = run.plan[(event % n) as usize].1 {
                let session = run.first + k as u64;
                let (size, weight) = source.frame(session, event / n);
                let seq = conn.send(&Frame::Data {
                    session,
                    slices: vec![(size, weight)],
                });
                unconfirmed.push_back(Unconfirmed {
                    seq,
                    session,
                    bytes: size,
                });
                rep.data_frames += 1;
                rep.data_bytes += size;
                last_frame[k as usize] = size;
            } else {
                let seq = conn.send(&Frame::Admit(churn_req));
                rep.admits_sent += 1;
                pending_admits.push_back((seq, due, req_base + rep.admits_sent));
            }
            event += 1;
        }
        if !generating && tail_started.is_none() {
            // Final marker: its reply confirms every frame sent before.
            // `Goodbye` follows it and drains the resident sessions.
            rep.exposed_bytes += last_frame.iter().sum::<u64>();
            marker = Some(conn.send(&Frame::Stats));
            tail_started = Some(now);
            capture = false;
        }
        conn.flush_nonblocking(if capture { Some(&mut wire) } else { None })?;
        if !conn.fill()? {
            return Err("daemon closed the connection mid-run".into());
        }
        while let Some(frame) = conn.reader.next_frame().map_err(|e| format!("{e:?}"))? {
            let got = Instant::now();
            let confirm_before = |unconfirmed: &mut VecDeque<Unconfirmed>, seq: u64| {
                while unconfirmed.front().is_some_and(|u| u.seq < seq) {
                    unconfirmed.pop_front();
                }
            };
            match frame {
                Frame::Admitted { session, .. } => {
                    let Some((seq, due, req)) = pending_admits.pop_front() else {
                        rep.unexpected += 1;
                        continue;
                    };
                    confirm_before(&mut unconfirmed, seq);
                    rep.acks.push((due, (got - due).as_nanos() as u64));
                    tr.record("wire.ack", req, due, got);
                    rep.admitted += 1;
                    if got < end {
                        // The session's one frame, and its `Drain`
                        // right behind it.
                        let (size, weight) = source.frame(session, 0);
                        let seq = conn.send(&Frame::Data {
                            session,
                            slices: vec![(size, weight)],
                        });
                        unconfirmed.push_back(Unconfirmed {
                            seq,
                            session,
                            bytes: size,
                        });
                        let seq = conn.send(&Frame::Drain { session });
                        unconfirmed.push_back(Unconfirmed {
                            seq,
                            session,
                            bytes: 0,
                        });
                        rep.data_frames += 1;
                        rep.data_bytes += size;
                        rep.exposed_bytes += size;
                        rep.drains += 1;
                    }
                }
                Frame::Rejected { session: 0, reason } => {
                    rep.rejects[reject_index(reason)] += 1;
                    let Some((seq, _, _)) = pending_admits.pop_front() else {
                        rep.unexpected += 1;
                        continue;
                    };
                    confirm_before(&mut unconfirmed, seq);
                    rep.admit_rejected += 1;
                }
                Frame::Rejected { session, reason } => {
                    rep.rejects[reject_index(reason)] += 1;
                    rep.frame_rejects += 1;
                    let mut hits = unconfirmed.iter().filter(|u| u.session == session);
                    match (hits.next(), hits.next()) {
                        (Some(u), None) => rep.rejected_bytes += u.bytes,
                        _ => rep.ambiguous_rejects += 1,
                    }
                }
                Frame::StatsReply(_) => {
                    if let Some(seq) = marker.take() {
                        confirm_before(&mut unconfirmed, seq + 1);
                    } else {
                        rep.unexpected += 1;
                    }
                }
                _ => rep.unexpected += 1,
            }
        }
        if let Some(t) = tail_started {
            if marker.is_none() && pending_admits.is_empty() {
                break;
            }
            if t.elapsed() > REPLY_TIMEOUT {
                return Err(format!(
                    "{} admits and the final marker still unanswered after {REPLY_TIMEOUT:?}",
                    pending_admits.len()
                ));
            }
        }
        // Sleep until the next due event, polling replies at least every
        // 100 µs.
        let next_due = run.due(event);
        let wake = next_due.min(Instant::now() + Duration::from_micros(100));
        if let Some(d) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    }
    rep.wire = wire;
    // Goodbye drains whatever this connection still owns.
    conn.stream
        .set_nonblocking(false)
        .map_err(|e| e.to_string())?;
    conn.stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    match conn.call(&Frame::Goodbye) {
        Ok(Frame::Bye) | Err(_) => Ok(()),
        Ok(other) => {
            rep.unexpected += 1;
            Err(format!("goodbye answered {other:?}"))
        }
    }
}

fn reject_index(reason: RejectReason) -> usize {
    RejectReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("every reason is listed")
}

/// Facts the `wire` checks judge.
#[derive(Debug, Clone, Default)]
pub struct WireFacts {
    /// Offered bytes in the daemon's ledger after a drained shutdown.
    pub offered_bytes: u64,
    /// Bytes of `Data` frames the daemon accepted.
    pub accepted_bytes: u64,
    /// Bytes of the accepted frames a drain may still have found queued
    /// ([`ConnReport::exposed_bytes`]).
    pub exposed_bytes: u64,
    /// `Protocol` rejects seen by the generator plus those the daemon
    /// counted.
    pub protocol_rejects: u64,
    /// Timed requests sent and the replies they got.
    pub timed_sent: u64,
    /// Replies to timed requests.
    pub timed_answered: u64,
    /// Replies that matched nothing outstanding.
    pub unexpected: u64,
    /// Refusals that could not be tied to one frame.
    pub ambiguous: u64,
    /// Daemon ledger conserved after the drained shutdown.
    pub conserved: bool,
}

/// Accepted `Data` bytes the drained ledger never offered.
///
/// The daemon loses these: a `Drain` applied in the same shard command
/// pass as an `Inject` stops the session's arrivals
/// (`ArrivalSource::stop` clears its queue) before the session took the
/// injected slices in, and no ledger counts them. Only a frame still
/// queued when its session's drain arrives can be lost that way.
pub fn unoffered_bytes(f: &WireFacts) -> u64 {
    f.accepted_bytes.saturating_sub(f.offered_bytes)
}

/// The `wire` checks: the drained ledger offers no byte that no
/// accepted `Data` frame carried, and misses none except from frames a
/// drain may have found queued ([`unoffered_bytes`], reported every
/// run); no frame was a protocol violation; and every timed request got
/// exactly one reply.
pub fn check(f: &WireFacts) -> Vec<String> {
    let mut bad = Vec::new();
    if f.offered_bytes > f.accepted_bytes {
        bad.push(format!(
            "daemon offered {} bytes, more than the {} bytes accepted Data frames carried",
            f.offered_bytes, f.accepted_bytes
        ));
    } else if unoffered_bytes(f) > f.exposed_bytes {
        bad.push(format!(
            "daemon offered {} of {} accepted bytes; the {} missing exceed the {} bytes of frames a drain could have found queued",
            f.offered_bytes,
            f.accepted_bytes,
            unoffered_bytes(f),
            f.exposed_bytes
        ));
    }
    if f.protocol_rejects != 0 {
        bad.push(format!("{} Protocol rejects", f.protocol_rejects));
    }
    if f.timed_answered != f.timed_sent || f.unexpected != 0 {
        bad.push(format!(
            "{} timed requests, {} answered, {} unexpected replies",
            f.timed_sent, f.timed_answered, f.unexpected
        ));
    }
    if f.ambiguous != 0 {
        bad.push(format!(
            "{} refusals not attributable to one frame",
            f.ambiguous
        ));
    }
    if !f.conserved {
        bad.push("daemon ledger not conserved after drained shutdown".into());
    }
    bad
}

struct Running {
    daemon: Arc<Mutex<Daemon>>,
    server: IngestServer,
    gos: Vec<mpsc::Sender<Go>>,
    joins: Vec<std::thread::JoinHandle<ConnReport>>,
}

/// Starts the daemon and the generator; returns them with the set-up
/// time. `phase` (below 1) sets an uncounted pause before the first
/// connection, so set-ups meet the accept thread's 1 ms poll and the
/// ingest pool's idle backoff at spread phases, as clients would,
/// instead of at the one phase a fixed sequence repeats.
fn start(
    source: &FrameSource,
    seed: u64,
    traced: bool,
    phase: f64,
) -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    let link = source.rate * 2000;
    let daemon = Arc::new(Mutex::new(Daemon::start(DaemonConfig {
        shards: SHARDS,
        shard_link_rate: link,
        overbook: (1, 1),
        queue_capacity: QUEUE,
        pacing: SlotPacing::Deadline(SLOT),
        record_events: false,
        rebalance: RebalanceConfig::default(),
    })));
    let server = serve_tcp(Arc::clone(&daemon), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().ok_or("listener has no address")?;
    let reg = daemon.lock().expect("daemon mutex poisoned").registry();
    let p = Instant::now();
    std::thread::sleep(PHASE_SPAN.mul_f64(phase));
    let paused = p.elapsed();
    // The set-up runs on this thread, so no generator thread's wake-up
    // is timed; the generator threads take over the connections after.
    let opened = open_conns(addr, source, &reg);
    let secs = (t0.elapsed() - paused).as_secs_f64();
    let mut running = Running {
        daemon,
        server,
        gos: Vec::new(),
        joins: Vec::new(),
    };
    let conns = match opened {
        Ok(c) => c,
        Err(e) => {
            stop(&mut running);
            return Err(e);
        }
    };
    for (i, (conn, first)) in conns.into_iter().enumerate() {
        let (go_tx, go_rx) = mpsc::channel();
        let src = source.clone();
        let plan = schedule(seed, i);
        let spawned = std::thread::Builder::new()
            .name(format!("perfbench-gen-{i}"))
            .spawn(move || conn_thread(conn, first, i, src, go_rx, plan, traced));
        match spawned {
            Ok(join) => {
                running.joins.push(join);
                running.gos.push(go_tx);
            }
            Err(e) => {
                stop(&mut running);
                return Err(e.to_string());
            }
        }
    }
    Ok((running, secs))
}

/// Waits until the shards publish `n` resident sessions. It yields
/// instead of sleeping, so the time measured is the daemon's, not a
/// sleep's wake-up.
fn wait_resident(reg: &Registry, n: u64) -> Result<(), String> {
    let t = Instant::now();
    loop {
        let resident: u64 = reg.snapshot().shards.iter().map(|s| s.sessions).sum();
        if resident >= n {
            return Ok(());
        }
        if t.elapsed() > READY_TIMEOUT {
            return Err(format!(
                "only {resident} of {n} sessions resident after {READY_TIMEOUT:?}"
            ));
        }
        std::thread::yield_now();
    }
}

/// Tells the generator threads to quit (if still waiting) and joins
/// them; returns their reports.
fn stop(r: &mut Running) -> Vec<ConnReport> {
    for g in &r.gos {
        let _ = g.send(Go::Quit);
    }
    r.joins
        .drain(..)
        .map(|j| {
            j.join().unwrap_or_else(|_| ConnReport {
                error: Some("generator thread panicked".into()),
                ..ConnReport::default()
            })
        })
        .collect()
}

fn teardown(mut r: Running, drain: bool) -> (Vec<ConnReport>, rts_smoothd::DaemonReport) {
    let reports = stop(&mut r);
    r.server.stop();
    let daemon = Arc::try_unwrap(r.daemon)
        .ok()
        .expect("ingest threads have stopped")
        .into_inner()
        .expect("daemon mutex poisoned");
    (reports, daemon.shutdown(drain))
}

fn pct_of(ns: u64, wall: f64) -> f64 {
    ns as f64 / 1e9 / wall * 100.0
}

/// Runs the workload: set-ups (median of several), the open-loop window,
/// a drained shutdown, and the checks. With tracing on it also derives
/// the wire per-layer metrics.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(seed, seconds, tr, &mut out) {
        out.check(false, format!("wire: {e}"));
    }
    out
}

fn run_inner(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let source = FrameSource::new(seed);
    // The measured daemon is the process's first; the other set-ups
    // run after the window, for timing only.
    let s = tr.enter("wire.setup", 0);
    let mut phases = SplitMix64::new(seed ^ 0x5e7u64);
    let mut phase = || (phases.next_u64() % 1024) as f64 / 1024.0;
    let (r, secs) = start(&source, seed, tr.on(), phase())?;
    tr.exit(s);
    let mut setups = vec![secs];
    out.attempted += CONNS as u64 * SESSIONS_PER_CONN as u64;
    let reg = r.daemon.lock().expect("daemon mutex poisoned").registry();

    let at = Instant::now() + Duration::from_millis(20);
    let window_start = at + WARMUP;
    let end = window_start + Duration::from_secs_f64(seconds);
    for g in &r.gos {
        g.send(Go::Start { at, end })
            .map_err(|_| "generator thread gone")?;
    }
    let w = tr.enter("wire.window", 0);
    let samples = sample_window(window_start, seconds, || {
        (reg.snapshot(), host::thread_cpu(&DAEMON_THREADS))
    });
    tr.exit(w);
    let ((t0, (s0, c0)), (t1, (s1, c1))) = (&samples[0], &samples[samples.len() - 1]);
    let wall = (*t1 - *t0).as_secs_f64();
    out.put("rss_mib", host::peak_rss_mib(), "MiB");
    let s = tr.enter("wire.drain", 0);
    let (conns, report) = teardown(r, true);
    tr.exit(s);
    for _ in 1..SETUPS {
        let s = tr.enter("wire.setup", 0);
        let (r, secs) = start(&source, seed, tr.on(), phase())?;
        tr.exit(s);
        setups.push(secs);
        out.attempted += CONNS as u64 * SESSIONS_PER_CONN as u64;
        let (_, report) = teardown(r, false);
        out.check(
            report.totals.conserved(),
            "wire: set-up ledger not conserved",
        );
    }
    out.put("setup_s", median(&setups), "s");
    let mut setup_ns: Vec<u64> = setups.iter().map(|s| (s * 1e9) as u64).collect();
    setup_ns.sort_unstable();
    out.note(describe_samples(
        "set-up (daemon start → listener up and both batches admitted and resident)",
        &setup_ns,
        1e6,
        "ms",
    ));

    let mut acks: Vec<(Instant, u64)> = Vec::new();
    let mut lags: Vec<u64> = Vec::new();
    let mut facts = WireFacts {
        offered_bytes: report.totals.offered_bytes,
        conserved: report.totals.conserved(),
        ..WireFacts::default()
    };
    let mut rejects = [0u64; 6];
    let mut wire_bytes = Vec::new();
    let mut data_frames = 0;
    for (i, c) in conns.into_iter().enumerate() {
        if let Some(e) = &c.error {
            out.check(false, format!("wire: connection {i}: {e}"));
        }
        acks.extend(&c.acks);
        lags.extend(&c.lags);
        facts.accepted_bytes += c.data_bytes - c.rejected_bytes;
        facts.exposed_bytes += c.exposed_bytes;
        facts.timed_sent += c.admits_sent;
        facts.timed_answered += c.admitted + c.admit_rejected;
        facts.unexpected += c.unexpected;
        facts.ambiguous += c.ambiguous_rejects;
        for (k, n) in c.rejects.iter().enumerate() {
            rejects[k] += n;
        }
        out.attempted += c.admits_sent + c.data_frames + c.drains;
        out.failed += c.admit_rejected + c.frame_rejects;
        data_frames += c.data_frames;
        if i == 0 {
            wire_bytes = c.wire;
        }
        if let Some(t) = c.tracer {
            tr.absorb(t);
        }
    }
    let protocol = RejectReason::ALL
        .iter()
        .position(|&r| r == RejectReason::Protocol)
        .expect("listed");
    facts.protocol_rejects = rejects[protocol] + report.rejects[protocol];
    for v in check(&facts) {
        out.check(false, format!("wire: {v}"));
    }
    let unoffered = unoffered_bytes(&facts);
    out.put("wire.unoffered_bytes", unoffered as f64, "B");
    out.note(format!(
        "wire.unoffered_bytes = {unoffered} of {} accepted Data bytes ({:.3}%), at most {} of them in frames a drain could find queued: the daemon drops slices a session was fed in the same shard command pass as its Drain",
        facts.accepted_bytes,
        unoffered as f64 / facts.accepted_bytes.max(1) as f64 * 100.0,
        facts.exposed_bytes
    ));

    lags.sort_unstable();
    // Per sub-window: played slices, daemon CPU, and the quantiles of
    // the acks whose due time falls in it; each metric is the median.
    let played_of = |b: &RegistrySnapshot, a: &RegistrySnapshot| -> u64 {
        b.shards
            .iter()
            .zip(&a.shards)
            .map(|(b, a)| b.played_slices - a.played_slices)
            .sum()
    };
    let cpu_of = |b: &[(String, u64)], a: &[(String, u64)]| -> u64 {
        host::cpu_delta(a, b).iter().map(|(_, ns)| ns).sum()
    };
    // Frames the ingest pool decoded and did not refuse.
    let accepted_of = |b: &RegistrySnapshot, a: &RegistrySnapshot| -> u64 {
        let refused: u64 = b.rejects.iter().zip(&a.rejects).map(|(b, a)| b - a).sum();
        (b.ingest_decode.count() - a.ingest_decode.count()).saturating_sub(refused)
    };
    let (mut rates, mut cpus, mut per_frame) = (vec![], vec![], vec![]);
    let (mut p50s, mut p90s) = (vec![], vec![]);
    for pair in samples.windows(2) {
        let ((a_t, (a_s, a_c)), (b_t, (b_s, b_c))) = (&pair[0], &pair[1]);
        let dt = (*b_t - *a_t).as_secs_f64();
        rates.push(played_of(b_s, a_s) as f64 / dt);
        let cpu = cpu_of(b_c, a_c);
        cpus.push(pct_of(cpu, dt));
        per_frame.push(cpu as f64 / accepted_of(b_s, a_s).max(1) as f64);
        let mut sub: Vec<u64> = acks
            .iter()
            .filter(|(due, _)| *due >= *a_t && *due < *b_t)
            .map(|&(_, ns)| ns)
            .collect();
        sub.sort_unstable();
        if let Some(p50) = sample_quantile(&sub, 0.5) {
            p50s.push(p50 as f64 / 1e3);
        }
        if let Some(p90) = sample_quantile(&sub, 0.9) {
            p90s.push(p90 as f64 / 1e3);
        }
    }
    let mut acks: Vec<u64> = acks.into_iter().map(|(_, ns)| ns).collect();
    acks.sort_unstable();
    out.put("throughput_per_s", median(&rates), "1/s");
    if p50s.is_empty() {
        out.check(false, format!("wire: only {} acks", acks.len()));
    } else {
        out.put("p50_us", median(&p50s), "us");
    }
    if !p90s.is_empty() {
        out.put("p90_us", median(&p90s), "us");
    }
    let daemon_cpu = cpu_of(c1, c0);
    out.put("cpu_ns_per_op", median(&per_frame), "ns");
    out.put("gen.lag_p50_us", median_u64(&lags) / 1e3, "us");
    out.put(
        "gen.lag_max_us",
        lags.last().copied().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    out.note(describe_samples("ack (join latency)", &acks, 1e3, "us"));
    out.note(describe_samples("generator lateness", &lags, 1e3, "us"));
    out.note(format!(
        "ack_p50_us = {:.1}, daemon_cpu_pct = {:.2}, daemon CPU per accepted frame = {:.0} ns (medians over sub-windows; whole window {:.2}%; {} frames sent, {} timed admits, R = {} B/slot, D = {DELAY} slots, offered {} B)",
        out.get("p50_us").unwrap_or(0.0),
        median(&cpus),
        out.get("cpu_ns_per_op").unwrap_or(0.0),
        pct_of(daemon_cpu, wall),
        data_frames,
        facts.timed_sent,
        source.rate,
        facts.offered_bytes
    ));
    let by_group: Vec<String> = DAEMON_THREADS
        .iter()
        .map(|g| {
            let ns: u64 = host::cpu_delta(c0, c1)
                .iter()
                .filter(|(n, _)| n.starts_with(g))
                .map(|(_, ns)| ns)
                .sum();
            format!("{g}* {:.1}%", pct_of(ns, wall))
        })
        .collect();
    out.note(format!(
        "daemon CPU by thread group: {}; sessions per shard at window end: {:?}",
        by_group.join(", "),
        s1.shards.iter().map(|s| s.sessions).collect::<Vec<_>>()
    ));
    out.note(format!(
        "sub-window daemon CPU (%): {:?}",
        cpus.iter()
            .map(|c| (c * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "failed_ratio = {failed_ratio} ({} of {} operations refused)",
        out.failed, out.attempted
    ));
    if tr.on() {
        layer_metrics(out, s0, s1, c0, c1, wall, &wire_bytes, &source, seed, tr);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    s0: &RegistrySnapshot,
    s1: &RegistrySnapshot,
    c0: &[(String, u64)],
    c1: &[(String, u64)],
    wall: f64,
    wire_bytes: &[u8],
    source: &FrameSource,
    seed: u64,
    tr: &mut Tracer,
) {
    let cpu = host::cpu_delta(c0, c1);
    let mean_pct = |prefix: &str| {
        let v: Vec<f64> = cpu
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, ns)| pct_of(*ns, wall))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    out.put("shard.busy_pct", mean_pct("smoothd-shard"), "%");
    out.put("ingest.busy_pct", mean_pct("smoothd-ingest"), "%");
    out.put("ingest.accept_busy_pct", mean_pct("smoothd-accept"), "%");
    let apply = window(&s0.admit, &s1.admit);
    let process = window(&s0.process, &s1.process);
    let lateness = window(&s0.lateness, &s1.lateness);
    out.put("shard.apply_us", apply.quantile(0.5) as f64 / 1e3, "us");
    out.put(
        "shard.sparse_process_slot_us",
        process.quantile(0.5) as f64 / 1e3,
        "us",
    );
    let slots = s1.total_slots() - s0.total_slots();
    let misses = s1.total_misses() - s0.total_misses();
    out.put(
        "shard.deadline_miss_ratio",
        misses as f64 / slots.max(1) as f64,
        "ratio",
    );
    out.put(
        "shard.lateness_p50_us",
        lateness.quantile(0.5) as f64 / 1e3,
        "us",
    );
    out.note(format!(
        "shard cadence: {slots} slots (process p50 over n={}), apply p50 over n={} command drains, {misses} deadline misses, lateness n={} p50={:.1} us (host-sensitive diagnostic)",
        process.count(),
        apply.count(),
        lateness.count(),
        lateness.quantile(0.5) as f64 / 1e3
    ));
    for (k, reason) in RejectReason::ALL.iter().enumerate() {
        out.put(
            format!("ingest.rejects.{}", reason.name()),
            (s1.rejects[k] - s0.rejects[k]) as f64,
            "count",
        );
    }

    // Frame layer: the bytes connection 0 wrote, replayed through the
    // decoder in socket-read-sized pieces (as the ingest pool feeds it)
    // and re-encoded.
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let s = tr.enter("frame.decode", 0);
    let t = Instant::now();
    for piece in wire_bytes.chunks(INGEST_READ) {
        reader.extend(piece);
        while let Ok(Some(f)) = reader.next_frame() {
            frames.push(f);
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64;
    tr.exit(s);
    let s = tr.enter("frame.encode", 0);
    let t = Instant::now();
    let mut bytes = 0usize;
    for f in &frames {
        bytes += std::hint::black_box(encode_frame(f)).len();
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64;
    tr.exit(s);
    out.put("frame.decode_ns", decode_ns, "ns");
    out.put("frame.encode_ns", encode_ns, "ns");
    out.put(
        "frame.bytes",
        bytes as f64 / frames.len().max(1) as f64,
        "B",
    );
    out.check(
        bytes == wire_bytes.len(),
        "wire: replayed frames do not re-encode to the bytes sent",
    );

    // Daemon layer: the same operation mix against an in-process daemon,
    // with no socket.
    let (admit_us, inject_us, drain_us) = replay_ops(source, seed, REPLAY_OPS, tr);
    out.put("daemon.try_admit_us", admit_us, "us");
    out.put("daemon.inject_us", inject_us, "us");
    out.put("daemon.drain_us", drain_us, "us");
    let ack = out.get("p50_us").unwrap_or(0.0);
    let wait = ack - decode_ns / 1e3 - admit_us;
    out.put("ingest.wait_us", wait, "us");
    out.note(format!(
        "additivity (wire): decode {:.2} us + daemon.try_admit {admit_us:.2} us + ingest.wait {wait:.2} us = ack p50 {ack:.2} us; shares {:.1}% / {:.1}% / {:.1}% [{}]",
        decode_ns / 1e3,
        decode_ns / 1e3 / ack * 100.0,
        admit_us / ack * 100.0,
        wait / ack * 100.0,
        if wait >= 0.0 { "adds up" } else { "in-process calls exceed the ack" }
    ));
}

/// Replays connection 0's operation sequence (its batch admission,
/// then its schedule of frames and timed admissions, each churn session
/// fed its one frame and drained right behind it) against an in-process
/// daemon with no socket. Returns the median `try_admit`, `inject` and
/// `drain` call times, µs.
fn replay_ops(source: &FrameSource, seed: u64, ops: u64, tr: &mut Tracer) -> (f64, f64, f64) {
    let mut d = Daemon::start(DaemonConfig {
        shards: SHARDS,
        shard_link_rate: source.rate * 2000,
        overbook: (1, 1),
        queue_capacity: 1 << 16,
        pacing: SlotPacing::Deadline(SLOT),
        record_events: false,
        rebalance: RebalanceConfig::default(),
    });
    let first = d
        .admit_batch(&source.request(), SESSIONS_PER_CONN as u64)
        .map(|b| b.first)
        .unwrap_or(1);
    let plan = schedule(seed, 0);
    let n = plan.len() as u64;
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut timed =
        |k: usize, name: &'static str, req: u64, tr: &mut Tracer, f: &mut dyn FnMut()| {
            let s = tr.enter(name, req);
            let t = Instant::now();
            f();
            times[k].push(t.elapsed().as_nanos() as f64);
            tr.exit(s);
        };
    for ev in 0..ops {
        let req = ev + 1;
        match plan[(ev % n) as usize].1 {
            Event::Data(k) => {
                let id = first + k as u64;
                let slices = vec![source.frame(id, ev / n)];
                timed(1, "daemon.inject", req, tr, &mut || {
                    let _ = d.inject(id, slices.clone());
                });
            }
            Event::Admit => {
                let mut got = None;
                timed(0, "daemon.try_admit", req, tr, &mut || {
                    got = d.try_admit(&source.request()).ok();
                });
                if let Some((id, _)) = got {
                    let slices = vec![source.frame(id, 0)];
                    timed(1, "daemon.inject", req, tr, &mut || {
                        let _ = d.inject(id, slices.clone());
                    });
                    timed(2, "daemon.drain", req, tr, &mut || {
                        let _ = d.drain(id);
                    });
                }
            }
        }
    }
    let _ = d.shutdown(false);
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) / 1e3 };
    (med(&times[0]), med(&times[1]), med(&times[2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> WireFacts {
        WireFacts {
            offered_bytes: 900,
            accepted_bytes: 1000,
            exposed_bytes: 150,
            protocol_rejects: 0,
            timed_sent: 10,
            timed_answered: 10,
            unexpected: 0,
            ambiguous: 0,
            conserved: true,
        }
    }

    #[test]
    fn checks_accept_a_clean_result() {
        assert_eq!(check(&good()), Vec::<String>::new());
        assert_eq!(unoffered_bytes(&good()), 100);
        let exact = WireFacts {
            offered_bytes: 1000,
            ..good()
        };
        assert_eq!(check(&exact), Vec::<String>::new());
        assert_eq!(unoffered_bytes(&exact), 0);
    }

    #[test]
    fn checks_reject_corrupted_results() {
        let mut f = good();
        f.offered_bytes = 849;
        assert!(check(&f).iter().any(|v| v.contains("missing exceed")));
        let mut f = good();
        f.offered_bytes = 1001;
        assert!(check(&f).iter().any(|v| v.contains("more than")));
        let mut f = good();
        f.protocol_rejects = 1;
        assert!(check(&f).iter().any(|v| v.contains("Protocol")));
        let mut f = good();
        f.timed_answered = 9;
        assert!(check(&f).iter().any(|v| v.contains("answered")));
        let mut f = good();
        f.unexpected = 1;
        assert!(check(&f).iter().any(|v| v.contains("unexpected")));
        let mut f = good();
        f.conserved = false;
        assert!(check(&f).iter().any(|v| v.contains("conserved")));
    }

    #[test]
    fn inputs_are_seeded() {
        let a = FrameSource::new(5);
        assert_eq!(a.frame(3, 7), FrameSource::new(5).frame(3, 7));
        assert!(a.rate > 10);
        let plan = schedule(5, 0);
        assert_eq!(plan, schedule(5, 0));
        assert_ne!(plan, schedule(5, 1));
        assert_eq!(plan.len(), (SESSIONS_PER_CONN + ADMITS_PER_PERIOD) as usize);
        // The join rate is what a sub-window's ack p90 needs, twice over.
        let per_subwindow = ADMITS_PER_PERIOD as u64
            * CONNS as u64
            * (INTERVAL.as_millis() / PERIOD.as_millis()) as u64;
        assert_eq!(per_subwindow, 200);
        let acks: Vec<u64> = (0..per_subwindow / 2).collect();
        assert!(sample_quantile(&acks, 0.9).is_some());
        assert!(sample_quantile(&acks[1..], 0.9).is_none());
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(plan.iter().all(|&(t, _)| t < PERIOD));
    }
}
