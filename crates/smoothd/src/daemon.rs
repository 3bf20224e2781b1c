//! The daemon proper: shard worker threads and the control plane.
//!
//! Sessions are partitioned across shards; each shard runs on its own
//! worker thread, stepping [`Shard::process_slot`] in a tight loop and
//! draining a bounded command queue between slots. The control plane
//! (admissions, data injection, drain/evict, stats) talks to workers
//! only through those queues, so the hot loop never takes a lock.
//! After every command drain and every slot a worker publishes its
//! shard's gauges to its [`Registry`] block and hands its retirements
//! over; the control plane reads shard state only from there.
//!
//! Every admission takes one path. By Theorem 3.5 (`B = R·D`) a
//! session's reserved rate `R` is its whole claim on a shard, and the
//! control plane books that claim itself, per shard, in an atomic
//! mirror of committed rate. Placement reads only that mirror: a
//! session, or a chunk of a batch, goes to the shard with the widest
//! residual bookable rate that still fits it, ties to the lower index,
//! and [`Daemon::restore`] plans with the same rule. The mirror moves
//! when a command is sent, not when a worker gets to it, so
//! back-to-back admissions see each other and spread across shards.
//!
//! The rebalancer prices shards on the same mirror: a shard's booked
//! rate, weighted by its recent deadline-miss rate. Past a 1.5× spread
//! the control plane asks the dearest shard for sessions worth up to
//! half the booked gap, waits for them, and places each one with the
//! admission rule. A moved session, like a restored one, reaches its new
//! shard as a [`Command::Import`] queued ahead of any later command, so
//! no inject, drain or snapshot can miss it.
//!
//! Admission control happens twice, deliberately:
//!
//! 1. The control plane performs the `B = R·D` feasibility and the
//!    mirror's capacity check before enqueueing, so rejects are
//!    immediate and typed ([`RejectReason`]). The mirror is
//!    conservative: it is incremented before the worker sees the admit
//!    and decremented only after the worker has released the
//!    reservation.
//! 2. The shard's own [`rts_mux::AdmissionController`] remains the
//!    authority inside the worker; by the ordering above it can never
//!    see more committed rate than the mirror allowed.
//!
//! Backpressure is explicit: when a shard's queue is full, data-plane
//! operations fail with [`RejectReason::Backpressure`] instead of
//! blocking the listener.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rts_obs::{Event, LogHistogram, RejectReason};
use rts_stream::{Bytes, Time, Weight};
use rts_telemetry::{MonotonicClock, Registry, ShardTelemetry, SlotClock, SlotPacing};

use crate::frame::{
    AdmitRequest, HistSummary, ShardRow, StatsDetail, StatsSnapshot, MAX_STATS_SHARDS,
};
use crate::session::{ArrivalSource, LiveSession, SessionCounters, SessionId};
use crate::shard::{Retirement, Shard};
use crate::snapshot::{read_snapshot, SnapshotError, SnapshotWriter};

/// Skew-aware rebalancer policy. When enabled, [`Daemon::poll`] runs
/// [`Daemon::rebalance_now`] every 100 ms.
#[derive(Debug, Clone, Default)]
pub struct RebalanceConfig {
    /// Master switch; off means sessions stay where placement put them.
    pub enabled: bool,
}

/// Wall time between the rebalance evaluations [`Daemon::poll`] runs.
const REBALANCE_INTERVAL: Duration = Duration::from_millis(100);

/// Sessions move only while `donor_cost · 1000 > REBALANCE_TRIGGER_MILLI
/// · receiver_cost`. A move halves the booked gap at most, so the band
/// below 1.5× is the hysteresis that keeps a leveled population still.
const REBALANCE_TRIGGER_MILLI: u128 = 1500;

/// Daemon sizing and behaviour.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker (shard) count.
    pub shards: u32,
    /// Link rate guarded by each shard, bytes per slot.
    pub shard_link_rate: Bytes,
    /// Admission overbooking factor `num/den` per shard.
    pub overbook: (u64, u64),
    /// Bound of each shard's command queue; a full queue sheds with
    /// [`RejectReason::Backpressure`].
    pub queue_capacity: usize,
    /// How workers pace their slot loop. [`SlotPacing::Free`] runs
    /// flat out (capacity benchmarks); [`SlotPacing::Deadline`] holds
    /// an absolute-deadline slot period and accounts misses.
    pub pacing: SlotPacing,
    /// Record lifecycle events (joined/retired/rejected) for the
    /// trace sink. Off for pure benchmarks.
    pub record_events: bool,
    /// Skew-aware live-migration policy.
    pub rebalance: RebalanceConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
            shard_link_rate: 1 << 16,
            overbook: (1, 1),
            queue_capacity: 1024,
            pacing: SlotPacing::Free,
            record_events: true,
            rebalance: RebalanceConfig::default(),
        }
    }
}

/// Most sessions one [`Command::Admit`] carries: small enough to spread
/// a batch across shards, large enough to amortize the queue crossing.
const CHUNK: u64 = 1024;

enum Command {
    /// `count` sessions with consecutive ids starting at `first_id`,
    /// all built from the same request: one queue crossing per chunk.
    /// An explicit `source` (single admissions only) feeds the first.
    Admit {
        first_id: SessionId,
        count: u32,
        req: AdmitRequest,
        source: Option<ArrivalSource>,
    },
    Inject {
        id: SessionId,
        slices: Vec<(Bytes, Weight)>,
    },
    Drain {
        id: SessionId,
    },
    Evict {
        id: SessionId,
    },
    /// Hand back resident, non-draining sessions whose rates fit in
    /// `budget` together, for the control plane to place elsewhere.
    Export {
        budget: Bytes,
        reply: SyncSender<Vec<LiveSession>>,
    },
    /// A live session the control plane placed here, migrated or
    /// restored: ring, ledger, and session-local clock intact.
    Import {
        session: Box<LiveSession>,
    },
    /// Serialize every resident session between slots and send the
    /// filled writer back. The worker holds no session across slots,
    /// so the per-shard checkpoint is slot-consistent by construction.
    Snapshot {
        reply: SyncSender<SnapshotWriter>,
    },
    Stop {
        drain: bool,
    },
}

/// Condvar the workers bump whenever retirements land, so
/// [`Daemon::wait_idle`] blocks instead of busy-polling.
#[derive(Default)]
struct IdleSignal {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl IdleSignal {
    fn observe(&self) -> u64 {
        *self.epoch.lock().expect("idle signal poisoned")
    }

    fn bump(&self) {
        *self.epoch.lock().expect("idle signal poisoned") += 1;
        self.cv.notify_all();
    }

    /// Blocks until the epoch advances past `observed` or `timeout`
    /// elapses.
    fn wait_past(&self, observed: u64, timeout: Duration) {
        let guard = self.epoch.lock().expect("idle signal poisoned");
        let _unused = self
            .cv
            .wait_timeout_while(guard, timeout, |epoch| *epoch == observed)
            .expect("idle signal poisoned");
    }
}

struct ShardHandle {
    tx: SyncSender<Command>,
    committed: Arc<AtomicU64>,
    telemetry: Arc<ShardTelemetry>,
    join: JoinHandle<Shard>,
}

/// Outcome of [`Daemon::admit_batch`]: `admitted` sessions with
/// consecutive ids starting at `first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAdmission {
    /// First assigned session id.
    pub first: SessionId,
    /// How many sessions were admitted (`first..first + admitted`).
    pub admitted: u64,
}

/// Final per-shard accounting, extracted at shutdown.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard id.
    pub id: u32,
    /// Slots the worker processed.
    pub slots: u64,
    /// Link rate it guarded.
    pub link_rate: Bytes,
    /// Combined ledger of every session it ever hosted.
    pub counters: SessionCounters,
    /// Largest single-slot byte total sent (`<= link_rate` always).
    pub max_slot_sent: Bytes,
    /// Most sessions resident at once.
    pub peak_sessions: usize,
    /// Per-slot wall latency, nanoseconds.
    pub latency: LogHistogram,
    /// Slots that finished past their deadline (deadline pacing only).
    pub deadline_misses: u64,
    /// Slots whose work alone exceeded the configured period.
    pub slot_overruns: u64,
}

/// What the daemon did over its lifetime.
#[derive(Debug)]
pub struct DaemonReport {
    /// Per-shard breakdowns.
    pub shards: Vec<ShardReport>,
    /// Ledger summed over all shards (conserved after a drained
    /// shutdown).
    pub totals: SessionCounters,
    /// Sessions retired over the daemon's lifetime.
    pub retired_sessions: u64,
    /// Merged per-slot latency histogram.
    pub latency: LogHistogram,
    /// Ingest rejections by reason, [`RejectReason::ALL`] order (the
    /// per-reason breakdown of the aggregate `IngestRejected` count).
    pub rejects: [u64; 6],
}

impl DaemonReport {
    /// `(reason, count)` pairs for the nonzero reject reasons.
    pub fn rejects_by_reason(&self) -> impl Iterator<Item = (RejectReason, u64)> + '_ {
        RejectReason::ALL
            .into_iter()
            .zip(self.rejects.iter().copied())
            .filter(|&(_, n)| n > 0)
    }
}

impl DaemonReport {
    /// Total slots processed across shards.
    pub fn total_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.slots).sum()
    }
}

/// Worker-side context [`apply`] needs beyond the shard itself: the
/// control plane's committed-rate mirror, this shard's telemetry
/// block, the shared retirement sink, and whether a stop arrived.
struct WorkerCtx {
    committed: Arc<AtomicU64>,
    telemetry: Arc<ShardTelemetry>,
    retired: Arc<Mutex<Vec<Retirement>>>,
    idle: Arc<IdleSignal>,
    stopped: bool,
    /// Retirements on their way from the shard to `retired`.
    retire_buf: Vec<Retirement>,
    /// The shard's cumulative (slots, played slices, sent bytes) at the
    /// last publish: the registry takes increments so merges stay exact.
    published: (u64, u64, Bytes),
}

impl WorkerCtx {
    /// Publishes the shard's state to the control plane: the session
    /// gauge and counter increments to the registry block first, then
    /// any retirements, whose rate goes back to the mirror before they
    /// reach the sink and [`Daemon::wait_idle`] is woken.
    fn publish(&mut self, shard: &mut Shard) {
        let stats = shard.stats();
        let t = &self.telemetry;
        t.sessions.set(shard.sessions() as u64);
        t.slots.add(stats.slots - self.published.0);
        t.played_slices.add(stats.played_slices - self.published.1);
        t.sent_bytes.add(stats.sent_bytes - self.published.2);
        self.published = (stats.slots, stats.played_slices, stats.sent_bytes);
        if !shard.has_retirements() {
            return;
        }
        let started = Instant::now();
        shard.take_retirements(&mut self.retire_buf);
        for r in &self.retire_buf {
            self.committed.fetch_sub(r.rate, Ordering::Relaxed);
        }
        self.retired
            .lock()
            .expect("retirement sink poisoned")
            .append(&mut self.retire_buf);
        self.idle.bump();
        t.retire.record(started.elapsed().as_nanos() as u64);
    }
}

fn worker(
    mut shard: Shard,
    rx: Receiver<Command>,
    mut ctx: WorkerCtx,
    pacing: SlotPacing,
) -> Shard {
    let mut clock = SlotClock::new(MonotonicClock::new(), pacing);
    let period_ns = pacing.period().map(|p| p.as_nanos() as u64);
    let mut was_idle = true;
    // A command the idle wait received; the next drain applies it.
    let mut waiting: Option<Command> = None;
    loop {
        // Drain the command queue without blocking the slot cadence.
        let drain_started = Instant::now();
        let mut applied = false;
        loop {
            match waiting.take().map_or_else(|| rx.try_recv(), Ok) {
                Ok(cmd) => {
                    applied = true;
                    apply(&mut shard, cmd, &mut ctx);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    ctx.stopped = true;
                    break;
                }
            }
        }
        if applied {
            ctx.telemetry
                .admit
                .record(drain_started.elapsed().as_nanos() as u64);
            ctx.publish(&mut shard);
        }
        if shard.sessions() == 0 {
            if ctx.stopped {
                break;
            }
            was_idle = true;
            // Idle: wait for work instead of spinning.
            match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(cmd) => waiting = Some(cmd),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        if was_idle {
            // Time parked waiting for work is not lateness: re-anchor
            // the deadline to the moment work actually resumed.
            clock.arm();
            was_idle = false;
        }
        let t0 = Instant::now();
        shard.process_slot();
        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shard.stats_mut().latency.record(nanos);
        ctx.telemetry.process.record(nanos);
        ctx.publish(&mut shard);
        if period_ns.is_some_and(|period| nanos > period) {
            ctx.telemetry.slot_overruns.inc();
        }
        let outcome = clock.pace();
        if outcome.missed {
            ctx.telemetry.deadline_misses.inc();
            ctx.telemetry
                .lateness
                .record(outcome.lateness.as_nanos().min(u64::MAX as u128) as u64);
        }
    }
    ctx.publish(&mut shard);
    shard
}

/// Applies one command; records a stop request in `ctx.stopped`.
fn apply(shard: &mut Shard, cmd: Command, ctx: &mut WorkerCtx) {
    match cmd {
        Command::Admit {
            first_id,
            count,
            req,
            mut source,
        } => {
            for id in first_id..first_id + u64::from(count) {
                let admitted = match source.take() {
                    Some(src) => shard.admit_with_source(id, &req, src),
                    None => shard.admit(id, &req),
                };
                debug_assert!(
                    admitted.is_ok(),
                    "control plane pre-checked admission: {admitted:?}"
                );
            }
        }
        Command::Inject { id, slices } => {
            // A session may have retired between enqueue and apply;
            // stale injections are dropped on the floor.
            let _ = shard.inject(id, &slices);
        }
        Command::Drain { id } => {
            let _ = shard.drain(id);
        }
        Command::Evict { id } => {
            let _ = shard.evict(id);
        }
        Command::Export { budget, reply } => {
            // The control plane blocks on the reply, so it is there to
            // take the sessions.
            let _ = reply.send(shard.export_within(budget));
        }
        Command::Import { session } => {
            // The control plane booked the rate on this shard's mirror
            // before sending, so the shard's own controller cannot
            // refuse it; keep the ledger conserved anyway by evicting
            // in place.
            if let Err(sess) = shard.import(*session) {
                debug_assert!(false, "import admission cannot fail");
                let counters = sess.evict();
                shard.absorb_retired(&counters);
            }
        }
        Command::Snapshot { reply } => {
            let mut w = SnapshotWriter::new();
            for s in shard.iter_sessions() {
                w.add(s);
            }
            // The control plane may have timed out and hung up; a
            // dropped receiver just discards this shard's checkpoint.
            let _ = reply.send(w);
        }
        Command::Stop { drain } => {
            if drain {
                shard.drain_all();
                while shard.sessions() > 0 {
                    shard.process_slot();
                }
            } else {
                shard.evict_all();
            }
            ctx.stopped = true;
        }
    }
}

/// The rate `req` reserves, once it passes the `B = R·D` feasibility
/// check.
fn reserved_rate(req: &AdmitRequest) -> Result<Bytes, RejectReason> {
    let params = Shard::params_of(req)?;
    if params.buffer > params.delay_bandwidth_product() {
        return Err(RejectReason::Infeasible);
    }
    Ok(params.rate)
}

/// The placement rule, for admissions and [`Daemon::restore`] alike:
/// the shard with the widest residual bookable rate that still fits
/// `rate`, ties to the lower index. `None` when no shard fits.
fn place(residuals: impl IntoIterator<Item = Bytes>, rate: Bytes) -> Option<usize> {
    residuals
        .into_iter()
        .enumerate()
        .filter(|&(_, r)| r >= rate)
        .min_by_key(|&(_, r)| std::cmp::Reverse(r))
        .map(|(i, _)| i)
}

/// Handle to a running daemon: admissions, data plane, stats, and
/// shutdown. All methods take `&mut self`; wrap in a `Mutex` to share
/// with listener threads (control operations are short).
pub struct Daemon {
    cfg: DaemonConfig,
    handles: Vec<ShardHandle>,
    directory: HashMap<SessionId, u32>,
    next_id: SessionId,
    bookable_per_shard: Bytes,
    retired_sessions: u64,
    events: Vec<Event>,
    retired: Arc<Mutex<Vec<Retirement>>>,
    retire_scratch: Vec<Retirement>,
    registry: Arc<Registry>,
    idle: Arc<IdleSignal>,
    last_migration: Option<(u32, u32)>,
    last_rebalance: Instant,
    /// Per-shard (slots, deadline misses) at the previous rebalance
    /// evaluation, for windowed miss rates.
    rebalance_marks: Vec<(u64, u64)>,
}

impl Daemon {
    /// Spawns `cfg.shards` workers and returns the control handle.
    pub fn start(cfg: DaemonConfig) -> Daemon {
        assert!(cfg.shards > 0, "daemon needs at least one shard");
        assert!(cfg.shard_link_rate > 0, "shard link rate must be positive");
        let bookable = Shard::new(u32::MAX, cfg.shard_link_rate, cfg.overbook)
            .admission()
            .bookable_capacity();
        let registry = Arc::new(Registry::new(cfg.shards as usize));
        let retired = Arc::new(Mutex::new(Vec::new()));
        let idle = Arc::new(IdleSignal::default());
        let handles = (0..cfg.shards)
            .map(|i| {
                let shard = Shard::new(i, cfg.shard_link_rate, cfg.overbook);
                let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
                let committed = Arc::new(AtomicU64::new(0));
                let telemetry = registry.shard(i as usize);
                let ctx = WorkerCtx {
                    committed: Arc::clone(&committed),
                    telemetry: Arc::clone(&telemetry),
                    retired: Arc::clone(&retired),
                    idle: Arc::clone(&idle),
                    stopped: false,
                    retire_buf: Vec::new(),
                    published: (0, 0, 0),
                };
                let pacing = cfg.pacing;
                let join = std::thread::Builder::new()
                    .name(format!("smoothd-shard-{i}"))
                    .spawn(move || worker(shard, rx, ctx, pacing))
                    .expect("spawn shard worker");
                ShardHandle {
                    tx,
                    committed,
                    telemetry,
                    join,
                }
            })
            .collect();
        let shards = cfg.shards as usize;
        Daemon {
            cfg,
            handles,
            directory: HashMap::new(),
            next_id: 1,
            bookable_per_shard: bookable,
            retired_sessions: 0,
            events: Vec::new(),
            retired,
            retire_scratch: Vec::new(),
            registry,
            idle,
            last_migration: None,
            last_rebalance: Instant::now(),
            rebalance_marks: vec![(0, 0); shards],
        }
    }

    /// The live instrument registry. Cloneable handle: scrapers (the
    /// metrics listener, ingest decode timing) read and write it
    /// without holding the daemon lock.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    fn record(&mut self, event: Event) {
        if self.cfg.record_events {
            self.events.push(event);
        }
    }

    /// Moves accumulated lifecycle events into `out`.
    pub fn take_events(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.events);
    }

    /// Residual bookable rate on `h`'s committed-rate mirror.
    fn residual(&self, h: &ShardHandle) -> Bytes {
        self.bookable_per_shard
            .saturating_sub(h.committed.load(Ordering::Relaxed))
    }

    /// The one admission path: validates `req` once, then admits up to
    /// `count` sessions chunk by chunk until done or refused, and
    /// records the refusal when none was admitted. Returns the first
    /// id, how many were admitted, and the last chunk's shard.
    fn admit_sessions(
        &mut self,
        req: &AdmitRequest,
        count: u64,
        mut source: Option<ArrivalSource>,
        pinned: Option<u32>,
        blocking: bool,
    ) -> Result<(SessionId, u64, u32), RejectReason> {
        let first = self.next_id;
        let mut shard = 0;
        let mut refusal = RejectReason::Capacity;
        match reserved_rate(req) {
            Err(reason) => refusal = reason,
            Ok(rate) => {
                // Directory room for all the mirror can still take, made
                // once, so a batch never rehashes the directory.
                let fits: u64 = self.handles.iter().map(|h| self.residual(h) / rate).sum();
                self.directory.reserve(count.min(fits) as usize);
                while self.next_id - first < count {
                    let wanted = count - (self.next_id - first);
                    match self.admit_chunk(req, rate, wanted, source.take(), pinned, blocking) {
                        Ok(s) => shard = s,
                        Err(reason) => {
                            refusal = reason;
                            break;
                        }
                    }
                }
            }
        }
        let admitted = self.next_id - first;
        if admitted > 0 {
            return Ok((first, admitted, shard));
        }
        let time = self.max_slots();
        self.record(Event::IngestRejected {
            time,
            session: 0,
            reason: refusal,
        });
        self.registry.record_reject(refusal);
        Err(refusal)
    }

    /// Admits one chunk of at most [`CHUNK`] of `wanted` sessions on
    /// `pinned` or else the [`place`]d shard: reserves the chunk's rate
    /// on the mirror, sends one [`Command::Admit`] (waiting on a full
    /// queue only when `blocking`), and records the joins. Returns the
    /// shard.
    fn admit_chunk(
        &mut self,
        req: &AdmitRequest,
        rate: Bytes,
        wanted: u64,
        source: Option<ArrivalSource>,
        pinned: Option<u32>,
        blocking: bool,
    ) -> Result<u32, RejectReason> {
        let shard = match pinned {
            Some(s) if s as usize >= self.handles.len() => {
                return Err(RejectReason::UnknownSession)
            }
            Some(s) => s as usize,
            None => place(self.handles.iter().map(|h| self.residual(h)), rate)
                .ok_or(RejectReason::Capacity)?,
        };
        let h = &self.handles[shard];
        let chunk = wanted.min(CHUNK).min(self.residual(h) / rate);
        if chunk == 0 {
            return Err(RejectReason::Capacity);
        }
        h.committed.fetch_add(rate * chunk, Ordering::Relaxed);
        let cmd = Command::Admit {
            first_id: self.next_id,
            count: chunk as u32,
            req: *req,
            source,
        };
        let sent = if blocking {
            h.tx.send(cmd).is_ok()
        } else {
            h.tx.try_send(cmd).is_ok()
        };
        if !sent {
            h.committed.fetch_sub(rate * chunk, Ordering::Relaxed);
            return Err(RejectReason::Backpressure);
        }
        let ids = self.next_id..self.next_id + chunk;
        let shard = shard as u32;
        if self.cfg.record_events {
            let time = h.telemetry.slots.get();
            self.events.extend(ids.clone().map(|session| Event::SessionJoined {
                time,
                session,
                shard,
                rate,
            }));
        }
        self.directory.extend(ids.map(|id| (id, shard)));
        self.next_id += chunk;
        Ok(shard)
    }

    /// Admits a session, blocking while the target shard's queue is
    /// full (loader / benchmark path).
    pub fn admit(&mut self, req: &AdmitRequest) -> Result<(SessionId, u32), RejectReason> {
        self.admit_sessions(req, 1, None, None, true)
            .map(|(id, _, shard)| (id, shard))
    }

    /// Admits without blocking; a full queue rejects with
    /// [`RejectReason::Backpressure`] (ingest path).
    pub fn try_admit(&mut self, req: &AdmitRequest) -> Result<(SessionId, u32), RejectReason> {
        self.admit_sessions(req, 1, None, None, false)
            .map(|(id, _, shard)| (id, shard))
    }

    /// Admits with an explicit arrival source (trace replay).
    pub fn admit_with_source(
        &mut self,
        req: &AdmitRequest,
        source: ArrivalSource,
    ) -> Result<(SessionId, u32), RejectReason> {
        self.admit_sessions(req, 1, Some(source), None, true)
            .map(|(id, _, shard)| (id, shard))
    }

    /// Admits one session onto an explicit shard instead of the placed
    /// one (load-testing hook: benches and tests use it to build
    /// deliberately skewed populations for the rebalancer to fix).
    pub fn admit_pinned(
        &mut self,
        req: &AdmitRequest,
        shard: u32,
    ) -> Result<SessionId, RejectReason> {
        self.admit_sessions(req, 1, None, Some(shard), true)
            .map(|(id, _, _)| id)
    }

    /// Admits up to `count` identical sessions through the batched
    /// path: ids are consecutive from the returned first id, each chunk
    /// of up to 1024 sessions is placed like one admission, and costs
    /// one bounded-queue push instead of one per session. Returns how
    /// many were actually admitted (capacity may truncate; zero
    /// admissions reject with the blocking reason).
    pub fn admit_batch(
        &mut self,
        req: &AdmitRequest,
        count: u64,
    ) -> Result<BatchAdmission, RejectReason> {
        self.admit_sessions(req, count, None, None, true)
            .map(|(first, admitted, _)| BatchAdmission { first, admitted })
    }

    fn shard_of(&self, id: SessionId) -> Result<u32, RejectReason> {
        self.directory
            .get(&id)
            .copied()
            .ok_or(RejectReason::UnknownSession)
    }

    fn push(&mut self, id: SessionId, cmd: Command) -> Result<(), RejectReason> {
        let shard = self.shard_of(id)?;
        match self.handles[shard as usize].tx.try_send(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                let time = self.max_slots();
                self.record(Event::IngestRejected {
                    time,
                    session: id,
                    reason: RejectReason::Backpressure,
                });
                self.registry.record_reject(RejectReason::Backpressure);
                Err(RejectReason::Backpressure)
            }
        }
    }

    /// Feeds slices to an externally-sourced session.
    pub fn inject(
        &mut self,
        id: SessionId,
        slices: Vec<(Bytes, Weight)>,
    ) -> Result<(), RejectReason> {
        self.push(id, Command::Inject { id, slices })
    }

    /// Requests a graceful drain of one session.
    pub fn drain(&mut self, id: SessionId) -> Result<(), RejectReason> {
        self.push(id, Command::Drain { id })
    }

    /// Evicts one session immediately.
    pub fn evict(&mut self, id: SessionId) -> Result<(), RejectReason> {
        self.push(id, Command::Evict { id })
    }

    /// The retirement half of [`Daemon::poll`], also run at shutdown.
    fn harvest_retirements(&mut self) -> u64 {
        let mut harvested = std::mem::take(&mut self.retire_scratch);
        std::mem::swap(
            &mut harvested,
            &mut *self.retired.lock().expect("retirement sink poisoned"),
        );
        let n = harvested.len() as u64;
        self.retired_sessions += n;
        self.registry.retired.add(n);
        for r in harvested.drain(..) {
            self.directory.remove(&r.session);
            self.record(Event::SessionRetired {
                time: r.slot,
                session: r.session,
                shard: r.shard,
                reason: r.cause,
            });
        }
        self.retire_scratch = harvested;
        n
    }

    /// Harvests worker retirements: updates the directory, counts
    /// them, and records `SessionRetired` events. Returns how many
    /// sessions retired since the last poll. Also drives the
    /// rebalancer when it is enabled and its interval has elapsed.
    pub fn poll(&mut self) -> u64 {
        if self.cfg.rebalance.enabled && self.last_rebalance.elapsed() >= REBALANCE_INTERVAL {
            self.rebalance_now();
        }
        self.harvest_retirements()
    }

    /// Live session count as published by the workers.
    pub fn live_sessions(&self) -> u64 {
        self.handles
            .iter()
            .map(|h| h.telemetry.sessions.get())
            .sum()
    }

    fn max_slots(&self) -> Time {
        self.handles
            .iter()
            .map(|h| h.telemetry.slots.get())
            .max()
            .unwrap_or(0)
    }

    /// A point-in-time aggregate snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions: self.live_sessions(),
            slices_played: self
                .handles
                .iter()
                .map(|h| h.telemetry.played_slices.get())
                .sum(),
            slots: self.max_slots(),
            retired: self.retired_sessions,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.cfg.shards
    }

    /// The detailed live telemetry frame: per-shard rows plus stage
    /// digests, built from the registry without stopping any worker.
    /// Truncated to [`MAX_STATS_SHARDS`] rows (one frame's worth).
    pub fn stats_detail(&self) -> StatsDetail {
        let snap = self.registry.snapshot();
        let shards = snap
            .shards
            .iter()
            .take(MAX_STATS_SHARDS)
            .map(|s| ShardRow {
                shard: s.shard as u32,
                sessions: s.sessions,
                slots: s.slots,
                played: s.played_slices,
                sent_bytes: s.sent_bytes,
                deadline_misses: s.deadline_misses,
                slot_overruns: s.slot_overruns,
                imbalance_milli: s.imbalance_milli,
                latency: HistSummary::from_histogram(&s.latency),
            })
            .collect();
        let (last_from, last_to) = self.last_migration.unwrap_or((u32::MAX, u32::MAX));
        StatsDetail {
            retired: snap.retired,
            rejects: snap.rejects,
            snapshot_bytes: snap.snapshot_bytes,
            snapshot_duration_ns: snap.snapshot_duration_ns,
            restored_sessions: snap.restored_sessions,
            migrations: snap.migrations,
            last_migration_from: last_from,
            last_migration_to: last_to,
            lateness: HistSummary::from_histogram(&snap.lateness),
            stages: [
                HistSummary::from_histogram(&snap.ingest_decode),
                HistSummary::from_histogram(&snap.admit),
                HistSummary::from_histogram(&snap.process),
                HistSummary::from_histogram(&snap.retire),
            ],
            shards,
        }
    }

    /// Checkpoints every resident session into the on-disk snapshot
    /// format without stopping the daemon: each worker serializes its
    /// shard between slots and keeps running. Returns the session
    /// count and the encoded bytes ([`crate::read_snapshot`] inverts
    /// them). Shards checkpoint at independent slot boundaries, which
    /// is sufficient: a session is a function of its own local clock
    /// only, so the combined retire ledger after a restore is
    /// byte-identical to an uninterrupted run.
    pub fn snapshot(&mut self) -> (u64, Vec<u8>) {
        let started = Instant::now();
        let (reply, rx) = mpsc::sync_channel(self.handles.len());
        let mut expected = 0usize;
        for h in &self.handles {
            // Blocking send: the checkpoint must land even when the
            // queue is momentarily full. A hung-up worker (shutdown
            // race) is skipped.
            if h.tx
                .send(Command::Snapshot {
                    reply: reply.clone(),
                })
                .is_ok()
            {
                expected += 1;
            }
        }
        drop(reply);
        let mut merged = SnapshotWriter::new();
        for _ in 0..expected {
            match rx.recv() {
                Ok(w) => merged.merge(w),
                Err(_) => break,
            }
        }
        let sessions = merged.sessions();
        let bytes = merged.finish();
        self.registry.snapshot_bytes.add(bytes.len() as u64);
        self.registry
            .snapshot_duration_ns
            .add(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        (sessions, bytes)
    }

    /// Restores every session from `bytes` (a [`Daemon::snapshot`]
    /// image) into this daemon, placing each by the admission rule (the
    /// widest residual bookable rate that fits, ties to the lower shard)
    /// and reserving its rate before the worker sees it.
    /// All-or-nothing: a torn or corrupt snapshot, a duplicate or
    /// already-resident session id, or a population this daemon cannot
    /// book refuses the whole restore with a typed error and admits
    /// nothing. Returns the number of sessions restored.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        let sessions = read_snapshot(bytes)?;
        let mut seen = std::collections::HashSet::with_capacity(sessions.len());
        for s in &sessions {
            if !seen.insert(s.id()) || self.directory.contains_key(&s.id()) {
                return Err(SnapshotError::Malformed("duplicate session id"));
            }
        }
        // Plan the full placement against a local copy of the mirror
        // before moving anything, so a refused plan admits nothing. The
        // widest rates are planned first (decreasing worst-fit), which
        // books populations that snapshot order would refuse; it is
        // not exact bin packing, so a population that fits only some
        // other way is still refused.
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(sessions[i].rate()));
        let mut residual: Vec<Bytes> = self.handles.iter().map(|h| self.residual(h)).collect();
        let mut placement = vec![0; sessions.len()];
        for i in order {
            let rate = sessions[i].rate();
            let shard =
                place(residual.iter().copied(), rate).ok_or(SnapshotError::Capacity { rate })?;
            residual[shard] -= rate;
            placement[i] = shard;
        }
        let count = sessions.len() as u64;
        for (s, shard) in sessions.into_iter().zip(placement) {
            self.next_id = self.next_id.max(s.id() + 1);
            self.land(s, shard, None);
        }
        self.registry.restored_sessions.add(count);
        Ok(count)
    }

    /// Lands `session` on `shard`: books its rate on the mirror, points
    /// the directory at it, and sends the [`Command::Import`], which
    /// the worker applies before any command sent after it. A session
    /// moved `from` another shard counts as a migration; returns whether
    /// this one did.
    fn land(&mut self, session: LiveSession, shard: usize, from: Option<usize>) -> bool {
        let id = session.id();
        let h = &self.handles[shard];
        h.committed.fetch_add(session.rate(), Ordering::Relaxed);
        h.tx.send(Command::Import {
            session: Box::new(session),
        })
        .expect("shard worker hung up");
        self.directory.insert(id, shard as u32);
        let Some(from) = from.filter(|&from| from != shard) else {
            return false;
        };
        self.handles[from].telemetry.migrations_out.inc();
        h.telemetry.migrations_in.inc();
        self.registry.migrations.inc();
        self.last_migration = Some((from as u32, shard as u32));
        true
    }

    /// One rebalance evaluation, regardless of the interval. Prices
    /// each shard at the rate booked on its mirror times `1000 +` its
    /// deadline-miss rate since the last evaluation (milli-units),
    /// refreshes the per-shard imbalance gauges, and, when the dearest
    /// shard costs more than 1.5× the cheapest (ties to the lower
    /// index), takes back from it sessions worth up to half their
    /// booked gap and places each one like an admission. Waits for the
    /// donor's reply, as [`Daemon::snapshot`] does; a donor whose queue
    /// is full skips the evaluation. Returns the number of sessions
    /// moved.
    pub fn rebalance_now(&mut self) -> u64 {
        self.last_rebalance = Instant::now();
        if self.handles.len() < 2 {
            return 0;
        }
        let booked: Vec<Bytes> = self
            .handles
            .iter()
            .map(|h| h.committed.load(Ordering::Relaxed))
            .collect();
        let mut costs = Vec::with_capacity(booked.len());
        for ((h, mark), &rate) in self
            .handles
            .iter()
            .zip(&mut self.rebalance_marks)
            .zip(&booked)
        {
            let now = (h.telemetry.slots.get(), h.telemetry.deadline_misses.get());
            let slots = now.0.saturating_sub(mark.0);
            let misses = now.1.saturating_sub(mark.1);
            *mark = now;
            let miss_milli = (misses * 1000).checked_div(slots).unwrap_or(0).min(1000);
            costs.push(u128::from(rate) * u128::from(1000 + miss_milli));
        }
        // Publish the imbalance gauges (cost over mean, milli-units)
        // whether or not anything moves.
        let mean = (costs.iter().sum::<u128>() / costs.len() as u128).max(1);
        for (h, &cost) in self.handles.iter().zip(&costs) {
            let gauge = (cost * 1000 / mean).min(u128::from(u64::MAX)) as u64;
            h.telemetry.imbalance_milli.set(gauge);
        }
        let (mut donor, mut receiver) = (0, 0);
        for (i, &cost) in costs.iter().enumerate() {
            if cost > costs[donor] {
                donor = i;
            }
            if cost < costs[receiver] {
                receiver = i;
            }
        }
        let budget = booked[donor].saturating_sub(booked[receiver]) / 2;
        if budget == 0 || costs[donor] * 1000 <= REBALANCE_TRIGGER_MILLI * costs[receiver] {
            return 0;
        }
        let (reply, rx) = mpsc::sync_channel(1);
        if self.handles[donor]
            .tx
            .try_send(Command::Export { budget, reply })
            .is_err()
        {
            // Donor busy: skip this cycle, the next interval retries.
            return 0;
        }
        let Ok(sessions) = rx.recv() else { return 0 };
        let mut moved = 0;
        for s in sessions {
            self.handles[donor]
                .committed
                .fetch_sub(s.rate(), Ordering::Relaxed);
            // Releasing at most half the gap keeps the donor fuller than
            // the receiver, so only retirements racing this can make
            // placement hand a session back to the donor, uncounted.
            let shard =
                place(self.handles.iter().map(|h| self.residual(h)), s.rate()).unwrap_or(donor);
            moved += u64::from(self.land(s, shard, Some(donor)));
        }
        moved
    }

    /// Sessions the rebalancer has moved between shards.
    pub fn migrations(&self) -> u64 {
        self.registry.migrations.get()
    }

    /// Polls until every session has retired or `timeout` elapses.
    /// Returns `true` when fully idle. Blocks on the workers'
    /// retirement condvar between polls instead of busy-sleeping, so
    /// idle detection is prompt and contention-free.
    pub fn wait_idle(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Observe the epoch *before* polling: a retirement landing
            // mid-poll advances it and the wait returns immediately.
            let observed = self.idle.observe();
            self.poll();
            if self.live_sessions() == 0 && self.directory.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Defensive cap so a missed publication can only delay,
            // never wedge; the common path wakes on the condvar bump.
            let wait = (deadline - now).min(Duration::from_millis(250));
            self.idle.wait_past(observed, wait);
        }
    }

    /// Stops the workers — draining every session first when `drain`
    /// is true, evicting otherwise — and merges the final report.
    pub fn shutdown(mut self, drain: bool) -> DaemonReport {
        for h in &self.handles {
            // Blocking send: Stop must arrive even on a full queue.
            let _ = h.tx.send(Command::Stop { drain });
        }
        let mut shards = Vec::with_capacity(self.handles.len());
        let mut totals = SessionCounters::default();
        let mut latency = LogHistogram::new();
        for h in std::mem::take(&mut self.handles) {
            drop(h.tx);
            let shard = h.join.join().expect("shard worker panicked");
            let counters = shard.totals();
            totals.add(&counters);
            latency.merge(&shard.stats().latency);
            shards.push(ShardReport {
                id: shard.id(),
                slots: shard.stats().slots,
                link_rate: shard.admission().link_rate(),
                counters,
                max_slot_sent: shard.stats().max_slot_sent,
                peak_sessions: shard.stats().peak_sessions,
                latency: shard.stats().latency.clone(),
                deadline_misses: h.telemetry.deadline_misses.get(),
                slot_overruns: h.telemetry.slot_overruns.get(),
            });
        }
        // Every worker has handed over its last retirements; count
        // them all for events and the directory.
        self.harvest_retirements();
        DaemonReport {
            shards,
            totals,
            retired_sessions: self.retired_sessions,
            latency,
            rejects: self.registry.rejects(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WirePolicy;

    fn cbr_request(rate: Bytes, lifetime: u64) -> AdmitRequest {
        AdmitRequest {
            rate,
            delay: 3,
            link_delay: 1,
            buffer: 0,
            weight: 1,
            policy: WirePolicy::Tail,
            per_slot: rate as u32,
            slice_size: 1,
            lifetime,
        }
    }

    fn small_config(shards: u32, rate: Bytes) -> DaemonConfig {
        DaemonConfig {
            shards,
            shard_link_rate: rate,
            overbook: (1, 1),
            queue_capacity: 64,
            pacing: SlotPacing::Free,
            record_events: true,
            rebalance: RebalanceConfig::default(),
        }
    }

    #[test]
    fn sessions_complete_and_ledger_conserves() {
        let mut d = Daemon::start(small_config(2, 64));
        for _ in 0..16 {
            d.admit(&cbr_request(4, 12)).expect("capacity available");
        }
        assert!(d.wait_idle(Duration::from_secs(20)), "sessions must finish");
        let report = d.shutdown(true);
        assert!(report.totals.conserved(), "daemon ledger must balance");
        assert_eq!(report.totals.offered_bytes, 16 * 4 * 12);
        assert_eq!(
            report.totals.played_bytes, report.totals.offered_bytes,
            "uncontended sessions play everything"
        );
        assert_eq!(report.retired_sessions, 16);
        for s in &report.shards {
            assert!(s.max_slot_sent <= s.link_rate);
        }
    }

    #[test]
    fn capacity_rejection_is_typed_and_released_on_retirement() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(8, 0)).unwrap();
        assert_eq!(d.admit(&cbr_request(1, 4)), Err(RejectReason::Capacity));
        d.drain(id).unwrap();
        assert!(d.wait_idle(Duration::from_secs(20)));
        d.admit(&cbr_request(8, 4)).expect("capacity came back");
        assert!(d.wait_idle(Duration::from_secs(20)));
        let report = d.shutdown(true);
        assert!(report.totals.conserved());
        assert_eq!(report.retired_sessions, 2);
    }

    #[test]
    fn eviction_shutdown_still_balances_the_ledger() {
        let mut d = Daemon::start(small_config(2, 32));
        for _ in 0..8 {
            d.admit(&cbr_request(4, 0)).unwrap(); // unbounded
        }
        // Give the workers a moment to move bytes.
        std::thread::sleep(Duration::from_millis(20));
        let report = d.shutdown(false);
        assert!(report.totals.conserved(), "evicted ledgers must balance");
        assert!(report.totals.evicted_bytes > 0, "eviction charged the pools");
        assert_eq!(report.retired_sessions, 8);
    }

    #[test]
    fn lifecycle_events_are_recorded() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(4, 6)).unwrap();
        assert!(d.wait_idle(Duration::from_secs(20)));
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        let mut events = Vec::new();
        d.take_events(&mut events);
        assert!(events.iter().any(
            |e| matches!(e, Event::SessionJoined { session, rate, .. } if *session == id && *rate == 4)
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SessionRetired {
                session,
                reason: rts_obs::RetireReason::Completed,
                ..
            } if *session == id
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::IngestRejected { reason: RejectReason::ZeroRate, .. })));
        d.shutdown(true);
    }

    #[test]
    fn deadline_pacing_holds_the_period_on_an_idle_shard() {
        // An idle shard (one tiny CBR session, sub-microsecond slot
        // work) under deadline pacing must realize ≈ slots·period of
        // wall time: the clock absorbs per-slot work instead of adding
        // the interval on top. Lower bound only — a loaded CI box can
        // stretch time, never compress it.
        let period = Duration::from_millis(2);
        let mut cfg = small_config(1, 64);
        cfg.pacing = SlotPacing::Deadline(period);
        let mut d = Daemon::start(cfg);
        let started = Instant::now();
        d.admit(&cbr_request(4, 20)).expect("capacity available");
        assert!(d.wait_idle(Duration::from_secs(30)));
        let elapsed = started.elapsed();
        let report = d.shutdown(true);
        let slots = report.total_slots();
        assert!(slots >= 20, "session lives ≥ its 20-slot lifetime");
        // All but the final slot must each have consumed a full period
        // (admission latency can delay the first arm, hence -1).
        let floor = period * (slots.saturating_sub(1) as u32);
        assert!(
            elapsed >= floor,
            "paced run finished too fast: {elapsed:?} < {slots}·{period:?}"
        );
    }

    #[test]
    fn report_surfaces_per_reason_rejects() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(8, 0)).unwrap();
        assert_eq!(d.admit(&cbr_request(1, 4)), Err(RejectReason::Capacity));
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        d.drain(id).unwrap();
        assert!(d.wait_idle(Duration::from_secs(20)));
        let report = d.shutdown(true);
        let by_reason: Vec<_> = report.rejects_by_reason().collect();
        assert_eq!(
            by_reason,
            vec![(RejectReason::Capacity, 1), (RejectReason::ZeroRate, 2)]
        );
        assert_eq!(
            report.rejects.iter().sum::<u64>(),
            3,
            "per-reason counts add up to the aggregate"
        );
    }

    #[test]
    fn stats_detail_mirrors_the_registry() {
        let mut d = Daemon::start(small_config(2, 64));
        for _ in 0..8 {
            d.admit(&cbr_request(4, 10)).unwrap();
        }
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        assert!(d.wait_idle(Duration::from_secs(20)));
        d.poll();
        let detail = d.stats_detail();
        assert_eq!(detail.shards.len(), 2);
        assert_eq!(detail.retired, 8);
        assert_eq!(detail.rejects.iter().sum::<u64>(), 1);
        let total_slots: u64 = detail.shards.iter().map(|s| s.slots).sum();
        assert!(total_slots > 0, "workers stepped slots");
        // 8 sessions × 4 one-byte slices per slot × 10 slots.
        let total_played: u64 = detail.shards.iter().map(|s| s.played).sum();
        assert_eq!(total_played, 8 * 4 * 10, "every generated slice played");
        // The per-shard latency digests cover every stepped slot.
        let digest_count: u64 = detail.shards.iter().map(|s| s.latency.count).sum();
        assert_eq!(digest_count, total_slots);
        // Stage digests: process mirrors the per-shard latency count.
        assert_eq!(detail.stages[2].count, total_slots);
        d.shutdown(true);
    }

    #[test]
    fn unknown_session_operations_reject() {
        let mut d = Daemon::start(small_config(1, 8));
        assert_eq!(d.drain(999), Err(RejectReason::UnknownSession));
        assert_eq!(d.evict(999), Err(RejectReason::UnknownSession));
        assert_eq!(
            d.inject(999, vec![(1, 1)]),
            Err(RejectReason::UnknownSession)
        );
        d.shutdown(true);
    }

    #[test]
    fn batched_admission_assigns_consecutive_ids_and_conserves() {
        // 2 shards x link 64, rate 4 => 16 bookable per shard, 32 total.
        // Unbounded sessions (lifetime 0) so nothing retires — and frees
        // capacity — between the three admission calls below.
        let mut d = Daemon::start(small_config(2, 64));
        let req = cbr_request(4, 0);
        let batch = d.admit_batch(&req, 24).unwrap();
        assert_eq!(batch.admitted, 24);
        // A second oversized batch truncates at residual capacity...
        let rest = d.admit_batch(&req, 100).unwrap();
        assert_eq!(rest.admitted, 8);
        // ...and a third finds nothing left.
        assert_eq!(d.admit_batch(&req, 1), Err(RejectReason::Capacity));
        // Ids are consecutive from `first`: every one is addressable.
        for id in batch.first..batch.first + batch.admitted {
            assert!(d.drain(id).is_ok(), "id {id} not admitted");
        }
        for id in rest.first..rest.first + rest.admitted {
            assert!(d.drain(id).is_ok(), "id {id} not admitted");
        }
        assert!(d.wait_idle(Duration::from_secs(30)));
        let report = d.shutdown(true);
        assert_eq!(report.retired_sessions, 32);
        assert!(report.totals.conserved(), "{:?}", report.totals);
        assert_eq!(report.totals.evicted_bytes, 0);
    }

    #[test]
    fn back_to_back_batches_split_across_shards() {
        // 2 shards x link 64, rate 4: each batch of 8 fits either shard,
        // and the second must see the first's reservation at once.
        let mut d = Daemon::start(small_config(2, 64));
        let req = cbr_request(4, 0);
        for _ in 0..2 {
            assert_eq!(d.admit_batch(&req, 8).unwrap().admitted, 8);
        }
        let mut events = Vec::new();
        d.take_events(&mut events);
        let mut joined = [0; 2];
        for e in &events {
            if let Event::SessionJoined { shard, .. } = e {
                joined[*shard as usize] += 1;
            }
        }
        assert_eq!(joined, [8, 8]);
        // Sequential admissions alternate on the now-even mirror.
        let shards: Vec<u32> = (0..4).map(|_| d.admit(&req).unwrap().1).collect();
        assert_eq!(shards, vec![0, 1, 0, 1]);
        let report = d.shutdown(false);
        assert_eq!(report.retired_sessions, 20);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn placement_takes_the_widest_fitting_residual_ties_low() {
        assert_eq!(place([8, 16, 16], 4), Some(1));
        assert_eq!(place([16, 8, 16], 4), Some(0));
        assert_eq!(place([3, 7, 5], 6), Some(1));
        assert_eq!(place([3, 7, 5], 8), None);
        assert_eq!(place([], 1), None);
    }

    #[test]
    fn evicting_the_last_session_releases_its_rate() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(8, 0)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        d.evict(id).unwrap();
        // The emptied shard parks idle; its hand-off must not wait for
        // a slot that never comes.
        assert!(d.wait_idle(Duration::from_secs(2)), "eviction never landed");
        d.admit(&cbr_request(8, 4)).expect("the evicted rate came back");
        assert!(d.wait_idle(Duration::from_secs(20)));
        let report = d.shutdown(true);
        assert_eq!(report.retired_sessions, 2);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn pinned_admissions_are_traced_and_their_refusals_counted() {
        let mut d = Daemon::start(small_config(2, 8));
        let id = d.admit_pinned(&cbr_request(8, 0), 1).unwrap();
        assert_eq!(
            d.admit_pinned(&cbr_request(4, 0), 1),
            Err(RejectReason::Capacity)
        );
        assert_eq!(
            d.admit_pinned(&cbr_request(4, 0), 2),
            Err(RejectReason::UnknownSession)
        );
        let mut events = Vec::new();
        d.take_events(&mut events);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SessionJoined { session, shard: 1, rate: 8, .. } if *session == id
        )));
        let refused: Vec<RejectReason> = events
            .iter()
            .filter_map(|e| match e {
                Event::IngestRejected { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(
            refused,
            vec![RejectReason::Capacity, RejectReason::UnknownSession]
        );
        assert_eq!(d.registry().rejects().iter().sum::<u64>(), 2);
        d.shutdown(false);
    }

    #[test]
    fn rebalancer_migrates_a_skewed_population_without_losing_bytes() {
        let mut cfg = small_config(2, 256);
        cfg.rebalance.enabled = true;
        let mut d = Daemon::start(cfg);
        // All load pinned onto shard 0: maximal skew, unbounded CBR so
        // nothing retires out from under the rebalancer.
        let req = cbr_request(4, 0);
        for _ in 0..32 {
            d.admit_pinned(&req, 0).unwrap();
        }
        // The sessions gauge is published by the worker loop; give the
        // queued admissions a moment to land before reading the skew.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut moves = 0;
        while moves == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            moves = d.rebalance_now();
        }
        assert!(moves >= 8, "skewed run scheduled only {moves} move(s)");
        while d.migrations() == 0 && Instant::now() < deadline {
            d.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        // `migrations()` counts the donor's sends; the receiver's gauge
        // moves once the receiver has applied the imports.
        while d.registry().shard(1).sessions.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(d.migrations() >= 1, "no migration completed");
        let detail = d.stats_detail();
        assert!(detail.migrations >= 1);
        assert_eq!(detail.last_migration_from, 0);
        assert_eq!(detail.last_migration_to, 1);
        let moved: u64 = detail.shards[1].sessions;
        assert!(moved >= 1, "receiver shard still empty: {detail:?}");
        // Migrated sessions stay addressable at their new home.
        let report = d.shutdown(false);
        assert_eq!(report.retired_sessions, 32);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn balanced_population_does_not_migrate() {
        let mut cfg = small_config(2, 64);
        cfg.rebalance.enabled = true;
        let mut d = Daemon::start(cfg);
        let req = cbr_request(4, 0);
        for shard in 0..2 {
            for _ in 0..8 {
                d.admit_pinned(&req, shard).unwrap();
            }
        }
        // Read the costs once both workers have applied their admits,
        // or one shard's gauge can lead the other's.
        let deadline = Instant::now() + Duration::from_secs(30);
        while (0..2).any(|i| d.registry().shard(i).sessions.get() < 8) && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Hysteresis: equal costs are left alone.
        assert_eq!(d.rebalance_now(), 0);
        assert_eq!(d.migrations(), 0);
        let report = d.shutdown(false);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn a_balanced_admission_is_left_alone_without_waiting_for_gauges() {
        let req = cbr_request(4, 0);
        for _ in 0..40 {
            let mut d = Daemon::start(small_config(2, 64));
            for shard in 0..2 {
                for _ in 0..8 {
                    d.admit_pinned(&req, shard).unwrap();
                }
            }
            assert_eq!(d.rebalance_now(), 0);
            assert_eq!(d.migrations(), 0);
            d.shutdown(false);
        }
    }

    #[test]
    fn a_snapshot_right_after_rebalancing_holds_every_session() {
        let cfg = DaemonConfig {
            queue_capacity: 1024,
            ..small_config(2, 4096)
        };
        let mut d = Daemon::start(cfg);
        let req = cbr_request(4, 0);
        for _ in 0..512 {
            d.admit_pinned(&req, 0).unwrap();
        }
        // Half the 2048 B/slot booked gap: 256 sessions of rate 4.
        assert_eq!(d.rebalance_now(), 256);
        let (n, bytes) = d.snapshot();
        assert_eq!(n, 512, "a moved session missed the snapshot");
        assert_eq!(read_snapshot(&bytes).unwrap().len(), 512);
        let report = d.shutdown(false);
        assert_eq!(report.retired_sessions, 512);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn injects_and_drains_right_after_rebalancing_reach_moved_sessions() {
        let cfg = DaemonConfig {
            queue_capacity: 256,
            ..small_config(2, 256)
        };
        let mut d = Daemon::start(cfg);
        let fed = AdmitRequest {
            per_slot: 0, // externally fed
            slice_size: 0,
            ..cbr_request(4, 0)
        };
        let ids: Vec<SessionId> = (0..64).map(|_| d.admit_pinned(&fed, 0).unwrap()).collect();
        assert_eq!(d.rebalance_now(), 32);
        for &id in &ids {
            d.inject(id, vec![(4, 1)]).unwrap();
        }
        for &id in &ids {
            d.drain(id).unwrap();
        }
        assert!(
            d.wait_idle(Duration::from_secs(20)),
            "a drain missed its session"
        );
        let report = d.shutdown(true);
        assert_eq!(report.retired_sessions, 64);
        assert_eq!(report.totals.offered_bytes, 64 * 4, "an inject was lost");
        assert_eq!(report.totals.played_bytes, report.totals.offered_bytes);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn restores_are_not_migrations_and_each_move_counts_once() {
        let migrated = |d: &Daemon| {
            let r = d.registry();
            let shards = 0..d.shards() as usize;
            let moved_in: u64 = shards.clone().map(|i| r.shard(i).migrations_in.get()).sum();
            let moved_out: u64 = shards.map(|i| r.shard(i).migrations_out.get()).sum();
            (moved_in, moved_out)
        };
        let mut src = Daemon::start(small_config(1, 64));
        for _ in 0..8 {
            src.admit(&cbr_request(4, 0)).unwrap();
        }
        let (_, bytes) = src.snapshot();
        src.shutdown(false);

        let mut d = Daemon::start(small_config(2, 256));
        assert_eq!(d.restore(&bytes).unwrap(), 8);
        let deadline = Instant::now() + Duration::from_secs(30);
        while d.live_sessions() < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(d.live_sessions(), 8, "the imports were applied");
        assert_eq!(migrated(&d), (0, 0), "a restore is not a migration");
        assert_eq!(d.migrations(), 0);
        // 4 + 16 sessions on shard 0 against 4 on shard 1: half the
        // 64 B/slot gap is 8 sessions of rate 4.
        for _ in 0..16 {
            d.admit_pinned(&cbr_request(4, 0), 0).unwrap();
        }
        let moved = d.rebalance_now();
        assert_eq!(moved, 8);
        assert_eq!(migrated(&d), (moved, moved));
        assert_eq!(d.migrations(), moved);
        let report = d.shutdown(false);
        assert_eq!(report.retired_sessions, 24);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn snapshot_restore_moves_a_live_population_between_daemons() {
        let mut d = Daemon::start(small_config(2, 64));
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(d.admit(&cbr_request(4, 0)).unwrap().0); // unbounded
        }
        // Let the workers move bytes so the checkpoint is mid-flight.
        std::thread::sleep(Duration::from_millis(10));
        let (n, bytes) = d.snapshot();
        assert_eq!(n, 8, "all resident sessions checkpointed");
        // The source daemon keeps running; the checkpoint is passive. A
        // worker publishes its gauge after the drain that answered.
        let deadline = Instant::now() + Duration::from_secs(30);
        while d.live_sessions() < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(d.live_sessions(), 8);

        let mut restored = Daemon::start(small_config(2, 64));
        assert_eq!(restored.restore(&bytes).unwrap(), 8);
        // Restoring the same ids twice must refuse before admitting.
        assert_eq!(
            restored.restore(&bytes),
            Err(SnapshotError::Malformed("duplicate session id"))
        );
        // Every restored session is addressable at its original id.
        for &id in &ids {
            assert!(restored.drain(id).is_ok(), "id {id} lost in restore");
        }
        assert!(restored.wait_idle(Duration::from_secs(20)));
        let report = restored.shutdown(true);
        assert_eq!(report.retired_sessions, 8);
        assert!(report.totals.conserved(), "{:?}", report.totals);
        let src = d.shutdown(false);
        assert!(src.totals.conserved());
    }

    #[test]
    fn restore_refuses_an_oversized_population() {
        let mut d = Daemon::start(small_config(1, 64));
        for _ in 0..4 {
            d.admit(&cbr_request(16, 0)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
        let (n, bytes) = d.snapshot();
        assert_eq!(n, 4);
        d.shutdown(false);
        // A daemon half the size cannot book the rate: nothing lands.
        let mut small = Daemon::start(small_config(1, 32));
        assert_eq!(
            small.restore(&bytes),
            Err(SnapshotError::Capacity { rate: 16 })
        );
        assert_eq!(small.live_sessions(), 0);
        let report = small.shutdown(true);
        assert_eq!(report.retired_sessions, 0);
    }

    #[test]
    fn restore_books_the_widest_rates_first() {
        // Two link-4 shards hold rates 2, 2, 4 only as {2, 2} and {4};
        // placed in snapshot order, the 2s split and strand the 4.
        let mut shard = Shard::new(0, 8, (1, 1));
        for (id, rate) in [(1, 2), (2, 2), (3, 4)] {
            shard.admit(id, &cbr_request(rate, 0)).unwrap();
        }
        let mut w = SnapshotWriter::new();
        for s in shard.iter_sessions() {
            w.add(s);
        }
        let bytes = w.finish();
        let mut d = Daemon::start(small_config(2, 4));
        assert_eq!(d.restore(&bytes), Ok(3));
        let report = d.shutdown(false);
        assert_eq!(report.retired_sessions, 3);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn wait_idle_returns_promptly_after_the_last_retirement() {
        // Deadline pacing, 1 ms slots, 40-slot lifetimes: retirement
        // lands ~40 ms in. The condvar wait must pick it up without
        // burning the rest of the (generous) timeout.
        let cfg = DaemonConfig {
            pacing: SlotPacing::Deadline(Duration::from_millis(1)),
            ..small_config(1, 64)
        };
        let mut d = Daemon::start(cfg);
        for _ in 0..4 {
            d.admit(&cbr_request(4, 40)).unwrap();
        }
        let started = Instant::now();
        assert!(d.wait_idle(Duration::from_secs(60)));
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(10),
            "wait_idle took {waited:?} for a ~40 ms workload"
        );
        let report = d.shutdown(true);
        assert_eq!(report.retired_sessions, 4);
    }
}
